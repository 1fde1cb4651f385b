"""Flat chart for rank-zero normalizations.

A constant normalization p -> p_star_0 has vanishing fundamental tensor,
hence zero metric and zero curvature: the induced connection is flat.
The subspaces not meeting p_star_0 form an affine chart of dimension
rho = (m + 1)(n - m): in a frame adapted to p_star_0, such a subspace
has coordinates (T; B'), T invertible, and the matrix B = B' T^-1 is its
chart coordinate.  Chart translations are B -> B + C; the directions
fixed by the degenerate metric structure are exactly the chart matrices
of rank at most one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import curvature_tensor
from .errors import DimensionMismatch, NotComplementary
from .linalg import _frozen, nullspace
from .normalization import (
    FundamentalTensor,
    lambda_rank,
    metric_rank,
    symmetrize_metric,
)
from .projective_core import (
    MPair,
    ProjectiveFrame,
    Subspace,
    _graph_over_frame,
    adapted_frame,
)


@dataclass(frozen=True)
class AffineChartPoint:
    """Chart coordinates b[i][alpha] of a subspace off the chart center."""

    m: int
    n: int
    b: np.ndarray

    def __post_init__(self):
        b = _frozen(self.b, (self.n - self.m, self.m + 1), "chart point", finite=True)
        object.__setattr__(self, "b", b)


def chart_frame(p_star: Subspace) -> ProjectiveFrame:
    """Deterministic frame adapted to the chart center p_star.

    The first column group spans the orthogonal complement of p_star's
    canonical columns, the last group spans p_star itself.
    """
    p0 = Subspace(ambient_n=p_star.ambient_n, coord_matrix=nullspace(p_star.coord_matrix.T))
    return adapted_frame(MPair(p=p0, p_star=p_star))


def stereographic_projection(p: Subspace, p_star: Subspace) -> AffineChartPoint:
    """Chart coordinates of p in the chart centered away from p_star.

    Raises NotComplementary when p meets p_star, where the top block of
    p's frame coordinates is singular.
    """
    if p.ambient_n != p_star.ambient_n:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    m, n = p.dim, p.ambient_n
    if p_star.dim != n - m - 1:
        raise DimensionMismatch(
            f"chart center must have dimension {n - m - 1}, got {p_star.dim}"
        )
    frame = chart_frame(p_star).frame_matrix
    meets = NotComplementary("subspace meets the chart center")
    b = _graph_over_frame(frame, p.coord_matrix, m + 1, unit_top=True, error=meets)
    return AffineChartPoint(m=m, n=n, b=b)


def inverse_projection(chart_point: AffineChartPoint, p_star: Subspace) -> Subspace:
    """Subspace with frame coordinates (I; B) in the chart at p_star."""
    m, n = chart_point.m, chart_point.n
    if p_star.ambient_n != n or p_star.dim != n - m - 1:
        raise DimensionMismatch("chart center does not match the chart point's shape")
    frame = chart_frame(p_star).frame_matrix
    coords = frame @ np.vstack([np.eye(m + 1), chart_point.b])
    return Subspace(ambient_n=n, coord_matrix=coords)


def flatness_report(m: int, n: int) -> dict:
    """Ranks and curvature size of the zero tensor on G(m, n).

    All three values are exactly zero: constant normalizations are flat.
    """
    zero = FundamentalTensor(m=m, n=n, lam=np.zeros((m + 1, m + 1, n - m, n - m)))
    return {
        "lambda_rank": lambda_rank(zero),
        "curvature_max_abs": curvature_tensor(zero).max_abs(),
        "metric_rank": metric_rank(symmetrize_metric(zero)),
    }
