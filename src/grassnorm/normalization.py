"""Normalizations of the Grassmannian and their fundamental tensors.

A normalization assigns to each m-dimensional subspace p a complement
p_star of dimension n - m - 1.  Its first-order behaviour at a pair
(p, p_star) is captured by the fundamental tensor lam[alpha][beta][i][j]
with Greek indices on p's frame points (0..m) and Latin indices on
p_star's frame points (stored with offset, 0..n-m-1): when p's point
beta moves toward p_star's point j, p_star's point i responds toward
p's point alpha with coefficient lam[alpha][beta][i][j].

Flattening the tensor to a rho x rho matrix over row (alpha, i) and
column (beta, j), rho = (m + 1)(n - m), gives the rank of the
normalizing map.  The symmetric part in the simultaneous exchange
(alpha, i) <-> (beta, j) is the metric tensor of the normalization; the
normalization is harmonic when the tensor equals that symmetric part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, FramingFailure, MapUndefined
from .linalg import _frozen, _significant, svd_rank
from .projective_core import MPair, Subspace, _graph_over_frame, adapted_frame

#: default displacement step for finite-difference estimation
DEFAULT_EPS = 1e-5


def _check_grassmann_dims(m: int, n: int):
    if not (0 <= m <= n - 1):
        raise DimensionMismatch(f"require 0 <= m <= n - 1, got m={m}, n={n}")


@dataclass(frozen=True)
class FundamentalTensor:
    """Fundamental tensor lam[alpha][beta][i][j] of a normalization."""

    m: int
    n: int
    lam: np.ndarray

    def __post_init__(self):
        _check_grassmann_dims(self.m, self.n)
        shape = (self.m + 1, self.m + 1, self.n - self.m, self.n - self.m)
        object.__setattr__(self, "lam", _frozen(self.lam, shape, "lam", finite=True))

    @property
    def rho(self) -> int:
        return (self.m + 1) * (self.n - self.m)

    def flattened(self) -> np.ndarray:
        """rho x rho matrix over row (alpha, i), column (beta, j)."""
        return self.lam.transpose(0, 2, 1, 3).reshape(self.rho, self.rho)


@dataclass(frozen=True)
class MetricTensor:
    """Pair-symmetric tensor g[alpha][beta][i][j] of a normalization."""

    m: int
    n: int
    g: np.ndarray

    def __post_init__(self):
        _check_grassmann_dims(self.m, self.n)
        g = np.asarray(self.g, dtype=float)
        sym = 0.5 * (g + g.transpose(1, 0, 3, 2))
        shape = (self.m + 1, self.m + 1, self.n - self.m, self.n - self.m)
        object.__setattr__(self, "g", _frozen(sym, shape, "g", finite=True))

    @property
    def rho(self) -> int:
        return (self.m + 1) * (self.n - self.m)

    def flattened(self) -> np.ndarray:
        return self.g.transpose(0, 2, 1, 3).reshape(self.rho, self.rho)


@dataclass(frozen=True)
class TangentDirection:
    """Displacement coefficients d[i][alpha] of p's spanning points."""

    m: int
    n: int
    d: np.ndarray

    def __post_init__(self):
        _check_grassmann_dims(self.m, self.n)
        d = _frozen(self.d, (self.n - self.m, self.m + 1), "direction", finite=True)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class NormalizingMap:
    """A map assigning to each m-subspace a complementary subspace.

    graph, when given, is the same map in graph coordinates over frames
    F = (F_top | F_bot) split after their first m + 1 columns:
    graph(frames, m, b) takes frames of shape (k, n + 1, n + 1) and b of
    shape (k, n - m, m + 1) and returns c of shape (k, m + 1, n - m) with
    nu(span(F_top + F_bot b)) = span(F_top c + F_bot), frame by frame.
    It raises FramingFailure where an image is no such graph.  The
    estimators use it in place of one fn call per displaced subspace.
    """

    fn: Callable[[Subspace], Subspace]
    graph: Callable[[np.ndarray, int, np.ndarray], np.ndarray] | None = None

    def __call__(self, p: Subspace) -> Subspace:
        return self.fn(p)


def _check_complement(star: Subspace, n: int, m: int):
    if star.ambient_n != n or star.dim != n - m - 1:
        raise MapUndefined("normalizing map returned a wrong-dimensional subspace")


def constant_map(p_star: Subspace) -> NormalizingMap:
    """Normalization sending every subspace to the same complement."""

    def graph(frames, m, b):
        _check_complement(p_star, frames.shape[-1] - 1, m)
        off_frame = FramingFailure("the constant complement is no graph over the frame")
        x = p_star.coord_matrix[None]  # the one complement, broadcast over the frames
        return _graph_over_frame(frames, x, unit_top=False, error=off_frame)

    return NormalizingMap(fn=lambda p: p_star, graph=graph)


def symmetrize_metric(lam: FundamentalTensor) -> MetricTensor:
    """Metric g = (lam + lam with both index pairs exchanged) / 2,
    the symmetrization MetricTensor applies to its input."""
    return MetricTensor(m=lam.m, n=lam.n, g=lam.lam)


def lambda_rank(lam: FundamentalTensor) -> int:
    """Rank of the flattened tensor, the rank of the normalizing map."""
    return svd_rank(lam.flattened())


def metric_inertia(g: MetricTensor) -> tuple[int, int, int]:
    """(positive, negative, null) counts of the eigenvalues of the flattened
    metric, by the rank rule of linalg.  positive + negative is its rank
    and null the dimension of its isotropic distribution: the normalization
    is Riemannian where the metric is definite and semi-Riemannian where
    it is indefinite and nondegenerate."""
    w = np.linalg.eigvalsh(g.flattened())
    counted = _significant(w)
    positive = int(np.count_nonzero(counted & (w > 0.0)))
    negative = int(np.count_nonzero(counted)) - positive
    return positive, negative, g.rho - positive - negative


def harmonic_defect(lam: FundamentalTensor) -> float:
    """Max-abs deviation of lam from its pair-symmetric part."""
    return float(np.max(np.abs(lam.lam - lam.lam.transpose(1, 0, 3, 2)), initial=0.0))


def is_harmonic(lam: FundamentalTensor, tol: float = 1e-9) -> bool:
    """True when lam is pair-symmetric relative to its own scale."""
    scale = float(np.max(np.abs(lam.lam), initial=0.0))
    return harmonic_defect(lam) <= tol * scale


def is_asymptotic_direction(direction: TangentDirection, tol: float = 1e-9) -> bool:
    """True when the direction matrix has rank at most one.

    Checks all 2 x 2 minors of d against tol times the squared max-abs
    entry.  Rank-one directions are exactly the decomposable ones, fixed
    by every translation of the flat chart in the rank-zero case.
    """
    d = direction.d
    scale = float(np.max(np.abs(d), initial=0.0))
    minors = np.abs(
        d[:, None, :, None] * d[None, :, None, :] - d[:, None, None, :] * d[None, :, :, None]
    )
    return float(np.max(minors, initial=0.0)) <= tol * scale * scale


def _graph_stack(
    nu: NormalizingMap, frames: np.ndarray, m: int, b: np.ndarray, off_frame: FramingFailure
) -> np.ndarray:
    """nu in graph coordinates over a stack of frames: the stack c with
    nu(span(F_top[k] + F_bot[k] b[k])) = span(F_top[k] c[k] + F_bot[k]).

    Uses nu.graph when the map has one; otherwise each displaced subspace
    is built and mapped by nu, and the images are written over their
    frames in one stacked solve.  Failures of the map raise MapUndefined
    and images that are no graph over their frame raise off_frame.
    """
    n = frames.shape[-1] - 1
    try:
        if nu.graph is not None:
            return nu.graph(frames, m, b)
        xs = frames[..., : m + 1] + frames[..., m + 1 :] @ b
        stars = [nu(Subspace(ambient_n=n, coord_matrix=x)) for x in xs]
    except FramingFailure as exc:
        raise off_frame from exc
    except MapUndefined:
        raise
    except Exception as exc:
        raise MapUndefined(f"normalizing map failed at a displaced subspace: {exc}") from exc
    for star in stars:
        _check_complement(star, n, m)
    images = np.stack([star.coord_matrix for star in stars])
    return _graph_over_frame(frames, images, unit_top=False, error=off_frame)


def _estimate_in_frames(nu: NormalizingMap, frames: np.ndarray, m: int, eps: float) -> np.ndarray:
    """Fundamental tensor components of nu in each adapted frame of a
    (k, n + 1, n + 1) stack, as one (k, m + 1, m + 1, n - m, n - m) array
    from one graph call over all k * 2 * rho displacements."""
    if not 0.0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    k, gd, ld = len(frames), m + 1, frames.shape[-1] - 1 - m
    rho = gd * ld
    # unit[beta * ld + j] = E_{j, beta}, the move of p's point beta toward point j
    unit = np.eye(rho).reshape(rho, gd, ld).transpose(0, 2, 1)
    # displacements +eps, -eps of each direction in turn, the same for every frame
    b = (unit[:, None] * np.array([eps, -eps])[:, None, None]).reshape(2 * rho, ld, gd)
    off_frame = FramingFailure("displaced complement is not transverse to the reference frame")
    c = _graph_stack(nu, np.repeat(frames, 2 * rho, axis=0), m, np.tile(b, (k, 1, 1)), off_frame)
    c = c.reshape(k, rho, 2, gd, ld)
    diff = (c[:, :, 0] - c[:, :, 1]) / (2.0 * eps)  # diff[f, beta * ld + j][alpha, i]
    return diff.reshape(k, gd, ld, gd, ld).transpose(0, 3, 1, 4, 2)


def estimate_fundamental_tensor(
    nu: NormalizingMap, pair: MPair, eps: float = DEFAULT_EPS
) -> FundamentalTensor:
    """Estimate the fundamental tensor of nu at the pair (p, nu(p)).

    For each Greek-Latin direction (beta, j) the subspace p is displaced
    by moving frame point beta of the pair's adapted frame by +/- eps
    times frame point m + 1 + j.  The displaced complement nu(p') is
    expressed in the adapted frame as columns (C; I); central
    differencing of C across the two displacements gives
    lam[alpha][beta][i][j] with O(eps^2) truncation.
    """
    frame = adapted_frame(pair).frame_matrix
    lam = _estimate_in_frames(nu, frame[None], pair.m, eps)[0]
    return FundamentalTensor(m=pair.m, n=pair.ambient_n, lam=lam)
