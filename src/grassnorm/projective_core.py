"""Projective subspaces, complementary pairs, and moving frames.

A point of n-dimensional projective space is a nonzero homogeneous
coordinate vector of length n + 1, taken up to scale.  An m-dimensional
subspace is the span of m + 1 independent points and is stored through a
canonical (n+1) x (m+1) coordinate matrix: column-reduced echelon form
with unit pivots, pivot columns ordered by pivot row.  Canonical storage
makes equality of subspaces plain array comparison.

An m-pair joins an m-dimensional subspace p with a complementary
subspace p_star of dimension n - m - 1.  Frames adapted to an m-pair put
the spanning points of p first and those of p_star last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DependentPoints,
    DimensionMismatch,
    InvalidPair,
    SingularFrame,
)
from .linalg import (
    _frozen,
    as_float_matrix,
    column_echelon,
    is_invertible,
    svd_rank,
    unit_columns,
)


@dataclass(frozen=True)
class HomogeneousPoint:
    """A projective point: nonzero coordinate vector up to scale."""

    coords: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=float).reshape(-1)
        if v.size < 2:
            raise DimensionMismatch("a projective point needs at least 2 coordinates")
        if not np.all(np.isfinite(v)):
            raise ValueError("point coordinates must be finite")
        if np.max(np.abs(v)) == 0.0:
            raise ValueError("the zero vector is not a projective point")
        object.__setattr__(self, "coords", _frozen(v))

    @property
    def ambient_n(self) -> int:
        return self.coords.size - 1


@dataclass(frozen=True)
class Subspace:
    """A projective subspace held in canonical coordinate-matrix form."""

    ambient_n: int
    coord_matrix: np.ndarray  # (n+1) x (dim+1), canonical columns

    def __post_init__(self):
        mat = as_float_matrix(self.coord_matrix, "coord_matrix")
        if mat.shape[0] != self.ambient_n + 1:
            raise DimensionMismatch(
                f"coordinate matrix has {mat.shape[0]} rows, expected {self.ambient_n + 1}"
            )
        if svd_rank(mat) != mat.shape[1]:
            raise DependentPoints("spanning points are linearly dependent")
        if not 1 <= mat.shape[1] <= mat.shape[0]:
            raise DimensionMismatch("subspace dimension out of range for the ambient space")
        object.__setattr__(self, "coord_matrix", _frozen(column_echelon(mat)))

    @property
    def dim(self) -> int:
        return self.coord_matrix.shape[1] - 1

    def same_as(self, other: "Subspace", atol: float = 1e-9) -> bool:
        """Equality of subspaces via their canonical matrices."""
        return (
            self.ambient_n == other.ambient_n
            and self.coord_matrix.shape == other.coord_matrix.shape
            and bool(np.allclose(self.coord_matrix, other.coord_matrix, atol=atol))
        )


@dataclass(frozen=True)
class MPair:
    """An m-dimensional subspace with a complement of dimension n-m-1."""

    p: Subspace
    p_star: Subspace

    def __post_init__(self):
        if self.p.ambient_n != self.p_star.ambient_n:
            raise DimensionMismatch("pair members live in different ambient spaces")
        n, m = self.p.ambient_n, self.p.dim
        if self.p_star.dim != n - m - 1:
            raise DimensionMismatch(
                f"complement must have dimension {n - m - 1}, got {self.p_star.dim}"
            )

    @property
    def ambient_n(self) -> int:
        return self.p.ambient_n

    @property
    def m(self) -> int:
        return self.p.dim

    def joint_matrix(self) -> np.ndarray:
        """(n+1) x (n+1) matrix with p's columns first, p_star's last."""
        return np.hstack([self.p.coord_matrix, self.p_star.coord_matrix])


@dataclass(frozen=True)
class ProjectiveFrame:
    """An invertible matrix whose columns are frame points."""

    ambient_n: int
    frame_matrix: np.ndarray

    def __post_init__(self):
        mat = as_float_matrix(self.frame_matrix, "frame_matrix")
        k = self.ambient_n + 1
        if mat.shape != (k, k):
            raise DimensionMismatch(f"frame matrix must be {k} x {k}, got {mat.shape}")
        if not is_invertible(mat):
            raise SingularFrame("frame matrix is singular at the working tolerance")
        object.__setattr__(self, "frame_matrix", _frozen(mat))


def subspace_from_points(points, ambient_n: int | None = None) -> Subspace:
    """Span of the given points, canonicalized.

    Parameters
    ----------
    points : sequence of vectors, HomogeneousPoint, or a matrix
        Spanning points.  A two-dimensional array is read as one point
        per row.
    ambient_n : optional ambient dimension check.
    """
    if isinstance(points, np.ndarray) and points.ndim == 2:
        rows = [points[i] for i in range(points.shape[0])]
    else:
        rows = list(points)
    if not rows:
        raise DependentPoints("need at least one spanning point")
    vecs = []
    for r in rows:
        v = r.coords if isinstance(r, HomogeneousPoint) else np.asarray(r, dtype=float)
        vecs.append(v.reshape(-1))
    length = vecs[0].size
    for v in vecs:
        if v.size != length:
            raise DimensionMismatch("spanning points have inconsistent lengths")
    if ambient_n is not None and length != ambient_n + 1:
        raise DimensionMismatch(
            f"points have {length} coordinates, expected {ambient_n + 1}"
        )
    return Subspace(ambient_n=length - 1, coord_matrix=np.column_stack(vecs))


def pair_is_valid(pair: MPair) -> bool:
    """True when p and p_star together span the ambient space."""
    joint = pair.joint_matrix()
    return svd_rank(joint) == joint.shape[0]


def adapted_frame(pair: MPair) -> ProjectiveFrame:
    """Frame with p's canonical points first and p_star's last.

    Columns are rescaled to unit Euclidean length with first nonzero
    entry positive, so the frame is a deterministic function of the pair.
    """
    if not pair_is_valid(pair):
        raise InvalidPair("pair members do not span the ambient space")
    frame = unit_columns(np.hstack([pair.p.coord_matrix, pair.p_star.coord_matrix]))
    return ProjectiveFrame(ambient_n=pair.ambient_n, frame_matrix=frame)


def _graph_over_frame(
    frame: np.ndarray, x: np.ndarray, split: int, unit_top: bool, error: Exception
) -> np.ndarray:
    """Write span(x) as a graph over one block of the frame's points.

    Solves frame @ coords = x and splits the rows of coords at split.
    The unit block (the top rows when unit_top, else the bottom rows)
    must be invertible, otherwise error is raised.  Returns the other
    block times the inverse of the unit block, G, so that span(x) is
    spanned by frame @ (I; G) when unit_top and by frame @ (G; I) when
    not.
    """
    coords = np.linalg.solve(frame, x)
    top, bottom = coords[:split], coords[split:]
    unit, other = (top, bottom) if unit_top else (bottom, top)
    if not is_invertible(unit):
        raise error
    return np.linalg.solve(unit.T, other.T).T

