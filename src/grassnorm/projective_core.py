"""Projective subspaces, complementary pairs, and moving frames.

A point of n-dimensional projective space is a nonzero homogeneous
coordinate vector of length n + 1, taken up to scale.  An m-dimensional
subspace is the span of m + 1 independent points and is stored through a
canonical (n+1) x (m+1) coordinate matrix: a graph over m + 1 threshold
pivot rows holding the identity, pivot columns ordered by pivot row.
Canonical storage makes equality of subspaces plain array comparison.
The same SVD gives orthonormal bases, on which predicates are measured.

An m-pair joins an m-dimensional subspace p with a complementary
subspace p_star of dimension n - m - 1.  Frames adapted to an m-pair put
the spanning points of p first and those of p_star last.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DependentPoints,
    DimensionMismatch,
    InvalidPair,
    SingularFrame,
)
from .linalg import (
    RANK_RTOL,
    _frozen,
    _rank_from_singular_values,
    _threshold_pivots,
    as_float_matrix,
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
    """A projective subspace held in canonical coordinate-matrix form,
    with orthonormal columns spanning it (basis) and orthonormal rows
    cutting it out (equations), both from the SVD of the columns given."""

    ambient_n: int
    coord_matrix: np.ndarray  # (n+1) x (dim+1), canonical columns
    basis: np.ndarray = field(init=False, compare=False, repr=False)
    equations: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        mat = as_float_matrix(self.coord_matrix, "coord_matrix")
        if mat.shape[0] != self.ambient_n + 1:
            raise DimensionMismatch(
                f"coordinate matrix has {mat.shape[0]} rows, expected {self.ambient_n + 1}"
            )
        k = mat.shape[1]
        u, s, _ = np.linalg.svd(mat)
        if _rank_from_singular_values(s) != k:
            raise DependentPoints("spanning points are linearly dependent")
        if not 1 <= k <= mat.shape[0]:
            raise DimensionMismatch("subspace dimension out of range for the ambient space")
        u.flags.writeable = False
        q = u[:, :k]
        rows = _threshold_pivots(q)
        if rows[-1] == k - 1:  # the usual leading pivots: slices index by view, not copy
            rows = slice(0, k)
        eye = np.eye(k)
        if not np.array_equal(mat[rows], eye):  # else already canonical: kept bit for bit
            mat = q @ np.linalg.inv(q[rows])
            mat[rows] = eye
            mat.flags.writeable = False  # fresh, so _frozen keeps it without a copy
        object.__setattr__(self, "coord_matrix", _frozen(mat))
        object.__setattr__(self, "basis", q)
        object.__setattr__(self, "equations", u[:, k:].T)

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
    vecs = [
        r.coords if isinstance(r, HomogeneousPoint) else np.asarray(r, dtype=float).reshape(-1)
        for r in points
    ]
    if not vecs:
        raise DependentPoints("need at least one spanning point")
    length = vecs[0].size
    if any(v.size != length for v in vecs):
        raise DimensionMismatch("spanning points have inconsistent lengths")
    if ambient_n is not None and length != ambient_n + 1:
        raise DimensionMismatch(
            f"points have {length} coordinates, expected {ambient_n + 1}"
        )
    return Subspace(ambient_n=length - 1, coord_matrix=np.column_stack(vecs))


def pair_is_valid(pair: MPair) -> bool:
    """True when p and p_star together span the ambient space: every
    singular value of U X, for p's basis X and p_star's equations U, is
    above RANK_RTOL; the smallest is the sine of the angle between them."""
    ux = pair.p_star.equations @ pair.p.basis
    return svd_rank(ux, rtol=0.0, atol=RANK_RTOL) == ux.shape[0]


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

