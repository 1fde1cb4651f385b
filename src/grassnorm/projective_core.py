"""Projective subspaces, complementary pairs, and moving frames.

A point of n-dimensional projective space is a nonzero homogeneous
coordinate vector of length n + 1, taken up to scale.  An m-dimensional
subspace is the span of m + 1 independent points and is stored through a
canonical (n+1) x (m+1) coordinate matrix: a graph over m + 1 threshold
pivot rows holding the identity, pivot columns ordered by pivot row.
Constructors read one point per row of an array.  The same SVD gives
orthonormal bases, on which predicates and equality are measured.

An m-pair joins an m-dimensional subspace p with a complementary
subspace p_star of dimension n - m - 1.  The frame adapted to an m-pair
puts an orthonormal basis of p first and one of p_star last.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DependentPoints, DimensionMismatch, InvalidPair
from .linalg import RANK_RTOL, _frozen, _significant, _threshold_pivots, is_invertible


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
        mat = _frozen(self.coord_matrix, name="coord_matrix", finite=True)
        if mat.ndim != 2 or mat.shape[0] != self.ambient_n + 1:
            raise DimensionMismatch(
                f"coord_matrix must have two axes and {self.ambient_n + 1} rows, got {mat.shape}"
            )
        k = mat.shape[1]
        u, s, _ = np.linalg.svd(mat)
        if np.count_nonzero(_significant(s)) != k:
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
            mat.flags.writeable = False
        object.__setattr__(self, "coord_matrix", mat)
        object.__setattr__(self, "basis", q)
        object.__setattr__(self, "equations", u[:, k:].T)

    @property
    def dim(self) -> int:
        return self.coord_matrix.shape[1] - 1

    def same_as(self, other: "Subspace", atol: float = 1e-9) -> bool:
        """Equality of subspaces up to atol in the sine of the largest
        principal angle between them, ||equations @ other.basis||_2."""
        return (
            self.ambient_n == other.ambient_n
            and self.dim == other.dim
            and bool(np.linalg.norm(self.equations @ other.basis, 2) <= atol)
        )


@dataclass(frozen=True)
class MPair:
    """An m-dimensional subspace p with a complement p_star of dimension
    n-m-1, the two spanning the ambient space.  Checked at construction:
    InvalidPair unless the smallest singular value of U X, for p's basis X
    and p_star's equations U (the sine of their angle), exceeds RANK_RTOL."""

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
        ux = self.p_star.equations @ self.p.basis  # (m+1) x (m+1), nonempty
        if np.linalg.svd(ux, compute_uv=False)[-1] <= RANK_RTOL:
            raise InvalidPair("pair members do not span the ambient space")

    @property
    def ambient_n(self) -> int:
        return self.p.ambient_n

    @property
    def m(self) -> int:
        return self.p.dim


@dataclass(frozen=True)
class ProjectiveFrame:
    """A read-only (n+1) x (n+1) matrix whose columns are frame points.

    Only its shape and finiteness are checked: the frames of
    adapted_frame are invertible by construction.
    """

    ambient_n: int
    frame_matrix: np.ndarray

    def __post_init__(self):
        k = self.ambient_n + 1
        mat = _frozen(self.frame_matrix, (k, k), "frame_matrix", finite=True)
        object.__setattr__(self, "frame_matrix", mat)


def subspace_from_points(points, ambient_n: int | None = None) -> Subspace:
    """Span of the given points, canonicalized.

    Parameters
    ----------
    points : two-dimensional array or sequence of equal-length vectors
        Spanning points, one point per row.
    ambient_n : optional ambient dimension check.
    """
    try:
        rows = np.asarray(points, dtype=float)
    except ValueError as exc:  # ragged or non-numeric rows
        raise DimensionMismatch(f"spanning points do not form an array: {exc}") from exc
    if rows.size == 0:
        raise DependentPoints("need at least one spanning point")
    if rows.ndim != 2:
        raise DimensionMismatch(f"points must be the rows of a 2-D array, got shape {rows.shape}")
    if ambient_n is not None and rows.shape[1] != ambient_n + 1:
        raise DimensionMismatch(
            f"points have {rows.shape[1]} coordinates, expected {ambient_n + 1}"
        )
    return Subspace(ambient_n=rows.shape[1] - 1, coord_matrix=rows.T)


def adapted_frame(pair: MPair) -> ProjectiveFrame:
    """Frame (Q_p | Q_p_star): an orthonormal basis of p, then one of p_star.

    Each Q is the Householder QR factor of that member's canonical
    coord_matrix, with the diagonal of R made positive, so the frame is a
    deterministic function of the pair.  Its singular values are
    sqrt(1 +/- cos theta_i) and 1, for the principal angles theta_i
    between p and p_star, so sigma_min / sigma_max = tan(theta_min / 2)
    >= sin(theta_min) / 2.  MPair requires sin(theta_min) > RANK_RTOL, so
    the frame of every pair is invertible, with condition below
    2 / RANK_RTOL.
    """
    blocks = []
    for member in (pair.p, pair.p_star):
        q, r = np.linalg.qr(member.coord_matrix)
        blocks.append(q * np.copysign(1.0, np.diagonal(r)))
    return ProjectiveFrame(ambient_n=pair.ambient_n, frame_matrix=np.hstack(blocks))


def _graph_over_frame(
    frame: np.ndarray, x: np.ndarray, unit_top: bool, error: Exception
) -> np.ndarray:
    """Write span(x) as a graph over one block of the frame's points.

    Solves frame @ coords = x.  The unit block, the x.shape[-1] top rows
    of coords when unit_top, else its x.shape[-1] bottom rows, must be
    invertible, otherwise error is raised.  Returns the other block times
    the inverse of the unit block, G, so that span(x) is spanned by
    frame @ (I; G) when unit_top and by frame @ (G; I) when not.  frame
    and x may be stacks that broadcast against each other; error is then
    raised when any unit block is singular.
    """
    coords = np.linalg.solve(frame, x)
    split = x.shape[-1] if unit_top else coords.shape[-2] - x.shape[-1]
    top, bottom = coords[..., :split, :], coords[..., split:, :]
    unit, other = (top, bottom) if unit_top else (bottom, top)
    if not is_invertible(unit):
        raise error
    return np.linalg.solve(unit.swapaxes(-1, -2), other.swapaxes(-1, -2)).swapaxes(-1, -2)

