"""Small numerical helpers shared across the geometric modules.

Rank decisions use singular values with a relative threshold; echelon
canonicalization uses partial pivoting with the same relative scale.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Singular values at or below RANK_RTOL times the largest one count as zero.
RANK_RTOL = 1e-9


def as_float_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _frozen(a, shape=None, name: str = "array", finite: bool = False) -> np.ndarray:
    """Read-only C-contiguous float array of a.

    A writeable array that shares memory with the caller's a is copied,
    so freezing never changes the caller's array and later writes to it
    cannot reach the frozen one; an array already read-only is kept.
    Raises DimensionMismatch when shape is given and differs from the
    array's, and ValueError when finite is set and an entry is not.
    """
    arr = np.asarray(a, dtype=float)
    if shape is not None and arr.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {arr.shape}")
    if finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = np.ascontiguousarray(arr)
    if arr.flags.writeable and isinstance(a, np.ndarray) and np.may_share_memory(arr, a):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def svd_rank(a: np.ndarray, rtol: float = RANK_RTOL, atol: float = 0.0) -> int:
    """Numerical rank: singular values above max(rtol * s_max, atol)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(rtol * s[0], atol)))


def nullspace(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the right null space, as columns."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    tol = rtol * s[0] if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > tol))
    return vt[rank:].T


def left_nullspace(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the left null space, as rows."""
    return nullspace(np.asarray(a, dtype=float).T, rtol=rtol).T


def rref(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Reduced row echelon form with partial pivoting and unit pivots.

    Pivot columns come out as exact standard basis vectors, so applying
    the reduction twice reproduces the same matrix.
    """
    r = np.array(a, dtype=float)
    nrows, ncols = r.shape
    scale = np.abs(r).max(initial=0.0)
    if scale == 0.0:
        return r
    tol = rtol * scale
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = row + int(np.argmax(np.abs(r[row:, col])))
        if abs(r[piv, col]) <= tol:
            continue
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = r[row] / r[row, col]
        r[row, col] = 1.0
        for other in range(nrows):
            if other != row and r[other, col] != 0.0:
                r[other] = r[other] - r[other, col] * r[row]
                r[other, col] = 0.0
        row += 1
    return r


def column_echelon(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Column-reduced echelon form: unit pivots, ordered by pivot row."""
    return rref(np.asarray(a, dtype=float).T, rtol=rtol).T


def unit_columns(a: np.ndarray) -> np.ndarray:
    """Rescale columns to unit length with first nonzero entry positive."""
    a = np.array(a, dtype=float)
    for j in range(a.shape[1]):
        norm = np.linalg.norm(a[:, j])
        if norm == 0.0:
            raise ValueError("zero column cannot be normalized")
        a[:, j] /= norm
        nz = np.nonzero(np.abs(a[:, j]) > 1e-14)[0]
        if nz.size and a[nz[0], j] < 0:
            a[:, j] = -a[:, j]
    return a


def min_max_singular(a: np.ndarray):
    """Smallest and largest singular value of a, or of each matrix of a
    (..., k, l) stack."""
    s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    if s.shape[-1] == 0:
        return 0.0, 0.0
    return s[..., -1], s[..., 0]


def is_invertible(a: np.ndarray, rtol: float = RANK_RTOL) -> bool:
    """True when a is square with smin > rtol * smax, or a is a
    (..., k, k) stack and every matrix in it is."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return False
    smin, smax = min_max_singular(a)
    return bool(np.all((smax > 0.0) & (smin > rtol * smax)))
