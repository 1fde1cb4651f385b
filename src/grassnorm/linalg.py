"""Small numerical helpers shared across the geometric modules.

Rank and invertibility decisions use singular values with a relative
threshold; canonical subspaces use threshold pivoting on orthonormal bases.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, TensorTooLarge

# The rank rule (_significant): magnitudes at most RANK_RTOL times the largest are zero.
RANK_RTOL = 1e-9

# Threshold pivoting (Duff, Erisman & Reid): pivot residual >= this * largest.
_PIVOT_THRESHOLD = 0.1

# Dense float results larger than this many bytes are refused, not allocated.
DENSE_BUDGET_BYTES = 2**30


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


def _dense_zeros(shape: tuple, what: str) -> np.ndarray:
    """Zeroed float array of the given shape; raises TensorTooLarge,
    before allocating anything, when it would exceed DENSE_BUDGET_BYTES."""
    needed = 8 * math.prod(shape)
    if needed > DENSE_BUDGET_BYTES:
        raise TensorTooLarge(what, needed, DENSE_BUDGET_BYTES)
    return np.zeros(shape)


def _significant(values: np.ndarray) -> np.ndarray:
    """The rank rule: True where |value| > RANK_RTOL times the largest
    |value| along the last axis, so an all-zero row has none."""
    mag = np.abs(values)
    return mag > RANK_RTOL * np.maximum.reduce(mag, axis=-1, keepdims=True, initial=0.0)


def svd_rank(a: np.ndarray) -> int:
    """Numerical rank: the count of significant singular values."""
    s = np.linalg.svd(np.atleast_2d(np.asarray(a, dtype=float)), compute_uv=False)
    return int(np.count_nonzero(_significant(s)))


def _threshold_pivots(q: np.ndarray) -> list:
    """Ascending pivot rows of q, (n+1) x k with orthonormal columns: k
    times, the lowest-index row with residual norm >= _PIVOT_THRESHOLD
    times the largest, whose direction is then projected out of every row.
    This is pivoted Cholesky of q q^T, so the rows depend on span(q) only
    and q q[rows]^-1 stays bounded however small a coordinate of it is."""
    n1, k = q.shape
    gram = q @ q.T
    residual = gram.diagonal()  # squared residual row norms, a view that follows gram
    col, outer = np.empty(n1), np.empty((n1, n1))  # reused: the loop allocates no arrays
    rows = []
    while True:
        norms = residual.tolist()
        tol = _PIVOT_THRESHOLD * _PIVOT_THRESHOLD * max(norms)
        i = next(j for j, x in enumerate(norms) if x >= tol)
        rows.append(i)
        if len(rows) == k:
            return sorted(rows)
        np.multiply(gram[i], 1.0 / math.sqrt(norms[i]), out=col)
        gram -= np.multiply.outer(col, col, out=outer)


def is_invertible(a: np.ndarray) -> bool:
    """True when a is a nonempty square matrix, or a (..., k, k) stack of
    them, with every singular value significant: one SVD, no vectors."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        return False
    s = np.linalg.svd(a, compute_uv=False)
    return bool(np.all(_significant(s)))
