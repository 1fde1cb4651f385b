import numpy as np
import pytest

from grassnorm import FundamentalTensor
from grassnorm.linalg import (
    _frozen,
    is_invertible,
    svd_rank,
    unit_columns,
)


def test_svd_rank_exact_cases():
    assert svd_rank(np.zeros((3, 4))) == 0
    assert svd_rank(np.eye(4)) == 4
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    assert svd_rank(a) == 1


def test_svd_rank_absolute_floor():
    # there is no absolute floor: each value is judged against the largest
    a = np.diag([1.0, 1e-3])
    assert svd_rank(a) == 2
    assert svd_rank(np.diag([1e-300, 1e-305])) == 2


def test_unit_columns_normalization_and_sign():
    a = np.array([[-2.0, 0.0], [0.0, 3.0], [2.0, 0.0]])
    u = unit_columns(a)
    np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0)
    # first nonzero entry of each column made positive
    assert u[0, 0] > 0 and u[1, 1] > 0


def loop_unit_columns(a):
    """Column-by-column reference for unit_columns."""
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


def test_unit_columns_bit_equal_to_the_column_loop():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        a = rng.standard_normal((rows, cols))
        a /= np.linalg.norm(a, axis=0)
        # leading entries that land on either side of the 1e-14 sign
        # threshold once each column is normalized
        near = rng.random((rows, cols)) < np.linspace(0.9, 0.1, rows)[:, None]
        a[near] = rng.choice([-1.0, 1.0], near.sum()) * rng.uniform(0.5e-14, 2e-14, near.sum())
        a *= 10.0 ** rng.integers(-6, 7, size=cols)
        assert np.array_equal(unit_columns(a), loop_unit_columns(a))
    # a tiny leading entry below the threshold does not decide the sign
    a = np.array([[-5e-15, 3e-15], [-1.0, 0.0], [2.0, -4.0]])
    u = unit_columns(a)
    assert np.array_equal(u, loop_unit_columns(a))
    assert u[1, 0] > 0 and u[2, 1] > 0


def test_unit_columns_rejects_a_zero_column():
    a = np.array([[1.0, 0.0, 2.0], [0.5, 0.0, -1.0]])
    with pytest.raises(ValueError, match="zero column"):
        unit_columns(a)
    with pytest.raises(ValueError, match="zero column"):
        loop_unit_columns(a)


def test_min_max_singular_and_invertibility():
    assert is_invertible(np.diag([3.0, 0.5]))
    assert not is_invertible(np.diag([3.0, 0.0]))
    assert not is_invertible(np.ones((2, 3)))
    # empty, zero and one-dimensional inputs have no invertible matrix
    assert not is_invertible(np.zeros((0, 0)))
    assert not is_invertible(np.zeros((3, 0, 0)))
    assert not is_invertible(np.zeros((3, 3)))
    assert not is_invertible(np.ones(3))


def test_is_invertible_rejects_a_stack_with_one_singular_member():
    good = np.stack([np.diag([3.0, 0.5]), np.eye(2), [[1.0, 2.0], [0.0, 1.0]]])
    assert is_invertible(good)
    bad = good.copy()
    bad[1] = [[1.0, 2.0], [2.0, 4.0]]  # rank one
    assert not is_invertible(bad)
    # each matrix is judged against its own scale, not the stack's
    assert is_invertible(np.stack([1e-12 * np.eye(3), 1e12 * np.eye(3)]))
    assert not is_invertible(np.ones((4, 2, 3)))
    # the two-dimensional rule is unchanged
    assert is_invertible(np.diag([1.0, 2e-9]))
    assert not is_invertible(np.diag([1.0, 1e-9]))


def test_freezing_leaves_the_callers_array_alone():
    a = np.zeros((2, 2, 2, 2))
    ft = FundamentalTensor(m=1, n=3, lam=a)
    assert a.flags.writeable
    a[0, 0, 0, 0] = 1.0
    assert ft.lam[0, 0, 0, 0] == 0.0
    assert not ft.lam.flags.writeable
    # a read-only array is kept as it is, with no copy
    b = np.ones((2, 2))
    b.flags.writeable = False
    assert _frozen(b) is b
