import numpy as np

from grassnorm import FundamentalTensor
from grassnorm.linalg import (
    _frozen,
    is_invertible,
    svd_rank,
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
