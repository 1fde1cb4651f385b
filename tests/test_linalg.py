import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grassnorm import FundamentalTensor
from grassnorm.linalg import (
    _frozen,
    column_echelon,
    is_invertible,
    left_nullspace,
    min_max_singular,
    nullspace,
    rref,
    svd_rank,
    unit_columns,
)

from _gen import random_invertible


finite_entries = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def random_matrix_strategy(max_side: int = 5):
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side), st.integers(0, 2**31 - 1)
    )


def test_svd_rank_exact_cases():
    assert svd_rank(np.zeros((3, 4))) == 0
    assert svd_rank(np.eye(4)) == 4
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    assert svd_rank(a) == 1


def test_svd_rank_absolute_floor():
    a = np.diag([1.0, 1e-3])
    assert svd_rank(a) == 2
    assert svd_rank(a, atol=1e-2) == 1


def test_rref_idempotent_and_exact_pivots():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.standard_normal((rng.integers(1, 5), rng.integers(1, 6)))
        r = rref(a)
        np.testing.assert_array_equal(rref(r), r)
        # each pivot is stored as exactly 1.0 with exact zeros above it
        for row in r:
            nz = np.nonzero(row)[0]
            if nz.size:
                assert row[nz[0]] == 1.0


def test_column_echelon_representative_independence():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = rng.standard_normal((5, 2))
        mix = random_invertible(rng, 2)
        c1 = column_echelon(a)
        c2 = column_echelon(a @ mix)
        np.testing.assert_allclose(c1, c2, atol=1e-12)


@given(random_matrix_strategy())
def test_nullspace_is_orthonormal_kernel(dims):
    rows, cols, seed = dims
    a = np.random.default_rng(seed).standard_normal((rows, cols))
    ns = nullspace(a)
    assert ns.shape[0] == cols
    assert ns.shape[1] == cols - svd_rank(a)
    if ns.shape[1]:
        np.testing.assert_allclose(a @ ns, 0.0, atol=1e-12)
        np.testing.assert_allclose(ns.T @ ns, np.eye(ns.shape[1]), atol=1e-12)


def test_left_nullspace_matches_transposed_kernel():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 3))
    ln = left_nullspace(a)
    np.testing.assert_allclose(ln @ a, 0.0, atol=1e-12)
    assert ln.shape == (5 - 3, 5)


def test_unit_columns_normalization_and_sign():
    a = np.array([[-2.0, 0.0], [0.0, 3.0], [2.0, 0.0]])
    u = unit_columns(a)
    np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0)
    # first nonzero entry of each column made positive
    assert u[0, 0] > 0 and u[1, 1] > 0


def test_min_max_singular_and_invertibility():
    lo, hi = min_max_singular(np.diag([3.0, 0.5]))
    assert lo == pytest.approx(0.5) and hi == pytest.approx(3.0)
    assert is_invertible(np.diag([3.0, 0.5]))
    assert not is_invertible(np.diag([3.0, 0.0]))
    assert not is_invertible(np.ones((2, 3)))


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
