import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from grassnorm import (
    DependentPoints,
    DimensionMismatch,
    InvalidPair,
    MPair,
    ProjectiveFrame,
    SingularFrame,
    Subspace,
    adapted_frame,
    estimate_fundamental_tensor,
    pair_is_valid,
    polar_conjugate,
    polar_map,
    subspace_from_points,
)

from _gen import (
    random_invertible,
    random_orthogonal,
    random_pair,
    random_quadric,
    random_subspace,
)


def test_subspace_canonical_form_is_representative_free():
    rows = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, -1.0]])
    a = subspace_from_points(rows)
    b = subspace_from_points(np.array([[2.0, 5.0, 1.0, 1.0], [1.0, 3.0, 1.0, 0.0]]))
    # second spanning set = invertible mix of the first, same subspace
    np.testing.assert_allclose(a.coord_matrix, b.coord_matrix, atol=1e-13)
    assert a.same_as(b)
    assert a.dim == 1 and a.ambient_n == 3


@given(st.integers(0, 2**31 - 1))
def test_subspace_mix_invariance_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    dim = int(rng.integers(0, n - 1))
    sub = random_subspace(rng, n, dim)
    mix = random_invertible(rng, dim + 1, min_rel_sv=0.1)
    remixed = subspace_from_points((sub.coord_matrix @ mix).T)
    assert sub.same_as(remixed)
    np.testing.assert_allclose(sub.coord_matrix, remixed.coord_matrix, atol=1e-10)


def test_dependent_points_rejected():
    with pytest.raises(DependentPoints):
        subspace_from_points([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])


def test_subspace_from_points_input_errors():
    for empty in ([], np.empty((0, 4))):
        with pytest.raises(DependentPoints):
            subspace_from_points(empty)
    with pytest.raises(DimensionMismatch):
        subspace_from_points([[1.0, 0.0, 0.0], [0.0, 1.0]])  # ragged rows
    with pytest.raises(DimensionMismatch):
        subspace_from_points([[1.0, 0.0, 0.0]], ambient_n=3)
    for bad_ndim in (3.0, [1.0, 0.0, 0.0], np.ones((2, 3, 1))):
        with pytest.raises(DimensionMismatch):
            subspace_from_points(bad_ndim)


def test_subspace_from_points_never_aliases_the_callers_array():
    # Fortran-ordered rows: their transpose is C-contiguous and shares
    # memory with them, and it is already canonical, so it is stored as is
    rows = np.asfortranarray([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.25]])
    assert rows.T.flags.c_contiguous
    sub = subspace_from_points(rows)
    assert np.array_equal(sub.coord_matrix, rows.T)
    assert rows.flags.writeable and not sub.coord_matrix.flags.writeable
    rows[0, 2] = 9.0
    assert sub.coord_matrix[2, 0] == 0.5


def test_same_as_measures_the_angle_not_the_stored_entries():
    a = subspace_from_points([[1, 0, 1, 0], [0, 1, 0, 0]])
    b = subspace_from_points([[1, 0, 1 + 1e-6, 0], [0, 1, 0, 0]])
    # the sine of the angle between a and b is 5.0e-7
    assert not a.same_as(b, atol=1e-9) and not b.same_as(a, atol=1e-9)
    assert not a.same_as(b, atol=4.9e-7)
    assert a.same_as(b, atol=5.1e-7) and b.same_as(a, atol=5.1e-7)
    line = subspace_from_points([[1, 0, 1, 0]])
    assert not a.same_as(line) and not line.same_as(a)


def test_pair_validity_and_invalid_pair_error():
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    good = subspace_from_points([[0, 0, 1, 0], [0, 0, 0, 1]])
    overlapping = subspace_from_points([[1, 0, 0, 0], [0, 0, 0, 1]])
    assert pair_is_valid(MPair(p=p, p_star=good))
    assert not pair_is_valid(MPair(p=p, p_star=overlapping))
    with pytest.raises(InvalidPair):
        adapted_frame(MPair(p=p, p_star=overlapping))


def test_mpair_rejects_wrong_complement_dimension():
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    line = subspace_from_points([[0, 0, 1, 0]])
    with pytest.raises(DimensionMismatch):
        MPair(p=p, p_star=line)


def test_adapted_frame_columns_span_the_pair():
    rng = np.random.default_rng(12)
    for _ in range(10):
        pair = random_pair(rng, 4, 1)
        frame = adapted_frame(pair)
        f = frame.frame_matrix
        np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)
        assert subspace_from_points(f[:, :2].T).same_as(pair.p)
        assert subspace_from_points(f[:, 2:].T).same_as(pair.p_star)


def test_adapted_frame_is_deterministic():
    rng = np.random.default_rng(13)
    pair = random_pair(rng, 3, 1)
    f1 = adapted_frame(pair).frame_matrix
    f2 = adapted_frame(MPair(p=pair.p, p_star=pair.p_star)).frame_matrix
    np.testing.assert_array_equal(f1, f2)


def test_projective_frame_must_be_invertible():
    with pytest.raises(SingularFrame):
        ProjectiveFrame(ambient_n=2, frame_matrix=np.ones((3, 3)))


def unit_pivot_rows(sub):
    """Rows of the stored matrix that are exactly a row of the identity,
    one per column, in column order; fails when a column has none."""
    c = sub.coord_matrix
    eye = np.eye(c.shape[1])
    rows = [i for i in range(c.shape[0]) if any(np.array_equal(c[i], e) for e in eye)]
    assert len(rows) == c.shape[1]
    assert np.array_equal(c[rows], eye)
    return rows


def test_rank_and_pivots_agree_on_a_row_below_the_entry_scale():
    # the second spanning point has every entry below 1e-9 times the
    # largest one, yet the singular-value ratio 2.4e-9 gives rank 2;
    # doubling that point must not change the stored subspace
    e0 = np.eye(17)[0]
    small = np.r_[0.0, np.full(16, 0.6e-9)]
    a = subspace_from_points([e0, small])
    b = subspace_from_points([e0, 2.0 * small])
    assert a.same_as(b)
    assert unit_pivot_rows(a) == unit_pivot_rows(b) == [0, 1]


def random_mix(rng, k, log_cond):
    """k x k matrix with condition number 10**log_cond."""
    s = 10.0 ** np.linspace(0.0, -log_cond, k)
    return random_orthogonal(rng, k) @ np.diag(s) @ random_orthogonal(rng, k)


@given(
    st.integers(0, 2**31 - 1),
    st.integers(0, 3),
    st.integers(1, 5),
    st.floats(-12.0, 0.0),
    st.floats(0.0, 4.0),
    st.booleans(),
)
# echelon storage took other pivot rows for the respanned line (the first)
# and rejected a valid pair (the second)
@example(seed=1, m=1, extra=1, log_scale=-7.0, log_cond=1.0, meet=False)
@example(seed=105, m=1, extra=4, log_scale=-8.0, log_cond=0.0, meet=False)
def test_storage_is_invariant_under_respanning(seed, m, extra, log_scale, log_cond, meet):
    # on G(0,1)-G(3,8), one coordinate of the subspace is scaled down by
    # up to 1e-12 and the spanning set mixed by a matrix of condition
    # number up to 1e4; beyond that the mixed points themselves carry
    # errors near 1e-16 * cond, above what same_as can forgive
    rng = np.random.default_rng(seed)
    n = min(m + extra, 8)
    row = rng.integers(0, n + 1)
    points = rng.standard_normal((m + 1, n + 1))
    points[:, row] *= 10.0**log_scale
    star = rng.standard_normal((n - m, n + 1))
    if meet:
        star[0] = rng.standard_normal(m + 1) @ points  # p_star meets p
    mix = random_mix(rng, m + 1, log_cond)
    p = subspace_from_points(points)
    remixed = subspace_from_points(mix.T @ points)
    assert unit_pivot_rows(p) == unit_pivot_rows(remixed)
    assert p.same_as(remixed)
    p_star = subspace_from_points(star)
    star_mix = subspace_from_points(random_mix(rng, n - m, log_cond) @ star)
    valid = pair_is_valid(MPair(p=p, p_star=p_star))
    assert valid == pair_is_valid(MPair(p=remixed, p_star=star_mix))
    assert valid != meet
    for sub in (p, remixed, p_star, star_mix):
        again = Subspace(ambient_n=n, coord_matrix=sub.coord_matrix)
        assert np.array_equal(again.coord_matrix, sub.coord_matrix)
    q = random_quadric(rng, n)
    for sub in (p, remixed):
        basis = np.linalg.qr(sub.coord_matrix)[0]
        s = np.linalg.svd(basis.T @ q.matrix @ basis, compute_uv=False)
        assume(s[-1] >= 0.05 * s[0])
    lams = [
        estimate_fundamental_tensor(
            polar_map(q), MPair(p=sub, p_star=polar_conjugate(sub, q))
        ).lam
        for sub in (p, remixed)
    ]
    scale = max(1.0, float(np.max(np.abs(lams[0]))))
    np.testing.assert_allclose(lams[1], lams[0], rtol=0.0, atol=1e-9 * scale)
