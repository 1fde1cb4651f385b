import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from grassnorm import (
    InvalidPair,
    DimensionMismatch,
    MPair,
    NonPositiveTrace,
    Subspace,
    adapted_frame,
    block_metrics,
    constant_map,
    cr_log_distance,
    cross_ratio,
    polar_conjugate,
    polar_lambda,
    polar_map,
    Quadric,
    subspace_from_points,
)

from _gen import (
    random_direction,
    random_invertible,
    random_pair,
    random_polar_pair,
    random_quadric,
)
from _oracles import raw_polar_basis, raw_polar_cross_ratio_trace


def point_pair(a, b):
    return MPair(p=subspace_from_points([a]), p_star=subspace_from_points([b]))


def test_four_points_on_a_line_hand_value():
    # With p=(1:0), p*=(0:1), q=(1:1), q*=(-1:1) the scalar formula
    # trace = (u.y)(v.x) / ((u.x)(v.y)) with u=(1,0), v=(1,1) gives 1/2.
    pair_a = point_pair([1.0, 0.0], [0.0, 1.0])
    pair_b = point_pair([1.0, 1.0], [-1.0, 1.0])
    w = cross_ratio(pair_a, pair_b)
    np.testing.assert_allclose(w.w, np.array([[0.5, 0.5], [0.0, 0.0]]), atol=1e-15)
    assert w.trace == pytest.approx(0.5)


def test_four_points_negative_trace_rejected_by_distance():
    # same frame, q*=(2:1): trace = 1/(1-2) = -1, so no real log distance
    pair_a = point_pair([1.0, 0.0], [0.0, 1.0])
    pair_b = point_pair([1.0, 1.0], [2.0, 1.0])
    assert cross_ratio(pair_a, pair_b).trace == pytest.approx(-1.0)
    with pytest.raises(NonPositiveTrace):
        cr_log_distance(pair_a, pair_b)


def test_distance_of_a_pair_to_itself_is_exact_zero():
    rng = np.random.default_rng(21)
    pair = random_pair(rng, 3, 1)
    same = MPair(p=pair.p, p_star=pair.p_star)
    assert cr_log_distance(pair, same) == 0.0


def test_distance_is_symmetric():
    rng = np.random.default_rng(22)
    for _ in range(10):
        pa = random_pair(rng, 3, 1)
        pb = random_pair(rng, 3, 1)
        try:
            d_ab = cr_log_distance(pa, pb)
            d_ba = cr_log_distance(pb, pa)
        except NonPositiveTrace:
            continue
        assert d_ab == pytest.approx(d_ba, rel=1e-12, abs=1e-12)


def test_trace_closed_form_for_shear_displaced_planes():
    # identity-quadric configuration in ambient dimension 3:
    # p = span(e0,e1) with polar span(e2,e3), displaced by e0 -> e0 + t e2.
    # The cross ratio trace comes out as 1 + 1/(1+t^2).
    q = Quadric(n=3, matrix=np.eye(4))
    p0 = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    pair0 = MPair(p=p0, p_star=polar_conjugate(p0, q))
    for t in (0.3, 0.05, 1e-3):
        pt = subspace_from_points([[1.0, 0.0, t, 0.0], [0.0, 1.0, 0.0, 0.0]])
        pair_t = MPair(p=pt, p_star=polar_conjugate(pt, q))
        tr = cross_ratio(pair0, pair_t).trace
        assert tr == pytest.approx(1.0 + 1.0 / (1.0 + t * t), abs=1e-13)


def test_matrix_covariance_under_projective_maps():
    rng = np.random.default_rng(23)
    for _ in range(10):
        pa = random_pair(rng, 3, 1)
        pb = random_pair(rng, 3, 1)
        w0 = cross_ratio(pa, pb).w
        t = random_invertible(rng, 4)

        def push(sub):
            return subspace_from_points((t @ sub.coord_matrix).T)

        w1 = cross_ratio(
            MPair(p=push(pa.p), p_star=push(pa.p_star)),
            MPair(p=push(pb.p), p_star=push(pb.p_star)),
        ).w
        np.testing.assert_allclose(w1, t @ w0 @ np.linalg.inv(t), atol=1e-9)


def test_trace_ignores_choice_of_spanning_points():
    rng = np.random.default_rng(24)
    pa = random_pair(rng, 4, 1)
    pb = random_pair(rng, 4, 1)
    base = cross_ratio(pa, pb).trace
    for _ in range(10):
        mix = random_invertible(rng, 2, min_rel_sv=0.1)
        remixed = MPair(
            p=subspace_from_points((pa.p.coord_matrix @ mix).T),
            p_star=pa.p_star,
        )
        assert cross_ratio(remixed, pb).trace == pytest.approx(base, rel=1e-11)


def test_singular_middle_factor_gives_zero_trace_not_error():
    # q sits on the equations of p_a's complement: U Y = 0 is a legal
    # degenerate value (trace 0), only the log distance must refuse it
    pa = point_pair([1.0, 0.0], [0.0, 1.0])
    pb = point_pair([0.0, 1.0], [1.0, 1.0])
    assert cross_ratio(pa, pb).trace == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(NonPositiveTrace):
        cr_log_distance(pa, pb)


def test_nearly_intersecting_pair_is_rejected_before_the_solve():
    # p_star grazes p within rank tolerance; never reaches the inversion
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    grazing = subspace_from_points([[1.0, 0.0, 1e-12, 0.0], [0.0, 0.0, 0.0, 1.0]])
    pb = subspace_from_points([[1, 0, 1, 0], [0, 1, 0, 1]])
    pb_star = subspace_from_points([[1, 0, -1, 0], [0, 1, 0, -1]])
    with pytest.raises(InvalidPair):
        cross_ratio(MPair(p=p, p_star=grazing), MPair(p=pb, p_star=pb_star))


def test_mixed_ambient_dimensions_rejected():
    rng = np.random.default_rng(25)
    pa = random_pair(rng, 3, 1)
    pb = random_pair(rng, 4, 1)
    with pytest.raises(DimensionMismatch):
        cross_ratio(pa, pb)


def polar_pair(points, quadric):
    p = subspace_from_points(points)
    return MPair(p=p, p_star=polar_conjugate(p, quadric))


@pytest.mark.parametrize("delta", [10.0**-k for k in range(3, 10)])
def test_log_distance_from_a_line_with_a_small_leading_coordinate(delta):
    # the line of test_polar.py's small-leading-coordinate test, whose
    # leading coordinate is near zero, against a plain line
    g = np.diag([1.0, 2.0, 0.5, 1.0])
    q = Quadric(n=3, matrix=g)
    points_a = [[delta, 0.0, 1.0, 0.3], [0.0, 1.0, 0.2, 0.7]]
    points_b = [[1.0, 0.0, 0.3, 0.0], [0.0, 1.0, 0.0, 0.1]]
    want = 2.0 * np.log(raw_polar_cross_ratio_trace(points_a, points_b, g) / 2.0)
    got = cr_log_distance(polar_pair(points_a, q), polar_pair(points_b, q))
    assert got == pytest.approx(want, rel=1e-9)


@given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.floats(-9.0, -3.0))
def test_polar_pairs_with_a_small_leading_coordinate_match_the_raw_points(seed, m, log_delta):
    # on G(m, 2m + 1), p_a's spanning points have their first coordinate
    # scaled by delta; the polars and the trace must agree with the ones
    # built from the raw points whenever both subspaces are far from
    # tangent on orthonormal bases
    rng = np.random.default_rng(seed)
    n = 2 * m + 1
    q = random_quadric(rng, n)
    points_a = np.linalg.qr(rng.standard_normal((n + 1, m + 1)))[0].T
    points_a[:, 0] *= 10.0**log_delta
    points_b = np.linalg.qr(rng.standard_normal((n + 1, m + 1)))[0].T
    for points in (points_a, points_b):
        basis = np.linalg.qr(points.T)[0]
        s = np.linalg.svd(basis.T @ q.matrix @ basis, compute_uv=False)
        assume(s[-1] >= 0.05 * s[0])
    pair_a, pair_b = polar_pair(points_a, q), polar_pair(points_b, q)
    got = np.linalg.qr(pair_a.p_star.coord_matrix)[0]
    want = np.linalg.qr(raw_polar_basis(points_a, q.matrix))[0]
    np.testing.assert_allclose(got @ got.T, want @ want.T, atol=1e-9)
    trace = raw_polar_cross_ratio_trace(points_a, points_b, q.matrix)
    assert cross_ratio(pair_a, pair_b).trace == pytest.approx(trace, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("m,n", [(0, 2), (1, 3), (2, 5), (3, 7), (1, 6)])
def test_identity_quadric_trace_is_the_sum_of_squared_principal_cosines(m, n):
    # for G = I the polar of p is its orthogonal complement, so
    # W = X X^T Y Y^T and trace W = sum of cos^2 over the principal angles
    # between p_a and p_b, the singular values of X^T Y
    rng = np.random.default_rng(100 + n)
    q = Quadric(n=n, matrix=np.eye(n + 1))
    for _ in range(20):
        points_a = rng.standard_normal((m + 1, n + 1))
        points_b = rng.standard_normal((m + 1, n + 1))
        x = np.linalg.qr(points_a.T)[0]
        y = np.linalg.qr(points_b.T)[0]
        cosines = np.linalg.svd(x.T @ y, compute_uv=False)
        trace = cross_ratio(polar_pair(points_a, q), polar_pair(points_b, q)).trace
        assert trace == pytest.approx(float(np.sum(cosines**2)), abs=1e-13)


# The log distance along a normalization carries its fundamental tensor:
# for the adapted frame F = (F_top | F_bot) of (p, nu(p)), a direction d
# and p(t) = span(F_top + t F_bot d),
#     L(t) = cr_log_distance((p, nu(p)), (p(t), nu(p(t))))
#          = t^2 lam(d, d) + O(t^3),  lam(d, d) = sum lam[a][b][i][j] d[i][a] d[j][b].
# Both sides are frame-free, so these tests hold in any adapted frame.
EXPANSION_STEPS = (1e-2, 5e-3, 2.5e-3)


def along_direction(nu, pair, d, t):
    """The pair (p(t), nu(p(t))) for p(t) = span(F_top + t F_bot d)."""
    frame = adapted_frame(pair).frame_matrix
    top, bottom = frame[:, : pair.m + 1], frame[:, pair.m + 1 :]
    p_t = Subspace(ambient_n=pair.ambient_n, coord_matrix=top + t * bottom @ d)
    return MPair(p=p_t, p_star=nu(p_t))


@pytest.mark.parametrize("m,n", [(0, 2), (1, 3), (2, 5), (3, 7)])
def test_log_distance_along_a_polar_map_is_lambda_at_second_order(m, n):
    # polar maps are homogeneous, so there is no t^3 term: the error of
    # L / t^2 against lam(d, d) shrinks by 4 per halving of t
    rng = np.random.default_rng(110 + n)
    for _ in range(20):
        q = random_quadric(rng, n)
        pair = random_polar_pair(rng, q, m)
        d = random_direction(rng, m, n).d
        lam = polar_lambda(block_metrics(adapted_frame(pair), q, m)).lam
        lam_dd = float(np.einsum("abij,ia,jb->", lam, d, d))
        nu = polar_map(q)
        errors = [
            abs(cr_log_distance(pair, along_direction(nu, pair, d, t)) / t**2 - lam_dd)
            for t in EXPANSION_STEPS
        ]
        scale = float(np.max(np.abs(lam)))
        assert errors[0] <= 0.1 * scale
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.5)


@pytest.mark.parametrize("m,n", [(0, 2), (1, 3), (2, 5), (3, 7)])
def test_log_distance_along_a_constant_map_vanishes(m, n):
    # with one complement W is the projector onto p along it: trace m + 1
    rng = np.random.default_rng(120 + n)
    for _ in range(20):
        pair = random_pair(rng, n, m)
        d = random_direction(rng, m, n).d
        nu = constant_map(pair.p_star)
        for t in EXPANSION_STEPS:
            assert abs(cr_log_distance(pair, along_direction(nu, pair, d, t))) <= 1e-13
