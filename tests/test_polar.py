import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from grassnorm import (
    BlockMetrics,
    DimensionMismatch,
    MPair,
    NotPolarAdapted,
    ProjectiveFrame,
    Quadric,
    Subspace,
    TangentSubspace,
    adapted_frame,
    adjust_curvature_indices,
    block_metrics,
    covariant_curvature,
    curvature_tensor,
    einstein_check,
    estimate_fundamental_tensor,
    polar_conjugate,
    polar_lambda,
    polar_map,
    ricci_proportionality,
    ricci_tensor,
    subspace_from_points,
)

from _gen import (
    random_block_metrics,
    random_orthogonal,
    random_pair,
    random_polar_pair,
    random_quadric,
)
from _oracles import raw_polar_basis


def test_identity_quadric_polar_of_coordinate_plane():
    q = Quadric(n=3, matrix=np.eye(4))
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    conj = polar_conjugate(p, q)
    expected = subspace_from_points([[0, 0, 1, 0], [0, 0, 0, 1]])
    assert conj.same_as(expected)


def test_polar_is_an_involution_and_incident_free():
    rng = np.random.default_rng(51)
    for k in range(8):
        n = 3 if k % 2 == 0 else 4
        m = 1
        q = random_quadric(rng, n)
        pair = random_polar_pair(rng, q, m)
        back = polar_conjugate(pair.p_star, q)
        assert back.same_as(pair.p, atol=1e-9)
        # conjugacy: every point of p is orthogonal to every point of p_star
        rel = pair.p.coord_matrix.T @ q.matrix @ pair.p_star.coord_matrix
        assert np.max(np.abs(rel)) <= 1e-12
    # eigenvalue moduli spread over 1e6: the polar is one solve with G, so
    # its conjugacy residual is bounded by a multiple of u cond(G) ||G||
    u = np.finfo(float).eps
    for n in (3, 4, 6):
        eigs = np.geomspace(1.0, 1e6, n + 1) * rng.choice([-1.0, 1.0], n + 1)
        o = random_orthogonal(rng, n + 1)
        q = Quadric(n=n, matrix=o @ np.diag(eigs) @ o.T)
        pair = random_polar_pair(rng, q, 1, min_rel_sv=1e-3)
        assert polar_conjugate(pair.p_star, q).same_as(pair.p, atol=1e-9)
        rel = np.linalg.norm(pair.p.basis.T @ q.matrix @ pair.p_star.basis, 2)
        assert rel <= 10.0 * u * np.linalg.cond(q.matrix) * np.linalg.norm(q.matrix, 2)


def test_tangent_subspace_is_rejected():
    q = Quadric(n=3, matrix=np.diag([1.0, -1.0, 1.0, 1.0]))
    tangent = subspace_from_points([[1, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(TangentSubspace):
        polar_conjugate(tangent, q)


def test_isotropic_points_are_tangent():
    # a point's Gram matrix is 1 x 1, and rounding leaves a nonzero
    # residue in it, so only a scale taken from G tells it from zero
    q = Quadric(n=3, matrix=np.diag([1.0, -1.0, 1.0, 1.0]))
    rng = np.random.default_rng(0)
    for a, c, e in rng.standard_normal((200, 3)):
        point = subspace_from_points([[a, np.sqrt(a * a + c * c + e * e), c, e]])
        with pytest.raises(TangentSubspace):
            polar_conjugate(point, q)


def test_totally_isotropic_line_is_tangent():
    q = Quadric(n=3, matrix=np.diag([1.0, 1.0, -1.0, -1.0]))
    line = subspace_from_points([[1, 0, 1, 0], [0, 1, 0, 1]])
    with pytest.raises(TangentSubspace):
        polar_conjugate(line, q)


def test_quadric_validation():
    with pytest.raises(ValueError):
        Quadric(n=2, matrix=np.array([[1.0, 2.0, 0], [0.0, 1.0, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        Quadric(n=2, matrix=np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        Quadric(n=3, matrix=np.eye(3))


def test_block_metrics_requires_polar_adapted_frame():
    rng = np.random.default_rng(52)
    q = random_quadric(rng, 3)
    # a generic pair is not polar for q, so the cross block is nonzero
    pair = random_pair(rng, 3, 1)
    with pytest.raises(NotPolarAdapted):
        block_metrics(adapted_frame(pair), q, 1)


def test_block_metrics_reproduces_restrictions():
    rng = np.random.default_rng(53)
    q = random_quadric(rng, 4)
    pair = random_polar_pair(rng, q, 1)
    frame = adapted_frame(pair)
    bm = block_metrics(frame, q, 1)
    f = frame.frame_matrix
    gram = f.T @ q.matrix @ f
    np.testing.assert_allclose(bm.g_ab, gram[:2, :2], atol=1e-12)
    np.testing.assert_allclose(bm.g_ij, gram[2:, 2:], atol=1e-12)
    np.testing.assert_allclose(bm.g_ab_inv @ bm.g_ab, np.eye(2), atol=1e-12)


def test_polar_lambda_is_minus_outer_product():
    g_ab = np.diag([2.0, -1.0])
    g_ij = np.diag([1.0, 4.0])
    bm = BlockMetrics(m=1, n=3, g_ab=g_ab, g_ij=g_ij, g_ab_inv=np.linalg.inv(g_ab))
    lam = polar_lambda(bm).lam
    expected = -np.einsum("ab,ij->abij", np.diag([0.5, -1.0]), g_ij)
    np.testing.assert_allclose(lam, expected, atol=1e-15)


def test_einstein_constants_on_p3_and_p4():
    rng = np.random.default_rng(54)
    for n, want in ((3, 1.0), (4, 1.5)):
        q = random_quadric(rng, n)
        pair = random_polar_pair(rng, q, 1)
        bm = block_metrics(adapted_frame(pair), q, 1)
        res = einstein_check(bm, tol=1e-9)
        assert res.is_einstein
        assert res.constant == pytest.approx(want, abs=1e-12)
        assert res.residual <= 1e-12


def test_non_proportional_ricci_fails_the_check():
    rng = np.random.default_rng(55)
    bm = random_block_metrics(rng, 1, 3)
    ric = rng.standard_normal((2, 2, 2, 2))
    res = ricci_proportionality(ric, bm, tol=1e-9)
    assert not res.is_einstein
    assert res.residual > 1e-3


def test_adjusted_indices_with_identity_blocks_is_a_transpose():
    rng = np.random.default_rng(56)
    bm = BlockMetrics(m=1, n=3, g_ab=np.eye(2), g_ij=np.eye(2), g_ab_inv=np.eye(2))
    from _gen import random_lambda

    ft = random_lambda(rng, 1, 3)
    curv = curvature_tensor(ft)
    adj = adjust_curvature_indices(curv, bm).rc
    np.testing.assert_array_equal(adj, curv.r.transpose(4, 1, 2, 3, 0, 5, 6, 7))


def test_covariant_curvature_antisymmetries():
    rng = np.random.default_rng(57)
    bm = random_block_metrics(rng, 2, 4)
    rc = covariant_curvature(bm).rc
    # swap of the second Greek-Latin argument pair flips the sign
    np.testing.assert_allclose(rc, -rc.transpose(0, 1, 3, 2, 4, 5, 7, 6), atol=1e-13)
    # swap of the first Greek-Latin argument pair flips the sign
    np.testing.assert_allclose(rc, -rc.transpose(1, 0, 2, 3, 5, 4, 6, 7), atol=1e-13)


def test_covariant_curvature_matches_adjusted_polar_curvature():
    rng = np.random.default_rng(58)
    for _ in range(5):
        bm = random_block_metrics(rng, 1, 4)
        lam = polar_lambda(bm)
        adj = adjust_curvature_indices(curvature_tensor(lam), bm).rc
        direct = covariant_curvature(bm).rc
        assert np.max(np.abs(adj - direct)) <= 1e-13


def test_polar_ricci_closed_form_value():
    # Ricci of the polar tensor equals (n-1)/2 * (-lam), i.e. the metric
    rng = np.random.default_rng(59)
    for n in (3, 4):
        bm = random_block_metrics(rng, 1, n)
        lam = polar_lambda(bm)
        ric = ricci_tensor(lam).ric
        metric = np.einsum("ab,ij->abij", bm.g_ab_inv, bm.g_ij)
        np.testing.assert_allclose(ric, 0.5 * (n - 1) * metric, atol=1e-12)


def test_polar_map_evaluates_the_conjugate():
    rng = np.random.default_rng(60)
    q = random_quadric(rng, 3)
    nu = polar_map(q)
    pair = random_polar_pair(rng, q, 1)
    assert nu(pair.p).same_as(pair.p_star)


def test_block_metrics_rejects_an_inverse_that_is_not_one():
    # with g_ab_inv = I for g_ab = diag(2, 1) the Einstein check would
    # run on the wrong tensor and report Einstein
    with pytest.raises(ValueError):
        BlockMetrics(m=1, n=3, g_ab=np.diag([2.0, 1.0]), g_ij=np.eye(2), g_ab_inv=np.eye(2))


def test_block_metrics_rejects_a_wrongly_shaped_inverse():
    with pytest.raises(DimensionMismatch):
        BlockMetrics(m=1, n=3, g_ab=np.eye(2), g_ij=np.eye(2), g_ab_inv=np.eye(3))


@pytest.mark.parametrize("delta", [10.0**-k for k in range(3, 10)])
def test_polar_of_a_line_with_a_small_leading_coordinate(delta):
    # the leading coordinate of this line is near zero, but on an
    # orthonormal basis its Gram matrix has singular-value ratio 0.31,
    # far from tangent
    g = np.diag([1.0, 2.0, 0.5, 1.0])
    points = [[delta, 0.0, 1.0, 0.3], [0.0, 1.0, 0.2, 0.7]]
    conj = polar_conjugate(subspace_from_points(points), Quadric(n=3, matrix=g))
    assert conj.same_as(Subspace(ambient_n=3, coord_matrix=raw_polar_basis(points, g)))


@given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.floats(-9.0, -3.0))
def test_polar_pairs_with_a_small_leading_coordinate_get_an_adapted_frame(seed, m, log_delta):
    # on G(m, 2m + 1), p's spanning points have their first coordinate
    # scaled by delta; whenever p is far from tangent on an orthonormal
    # basis, its polar pair is valid and the estimator runs on it
    rng = np.random.default_rng(seed)
    n = 2 * m + 1
    q = random_quadric(rng, n)
    points = np.linalg.qr(rng.standard_normal((n + 1, m + 1)))[0].T
    points[:, 0] *= 10.0**log_delta
    basis = np.linalg.qr(points.T)[0]
    s = np.linalg.svd(basis.T @ q.matrix @ basis, compute_uv=False)
    assume(s[-1] >= 0.05 * s[0])
    p = subspace_from_points(points)
    pair = MPair(p=p, p_star=polar_conjugate(p, q))
    exact = polar_lambda(block_metrics(adapted_frame(pair), q, m)).lam
    lam = estimate_fundamental_tensor(polar_map(q), pair).lam
    scale = max(1.0, float(np.max(np.abs(exact))))
    np.testing.assert_allclose(lam, exact, rtol=0.0, atol=1e-6 * scale)
