import numpy as np
import pytest

from grassnorm import (
    DimensionMismatch,
    MPair,
    NormalizingMap,
    Quadric,
    TangentDirection,
    adapted_frame,
    block_metrics,
    constant_map,
    covariant_derivative_estimate,
    curvature_tensor,
    estimate_fundamental_tensor,
    harmonic_defect,
    homogeneity_residual,
    is_homogeneous,
    polar_conjugate,
    polar_lambda,
    polar_map,
    ricci_from_curvature,
    ricci_tensor,
    subspace_from_points,
)

from _gen import (
    pair_symmetrized,
    random_block_metrics,
    random_direction,
    random_lambda,
    random_polar_pair,
    random_quadric,
)

from _oracles import (
    brute_force_curvature,
    brute_force_ricci,
    five_call_covariant_derivative,
    maurer_cartan_terms,
)


@pytest.mark.parametrize("m,n", [(1, 3), (2, 4)])
def test_curvature_matches_loop_oracle(m, n):
    rng = np.random.default_rng(41)
    ft = random_lambda(rng, m, n)
    cv = curvature_tensor(ft)
    assert np.max(np.abs(cv.r - brute_force_curvature(ft))) <= 1e-15
    assert cv.max_abs() == np.max(np.abs(cv.r))


@pytest.mark.parametrize("m,n", [(1, 3), (2, 4)])
def test_ricci_matches_loop_oracle_and_contraction(m, n):
    rng = np.random.default_rng(42)
    ft = random_lambda(rng, m, n)
    ric = ricci_tensor(ft)
    assert np.max(np.abs(ric.ric - brute_force_ricci(ft))) <= 1e-15
    contracted = ricci_from_curvature(curvature_tensor(ft))
    assert np.max(np.abs(ric.ric - contracted.ric)) <= 1e-13


def test_curvature_antisymmetry_in_the_plane_arguments():
    rng = np.random.default_rng(43)
    ft = random_lambda(rng, 1, 4)
    r = curvature_tensor(ft).r
    # swapping (gamma, k) with (eps, l) flips the sign
    swapped = r.transpose(0, 1, 3, 2, 4, 5, 7, 6)
    np.testing.assert_allclose(r, -swapped, atol=1e-15)


def test_ricci_asymmetry_is_proportional_to_the_harmonic_defect():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, min(3, n - 1)))
        ft = random_lambda(rng, m, n)
        ric = ricci_tensor(ft)
        expected = 0.5 * (n + 1) * harmonic_defect(ft)
        assert ric.asymmetry() == pytest.approx(expected, rel=1e-12)
        assert not ric.is_symmetric(1e-9)
        sym_ric = ricci_tensor(pair_symmetrized(ft))
        assert sym_ric.is_symmetric(1e-13)


def test_polar_tensor_is_homogeneous_generic_is_not():
    rng = np.random.default_rng(45)
    for _ in range(5):
        bm = random_block_metrics(rng, 1, 4)
        lam = polar_lambda(bm)
        scale = np.max(np.abs(lam.lam))
        assert homogeneity_residual(lam) <= 1e-13 * scale**2
        assert is_homogeneous(lam, tol=1e-12)
    generic = random_lambda(rng, 1, 4)
    scale = np.max(np.abs(generic.lam))
    assert homogeneity_residual(generic) > 1e-3 * scale**2
    assert not is_homogeneous(generic, tol=1e-12)


def test_covariant_derivative_vanishes_for_identity_quadric():
    q = Quadric(n=3, matrix=np.eye(4))
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    pair = MPair(p=p, p_star=polar_conjugate(p, q))
    d = TangentDirection(m=1, n=3, d=np.array([[1.0, 0.0], [0.0, 0.5]]))
    grad = covariant_derivative_estimate(polar_map(q), pair, d, eps=1e-3)
    np.testing.assert_array_equal(grad, 0.0)  # exact for this input


def test_covariant_derivative_small_for_random_polar_maps():
    rng = np.random.default_rng(46)
    for k in range(4):
        n, m = (3, 1) if k % 2 == 0 else (4, 2)
        q = random_quadric(rng, n)
        pair = random_polar_pair(rng, q, m)
        d = random_direction(rng, m, n)
        grad = covariant_derivative_estimate(polar_map(q), pair, d, eps=1e-4)
        assert np.max(np.abs(grad)) <= 1e-6


def test_covariant_derivative_of_constant_map_is_exact_zero():
    rng = np.random.default_rng(47)
    pair = random_polar_pair(rng, random_quadric(rng, 3), 1)
    d = random_direction(rng, 1, 3)
    grad = covariant_derivative_estimate(constant_map(pair.p_star), pair, d, eps=1e-3)
    np.testing.assert_array_equal(grad, 0.0)


def test_covariant_derivative_input_validation():
    rng = np.random.default_rng(48)
    q = random_quadric(rng, 3)
    pair = random_polar_pair(rng, q, 1)
    with pytest.raises(DimensionMismatch):
        covariant_derivative_estimate(
            polar_map(q), pair, TangentDirection(m=1, n=4, d=np.ones((3, 2))), eps=1e-4
        )
    with pytest.raises(ValueError):
        covariant_derivative_estimate(
            polar_map(q), pair, TangentDirection(m=1, n=3, d=np.zeros((2, 2))), eps=1e-4
        )
    with pytest.raises(ValueError):
        covariant_derivative_estimate(
            polar_map(q), pair, TangentDirection(m=1, n=3, d=np.eye(2)), eps=0.0
        )


def test_covariant_derivative_batched_polar_matches_the_adapter_path():
    # both estimate the same quantity; they differ by rounding, whose floor
    # in a second difference is about u / eps^2
    rng = np.random.default_rng(49)
    eps = 1e-3
    u = np.finfo(float).eps
    for m, n in ((1, 3), (1, 4), (2, 5), (3, 7), (4, 9)):
        q = random_quadric(rng, n)
        pair = random_polar_pair(rng, q, m)
        d = random_direction(rng, m, n)
        user = NormalizingMap(fn=lambda p, q=q: polar_conjugate(p, q))
        batched = covariant_derivative_estimate(polar_map(q), pair, d, eps=eps)
        adapter = covariant_derivative_estimate(user, pair, d, eps=eps)
        lam = polar_lambda(block_metrics(adapted_frame(pair), q, m)).lam
        bound = 100.0 * (eps**2 + u / eps**2) * max(1.0, float(np.max(np.abs(lam))))
        assert np.max(np.abs(batched - adapter)) <= bound


def counting_graph_calls(nu, sizes):
    """nu with a graph action that records the stack size of each call."""

    def graph(frames, m, b):
        sizes.append(len(b))
        return nu.graph(frames, m, b)

    return NormalizingMap(fn=nu.fn, graph=graph)


@pytest.mark.parametrize("m,n", [(1, 3), (3, 7)])
def test_covariant_derivative_makes_two_graph_calls(m, n):
    rng = np.random.default_rng(50)
    q = random_quadric(rng, n)
    pair = random_polar_pair(rng, q, m)
    d = random_direction(rng, m, n)
    rho = (m + 1) * (n - m)
    for nu in (polar_map(q), constant_map(pair.p_star)):
        sizes = []
        covariant_derivative_estimate(counting_graph_calls(nu, sizes), pair, d, eps=1e-3)
        # the transport to p(+eps) and p(-eps), then 2 rho displacements at each
        assert sizes == [2, 2 * 2 * rho]


@pytest.mark.parametrize("m,n", [(1, 3), (1, 4), (2, 5), (3, 7), (4, 9)])
def test_covariant_derivative_equals_the_five_call_form(m, n):
    rng = np.random.default_rng(51 + n)
    for _ in range(2):
        q = random_quadric(rng, n)
        pair = random_polar_pair(rng, q, m)
        d = random_direction(rng, m, n)
        user = NormalizingMap(fn=lambda p, q=q: polar_conjugate(p, q))
        for nu in (polar_map(q), constant_map(pair.p_star), user):
            grad = covariant_derivative_estimate(nu, pair, d, 1e-3)
            ref_grad, ref_lam0 = five_call_covariant_derivative(nu, pair, d.d, 1e-3)
            np.testing.assert_array_equal(grad, ref_grad)
            lam0 = estimate_fundamental_tensor(nu, pair, 1e-3).lam
            np.testing.assert_array_equal(lam0, ref_lam0)


@pytest.mark.parametrize("m,n", [(1, 3), (1, 4), (2, 5), (3, 7), (4, 9)])
def test_maurer_cartan_terms_of_the_transported_frame_are_rounding_noise(m, n):
    # the diagonal blocks of F0^-1 F(t) are constant along the path, so the
    # connection terms the derivative leaves out vanish up to about u / eps
    rng = np.random.default_rng(52 + n)
    u = np.finfo(float).eps
    q = random_quadric(rng, n)
    pair = random_polar_pair(rng, q, m)
    d = random_direction(rng, m, n)
    user = NormalizingMap(fn=lambda p: polar_conjugate(p, q))
    for nu in (polar_map(q), constant_map(pair.p_star), user):
        for eps in (1e-3, 1e-5):
            terms, lam0 = maurer_cartan_terms(nu, pair, d.d, eps)
            bound = 100.0 * u / eps * max(1.0, float(np.max(np.abs(lam0))))
            assert np.max(np.abs(terms)) <= bound
