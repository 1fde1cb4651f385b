import numpy as np
import pytest

from grassnorm import (
    DimensionMismatch,
    FramingFailure,
    FundamentalTensor,
    MapUndefined,
    MPair,
    NormalizingMap,
    Quadric,
    SingularFrame,
    Subspace,
    TangentDirection,
    adapted_frame,
    block_metrics,
    constant_map,
    covariant_derivative_estimate,
    estimate_fundamental_tensor,
    estimate_fundamental_tensor_in_frame,
    harmonic_defect,
    is_asymptotic_direction,
    is_harmonic,
    isotropic_dimension,
    lambda_rank,
    metric_rank,
    polar_conjugate,
    polar_lambda,
    polar_map,
    subspace_from_points,
    symmetrize_metric,
)

from _gen import (
    pair_symmetrized,
    random_direction,
    random_lambda,
    random_polar_pair,
    random_quadric,
    random_subspace,
)


def standard_pair():
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    p_star = subspace_from_points([[0, 0, 1, 0], [0, 0, 0, 1]])
    return MPair(p=p, p_star=p_star)


def test_identity_quadric_estimate_is_minus_kronecker():
    q = Quadric(n=3, matrix=np.eye(4))
    est = estimate_fundamental_tensor(polar_map(q), standard_pair())
    expected = -np.einsum("ab,ij->abij", np.eye(2), np.eye(2))
    np.testing.assert_array_equal(est.lam, expected)  # exact for this input


def test_estimate_matches_closed_form_for_random_quadrics():
    rng = np.random.default_rng(31)
    for k in range(8):
        n, m = (3, 1) if k % 2 == 0 else (4, 1)
        q = random_quadric(rng, n)
        pair = random_polar_pair(rng, q, m)
        bm = block_metrics(adapted_frame(pair), q, m)
        exact = polar_lambda(bm).lam
        est = estimate_fundamental_tensor(polar_map(q), pair, eps=1e-5).lam
        assert np.max(np.abs(est - exact)) <= 1e-8


def test_estimate_has_no_truncation_term_on_polar_maps():
    # the complement of a sheared subspace depends linearly on the shear,
    # so central differences are exact and only rounding noise remains;
    # the error must stay tiny even at a coarse step
    rng = np.random.default_rng(32)
    q = random_quadric(rng, 3)
    pair = random_polar_pair(rng, q, 1)
    bm = block_metrics(adapted_frame(pair), q, 1)
    exact = polar_lambda(bm).lam
    for eps in (1e-2, 1e-3):
        est = estimate_fundamental_tensor(polar_map(q), pair, eps=eps).lam
        assert np.max(np.abs(est - exact)) <= 1e-10


def test_constant_map_has_zero_tensor():
    pair = standard_pair()
    est = estimate_fundamental_tensor(constant_map(pair.p_star), pair)
    np.testing.assert_array_equal(est.lam, 0.0)
    assert lambda_rank(est) == 0


def test_in_frame_variant_agrees_with_pair_variant():
    rng = np.random.default_rng(33)
    q = random_quadric(rng, 3)
    pair = random_polar_pair(rng, q, 1)
    frame = adapted_frame(pair).frame_matrix
    a = estimate_fundamental_tensor(polar_map(q), pair, eps=1e-5).lam
    b = estimate_fundamental_tensor_in_frame(polar_map(q), frame, 1, eps=1e-5)
    np.testing.assert_array_equal(a, b)


def test_map_errors_are_wrapped():
    pair = standard_pair()

    def broken(p):
        raise ValueError("no complement here")

    with pytest.raises(MapUndefined):
        estimate_fundamental_tensor(NormalizingMap(fn=broken), pair)

    wrong_dim = constant_map(subspace_from_points([[0, 0, 1, 0]]))
    with pytest.raises(MapUndefined):
        estimate_fundamental_tensor(wrong_dim, pair)


def test_complement_off_the_frame_chart_raises_framing_failure():
    # span(e0, e2) meets p = span(e0, e1), so it is no graph over the
    # adapted frame's p_star block
    meets_p = constant_map(subspace_from_points([[1, 0, 0, 0], [0, 0, 1, 0]]))
    with pytest.raises(FramingFailure):
        estimate_fundamental_tensor(meets_p, standard_pair())


def test_polar_tensor_is_full_rank_and_harmonic():
    rng = np.random.default_rng(34)
    q = random_quadric(rng, 3)
    pair = random_polar_pair(rng, q, 1)
    bm = block_metrics(adapted_frame(pair), q, 1)
    lam = polar_lambda(bm)
    assert lambda_rank(lam) == lam.rho == 4
    assert is_harmonic(lam, tol=1e-12)
    g = symmetrize_metric(lam)
    assert metric_rank(g) == 4
    assert isotropic_dimension(g) == 0


def test_symmetrize_metric_is_one_pair_symmetrization():
    # MetricTensor symmetrizes its input, which is exact on an array that
    # is already symmetric, so one pass gives the bits of two
    rng = np.random.default_rng(37)
    raw = random_lambda(rng, 2, 5)
    np.testing.assert_array_equal(symmetrize_metric(raw).g, pair_symmetrized(raw).lam)


def test_harmonic_defect_vanishes_only_after_symmetrization():
    rng = np.random.default_rng(35)
    raw = random_lambda(rng, 1, 3)
    assert harmonic_defect(raw) > 1e-2
    assert not is_harmonic(raw, tol=1e-9)
    sym = pair_symmetrized(raw)
    assert harmonic_defect(sym) == 0.0
    assert is_harmonic(sym, tol=1e-15)


def test_metric_tensor_symmetrizes_on_construction():
    rng = np.random.default_rng(36)
    raw = random_lambda(rng, 1, 4)
    g = symmetrize_metric(raw)
    np.testing.assert_array_equal(g.g, g.g.transpose(1, 0, 3, 2))
    flat = g.flattened()
    assert flat.shape == (raw.rho, raw.rho)


def test_flattening_layout_row_alpha_i_col_beta_j():
    m, n = 1, 3
    lam = np.zeros((2, 2, 2, 2))
    lam[0, 1, 0, 1] = 7.0  # alpha=0, beta=1, i=0, j=1
    flat = FundamentalTensor(m=m, n=n, lam=lam).flattened()
    # row index alpha*(n-m)+i = 0, column index beta*(n-m)+j = 3
    assert flat[0, 3] == 7.0
    assert np.count_nonzero(flat) == 1


def test_rank_one_directions_are_asymptotic():
    rng = np.random.default_rng(37)
    for _ in range(10):
        col = rng.standard_normal((3, 1))
        row = rng.standard_normal((1, 3))
        d = TangentDirection(m=2, n=5, d=col @ row)
        assert is_asymptotic_direction(d)
    generic = TangentDirection(m=2, n=5, d=rng.standard_normal((3, 3)))
    assert not is_asymptotic_direction(generic)


def test_direction_shape_is_validated():
    with pytest.raises(DimensionMismatch):
        TangentDirection(m=1, n=3, d=np.ones((3, 2)))


def test_isotropic_dimension_counts_metric_kernel():
    # rank-one lam gives a metric with a large kernel
    m, n = 1, 3
    lam = np.zeros((2, 2, 2, 2))
    lam[0, 0, 0, 0] = 1.0
    ft = FundamentalTensor(m=m, n=n, lam=lam)
    g = symmetrize_metric(ft)
    assert metric_rank(g) + isotropic_dimension(g) == ft.rho
    assert isotropic_dimension(g) == ft.rho - 1


def user_polar_map(q):
    """polar_map(q) as a plain callable, so the estimators take the adapter path."""
    return NormalizingMap(fn=lambda p: polar_conjugate(p, q))


def test_batched_polar_graph_matches_the_adapter_path():
    rng = np.random.default_rng(38)
    for m, n in ((1, 3), (1, 4), (2, 5), (3, 7), (4, 9)):
        for _ in range(3):
            q = random_quadric(rng, n)
            pair = random_polar_pair(rng, q, m)
            batched = estimate_fundamental_tensor(polar_map(q), pair).lam
            adapter = estimate_fundamental_tensor(user_polar_map(q), pair).lam
            scale = max(1.0, float(np.max(np.abs(adapter))))
            assert np.max(np.abs(batched - adapter)) <= 1e-9 * scale


def test_tangent_displacement_raises_map_undefined_on_both_paths():
    # the displaced line span(e0 + 0.5 e2, e1) is tangent to the first
    # quadric, while span(e0, e1) itself is not; at m = 0 the displaced
    # point e0 + 0.1 e1 lies on the second quadric, up to a rounding
    # residue in its 1 x 1 Gram matrix
    cases = ((np.diag([1.0, 1.0, -4.0, 1.0]), 1, 0.5), (np.diag([1.0, -100.0, 1.0, 1.0]), 0, 0.1))
    for g, m, eps in cases:
        q = Quadric(n=3, matrix=g)
        for nu in (polar_map(q), user_polar_map(q)):
            with pytest.raises(MapUndefined, match="tangent"):
                estimate_fundamental_tensor_in_frame(nu, np.eye(4), m, eps=eps)


def test_off_chart_displaced_polar_raises_framing_failure_on_both_paths():
    # in this frame the displacement eps = 0.5 of point 0 toward point 2 gives
    # span(e2, e1), whose polar span(e0, e3) meets span(e0, e1)
    q = Quadric(n=3, matrix=np.eye(4))
    frame = np.eye(4)
    frame[0, 2] = -2.0
    for nu in (polar_map(q), user_polar_map(q)):
        with pytest.raises(FramingFailure):
            estimate_fundamental_tensor_in_frame(nu, frame, 1, eps=0.5)


def test_constant_map_errors_on_the_adapter_path_match_the_graph_path():
    pair = standard_pair()
    meets_p = subspace_from_points([[1, 0, 0, 0], [0, 0, 1, 0]])
    wrong_dim = subspace_from_points([[0, 0, 1, 0]])
    for p_star, error in ((meets_p, FramingFailure), (wrong_dim, MapUndefined)):
        for nu in (constant_map(p_star), NormalizingMap(fn=lambda p: p_star)):
            with pytest.raises(error):
                estimate_fundamental_tensor(nu, pair)


def test_polar_estimators_build_no_subspace_per_displacement(monkeypatch):
    built = []
    post_init = Subspace.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    rng = np.random.default_rng(39)
    counts = {}
    for m, n in ((1, 3), (3, 7)):
        q = random_quadric(rng, n)
        pair = random_polar_pair(rng, q, m)
        d = random_direction(rng, m, n)
        monkeypatch.setattr(Subspace, "__post_init__", counting)
        for label, nu in (("polar", polar_map(q)), ("user-polar", user_polar_map(q))):
            built.clear()
            estimate_fundamental_tensor(nu, pair)
            covariant_derivative_estimate(nu, pair, d, eps=1e-3)
            counts[(m, n, label)] = len(built)
        monkeypatch.undo()
    # rho is 4 at G(1,3) and 16 at G(3,7)
    assert counts[(1, 3, "polar")] == counts[(3, 7, "polar")]
    assert counts[(3, 7, "user-polar")] > counts[(1, 3, "user-polar")]


def test_in_frame_estimator_rejects_a_bad_m_or_frame():
    q = Quadric(n=3, matrix=np.diag([1.0, 2.0, 0.5, 1.0]))
    for nu in (polar_map(q), user_polar_map(q)):
        for m in (3, -1):
            with pytest.raises(DimensionMismatch):
                estimate_fundamental_tensor_in_frame(nu, np.eye(4), m)
        with pytest.raises(DimensionMismatch):
            estimate_fundamental_tensor_in_frame(nu, np.eye(4)[:, :3], 1)
        with pytest.raises(SingularFrame):
            estimate_fundamental_tensor_in_frame(nu, np.ones((4, 4)), 1)


@pytest.mark.parametrize("eps", [0.0, -1e-5, np.nan, np.inf])
def test_estimators_reject_an_eps_that_is_not_positive_and_finite(eps):
    rng = np.random.default_rng(34)
    q = random_quadric(rng, 3)
    pair = random_polar_pair(rng, q, 1)
    direction = TangentDirection(m=1, n=3, d=np.eye(2))
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        estimate_fundamental_tensor(polar_map(q), pair, eps=eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        covariant_derivative_estimate(polar_map(q), pair, direction, eps=eps)
