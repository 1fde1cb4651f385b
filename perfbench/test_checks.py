"""Self-tests of the benchmark: every checker accepts the library's output on
well-conditioned inputs and rejects a deliberately wrong answer, so a
checker that always passes is caught.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import grassnorm as gn  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import PeakTracer, Tracer  # noqa: E402

SIZES = [(1, 3), (2, 5), (3, 7)]


@pytest.fixture(params=SIZES, ids=lambda s: f"G{s}")
def polar_case(request):
    m, n = request.param
    rng = np.random.default_rng([7, m, n])
    g, points, d = gen.polar_input(rng, m, n)
    nu = gn.polar_map(gn.Quadric(n=n, matrix=g))
    p = gn.subspace_from_points(points)
    pair = gn.MPair(p=p, p_star=nu(p))
    frame = gn.adapted_frame(pair).frame_matrix
    return m, n, g, points, d, nu, pair, frame


def test_polar_lambda_checker(polar_case):
    m, n, g, points, d, nu, pair, frame = polar_case
    lam = gn.estimate_fundamental_tensor(nu, pair, eps=workloads.EPS).lam
    checks.check_frame(frame, points, g, m)
    checks.check_polar_lambda(lam, frame, g, m)
    wrong = lam.copy()
    wrong[0, 0, 0, 0] += 1e-3 * np.max(np.abs(lam))
    with pytest.raises(checks.CheckFailed):
        checks.check_polar_lambda(wrong, frame, g, m)
    with pytest.raises(checks.CheckFailed):
        checks.check_polar_lambda(-lam, frame, g, m)
    with pytest.raises(checks.CheckFailed):
        checks.check_frame(frame[:, ::-1], points, g, m)


def test_gradient_checker(polar_case):
    m, n, g, points, d, nu, pair, frame = polar_case
    grad = gn.covariant_derivative_estimate(nu, pair, gn.TangentDirection(m=m, n=n, d=d), workloads.EPS)
    scale = float(np.max(np.abs(checks.polar_lambda_ref(frame, g, m))))
    checks.check_gradient_vanishes(grad, scale)
    with pytest.raises(checks.CheckFailed):
        checks.check_gradient_vanishes(grad + 1e-2 * scale, scale)


def test_log_distance_checker(polar_case):
    m, n, g, points, _, nu, pair, frame = polar_case
    lam = checks.polar_lambda_ref(frame, g, m)
    # the unit direction with the largest |quadratic form|, so that a 1% error
    # in lambda is far above the checker's limit
    k = (n - m) * (m + 1)
    form = lam.transpose(2, 1, 3, 0).reshape(k, k)
    w, v = np.linalg.eigh(0.5 * (form + form.T))
    d = v[:, np.argmax(np.abs(w))].reshape(n - m, m + 1)
    t = workloads.T_DIST
    p_t = gn.subspace_from_points((frame[:, : m + 1] + t * frame[:, m + 1 :] @ d).T)
    dist = gn.cr_log_distance(pair, gn.MPair(p=p_t, p_star=nu(p_t)))
    checks.check_log_distance(dist, t, lam, d)
    with pytest.raises(checks.CheckFailed):
        checks.check_log_distance(dist, t, 1.01 * lam, d)
    with pytest.raises(checks.CheckFailed):
        checks.check_log_distance(1.01 * dist, t, lam, d)


def test_cross_ratio_trace_checker(polar_case):
    m, n, g, points, d, nu, pair, frame = polar_case
    rng = np.random.default_rng(3)
    q_points = rng.standard_normal((m + 1, n + 1))
    q_star = rng.standard_normal((n - m, n + 1))
    pair_b = gn.MPair(p=gn.subspace_from_points(q_points), p_star=gn.subspace_from_points(q_star))
    trace = gn.cross_ratio(pair, pair_b).trace
    ref = checks.cross_ratio_trace_ref(points, checks.polar_points(points, g), q_points, q_star)
    checks.check_cross_ratio_trace(trace, ref)
    with pytest.raises(checks.CheckFailed):
        checks.check_cross_ratio_trace(trace * (1 + 1e-6), ref)


@pytest.mark.parametrize("m,n", [(2, 5), (3, 7)])
def test_tensor_checkers(m, n):
    rng = np.random.default_rng([11, m, n])
    g_ab, g_ij = gen.block_metrics(rng, m, n)
    g_ab_inv = np.linalg.inv(g_ab)
    bm = gn.BlockMetrics(m=m, n=n, g_ab=g_ab, g_ij=g_ij, g_ab_inv=g_ab_inv)
    polar = gn.polar_lambda(bm)
    generic = gn.FundamentalTensor(m=m, n=n, lam=gen.generic_lambda(rng, m, n))
    for lam in (polar, generic):
        curv = gn.curvature_tensor(lam)
        checks.check_curvature_samples(curv.r, lam.lam, rng)
        with pytest.raises(checks.CheckFailed):
            checks.check_curvature_samples(curv.r, 1.001 * lam.lam, rng)
        checks.check_ricci(gn.ricci_tensor(lam).ric, lam.lam, n)
        checks.check_ricci(gn.ricci_from_curvature(curv).ric, lam.lam, n)
        with pytest.raises(checks.CheckFailed):
            checks.check_ricci(gn.ricci_tensor(lam).ric, lam.lam, n + 1)

    checks.check_homogeneity(gn.homogeneity_residual(polar), polar.lam, polar=True)
    checks.check_homogeneity(gn.homogeneity_residual(generic), generic.lam, polar=False)
    with pytest.raises(checks.CheckFailed):
        checks.check_homogeneity(gn.homogeneity_residual(generic), generic.lam, polar=True)
    with pytest.raises(checks.CheckFailed):
        checks.check_homogeneity(gn.homogeneity_residual(polar), polar.lam, polar=False)

    adjusted = gn.adjust_curvature_indices(gn.curvature_tensor(polar), bm).rc
    checks.check_covariant_curvature_samples(adjusted, g_ab_inv, g_ij, rng)
    checks.check_covariant_curvature_samples(gn.covariant_curvature(bm).rc, g_ab_inv, g_ij, rng)
    with pytest.raises(checks.CheckFailed):
        checks.check_covariant_curvature_samples(adjusted, g_ab_inv, 1.001 * g_ij, rng)

    constant = gn.einstein_check(bm).constant
    checks.check_einstein_constant(constant, n)
    with pytest.raises(checks.CheckFailed):
        checks.check_einstein_constant(constant + 1e-6, n)
    with pytest.raises(checks.CheckFailed):
        checks.check_einstein_constant(n / 2.0, n)


def test_projector_distance_ignores_the_basis():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 3))
    mix = rng.standard_normal((3, 3)) @ np.diag([1e-4, 1.0, 1e4])
    checks.check_same_subspace(a @ mix, a, "respan")
    with pytest.raises(checks.CheckFailed):
        checks.check_same_subspace(a + 1e-6 * rng.standard_normal(a.shape), a, "moved")


def test_tracer_counts_spans_and_restores():
    tracer = Tracer(spec.LAYERS)
    original = gn.subspace_from_points
    tracer.install()
    try:
        assert gn.subspace_from_points is not original
        gn.subspace_from_points([[1.0, 0, 0], [0, 1.0, 0]])
    finally:
        tracer.uninstall()
    assert gn.subspace_from_points is original
    assert tracer.calls("projective_core.subspace_from_points") == 1
    assert tracer.calls("linalg.svd_rank") >= 1
    assert tracer.calls("projective_core.no_such_function") == 0
    assert tracer.total_s("projective_core.subspace_from_points") >= tracer.self_s(
        "projective_core.subspace_from_points"
    )


def test_peak_tracer_sees_numpy_allocations():
    lam = gn.FundamentalTensor(m=2, n=5, lam=np.ones((3, 3, 3, 3)))
    with PeakTracer(["connection.curvature_tensor", "connection.gone"]) as peaks:
        gn.curvature_tensor(lam)
    assert peaks.peaks["connection.curvature_tensor"] >= 3**8 * 8
    assert peaks.peaks["connection.gone"] == 0


def test_worker_reports_exactly_the_per_layer_metrics_of_the_spec():
    reported = set(worker.layer_metrics(Tracer(()), 1))
    reported |= {f"{fn}.peak_mb" for fn in worker.PEAK_FUNCTIONS}
    reported |= {"cli.import_ms", "cli.startup_ms", "trace.overhead_pct"}
    reported |= set(worker.source_lines(spec.LAYERS))
    assert reported == {n for n, _, _ in spec.PER_LAYER}


def test_benchmark_json_matches_spec():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
