"""The three workloads.

A workload builds one *round*: a fixed, seeded, interleaved list of tasks.
The worker repeats whole rounds, so every run attempts the same mix and
machine drift during a run hits every kind and size alike.  A task is one
user-level request; ``run`` is timed, ``check`` is not.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen

EPS = 1e-5  # finite-difference step of the estimators
T_DIST = 1e-3  # displacement for the log-distance check

# Tasks per round for each G(m, n).  On estimate-polar each size takes a
# fifth to two fifths of the run.  The counts keep the p50 and p90 ranks well
# inside one size class, since latencies of neighbouring sizes overlap on a
# noisy machine: G(1,3) lies up to 62% and G(3,7) from 83% to 97%.
POLAR_COUNTS = {(1, 3): 18, (2, 5): 6, (3, 7): 4, (4, 9): 1}
# (m, n, polar) -> tasks per round; p50 falls in generic G(3,7) (40-60% of
# the sorted latencies) and p90 in generic G(5,11) (85-95%).
TENSOR_COUNTS = {
    (2, 5, False): 12, (2, 5, True): 12,
    (3, 7, False): 12, (3, 7, True): 6,
    (4, 9, False): 5, (4, 9, True): 4,
    (5, 11, False): 6, (5, 11, True): 1,
    (6, 13, False): 1, (6, 13, True): 1,
}
CLI_SIZES = ((1, 3), (2, 5))

# The fault kept in estimate-polar: polar_conjugate raises TangentSubspace on
# this line for delta in [1e-8, 1e-5], although its Gram matrix in an
# orthonormal basis has singular-value ratio 0.31.  Not seeded.
FAULT_QUADRIC = np.diag([1.0, 2.0, 0.5, 1.0])
FAULT_DELTAS = (1e-5, 1e-6, 1e-7)
FAULT_DIRECTION = np.array([[0.6, -0.2], [0.3, 0.7]]) / np.linalg.norm([0.6, -0.2, 0.3, 0.7])


def fault_points(delta: float) -> np.ndarray:
    return np.array([[delta, 0.0, 1.0, 0.3], [0.0, 1.0, 0.2, 0.7]])


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fault: bool = False  # fails today on a known fault; counted as failed
    warm: bool = True  # may stand for its kind in the set-up warm-up


def _interleave(rng, tasks):
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


# -- estimate-polar ----------------------------------------------------------


def _estimate_task(gn, kind, m, n, g, points, d, fault=False):
    """Estimate lambda of the polar map of the quadric ``g``, its covariant
    derivative along d, and the log distance to the pair moved by T_DIST
    along d."""
    quadric = gn.Quadric(n=n, matrix=g)

    def run():
        nu = gn.polar_map(quadric)
        p = gn.subspace_from_points(points)
        pair = gn.MPair(p=p, p_star=nu(p))
        lam = gn.estimate_fundamental_tensor(nu, pair, eps=EPS)
        grad = gn.covariant_derivative_estimate(nu, pair, gn.TangentDirection(m=m, n=n, d=d), EPS)
        frame = gn.adapted_frame(pair).frame_matrix
        moved = frame[:, : m + 1] + T_DIST * (frame[:, m + 1 :] @ d)
        p_t = gn.subspace_from_points(moved.T)
        dist = gn.cr_log_distance(pair, gn.MPair(p=p_t, p_star=nu(p_t)))
        return frame, lam.lam, grad, dist

    def check(out):
        frame, lam, grad, dist = out
        checks.check_frame(frame, points, g, m)
        checks.check_polar_lambda(lam, frame, g, m)
        ref = checks.polar_lambda_ref(frame, g, m)
        checks.check_gradient_vanishes(grad, float(np.max(np.abs(ref))))
        checks.check_log_distance(dist, T_DIST, ref, d)

    return Task(kind, run, check, fault)


def estimate_polar(gn, seed: int):
    rng = np.random.default_rng([seed, 1])
    tasks = []
    for (m, n), count in POLAR_COUNTS.items():
        for _ in range(count):
            g, points, d = gen.polar_input(rng, m, n)
            tasks.append(_estimate_task(gn, f"G({m},{n})", m, n, g, points, d))
    for delta in FAULT_DELTAS:
        tasks.append(
            _estimate_task(gn, "fault", 1, 3, FAULT_QUADRIC, fault_points(delta), FAULT_DIRECTION, fault=True)
        )
    return _interleave(rng, tasks)


# -- tensor-algebra --------------------------------------------------------------


def _tensor_task(gn, rng, m, n, polar):
    check_rng = np.random.default_rng(rng.integers(2**32))
    if polar:
        g_ab, g_ij = gen.block_metrics(rng, m, n)
        g_ab_inv = np.linalg.inv(g_ab)
        lam_ref = -np.einsum("ab,ij->abij", g_ab_inv, g_ij)
        generic = None
    else:
        generic = gen.generic_lambda(rng, m, n)
        lam_ref = generic

    def run():
        if polar:
            bm = gn.BlockMetrics(m=m, n=n, g_ab=g_ab, g_ij=g_ij, g_ab_inv=g_ab_inv)
            lam = gn.polar_lambda(bm)
        else:
            lam = gn.FundamentalTensor(m=m, n=n, lam=generic)
        curv = gn.curvature_tensor(lam)
        out = {
            "lam": lam.lam,
            "curv": curv.r,
            "ric": gn.ricci_tensor(lam).ric,
            "ric_curv": gn.ricci_from_curvature(curv).ric,
            "homogeneity": gn.homogeneity_residual(lam),
        }
        if polar:
            out["adjusted"] = gn.adjust_curvature_indices(curv, bm).rc
            out["covariant"] = gn.covariant_curvature(bm).rc
            out["einstein"] = gn.einstein_check(bm)
        return out

    def check(out):
        checks.check_close(out["lam"], lam_ref, "lambda differs from its input")
        checks.check_curvature_samples(out["curv"], lam_ref, check_rng)
        checks.check_ricci(out["ric"], lam_ref, n)
        checks.check_ricci(out["ric_curv"], lam_ref, n)
        checks.check_homogeneity(out["homogeneity"], lam_ref, polar)
        if polar:
            for key in ("adjusted", "covariant"):
                checks.check_covariant_curvature_samples(out[key], g_ab_inv, g_ij, check_rng)
            ein = out["einstein"]
            checks.check_einstein_constant(ein.constant, n)
            if not ein.is_einstein:
                raise checks.CheckFailed("einstein_check rejects a polar tensor")

    kind = f"G({m},{n})/{'polar' if polar else 'generic'}"
    # the largest sizes take most of a second; warm-up runs up to G(4,9)
    return Task(kind, run, check, warm=m <= 4)


def tensor_algebra(gn, seed: int):
    rng = np.random.default_rng([seed, 3])
    tasks = [
        _tensor_task(gn, rng, m, n, polar)
        for (m, n, polar), count in TENSOR_COUNTS.items()
        for _ in range(count)
    ]
    return _interleave(rng, tasks)


# -- cli-oneshot -------------------------------------------------------------------


@dataclass
class CliCall:
    """One grassnorm invocation, its expected exit status and its checker.

    The first output is checked for content; every later output must be
    byte-identical to it.
    """

    kind: str
    args: list
    check: Callable[[dict], None]
    status: int = 0
    first: bytes | None = field(default=None, repr=False)


def cli_calls(gn, seed: int, workdir: Path):
    """Write the input files for G(1,3) and G(2,5) into ``workdir`` and
    return the round of CLI calls over them."""
    rng = np.random.default_rng([seed, 4])
    workdir.mkdir(parents=True, exist_ok=True)
    calls = [c for m, n in CLI_SIZES for c in _cli_size_calls(gn, rng, m, n, workdir)]
    return _interleave(rng, calls)


def _cli_size_calls(gn, rng, m: int, n: int, workdir: Path):
    tag = f"g{m}{n}"
    f = {k: f"{tag}_{k}.json" for k in (
        "quadric", "p", "const", "pair_a", "pair_b", "lam_polar", "lam_generic", "dir", "chart")}
    g, points, d = gen.polar_input(rng, m, n)
    star = checks.polar_points(points, g)
    # a second pair and a chart center, in general position by orthonormal bases
    eye = np.eye(n + 1)
    x = checks.orthonormal_basis(points)
    while True:
        q_points = rng.standard_normal((m + 1, n + 1))
        q_star = rng.standard_normal((n - m, n + 1))
        const = rng.standard_normal((n - m, n + 1))
        u, v, w = (checks.polar_points(a, eye) for a in (star, q_star, const))
        y = checks.orthonormal_basis(q_points)
        if (
            min(gen.conditioning(u @ x), gen.conditioning(v @ y), gen.conditioning(w @ x)) >= 0.05
            and min(gen.leading_margin(a) for a in (q_points, q_star, v, const, w)) >= 0.1
            # the log distance needs a positive cross-ratio trace
            and checks.cross_ratio_trace_ref(points, star, q_points, q_star) >= 0.5
        ):
            break
    g_ab, g_ij = gen.block_metrics(rng, m, n)
    lam_polar = -np.einsum("ab,ij->abij", np.linalg.inv(g_ab), g_ij)
    lam_generic = gen.generic_lambda(rng, m, n)
    p_sub = gn.subspace_from_points(points)
    chart = gn.stereographic_projection(p_sub, gn.subspace_from_points(const)).b

    def sub(pts):
        return {"n": n, "points": np.asarray(pts).tolist()}

    for key, data in (
        ("quadric", {"n": n, "matrix": g.tolist()}),
        ("p", sub(points)),
        ("const", sub(const)),
        ("pair_a", {"p": sub(points), "p_star": sub(star)}),
        ("pair_b", {"p": sub(q_points), "p_star": sub(q_star)}),
        ("lam_polar", {"m": m, "n": n, "lambda": lam_polar.tolist()}),
        ("lam_generic", {"m": m, "n": n, "lambda": lam_generic.tolist()}),
        ("dir", {"m": m, "n": n, "d": d.tolist()}),
        ("chart", {"m": m, "n": n, "B": chart.tolist()}),
    ):
        (workdir / f[key]).write_text(json.dumps(data), encoding="utf-8")

    frame = gn.adapted_frame(gn.MPair(p=p_sub, p_star=gn.subspace_from_points(star))).frame_matrix
    polar_ref = checks.polar_lambda_ref(frame, g, m)
    trace_ref = checks.cross_ratio_trace_ref(points, star, q_points, q_star)
    check_rng = np.random.default_rng(rng.integers(2**32))

    def estimate_polar_check(r):
        checks.check_frame(frame, points, g, m)
        checks.check_polar_lambda(r["outputs"]["lambda"], frame, g, m)

    def constant_check(r):
        checks.check_close(r["outputs"]["lambda"], np.zeros_like(lam_polar), "constant map lambda", rtol=1e-12)

    def cross_check(r):
        checks.check_cross_ratio_trace(r["outputs"]["trace"], trace_ref)
        checks.check_close(r["outputs"]["log_distance"], (m + 1) * np.log(trace_ref / (m + 1)), "log distance")

    def einstein_check(r):
        checks.check_einstein_constant(r["outputs"]["constant"], n)
        if not r["verdicts"]["is_einstein"]:
            raise checks.CheckFailed("polar normalization reported not Einstein")

    def homogeneity_check(r, lam, polar):
        checks.check_homogeneity(r["residuals"]["is_homogeneous"], lam, polar)
        if r["verdicts"]["is_homogeneous"] != polar:
            raise checks.CheckFailed("homogeneity verdict is wrong")

    def constancy_check(r):
        checks.check_gradient_vanishes(r["outputs"]["gradient"], float(np.max(np.abs(polar_ref))))
        if not r["verdicts"]["is_covariantly_constant"]:
            raise checks.CheckFailed("polar map reported not covariantly constant")

    def flat_check(r):
        if not r["verdicts"]["is_flat"] or r["residuals"]["is_flat"] != 0.0:
            raise checks.CheckFailed("constant normalization reported not flat")

    polar_args = ["--quadric", f["quadric"], "--subspace", f["p"]]
    return [
        CliCall(f"{tag}/estimate-lambda-polar",
                ["estimate-lambda", "--map", f"polar:{f['quadric']}", "--subspace", f["p"]],
                estimate_polar_check),
        CliCall(f"{tag}/estimate-lambda-constant",
                ["estimate-lambda", "--map", f"constant:{f['const']}", "--subspace", f["p"]],
                constant_check),
        CliCall(f"{tag}/cross-ratio",
                ["cross-ratio", "--pair-a", f["pair_a"], "--pair-b", f["pair_b"], "--log-distance"],
                cross_check),
        CliCall(f"{tag}/polar-einstein", ["polar", *polar_args, "--emit", "einstein"], einstein_check),
        CliCall(f"{tag}/polar-lambda", ["polar", *polar_args, "--emit", "lambda"],
                lambda r: checks.check_close(r["outputs"]["lambda"], polar_ref, "polar --emit lambda")),
        CliCall(f"{tag}/polar-ricci", ["polar", *polar_args, "--emit", "ricci"],
                lambda r: checks.check_ricci(r["outputs"]["ricci"], polar_ref, n, rtol=1e-9)),
        CliCall(f"{tag}/einstein", ["einstein", *polar_args], einstein_check),
        CliCall(f"{tag}/metric", ["metric", "--lambda", f["lam_generic"]],
                lambda r: checks.check_close(
                    r["outputs"]["g"], 0.5 * (lam_generic + lam_generic.transpose(1, 0, 3, 2)), "metric")),
        CliCall(f"{tag}/ricci", ["ricci", "--lambda", f["lam_generic"]],
                lambda r: checks.check_ricci(r["outputs"]["ricci"], lam_generic, n)),
        CliCall(f"{tag}/curvature", ["curvature", "--lambda", f["lam_generic"]],
                lambda r: checks.check_curvature_samples(
                    np.asarray(r["outputs"]["curvature"]), lam_generic, check_rng)),
        CliCall(f"{tag}/homogeneity-polar", ["check", "homogeneity", "--lambda", f["lam_polar"]],
                lambda r: homogeneity_check(r, lam_polar, True)),
        CliCall(f"{tag}/homogeneity-generic", ["check", "homogeneity", "--lambda", f["lam_generic"]],
                lambda r: homogeneity_check(r, lam_generic, False), status=1),
        CliCall(f"{tag}/covariant-constancy",
                # at the default --eps 1e-5 the rounding floor of the second
                # difference (~1e-6) is above the default threshold (~1e-8), so
                # polar maps are reported not constant; see CHANGES.md
                ["check", "covariant-constancy", "--map", f"polar:{f['quadric']}",
                 "--subspace", f["p"], "--direction", f["dir"], "--eps", "1e-3"],
                constancy_check),
        CliCall(f"{tag}/project", ["project", "--subspace", f["p"], "--normalizer", f["const"]],
                lambda r: checks.check_close(r["outputs"]["B"], chart, "project", rtol=1e-12)),
        CliCall(f"{tag}/unproject", ["unproject", "--chart", f["chart"], "--normalizer", f["const"]],
                lambda r: checks.check_same_subspace(
                    np.asarray(r["outputs"]["p"]["points"]).T, points.T, "unproject does not return p")),
        CliCall(f"{tag}/flatness", ["flatness", "--m", str(m), "--n", str(n)], flat_check),
    ]


class CliFailed(Exception):
    """The command exited with status 2, its own error exit."""


def check_cli(call: CliCall, proc: subprocess.CompletedProcess):
    if proc.returncode != call.status:
        raise checks.CheckFailed(f"exit status {proc.returncode}, expected {call.status}")
    if call.first is None:
        call.check(json.loads(proc.stdout))
        call.first = proc.stdout
    elif proc.stdout != call.first:
        raise checks.CheckFailed("output differs from the first call's bytes")


def cli_tasks(calls, argv: list, workdir: Path, env=None, after=None):
    """One Task per call, running ``argv + call.args`` in ``workdir``;
    ``after()`` runs (untimed) once a call has completed."""

    def task(call: CliCall) -> Task:
        def run():
            proc = subprocess.run(argv + call.args, cwd=workdir, env=env, capture_output=True, timeout=60)
            if proc.returncode == 2:
                raise CliFailed(proc.stderr.decode(errors="replace")[-300:])
            return proc

        def check(proc):
            if after is not None:
                after()
            check_cli(call, proc)

        return Task(call.kind, run, check)

    return [task(c) for c in calls]


IN_PROCESS = {
    "estimate-polar": estimate_polar,
    "tensor-algebra": tensor_algebra,
}
