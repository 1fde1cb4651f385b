"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` at the root of the
repository; ``python3 perfbench/run.py --write-spec`` regenerates that file
from it, and ``test_checks.py`` fails when the two disagree.
"""

from __future__ import annotations

# Long runs, because the speed of a small shared machine drifts by tens of
# percent over seconds to minutes and Python-heavy tasks feel it most; three
# workloads of 40 s, each run about twenty times, fit an hour.
RUN_SECONDS = 40

# The layers are the modules of src/grassnorm, in dependency order.
LAYERS = (
    "linalg",
    "projective_core",
    "cross_ratio",
    "normalization",
    "connection",
    "polar",
    "segre_affine",
    "formats",
    "cli",
)

WORKLOADS = (
    (
        "estimate-polar",
        "built-in polar maps on G(1,3)-G(4,9): canonicalization, polar_conjugate and the "
        "estimator loop do the work; carries three tasks that fail on a known fault",
    ),
    (
        "tensor-algebra",
        "dense einsum work and memory on G(2,5)-G(6,13) (curvature, Ricci, homogeneity, "
        "index adjustment) with no canonicalization or estimation",
    ),
    (
        "cli-oneshot",
        "one grassnorm process per request on G(1,3)-G(2,5) files: start-up, imports and "
        "JSON in/out dominate a call",
    ),
)

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("task_ms_p50", "ms", "lower", 0.25),
    ("task_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better; every value is per attempted task of the traced rounds
# unless the README says otherwise.
PER_LAYER = (
    ("linalg.svd_rank.calls", "count", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.self_ms", "ms", "lower"),
    ("projective_core.subspace_from_points.calls", "count", "lower"),
    ("projective_core.self_ms", "ms", "lower"),
    ("normalization.map_calls", "count", "lower"),
    ("normalization.estimate.self_ms", "ms", "lower"),
    ("polar.polar_conjugate.calls", "count", "lower"),
    ("polar.polar_conjugate.ms", "ms", "lower"),
    ("connection.covariant_derivative.self_ms", "ms", "lower"),
    ("cross_ratio.calls", "count", "lower"),
    ("cross_ratio.ms", "ms", "lower"),
    ("connection.curvature_tensor.ms", "ms", "lower"),
    ("connection.homogeneity_residual.ms", "ms", "lower"),
    ("polar.dense_ms", "ms", "lower"),
    ("connection.curvature_tensor.peak_mb", "MB", "lower"),
    ("connection.homogeneity_residual.peak_mb", "MB", "lower"),
    ("polar.adjust_curvature_indices.peak_mb", "MB", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.run_ms", "ms", "lower"),
    ("formats.load_ms", "ms", "lower"),
    ("formats.render_ms", "ms", "lower"),
    ("segre_affine.ms", "ms", "lower"),
    *((f"lines.{layer}", "lines", "lower") for layer in LAYERS),
    ("lines.other", "lines", "lower"),
    ("lines.total", "lines", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
