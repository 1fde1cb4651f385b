"""Runs one workload in a process of its own and prints its result.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
The last line of standard output is the result object; the same object is
written to ``perfbench/out/``.  Modules that import numpy are imported only
after ``import_library`` has timed the library's import.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SHIM = HERE / "cli_shim.py"

SETUP_REPEATS = 5
# the timed phase also runs until this many tasks completed, so that p90 has
# ten samples beyond it
MIN_TASKS = 100
PEAK_FUNCTIONS = (
    "connection.curvature_tensor",
    "connection.homogeneity_residual",
    "polar.adjust_curvature_indices",
)


def import_library():
    t0 = clock()
    import numpy  # noqa: F401
    import grassnorm

    elapsed = clock() - t0
    if not Path(grassnorm.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"grassnorm was imported from {grassnorm.__file__}, not from {SRC}")
    return grassnorm, elapsed


class Tally:
    """Latencies and counts of a phase.  Operations that raised count in
    ``failed``; outputs that failed a check are listed in ``wrong``."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.wrong: list[str] = []
        self.raised: list[str] = []

    def add(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong


def note(messages: list, text: str):
    """Keep and print the first few messages of a kind."""
    if len(messages) < 5:
        messages.append(text)
        print(text, file=sys.stderr)


def run_task(task, tally: Tally):
    t0 = clock()
    try:
        out = task.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        tally.busy += clock() - t0
        tally.attempted += 1
        tally.failed += 1
        if not task.fault:
            note(tally.raised, f"operation failed: {task.kind}: {type(exc).__name__}: {exc}")
        return
    dt = clock() - t0
    tally.busy += dt
    tally.attempted += 1
    tally.latencies.append(dt)
    try:
        task.check(out)
    except Exception as exc:  # any exception here means an unexpected output
        note(tally.wrong, f"check failed: {task.kind}: {type(exc).__name__}: {exc}")


def timed_phase(wl, seconds: float) -> Tally:
    tally = Tally()
    while tally.busy < seconds or len(tally.latencies) < MIN_TASKS:
        for task in wl.plain:
            run_task(task, tally)
    return tally


def traced_phase(wl, seconds: float):
    """Untraced and traced rounds alternate; the traced ones feed the
    per-layer figures and the paired round times give the overhead (%)."""
    plain, traced, ratios = Tally(), Tally(), []
    while plain.busy + traced.busy < seconds:
        p0, t0 = plain.busy, traced.busy
        for task in wl.plain:
            run_task(task, plain)
        with wl.tracing():
            for task in wl.traced:
                wl.begin_task(traced.attempted)
                run_task(task, traced)
        ratios.append((traced.busy - t0) / (plain.busy - p0))
    return plain, traced, 100.0 * (statistics.median(ratios) - 1.0)


def end_to_end(tally: Tally, setup_s: float, peak_rss_kb: int) -> dict:
    lat = tally.latencies
    return {
        "setup_s": setup_s,
        "tasks_per_s": len(lat) / tally.busy,
        "task_ms_p50": 1e3 * statistics.median(lat),
        "task_ms_p90": 1e3 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def source_lines(layers) -> dict:
    counts = {f"lines.{layer}": 0 for layer in layers}
    other = 0
    for path in sorted((SRC / "grassnorm").glob("*.py")):
        n = len(path.read_text(encoding="utf-8").splitlines())
        key = f"lines.{path.stem}"
        if key in counts:
            counts[key] = n
        else:
            other += n
    counts["lines.other"] = other
    counts["lines.total"] = sum(counts.values())
    return counts


def layer_metrics(tr, tasks: int) -> dict:
    """Per-task figures read from a Tracer's span edges."""

    def per(v):
        return v / tasks

    def ms(s):
        return 1e3 * s / tasks

    dense = ("adjust_curvature_indices", "covariant_curvature", "einstein_check")
    return {
        "linalg.svd_rank.calls": per(tr.calls("linalg.svd_rank")),
        "linalg.rref.calls": per(tr.calls("linalg.rref")),
        "linalg.self_ms": ms(tr.self_s("linalg.")),
        "projective_core.subspace_from_points.calls": per(tr.calls("projective_core.subspace_from_points")),
        "projective_core.self_ms": ms(tr.self_s("projective_core.")),
        "normalization.map_calls": per(tr.calls("normalization.NormalizingMap.__call__")),
        "normalization.estimate.self_ms": ms(tr.self_s("normalization.estimate_fundamental_tensor")),
        "polar.polar_conjugate.calls": per(tr.calls("polar.polar_conjugate")),
        "polar.polar_conjugate.ms": ms(tr.total_s("polar.polar_conjugate")),
        "connection.covariant_derivative.self_ms": ms(tr.self_s("connection.covariant_derivative_estimate")),
        "cross_ratio.calls": per(tr.calls("cross_ratio.cross_ratio")),
        "cross_ratio.ms": ms(tr.entry_s("cross_ratio")),
        "connection.curvature_tensor.ms": ms(tr.total_s("connection.curvature_tensor")),
        "connection.homogeneity_residual.ms": ms(tr.total_s("connection.homogeneity_residual")),
        "polar.dense_ms": ms(sum(tr.total_s(f"polar.{f}") for f in dense)),
        "cli.run_ms": ms(tr.total_s("cli.run")),
        "formats.load_ms": ms(
            tr.entry_s("formats", exclude={"formats.render_report", "formats.dump_lambda", "formats.dump_subspace"})
        ),
        "formats.render_ms": ms(tr.total_s("formats.render_report")),
        "segre_affine.ms": ms(tr.entry_s("segre_affine")),
    }


class InProcess:
    """estimate-polar and tensor-algebra: library calls in this process;
    the tracer wraps the layers during traced rounds."""

    def __init__(self, gn, name: str, seed: int):
        import workloads
        from spec import LAYERS
        from tracer import Tracer

        self.make = lambda: workloads.IN_PROCESS[name](gn, seed)
        self.tracer = Tracer(LAYERS)

    def setup(self) -> float:
        t0 = clock()
        self.plain = self.traced = self.make()
        warm = {}
        for task in self.plain:
            if task.warm and not task.fault:
                warm.setdefault(task.kind, task)
        elapsed = clock() - t0
        for task in warm.values():
            t1 = clock()
            task.run()
            elapsed += clock() - t1
        return elapsed

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def begin_task(self, index: int):
        self.tracer.task = index

    @contextlib.contextmanager
    def tracing(self):
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def per_layer(self, traced: Tally):
        from tracer import PeakTracer

        layers = layer_metrics(self.tracer, traced.attempted)
        with PeakTracer(PEAK_FUNCTIONS) as peaks:
            seen = set()
            for task in self.plain:
                if not task.fault and task.kind not in seen:
                    seen.add(task.kind)
                    task.run()
        for fn, peak in peaks.peaks.items():
            layers[f"{fn}.peak_mb"] = peak / 2**20
        return layers, self.tracer


class CliOneShot:
    """cli-oneshot: one child process per call.  Traced rounds run the
    children through cli_shim.py and merge the span file each one writes."""

    def __init__(self, gn, seed: int):
        from tracer import Tracer

        self.gn, self.seed = gn, seed
        self.workdir = OUT / f"cli-seed{seed}"
        self.trace_file = self.workdir / "child-trace.json"
        self.spans = Tracer(())
        self.imports: list[float] = []
        self.run_s = 0.0
        self.task = 0

    def setup(self) -> float:
        import workloads

        t0 = clock()
        calls = workloads.cli_calls(self.gn, self.seed, self.workdir)
        self.plain = workloads.cli_tasks(calls, [sys.executable, "-m", "grassnorm"], self.workdir)
        env = dict(os.environ, PERFBENCH_TRACE_OUT=str(self.trace_file))
        self.traced = workloads.cli_tasks(calls, [sys.executable, str(SHIM)], self.workdir, env, self._merge)
        self.plain[0].run()
        return clock() - t0

    def _merge(self):
        child = json.loads(self.trace_file.read_text(encoding="utf-8"))
        self.spans.merge(child, self.task)
        self.imports.append(child["import_s"])
        self.run_s += child["run_s"]

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def begin_task(self, index: int):
        self.task = index

    def tracing(self):
        return contextlib.nullcontext()

    def per_layer(self, traced: Tally):
        layers = layer_metrics(self.spans, traced.attempted)
        layers["cli.import_ms"] = 1e3 * statistics.fmean(self.imports)
        layers["cli.startup_ms"] = 1e3 * (sum(traced.latencies) - self.run_s) / len(traced.latencies)
        return layers, self.spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    gn, import_s = import_library()
    import spec

    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli-oneshot":
        wl = CliOneShot(gn, args.seed)
    else:
        wl = InProcess(gn, args.workload, args.seed)
    setup_s = import_s + statistics.median(wl.setup() for _ in range(SETUP_REPEATS))

    if not args.trace:
        tally = timed_phase(wl, args.seconds)
        values = end_to_end(tally, setup_s, wl.peak_rss_kb())
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    else:
        plain, traced, overhead = traced_phase(wl, args.seconds)
        tally = Tally()
        tally.add(plain)
        tally.add(traced)
        layers, tracer = wl.per_layer(traced)
        layers["trace.overhead_pct"] = overhead
        layers.update(source_lines(spec.LAYERS))
        units = {n: u for n, u, _ in spec.PER_LAYER}
        values = {n: layers.get(n, 0.0) for n in units}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        print(f"tracing overhead: {overhead:.1f}% of untraced task time "
              f"(trace written to {trace_path.relative_to(HERE.parent)})")

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in units},
    }
    for n in units:
        print(f"{args.workload:18s} {n:45s} {values[n]:14.6g} {units[n]}")
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
