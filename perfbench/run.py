"""grassnorm benchmark: one command for every workload.

    python3 perfbench/run.py --workload estimate-polar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in turn
    python3 perfbench/run.py --write-spec                 # regenerate BENCHMARK.json

Run from the root of a checkout.  Each workload runs in a process of its
own that imports the library from the checkout's ``src``; the last line of
standard output is the result object.  Exits with status 2 when the
checkout has no library source.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import spec  # noqa: E402


def worker_env() -> dict:
    """Library source first on the path; one BLAS thread, so that runs on a
    small shared machine are steady and the workload is single-threaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        return subprocess.run(cmd, env=worker_env(), timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload {workload} did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    names = [n for n, _ in spec.WORKLOADS]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "grassnorm" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'grassnorm'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        status = max(status, run_one(name, args.seed, args.seconds, args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
