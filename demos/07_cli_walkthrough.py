"""
Driving the command line interface
==================================

The `grassnorm` command reads small JSON files and prints deterministic
key = value reports.  This script writes a set of inputs to a temp
directory and walks through the main subcommands exactly as a shell
session would (python -m grassnorm works the same way).  Exit codes:
0 for a clean result, 1 when a checked verdict is false, 2 for bad
inputs.
"""

import json
import tempfile
from pathlib import Path

from grassnorm.cli import run


def write(tmp, name, payload):
    path = tmp / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


with tempfile.TemporaryDirectory(prefix="grassnorm_demo_") as tmpdir:
    tmp = Path(tmpdir)
    pair_a = write(tmp, "pair_a.json", {
        "p": {"n": 3, "points": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        "p_star": {"n": 3, "points": [[0, 0, 1, 0], [0, 0, 0, 1]]},
    })
    pair_b = write(tmp, "pair_b.json", {
        "p": {"n": 3, "points": [[1, 0, 0.3, 0], [0, 1, 0, 0.1]]},
        "p_star": {"n": 3, "points": [[0.2, 0, 1, 0], [0, -0.1, 0, 1]]},
    })
    quadric = write(tmp, "quadric.json", {
        "n": 3,
        "matrix": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 1]],
    })
    subspace = write(tmp, "line.json", {"n": 3, "points": [[1, 0, 0.2, 0], [0, 1, 0, -0.1]]})
    center = write(tmp, "center.json", {"n": 3, "points": [[0, 0, 1, 0], [0, 0, 0, 1]]})
    direction = write(tmp, "direction.json", {"m": 1, "n": 3, "d": [[0.5, -0.1], [0.2, 0.3]]})
    chart = write(tmp, "chart.json", {"m": 1, "n": 3, "B": [[0.2, 0], [0, -0.1]]})
    # a tensor with no special structure, for the failing verdict below
    lopsided = write(tmp, "lopsided.json", {
        "m": 1, "n": 3,
        "lambda": [[[[1, 0], [0, 1]], [[0, 2], [0, 0]]],
                   [[[0, 0], [3, 0]], [[1, 0], [0, -1]]]],
    })

    steps = [
        ["cross-ratio", "--pair-a", pair_a, "--pair-b", pair_b, "--log-distance"],
        ["estimate-lambda", "--map", f"polar:{quadric}", "--subspace", subspace],
        ["polar", "--quadric", quadric, "--subspace", subspace, "--emit", "ricci"],
        ["einstein", "--quadric", quadric, "--subspace", subspace],
        ["check", "covariant-constancy", "--map", f"polar:{quadric}",
         "--subspace", subspace, "--direction", direction, "--eps", "1e-3"],
        ["project", "--subspace", subspace, "--normalizer", center],
        ["unproject", "--chart", chart, "--normalizer", center],
        ["flatness", "--m", "1", "--n", "3"],
        # verdict false -> exit 1
        ["check", "homogeneity", "--lambda", lopsided],
        # wrong file type for --quadric -> exit 2
        ["polar", "--quadric", pair_a, "--subspace", subspace],
    ]

    for argv in steps:
        print("$ grassnorm " + " ".join(argv), flush=True)
        code = run(argv)
        print(f"[exit {code}]", flush=True)
        print(flush=True)
