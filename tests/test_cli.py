import hashlib
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from grassnorm.cli import build_parser, run

from _gen import random_lambda


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    eps = 1e-2
    return {
        "p": write("p.json", {"n": 3, "points": [[1, 0, 0, 0], [0, 1, 0, 0]]}),
        "p_star": write("p_star.json", {"n": 3, "points": [[0, 0, 1, 0], [0, 0, 0, 1]]}),
        "quadric": write("q.json", {"n": 3, "matrix": np.eye(4).tolist()}),
        "pair_a": write(
            "pair_a.json",
            {
                "p": {"n": 3, "points": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                "p_star": {"n": 3, "points": [[0, 0, 1, 0], [0, 0, 0, 1]]},
            },
        ),
        "pair_b": write(
            "pair_b.json",
            {
                "p": {"n": 3, "points": [[1, 0, eps, 0], [0, 1, 0, 0]]},
                "p_star": {"n": 3, "points": [[-eps, 0, 1, 0], [0, 0, 0, 1]]},
            },
        ),
        "direction": write("d.json", {"m": 1, "n": 3, "d": [[1.0, 0.0], [0.0, 0.5]]}),
        "chart": write("b.json", {"m": 1, "n": 3, "B": [[0.25, -0.5], [1.0, 0.75]]}),
        "write": write,
    }


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    if not out.strip():
        return code, None
    rep = json.loads(out)
    # every report is the standard encoder's canonical text of itself
    assert out == json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"
    return code, rep


def test_cross_ratio_report(files, capsys):
    code, rep = invoke(
        capsys,
        ["cross-ratio", "--pair-a", files["pair_a"], "--pair-b", files["pair_b"],
         "--log-distance"],
    )
    assert code == 0
    assert rep["command"] == "cross-ratio"
    assert rep["outputs"]["trace"] == pytest.approx(1.0 + 1.0 / 1.0001)
    assert rep["outputs"]["log_distance"] == pytest.approx(-1e-4, rel=1e-3)
    assert set(rep["inputs"]) == {"pair_a", "pair_b"}
    assert all(len(v["sha256"]) == 64 for v in rep["inputs"].values())


def test_estimate_lambda_polar_and_constant(files, capsys):
    code, rep = invoke(
        capsys,
        ["estimate-lambda", "--map", f"polar:{files['quadric']}",
         "--subspace", files["p"]],
    )
    assert code == 0
    lam = np.array(rep["outputs"]["lambda"])
    np.testing.assert_allclose(lam, -np.einsum("ab,ij->abij", np.eye(2), np.eye(2)))
    assert rep["outputs"]["lambda_rank"] == 4

    code, rep = invoke(
        capsys,
        ["estimate-lambda", "--map", f"constant:{files['p_star']}",
         "--subspace", files["p"]],
    )
    assert code == 0
    assert rep["outputs"]["lambda_rank"] == 0


def test_metric_curvature_ricci_pipeline(files, capsys, tmp_path):
    ft = random_lambda(np.random.default_rng(81), 1, 3)
    lam_file = files["write"](
        "lam.json", {"m": 1, "n": 3, "lambda": ft.lam.tolist()}
    )
    code, rep = invoke(capsys, ["metric", "--lambda", lam_file])
    assert code == 0 and np.array(rep["outputs"]["g"]).shape == (2, 2, 2, 2)

    code, rep = invoke(capsys, ["curvature", "--lambda", lam_file])
    assert code == 0 and rep["outputs"]["max_abs"] > 0

    code, rep = invoke(capsys, ["ricci", "--lambda", lam_file])
    assert code == 0
    assert rep["residuals"]["ricci_asymmetry"] > 0


def test_metric_report_gives_the_signature(files, capsys):
    # -I (x) I is negative definite: a Riemannian structure, up to sign
    code, rep = invoke(capsys, ["metric", "--lambda", _polar_lambda_file(files)])
    assert code == 0
    out = rep["outputs"]
    assert out["signature"] == [0, 4, 0]
    assert (out["metric_rank"], out["isotropic_dimension"]) == (4, 0)

    ft = random_lambda(np.random.default_rng(82), 2, 5)
    lam_file = files["write"]("lam.json", {"m": 2, "n": 5, "lambda": ft.lam.tolist()})
    code, rep = invoke(capsys, ["metric", "--lambda", lam_file])
    positive, negative, null = rep["outputs"]["signature"]
    assert positive > 0 and negative > 0 and null == 0  # indefinite: semi-Riemannian
    assert rep["outputs"]["metric_rank"] == positive + negative == ft.rho
    assert rep["outputs"]["isotropic_dimension"] == null


@pytest.mark.parametrize("k", range(4, 9))
def test_near_degenerate_polar_maps_report_full_lambda_rank(files, capsys, k):
    # the quadric restricted to p_star = span(e2, e3) has eigenvalues 1 and
    # 10^-k, so lambda has singular values 1, 1, 10^-k, 10^-k: full rank,
    # with s_min / s_max far above RANK_RTOL
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    g = np.zeros((4, 4))
    g[:2, :2] = np.diag([1.0, -1.0])
    g[2:, 2:] = rot @ np.diag([1.0, 10.0**-k]) @ rot.T
    quadric = files["write"]("near.json", {"n": 3, "matrix": g.tolist()})
    code, rep = invoke(
        capsys, ["estimate-lambda", "--map", f"polar:{quadric}", "--subspace", files["p"]]
    )
    assert code == 0
    assert rep["outputs"]["lambda_rank"] == 4


def test_piped_input_is_digested_from_the_bytes_parsed(files, capsys):
    # a pipe can be read only once, so the digest must be of the bytes parsed
    blob = Path(_polar_lambda_file(files)).read_bytes()
    read_end, write_end = os.pipe()
    os.write(write_end, blob)
    os.close(write_end)  # the loader sees end of file after the blob
    try:
        code, rep = invoke(capsys, ["metric", "--lambda", f"/dev/fd/{read_end}"])
    finally:
        os.close(read_end)
    assert code == 0
    assert rep["inputs"]["lambda"]["sha256"] == hashlib.sha256(blob).hexdigest()


def test_polar_emit_variants(files, capsys):
    for emit in ("conjugate", "lambda", "metric", "curvature", "ricci", "einstein"):
        code, rep = invoke(
            capsys,
            ["polar", "--quadric", files["quadric"], "--subspace", files["p"],
             "--emit", emit],
        )
        assert code == 0, emit
    assert rep["verdicts"]["is_einstein"] is True
    assert rep["outputs"]["constant"] == 1.0


def test_einstein_command(files, capsys):
    code, rep = invoke(
        capsys, ["einstein", "--quadric", files["quadric"], "--subspace", files["p"]]
    )
    assert code == 0
    assert rep["verdicts"]["is_einstein"] is True


def test_homogeneity_verdict_false_gives_exit_one(files, capsys):
    generic = random_lambda(np.random.default_rng(82), 1, 3)
    lam_file = files["write"](
        "generic.json", {"m": 1, "n": 3, "lambda": generic.lam.tolist()}
    )
    code, rep = invoke(capsys, ["check", "homogeneity", "--lambda", lam_file])
    assert code == 1
    assert rep["verdicts"]["is_homogeneous"] is False
    assert rep["residuals"]["is_homogeneous"] > 0


def test_homogeneity_verdict_true_for_polar_tensor(files, capsys):
    lam = -np.einsum("ab,ij->abij", np.eye(2), np.eye(2))
    lam_file = files["write"]("polar_lam.json", {"m": 1, "n": 3, "lambda": lam.tolist()})
    code, rep = invoke(capsys, ["check", "homogeneity", "--lambda", lam_file])
    assert code == 0
    assert rep["verdicts"]["is_homogeneous"] is True


def test_covariant_constancy_check(files, capsys):
    code, rep = invoke(
        capsys,
        ["check", "covariant-constancy", "--map", f"polar:{files['quadric']}",
         "--subspace", files["p"], "--direction", files["direction"],
         "--eps", "1e-4"],
    )
    assert code == 0
    assert rep["verdicts"]["is_covariantly_constant"] is True
    assert rep["residuals"]["is_covariantly_constant"] <= 1e-6


def test_covariant_constancy_default_eps_accepts_polar_map(files, capsys):
    # at eps 1e-5 the residual (about 5e-7) is the rounding floor of the
    # second difference, far above the eps^2 truncation alone
    quadric = files["write"]("q2.json", {"n": 3, "matrix": np.diag([1, 2, 0.5, 1]).tolist()})
    line = files["write"]("line.json", {"n": 3, "points": [[1, 0, 0.3, 0.2], [0, 1, -0.4, 0.1]]})
    code, rep = invoke(
        capsys,
        ["check", "covariant-constancy", "--map", f"polar:{quadric}",
         "--subspace", line, "--direction", files["direction"]],
    )
    assert code == 0
    assert rep["outputs"]["eps"] == 1e-5
    assert rep["verdicts"]["is_covariantly_constant"] is True
    assert rep["residuals"]["is_covariantly_constant"] > 1e-8


def test_project_unproject_roundtrip(files, capsys, tmp_path):
    pg = files["write"](
        "pg.json", {"n": 3, "points": [[1, 0, 0.25, 1.0], [0, 1, -0.5, 0.75]]}
    )
    code, rep = invoke(
        capsys, ["project", "--subspace", pg, "--normalizer", files["p_star"]]
    )
    assert code == 0
    np.testing.assert_allclose(
        np.array(rep["outputs"]["B"]), np.array([[0.25, -0.5], [1.0, 0.75]]), atol=1e-12
    )

    code, rep = invoke(
        capsys, ["unproject", "--chart", files["chart"], "--normalizer", files["p_star"]]
    )
    assert code == 0
    points = np.array(rep["outputs"]["p"]["points"])
    np.testing.assert_allclose(
        points, np.array([[1, 0, 0.25, 1.0], [0, 1, -0.5, 0.75]]), atol=1e-12
    )


def test_flatness_command(files, capsys):
    code, rep = invoke(capsys, ["flatness", "--m", "2", "--n", "5"])
    assert code == 0
    assert rep["verdicts"]["is_flat"] is True
    assert rep["residuals"]["lambda_rank"] == 0
    assert type(rep["residuals"]["is_flat"]) is float


def test_reports_are_byte_identical_across_runs(files, capsys):
    argv = ["polar", "--quadric", files["quadric"], "--subspace", files["p"],
            "--emit", "einstein"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second and first.strip()


def test_error_paths_exit_two(files, capsys):
    assert run(["cross-ratio", "--pair-a", "missing.json", "--pair-b", files["pair_b"]]) == 2
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    bad = files["write"]("badq.json", {"n": 3, "matrix": np.zeros((4, 4)).tolist()})
    assert run(["polar", "--quadric", bad, "--subspace", files["p"]]) == 2
    capsys.readouterr()


MEETS_P = {"n": 3, "points": [[1, 0, 0, 0], [0, 0, 0, 1]]}  # span(e0, e3) meets span(e0, e1)


@pytest.mark.parametrize("option", ["--pair-a", "--pair-b"])
def test_pair_file_whose_members_meet_exits_two_naming_the_file(files, capsys, option):
    meeting = files["write"](
        "meeting_pair.json", {"p": {"n": 3, "points": [[1, 0, 0, 0], [0, 1, 0, 0]]}, "p_star": MEETS_P}
    )
    argv = ["cross-ratio", "--pair-a", files["pair_a"], "--pair-b", files["pair_b"]]
    argv[argv.index(option) + 1] = meeting
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {meeting}: pair members do not span the ambient space\n"


def test_constant_map_meeting_the_subspace_exits_two(files, capsys):
    meeting = files["write"]("meeting_star.json", MEETS_P)
    assert run(["estimate-lambda", "--map", f"constant:{meeting}", "--subspace", files["p"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pair members do not span the ambient space\n"


@pytest.mark.parametrize("s", [1.2e-9, 1.5e-9, 2e-9])
def test_constant_map_leaning_toward_the_subspace_exits_zero(files, capsys, s):
    # the pair (span(e0), span(e0 + s e1, e2)) is valid, so it has a frame
    p = files["write"]("point.json", {"n": 2, "points": [[1, 0, 0]]})
    leaning = files["write"]("leaning.json", {"n": 2, "points": [[1, s, 0], [0, 0, 1]]})
    code, rep = invoke(capsys, ["estimate-lambda", "--map", f"constant:{leaning}", "--subspace", p])
    assert code == 0
    assert rep["outputs"]["lambda_rank"] == 0
    assert not np.any(rep["outputs"]["lambda"])


def test_non_utf8_input_exits_two_naming_the_file(files, capsys, tmp_path):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xff" + json.dumps({"m": 1, "n": 3}).encode())
    assert run(["metric", "--lambda", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad} is not valid JSON: 'utf-8' codec")


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-0.001"])
def test_eps_that_is_not_positive_and_finite_exits_two(files, capsys, eps):
    polar = ["--map", f"polar:{files['quadric']}", "--subspace", files["p"]]
    for args in (
        ["estimate-lambda", *polar],
        ["check", "covariant-constancy", *polar, "--direction", files["direction"]],
    ):
        assert run([*args, "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eps must be positive and finite" in captured.err


def _polar_lambda_file(files):
    lam = -np.einsum("ab,ij->abij", np.eye(2), np.eye(2))
    return files["write"]("polar_lam.json", {"m": 1, "n": 3, "lambda": lam.tolist()})


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_two_with_nothing_on_stdout(files, capsys, tol):
    # the report carries the tolerance, and reports refuse non-finite numbers
    lam_file = _polar_lambda_file(files)
    assert run(["check", "homogeneity", "--lambda", lam_file, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "non-finite" in captured.err


def test_negative_tol_exits_two_with_nothing_on_stdout(files, capsys):
    # a negative tolerance would fail every verdict, so it is bad input
    lam_file = _polar_lambda_file(files)
    assert run(["check", "homogeneity", "--lambda", lam_file, "--tol", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must not be negative, got -1.0" in captured.err


# entries of 1e200 overflow the residual's products to inf - inf = nan; the
# suite turns any numpy RuntimeWarning into an error, so none may be raised
def test_nan_residual_exits_two_naming_the_value(files, capsys):
    lam = np.full((2, 2, 2, 2), 1e200)
    lam_file = files["write"]("huge_lam.json", {"m": 1, "n": 3, "lambda": lam.tolist()})
    assert run(["check", "homogeneity", "--lambda", lam_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "residual is_homogeneous must be a non-negative number, got nan" in captured.err


# minimal required arguments of each subcommand; the parser opens no file
SUBCOMMANDS = {
    "cross-ratio": ["--pair-a", "a.json", "--pair-b", "b.json"],
    "estimate-lambda": ["--map", "polar:q.json", "--subspace", "p.json"],
    "metric": ["--lambda", "lam.json"],
    "curvature": ["--lambda", "lam.json"],
    "ricci": ["--lambda", "lam.json"],
    "polar": ["--quadric", "q.json", "--subspace", "p.json"],
    "einstein": ["--quadric", "q.json", "--subspace", "p.json"],
    "check homogeneity": ["--lambda", "lam.json"],
    "check covariant-constancy": [
        "--map", "polar:q.json", "--subspace", "p.json", "--direction", "d.json",
    ],
    "project": ["--subspace", "p.json", "--normalizer", "c.json"],
    "unproject": ["--chart", "b.json", "--normalizer", "c.json"],
    "flatness": ["--m", "1", "--n", "3"],
}
READ_BY = {
    "--tol": {"polar", "einstein", "check homogeneity", "check covariant-constancy"},
    "--eps": {"estimate-lambda", "check covariant-constancy"},
}
# options the parser takes but the handler refuses, before it opens a file:
# polar reads --tol only for --emit einstein
REFUSED_BY_HANDLER = {("polar", "--tol"): "--tol applies only to --emit einstein"}


@pytest.mark.parametrize("option", sorted(READ_BY))
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_tol_and_eps_only_where_they_are_read(capsys, command, option):
    argv = [*command.split(), *SUBCOMMANDS[command], option, "1e-3"]
    refusal = REFUSED_BY_HANDLER.get((command, option))
    if command in READ_BY[option]:
        assert getattr(build_parser().parse_args(argv), option[2:]) == 1e-3
    if command not in READ_BY[option] or refusal:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (refusal or f"unrecognized arguments: {option} 1e-3") in captured.err


def test_readme_command_lines_parse():
    # every grassnorm line of the README's "Command line" block, so the
    # documented options cannot drift from the parser's
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```sh\n(.*?)^```", section, flags=re.S | re.M)
    lines = block.replace("\\\n", " ").splitlines()
    assert lines and all(line.startswith("grassnorm ") for line in lines)
    parsed = [build_parser().parse_args(shlex.split(line)[1:]) for line in lines]
    names = {" ".join(filter(None, [a.command, getattr(a, "check_command", None)])) for a in parsed}
    assert names == set(SUBCOMMANDS)


def test_tangent_subspace_reported_as_error(files, capsys):
    cone = files["write"](
        "cone.json", {"n": 3, "matrix": np.diag([1.0, -1.0, 1.0, 1.0]).tolist()}
    )
    touching = files["write"](
        "tangent_p.json", {"n": 3, "points": [[1, 1, 0, 0], [0, 0, 1, 0]]}
    )
    assert run(["polar", "--quadric", cone, "--subspace", touching]) == 2
    capsys.readouterr()


def test_dense_result_over_budget_exits_two(files, capsys):
    # identity quadric on P^41: the covariant curvature of a 20-plane would
    # hold 21^8 floats, about 300 GB, so it is refused before allocation
    n = 41
    quadric = files["write"]("q41.json", {"n": n, "matrix": np.eye(n + 1).tolist()})
    plane = files["write"]("p20.json", {"n": n, "points": np.eye(n + 1)[:21].tolist()})
    code = run(["polar", "--quadric", quadric, "--subspace", plane, "--emit", "curvature"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"needs {8 * 21**8} bytes" in captured.err
