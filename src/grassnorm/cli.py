"""Command line interface.

Every subcommand prints a single JSON report to stdout with the fields
command, inputs (file digests), outputs, residuals, verdicts, and
tolerance.  Keys are sorted and floats are written in Python's shortest
round-trip repr; whole-number floats keep their `.0`.  Identical inputs
give byte-identical reports.  Exit status is 0 when all verdicts hold
(or there are none), 1 when some verdict fails, and 2 on input or
validation errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .connection import (
    covariant_derivative_estimate,
    curvature_tensor,
    homogeneity_residual,
    ricci_tensor,
)
from .errors import GeometryError
from .formats import (
    dump_lambda,
    dump_subspace,
    file_digest,
    load_chart_point,
    load_direction,
    load_lambda,
    load_pair,
    load_quadric,
    load_subspace,
    parse_map_spec,
    render_report,
)
from .cross_ratio import cross_ratio, cr_log_distance
from .normalization import (
    DEFAULT_EPS,
    MPair,
    estimate_fundamental_tensor,
    isotropic_dimension,
    lambda_rank,
    metric_rank,
    symmetrize_metric,
)
from .polar import (
    adjust_curvature_indices,
    block_metrics,
    covariant_curvature,
    einstein_check,
    polar_conjugate,
    polar_lambda,
)
from .projective_core import adapted_frame
from .segre_affine import flatness_report, inverse_projection, stereographic_projection

DEFAULT_TOL = 1e-9


def _report(command, inputs, outputs=None, residuals=None, verdicts=None, tolerance=DEFAULT_TOL):
    residuals = dict(residuals or {})
    verdicts = dict(verdicts or {})
    for key, value in residuals.items():
        if not float(value) >= 0.0:
            raise ValueError(f"residual {key} must be a non-negative number, got {value}")
    for key in verdicts:
        if key not in residuals:
            raise ValueError(f"verdict {key} has no accompanying residual")
    return {
        "command": command,
        "inputs": dict(inputs),
        "outputs": dict(outputs or {}),
        "residuals": residuals,
        "verdicts": verdicts,
        "tolerance": float(tolerance),
    }


def _tol(args, default=DEFAULT_TOL) -> float:
    """--tol, else default; NaN and inf pass here, and the report refuses them."""
    tol = default if args.tol is None else args.tol
    if tol < 0:
        raise ValueError(f"--tol must not be negative, got {tol}")
    return tol


def _cmd_cross_ratio(args):
    pair_a = load_pair(args.pair_a)
    pair_b = load_pair(args.pair_b)
    w = cross_ratio(pair_a, pair_b)
    outputs = {"m": w.m, "n": w.ambient_n, "trace": w.trace, "w": w.w.tolist()}
    if args.log_distance:
        outputs["log_distance"] = cr_log_distance(pair_a, pair_b)
    inputs = {"pair_a": file_digest(args.pair_a), "pair_b": file_digest(args.pair_b)}
    return _report("cross-ratio", inputs, outputs=outputs)


def _pair_under_map(args):
    nu, map_input = parse_map_spec(args.map)
    p = load_subspace(args.subspace)
    pair = MPair(p=p, p_star=nu(p))
    inputs = dict(map_input)
    inputs["subspace"] = file_digest(args.subspace)
    return nu, pair, inputs


def _cmd_estimate_lambda(args):
    nu, pair, inputs = _pair_under_map(args)
    lam = estimate_fundamental_tensor(nu, pair, eps=args.eps)
    outputs = dump_lambda(lam)
    outputs["lambda_rank"] = lambda_rank(lam, atol=10.0 * args.eps)
    outputs["eps"] = args.eps
    return _report("estimate-lambda", inputs, outputs=outputs)


def _cmd_metric(args):
    lam = load_lambda(args.lambda_file)
    g = symmetrize_metric(lam)
    outputs = {
        "m": g.m,
        "n": g.n,
        "g": g.g.tolist(),
        "metric_rank": metric_rank(g),
        "isotropic_dimension": isotropic_dimension(g),
    }
    inputs = {"lambda": file_digest(args.lambda_file)}
    return _report("metric", inputs, outputs=outputs)


def _cmd_curvature(args):
    lam = load_lambda(args.lambda_file)
    curv = curvature_tensor(lam)
    outputs = {
        "m": curv.m,
        "n": curv.n,
        "curvature": curv.r.tolist(),
        "max_abs": curv.max_abs(),
    }
    inputs = {"lambda": file_digest(args.lambda_file)}
    return _report("curvature", inputs, outputs=outputs)


def _cmd_ricci(args):
    lam = load_lambda(args.lambda_file)
    ric = ricci_tensor(lam)
    outputs = {"m": ric.m, "n": ric.n, "ricci": ric.ric.tolist()}
    residuals = {"ricci_asymmetry": ric.asymmetry()}
    inputs = {"lambda": file_digest(args.lambda_file)}
    return _report("ricci", inputs, outputs=outputs, residuals=residuals)


def _polar_blocks(args):
    quadric = load_quadric(args.quadric)
    p = load_subspace(args.subspace)
    p_star = polar_conjugate(p, quadric)
    pair = MPair(p=p, p_star=p_star)
    bm = block_metrics(adapted_frame(pair), quadric, p.dim)
    inputs = {"quadric": file_digest(args.quadric), "subspace": file_digest(args.subspace)}
    return quadric, pair, bm, inputs


def _einstein_report(command, args):
    _, _, bm, inputs = _polar_blocks(args)
    tol = _tol(args)
    result = einstein_check(bm, tol=tol)
    return _report(
        command,
        inputs,
        outputs={"constant": result.constant},
        residuals={"is_einstein": result.residual},
        verdicts={"is_einstein": result.is_einstein},
        tolerance=tol,
    )


def _cmd_polar(args):
    if args.emit == "einstein":
        return _einstein_report("polar", args)
    if args.tol is not None:
        raise ValueError("--tol applies only to --emit einstein")
    _, pair, bm, inputs = _polar_blocks(args)
    if args.emit == "conjugate":
        outputs = {"p_star": dump_subspace(pair.p_star)}
    elif args.emit == "lambda":
        outputs = dump_lambda(polar_lambda(bm))
    elif args.emit == "metric":
        outputs = {
            "g_ab": bm.g_ab.tolist(),
            "g_ab_inv": bm.g_ab_inv.tolist(),
            "g_ij": bm.g_ij.tolist(),
        }
    elif args.emit == "curvature":
        rc = covariant_curvature(bm)
        outputs = {"covariant_curvature": rc.rc.tolist(), "max_abs": rc.max_abs()}
    else:  # ricci
        ric = ricci_tensor(polar_lambda(bm))
        outputs = {"ricci": ric.ric.tolist()}
    return _report("polar", inputs, outputs=outputs)


def _cmd_einstein(args):
    return _einstein_report("einstein", args)


def _cmd_check_homogeneity(args):
    lam = load_lambda(args.lambda_file)
    tol = _tol(args)
    residual = homogeneity_residual(lam)
    scale = float(np.max(np.abs(lam.lam), initial=0.0))
    threshold = tol * scale * scale
    inputs = {"lambda": file_digest(args.lambda_file)}
    return _report(
        "check homogeneity",
        inputs,
        outputs={"lambda_max_abs": scale, "threshold": threshold},
        residuals={"is_homogeneous": residual},
        verdicts={"is_homogeneous": bool(residual <= threshold)},
        tolerance=tol,
    )


def _cmd_check_covariant_constancy(args):
    nu, pair, inputs = _pair_under_map(args)
    direction = load_direction(args.direction)
    inputs["direction"] = file_digest(args.direction)
    grad = covariant_derivative_estimate(nu, pair, direction, eps=args.eps)
    max_abs = float(np.max(np.abs(grad), initial=0.0))
    lam = estimate_fundamental_tensor(nu, pair, eps=args.eps).lam
    lam_scale = float(np.max(np.abs(lam), initial=0.0))
    # default threshold: the O(eps^2) truncation of the second difference
    # plus its rounding floor u / eps^2, u the float64 machine epsilon
    u = np.finfo(float).eps
    threshold = _tol(args, default=100.0 * (args.eps**2 + u / args.eps**2) * max(1.0, lam_scale))
    return _report(
        "check covariant-constancy",
        inputs,
        outputs={"eps": args.eps, "gradient": grad.tolist(), "threshold": threshold},
        residuals={"is_covariantly_constant": max_abs},
        verdicts={"is_covariantly_constant": bool(max_abs <= threshold)},
        tolerance=threshold,
    )


def _cmd_project(args):
    p = load_subspace(args.subspace)
    p_star = load_subspace(args.normalizer)
    chart = stereographic_projection(p, p_star)
    inputs = {"normalizer": file_digest(args.normalizer), "subspace": file_digest(args.subspace)}
    outputs = {"m": chart.m, "n": chart.n, "B": chart.b.tolist()}
    return _report("project", inputs, outputs=outputs)


def _cmd_unproject(args):
    chart = load_chart_point(args.chart)
    p_star = load_subspace(args.normalizer)
    p = inverse_projection(chart, p_star)
    inputs = {"chart": file_digest(args.chart), "normalizer": file_digest(args.normalizer)}
    return _report("unproject", inputs, outputs={"p": dump_subspace(p)})


def _cmd_flatness(args):
    values = flatness_report(args.m, args.n)
    residuals = {key: float(value) for key, value in values.items()}
    worst = max(residuals.values())
    residuals["is_flat"] = worst
    return _report(
        "flatness",
        {},
        outputs={"m": args.m, "n": args.n},
        residuals=residuals,
        verdicts={"is_flat": bool(worst == 0.0)},
    )


def build_parser() -> argparse.ArgumentParser:
    # each option only on the subcommands that read it
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None, help="verdict tolerance, not negative")
    eps = argparse.ArgumentParser(add_help=False)
    eps.add_argument("--eps", type=float, default=DEFAULT_EPS, help="finite-difference step")

    parser = argparse.ArgumentParser(
        prog="grassnorm",
        description="Cross-ratios, normalizations, and connections on Grassmann manifolds",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("cross-ratio", help="cross-ratio of two m-pairs")
    p.add_argument("--pair-a", required=True)
    p.add_argument("--pair-b", required=True)
    p.add_argument("--log-distance", action="store_true")
    p.set_defaults(handler=_cmd_cross_ratio)

    p = sub.add_parser(
        "estimate-lambda", parents=[eps], help="finite-difference fundamental tensor"
    )
    p.add_argument("--map", required=True, help="polar:<quadric-file> or constant:<subspace-file>")
    p.add_argument("--subspace", required=True)
    p.set_defaults(handler=_cmd_estimate_lambda)

    p = sub.add_parser("metric", help="symmetrized metric of a tensor file")
    p.add_argument("--lambda", dest="lambda_file", required=True)
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("curvature", help="curvature of the induced connection")
    p.add_argument("--lambda", dest="lambda_file", required=True)
    p.set_defaults(handler=_cmd_curvature)

    p = sub.add_parser("ricci", help="Ricci tensor of the induced connection")
    p.add_argument("--lambda", dest="lambda_file", required=True)
    p.set_defaults(handler=_cmd_ricci)

    p = sub.add_parser("polar", parents=[tol], help="polar normalization by a quadric")
    p.add_argument("--quadric", required=True)
    p.add_argument("--subspace", required=True)
    p.add_argument(
        "--emit",
        choices=["conjugate", "lambda", "metric", "curvature", "ricci", "einstein"],
        default="conjugate",
    )
    p.set_defaults(handler=_cmd_polar)

    p = sub.add_parser("einstein", parents=[tol], help="Einstein check of a polar normalization")
    p.add_argument("--quadric", required=True)
    p.add_argument("--subspace", required=True)
    p.set_defaults(handler=_cmd_einstein)

    check = sub.add_parser("check", help="residual checks")
    check_sub = check.add_subparsers(dest="check_command")

    p = check_sub.add_parser("homogeneity", parents=[tol], help="eight-term quadratic residual")
    p.add_argument("--lambda", dest="lambda_file", required=True)
    p.set_defaults(handler=_cmd_check_homogeneity)

    p = check_sub.add_parser(
        "covariant-constancy", parents=[tol, eps], help="covariant derivative along a direction"
    )
    p.add_argument("--map", required=True)
    p.add_argument("--subspace", required=True)
    p.add_argument("--direction", required=True)
    p.set_defaults(handler=_cmd_check_covariant_constancy)

    p = sub.add_parser("project", help="chart coordinates of a subspace")
    p.add_argument("--subspace", required=True)
    p.add_argument("--normalizer", required=True, help="subspace file for the chart center")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("unproject", help="subspace from chart coordinates")
    p.add_argument("--chart", required=True)
    p.add_argument("--normalizer", required=True)
    p.set_defaults(handler=_cmd_unproject)

    p = sub.add_parser("flatness", help="flat-case residuals for G(m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_flatness)

    return parser


def run(argv=None) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        report = args.handler(args)
        print(render_report(report))  # rendering refuses non-finite numbers
    except (GeometryError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdicts = report.get("verdicts", {})
    return 0 if all(verdicts.values()) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
