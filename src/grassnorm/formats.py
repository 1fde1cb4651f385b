"""JSON file formats and deterministic report serialization.

Formats (all plain JSON):
  subspace   {"n": int, "points": [[...], ...]}        one point per row
  pair       {"p": <subspace>, "p_star": <subspace>}
  quadric    {"n": int, "matrix": [[...], ...]}        symmetric
  lambda     {"m": int, "n": int, "lambda": [[[[...]]]]}  [a][b][i][j]
  direction  {"m": int, "n": int, "d": [[...], ...]}   (n-m) x (m+1)
  chart      {"m": int, "n": int, "B": [[...], ...]}   (n-m) x (m+1)

Map specifiers are strings "polar:<quadric-file>" or
"constant:<subspace-file>".

Reports serialize with sorted keys and floats printed to 17 significant
digits, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .normalization import (
    FundamentalTensor,
    NormalizingMap,
    TangentDirection,
    constant_map,
)
from .polar import Quadric, polar_map
from .projective_core import MPair, Subspace, subspace_from_points
from .segre_affine import AffineChartPoint


class FormatError(ValueError):
    """Raised when an input file does not match its declared format."""


def _load_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    return data


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise FormatError(f"{where}: missing key {key!r}")
    return data[key]


def _int_field(data: dict, key: str, where: str) -> int:
    value = _require(data, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{where}: key {key!r} must be an integer")
    return value


def _array_field(data: dict, key: str, where: str) -> np.ndarray:
    """The float array at key; its shape and finiteness are checked by
    the constructor it feeds, inside _build."""
    value = _require(data, key, where)
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: key {key!r} is not a numeric array") from exc


def _build(where: str, make, **fields):
    """make(**fields), with any failure reported as a FormatError at where."""
    try:
        return make(**fields)
    except Exception as exc:
        raise FormatError(f"{where}: {exc}") from exc


def parse_subspace(data: dict, where: str = "subspace") -> Subspace:
    n = _int_field(data, "n", where)
    points = _array_field(data, "points", where)
    return _build(where, subspace_from_points, points=points, ambient_n=n)


def load_subspace(path: str | Path) -> Subspace:
    return parse_subspace(_load_json(path), where=str(path))


def dump_subspace(sub: Subspace) -> dict:
    return {"n": sub.ambient_n, "points": sub.coord_matrix.T.tolist()}


def load_pair(path: str | Path) -> MPair:
    data = _load_json(path)
    p = parse_subspace(_require(data, "p", str(path)), where=f"{path}:p")
    p_star = parse_subspace(_require(data, "p_star", str(path)), where=f"{path}:p_star")
    return _build(str(path), MPair, p=p, p_star=p_star)


def load_quadric(path: str | Path) -> Quadric:
    data = _load_json(path)
    n = _int_field(data, "n", str(path))
    matrix = _array_field(data, "matrix", str(path))
    return _build(str(path), Quadric, n=n, matrix=matrix)


def _load_m_n_array(path: str | Path, key: str, make, field: str):
    """make(m=, n=, field=) from a file {"m": int, "n": int, key: array}."""
    data, where = _load_json(path), str(path)
    m = _int_field(data, "m", where)
    n = _int_field(data, "n", where)
    return _build(where, make, m=m, n=n, **{field: _array_field(data, key, where)})


def load_lambda(path: str | Path) -> FundamentalTensor:
    return _load_m_n_array(path, "lambda", FundamentalTensor, "lam")


def dump_lambda(lam: FundamentalTensor) -> dict:
    return {"m": lam.m, "n": lam.n, "lambda": lam.lam.tolist()}


def load_direction(path: str | Path) -> TangentDirection:
    return _load_m_n_array(path, "d", TangentDirection, "d")


def load_chart_point(path: str | Path) -> AffineChartPoint:
    return _load_m_n_array(path, "B", AffineChartPoint, "b")


def parse_map_spec(spec: str) -> tuple[NormalizingMap, dict]:
    """Build a normalizing map from "polar:<file>" or "constant:<file>".

    Also returns the input-digest entry for the referenced file.
    """
    kind, sep, path = spec.partition(":")
    if not sep or not path:
        raise FormatError("map specifier must look like polar:<file> or constant:<file>")
    if kind == "polar":
        return polar_map(load_quadric(path)), {"map": file_digest(path)}
    if kind == "constant":
        return constant_map(load_subspace(path)), {"map": file_digest(path)}
    raise FormatError(f"unknown map kind {kind!r}; use polar: or constant:")


def file_digest(path: str | Path) -> dict:
    """Path and sha256 of an input file, so reports pin their inputs."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return {"path": str(path), "sha256": hashlib.sha256(blob).hexdigest()}


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise FormatError("reports cannot contain non-finite numbers")
    text = format(float(x), ".17g")
    return text


def _serialize(value, out: list):
    if isinstance(value, dict):
        out.append("{")
        for idx, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError("report keys must be strings")
            if idx:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _serialize(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for idx, item in enumerate(value):
            if idx:
                out.append(",")
            _serialize(item, out)
        out.append("]")
    elif isinstance(value, bool) or value is None:
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_format_float(float(value)))
    elif isinstance(value, np.ndarray):
        _serialize(value.tolist(), out)
    elif isinstance(value, str):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value)!r} in a report")


def render_report(report: dict) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    out: list = []
    _serialize(report, out)
    return "".join(out)
