import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from grassnorm import polar_conjugate, subspace_from_points
from grassnorm.formats import (
    FormatError,
    dump_lambda,
    dump_subspace,
    load_chart_point,
    load_direction,
    load_lambda,
    load_pair,
    load_quadric,
    load_subspace,
    parse_map_spec,
    render_report,
)

from _gen import random_lambda


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_subspace_roundtrip(tmp_path):
    sub = subspace_from_points([[1.0, 0.5, 0.0, 2.0], [0.0, 1.0, -1.0, 0.25]])
    path = write(tmp_path, "s.json", dump_subspace(sub))
    again, _ = load_subspace(path)
    assert again.same_as(sub)
    np.testing.assert_array_equal(again.coord_matrix, sub.coord_matrix)


def test_lambda_roundtrip(tmp_path):
    ft = random_lambda(np.random.default_rng(71), 1, 4)
    path = write(tmp_path, "l.json", dump_lambda(ft))
    again, _ = load_lambda(path)
    assert again.m == ft.m and again.n == ft.n
    np.testing.assert_array_equal(again.lam, ft.lam)


def test_pair_quadric_direction_chart_loaders(tmp_path):
    pair_path = write(
        tmp_path,
        "pair.json",
        {
            "p": {"n": 3, "points": [[1, 0, 0, 0], [0, 1, 0, 0]]},
            "p_star": {"n": 3, "points": [[0, 0, 1, 0], [0, 0, 0, 1]]},
        },
    )
    pair, _ = load_pair(pair_path)
    assert pair.m == 1 and pair.ambient_n == 3

    quad_path = write(tmp_path, "q.json", {"n": 3, "matrix": np.eye(4).tolist()})
    assert load_quadric(quad_path)[0].n == 3

    dir_path = write(tmp_path, "d.json", {"m": 1, "n": 3, "d": [[1.0, 0.0], [0.0, 1.0]]})
    assert load_direction(dir_path)[0].d.shape == (2, 2)

    chart_path = write(tmp_path, "b.json", {"m": 1, "n": 3, "B": [[0.5, 0.0], [0.0, 0.5]]})
    assert load_chart_point(chart_path)[0].b.shape == (2, 2)


@pytest.mark.parametrize(
    "payload",
    [
        {"points": [[1, 0, 0]]},                      # missing n
        {"n": 2, "points": [[1, 0], [0, 1]]},         # ragged width vs n
        {"n": 2, "points": "nope"},                   # not a matrix
        {"n": 2, "points": [[1, 0, 0], [1, 0, 0]]},   # dependent rows
    ],
)
def test_bad_subspace_files_raise_format_or_geometry_errors(tmp_path, payload):
    path = write(tmp_path, "bad.json", payload)
    with pytest.raises(Exception) as exc_info:
        load_subspace(path)
    assert exc_info.type.__name__ in {"FormatError", "DependentPoints", "DimensionMismatch"}


@pytest.mark.parametrize(
    "blob, message",
    [
        (b'{"n": 3, "points": [[1, 0, 0, 0]]', "is not valid JSON"),
        (b'\xff{"n": 3, "points": [[1, 0, 0, 0]]}', "is not valid JSON: 'utf-8' codec"),
        (b"[[1, 0, 0, 0]]", "top level must be a JSON object"),
        (b'{"n": 3.0, "points": [[1, 0, 0, 0]]}', "key 'n' must be an integer"),
        (b'{"n": true, "points": [[1, 0]]}', "key 'n' must be an integer"),
    ],
    ids=["bad-json", "not-utf8", "not-an-object", "float-n", "boolean-n"],
)
def test_unreadable_files_raise_format_errors_naming_the_path(tmp_path, blob, message):
    path = tmp_path / "bad.json"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=message) as exc_info:
        load_subspace(path)
    assert str(exc_info.value).startswith(str(path))


# a valid file of each array format: loader, payload, key of its array
VALID_FILES = {
    "load_subspace": (load_subspace, {"n": 3, "points": [[1, 0, 0, 0], [0, 1, 0, 0]]}, "points"),
    "load_quadric": (load_quadric, {"n": 3, "matrix": np.eye(4).tolist()}, "matrix"),
    "load_lambda": (
        load_lambda, {"m": 1, "n": 3, "lambda": np.zeros((2, 2, 2, 2)).tolist()}, "lambda"
    ),
    "load_direction": (load_direction, {"m": 1, "n": 3, "d": [[1.0, 0.0], [0.0, 1.0]]}, "d"),
    "load_chart_point": (load_chart_point, {"m": 1, "n": 3, "B": [[0.5, 0.0], [0.0, 0.5]]}, "B"),
}


@pytest.mark.parametrize("defect", ["axis-dropped", "axis-short", "nan"])
@pytest.mark.parametrize("loader", sorted(VALID_FILES))
def test_loaders_refuse_a_wrong_shape_or_a_nan(tmp_path, loader, defect):
    # the loaders only convert; the constructor each array feeds checks it
    load, payload, key = VALID_FILES[loader]
    arr = np.array(payload[key], dtype=float)
    if defect == "axis-dropped":
        arr = arr[..., 0]  # for lambda, the (2, 2, 2) array of an m = 1, n = 3 file
    elif defect == "axis-short":
        arr = arr[..., :-1]
    else:
        arr[(0,) * arr.ndim] = np.nan
    path = write(tmp_path, "bad.json", {**payload, key: arr.tolist()})
    with pytest.raises(FormatError, match="non-finite" if defect == "nan" else None) as exc_info:
        load(path)
    assert str(exc_info.value).startswith(f"{path}: ")


def test_map_spec_parsing(tmp_path):
    # under the identity quadric the polar of span(e0, e1) is span(e2, e3),
    # which is also the constant complement written to s.json
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    quad_path = write(tmp_path, "q.json", {"n": 3, "matrix": np.eye(4).tolist()})
    nu, digest = parse_map_spec(f"polar:{quad_path}")
    quadric, quad_digest = load_quadric(quad_path)
    assert digest == quad_digest and digest["path"] == quad_path
    assert nu(p).same_as(polar_conjugate(p, quadric))

    sub_path = write(tmp_path, "s.json", {"n": 3, "points": [[0, 0, 1, 0], [0, 0, 0, 1]]})
    nu2, digest2 = parse_map_spec(f"constant:{sub_path}")
    p_star, sub_digest = load_subspace(sub_path)
    assert digest2 == sub_digest and digest2["path"] == sub_path
    assert nu2(p).same_as(p_star)

    with pytest.raises(FormatError):
        parse_map_spec("spherical:q.json")
    with pytest.raises(FormatError):
        parse_map_spec("polar:")
    with pytest.raises(FormatError):
        parse_map_spec(f"polar:{tmp_path}/missing.json")


@pytest.mark.parametrize("loader", sorted(VALID_FILES))
def test_loaders_return_the_digest_of_the_bytes_parsed(tmp_path, loader):
    load, payload, _ = VALID_FILES[loader]
    path = write(tmp_path, "x.json", payload)
    _, digest = load(path)
    sha256 = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert digest == {"path": path, "sha256": sha256}


def test_render_report_is_deterministic_and_sorted():
    report = {
        "command": "demo",
        "outputs": {"zeta": 1.0, "alpha": np.float64(0.5), "m": np.int64(2)},
        "matrix": np.eye(2),
        "flag": True,
        "nothing": None,
    }
    text = render_report(report)
    assert text == render_report({k: report[k] for k in reversed(list(report))})
    parsed = json.loads(text)
    assert parsed["outputs"]["m"] == 2 and parsed["flag"] is True
    assert list(parsed) == sorted(parsed)


def test_render_report_rejects_non_finite():
    with pytest.raises(FormatError):
        render_report({"x": float("nan")})
    with pytest.raises(FormatError):
        render_report({"x": np.inf})


def test_render_report_float_formatting_roundtrips():
    vals = [1e-17, -0.0, 1 / 3, 2.0**-52, 12345.6789e300, 2.0]
    text = render_report({"v": vals})
    back = json.loads(text)["v"]
    assert back == vals
    # whole-number floats read back as floats, and -0.0 keeps its sign
    assert all(type(x) is float for x in back)
    assert math.copysign(1.0, back[1]) == -1.0
