"""Output checks, computed apart from the library with plain numpy.

Each checker raises ``CheckFailed`` with the measured error and the limit.
The limits carry a wide margin over what correct output shows (see
README.md); ``test_checks.py`` shows that each one rejects a wrong answer.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, what: str, measured: float, limit: float):
    if not ok:
        raise CheckFailed(f"{what}: measured {measured:.3e}, limit {limit:.3e}")


def orthonormal_basis(points) -> np.ndarray:
    """Orthonormal columns spanning the rows (or columns, if tall) given."""
    a = np.asarray(points, dtype=float)
    if a.shape[0] < a.shape[1]:
        a = a.T
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : int(np.sum(s > 1e-12 * s[0]))]


def projector_distance(a, b) -> float:
    """Spectral norm of the difference of the orthogonal projectors onto the
    column spans of ``a`` and ``b``; zero for the same subspace."""
    qa, qb = orthonormal_basis(a), orthonormal_basis(b)
    if qa.shape != qb.shape:
        return math.inf
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T, 2))


def polar_points(points, g) -> np.ndarray:
    """Rows spanning the polar {y : x^T g y = 0 for every row x}."""
    x = np.asarray(points, dtype=float)
    _, _, vt = np.linalg.svd(x @ g)
    return vt[x.shape[0] :]


def polar_lambda_ref(frame, g, m: int) -> np.ndarray:
    """-inv(A_p^T G A_p) (x) (A_*^T G A_*), the polar tensor in ``frame``."""
    ap, ast = frame[:, : m + 1], frame[:, m + 1 :]
    return -np.einsum("ab,ij->abij", np.linalg.inv(ap.T @ g @ ap), ast.T @ g @ ast)


def check_frame(frame, points, g, m: int):
    """The frame's first block spans p and its last block is G-conjugate to it."""
    dist = projector_distance(frame[:, : m + 1], points)
    _require(dist <= 1e-8, "frame does not span p", dist, 1e-8)
    gram = frame.T @ g @ frame
    cross = float(np.max(np.abs(gram[m + 1 :, : m + 1])))
    limit = 1e-8 * float(np.max(np.abs(gram)))
    _require(cross <= limit, "frame is not polar-adapted", cross, limit)


def check_polar_lambda(lam, frame, g, m: int, rtol: float = 1e-6):
    ref = polar_lambda_ref(frame, g, m)
    err = float(np.max(np.abs(np.asarray(lam) - ref)))
    limit = rtol * max(1.0, float(np.max(np.abs(ref))))
    _require(err <= limit, "estimated lambda differs from the polar closed form", err, limit)


def check_gradient_vanishes(grad, lam_scale: float, rtol: float = 1e-3):
    """Polar maps are covariantly constant, so the estimate is rounding noise."""
    err = float(np.max(np.abs(grad)))
    limit = rtol * max(1.0, lam_scale)
    _require(err <= limit, "covariant derivative of a polar map is not near zero", err, limit)


def lambda_quadratic_form(lam, d) -> float:
    """sum lam[a][b][i][j] d[i][b] d[j][a]."""
    return float(np.einsum("abij,ib,ja->", lam, d, d))


def check_log_distance(dist: float, t: float, lam, d, rtol: float = 1e-3):
    """log distance / t^2 against the quadratic form of lam; O(t^2) apart."""
    q = lambda_quadratic_form(lam, d)
    err = abs(dist / (t * t) - q)
    limit = rtol * float(np.max(np.abs(lam))) * float(np.sum(np.asarray(d) ** 2))
    _require(err <= limit, "log distance / t^2 differs from the quadratic form", err, limit)


def curvature_entry(lam, i, b, c, e, a, j, k, l) -> float:
    """R[i][b][c][e][a][j][k][l] by the paper's four-term formula, term by term."""
    r = 0.0
    if a == b and k == i:
        r += lam[c][e][j][l]
    if a == c and j == i:
        r += lam[b][e][k][l]
    if a == b and l == i:
        r -= lam[e][c][j][k]
    if a == e and j == i:
        r -= lam[b][c][l][k]
    return 0.5 * r


def check_curvature_samples(curv, lam, rng, samples: int = 48, atol: float = 1e-12):
    """Sampled entries, half of them on the Kronecker diagonals where the
    formula is nonzero, against ``curvature_entry``."""
    ld, gd = curv.shape[0], curv.shape[1]
    scale = max(1.0, float(np.max(np.abs(lam))))
    for s in range(samples):
        i, b, c, e, a, j, k, l = (
            int(v) for v in rng.integers(0, [ld, gd, gd, gd, gd, ld, ld, ld])
        )
        if s % 2:
            a, k = b, i
        ref = curvature_entry(lam, i, b, c, e, a, j, k, l)
        err = abs(float(curv[i, b, c, e, a, j, k, l]) - ref)
        _require(err <= atol * scale, "curvature entry differs from the four-term formula", err, atol * scale)


def ricci_ref(lam, n: int) -> np.ndarray:
    """Ric[b][c][j][k] = (lam[c][b][j][k] + lam[b][c][k][j] - (n+1) lam[b][c][j][k]) / 2."""
    lam = np.asarray(lam)
    ric = np.empty_like(lam)
    gd, ld = lam.shape[0], lam.shape[2]
    for b in range(gd):
        for c in range(gd):
            for j in range(ld):
                for k in range(ld):
                    ric[b, c, j, k] = 0.5 * (
                        lam[c, b, j, k] + lam[b, c, k, j] - (n + 1) * lam[b, c, j, k]
                    )
    return ric


def check_ricci(ric, lam, n: int, rtol: float = 1e-10):
    ref = ricci_ref(lam, n)
    err = float(np.max(np.abs(np.asarray(ric) - ref)))
    limit = rtol * max(1.0, float(np.max(np.abs(ref))))
    _require(err <= limit, "Ricci differs from its closed form", err, limit)


def check_einstein_constant(constant: float, n: int, atol: float = 1e-9):
    err = abs(constant - (n - 1) / 2.0)
    _require(err <= atol, "Einstein constant differs from (n-1)/2", err, atol)


def check_homogeneity(residual: float, lam, polar: bool):
    """About zero for polar tensors, of order max(lam)^2 for generic ones."""
    scale2 = float(np.max(np.abs(lam))) ** 2
    if polar:
        _require(residual <= 1e-10 * scale2, "polar homogeneity residual is not ~0", residual, 1e-10 * scale2)
    else:
        _require(residual >= 1e-3 * scale2, "generic homogeneity residual is not large", residual, 1e-3 * scale2)


def covariant_curvature_entry(gi, gl, a, b, c, e, i, j, k, l) -> float:
    return 0.5 * (
        gi[a, b] * gi[c, e] * (gl[i, l] * gl[j, k] - gl[i, k] * gl[j, l])
        + (gi[a, e] * gi[b, c] - gi[a, c] * gi[b, e]) * gl[i, j] * gl[k, l]
    )


def check_covariant_curvature_samples(rc, gi, gl, rng, samples: int = 48, rtol: float = 1e-9):
    gd, ld = gi.shape[0], gl.shape[0]
    scale = max(1.0, float(np.max(np.abs(gi))) ** 2 * float(np.max(np.abs(gl))) ** 2)
    for _ in range(samples):
        a, b, c, e, i, j, k, l = (
            int(v) for v in rng.integers(0, [gd, gd, gd, gd, ld, ld, ld, ld])
        )
        ref = covariant_curvature_entry(gi, gl, a, b, c, e, i, j, k, l)
        err = abs(float(rc[a, b, c, e, i, j, k, l]) - ref)
        _require(err <= rtol * scale, "covariant curvature entry differs from closed form", err, rtol * scale)


def cross_ratio_trace_ref(pa_points, pa_star_points, pb_points, pb_star_points) -> float:
    """trace(X (U X)^-1 (U Y) (V Y)^-1 V) with orthonormal bases X, Y of the
    subspaces and orthonormal equation rows U, V of the complements."""
    x, y = orthonormal_basis(pa_points), orthonormal_basis(pb_points)
    u = polar_points(pa_star_points, np.eye(x.shape[0]))
    v = polar_points(pb_star_points, np.eye(x.shape[0]))
    w = x @ np.linalg.solve(u @ x, u @ y) @ np.linalg.solve(v @ y, v)
    return float(np.trace(w))


def check_cross_ratio_trace(trace: float, ref: float, rtol: float = 1e-9):
    err = abs(trace - ref)
    limit = rtol * max(1.0, abs(ref))
    _require(err <= limit, "cross-ratio trace differs from the orthonormal-basis value", err, limit)


def check_close(value, ref, what: str, rtol: float = 1e-9):
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    if value.shape != ref.shape:
        raise CheckFailed(f"{what}: shape {value.shape}, expected {ref.shape}")
    err = float(np.max(np.abs(value - ref), initial=0.0))
    limit = rtol * max(1.0, float(np.max(np.abs(ref), initial=0.0)))
    _require(err <= limit, what, err, limit)


def check_same_subspace(a, b, what: str, atol: float = 1e-9):
    dist = projector_distance(a, b)
    _require(dist <= atol, what, dist, atol)
