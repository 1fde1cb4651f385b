"""Independent slow-path evaluations used to check the vectorized code.

These are deliberately written as plain nested loops over tensor
indices, term by term, so they share no code with the library; the
five-call covariant derivative at the end is the exception.
"""

import numpy as np

from grassnorm import FramingFailure, adapted_frame, estimate_fundamental_tensor_in_frame
from grassnorm.normalization import _graph_stack


def brute_force_curvature(ft):
    """Loop evaluation of r[i][beta][gamma][eps][alpha][j][k][l]."""
    m, n = ft.m, ft.n
    lam = ft.lam
    nm = n - m
    r = np.zeros((nm, m + 1, m + 1, m + 1, m + 1, nm, nm, nm))
    for i in range(nm):
        for b in range(m + 1):
            for c in range(m + 1):
                for e in range(m + 1):
                    for a in range(m + 1):
                        for j in range(nm):
                            for k in range(nm):
                                for l in range(nm):
                                    v = 0.0
                                    if a == b and k == i:
                                        v += lam[c, e, j, l]
                                    if a == c and j == i:
                                        v += lam[b, e, k, l]
                                    if a == b and l == i:
                                        v -= lam[e, c, j, k]
                                    if a == e and j == i:
                                        v -= lam[b, c, l, k]
                                    r[i, b, c, e, a, j, k, l] = 0.5 * v
    return r


def brute_force_ricci(ft):
    """Loop evaluation of ric[beta][gamma][j][k]."""
    m, n = ft.m, ft.n
    lam = ft.lam
    nm = n - m
    ric = np.zeros((m + 1, m + 1, nm, nm))
    for b in range(m + 1):
        for c in range(m + 1):
            for j in range(nm):
                for k in range(nm):
                    ric[b, c, j, k] = 0.5 * (
                        lam[c, b, j, k] + lam[b, c, k, j] - (n + 1) * lam[b, c, j, k]
                    )
    return ric


def contract_curvature_to_ricci(r, m, n):
    """Loop contraction over the paired Latin and Greek slots."""
    nm = n - m
    ric = np.zeros((m + 1, m + 1, nm, nm))
    for b in range(m + 1):
        for c in range(m + 1):
            for j in range(nm):
                for k in range(nm):
                    total = 0.0
                    for i in range(nm):
                        for a in range(m + 1):
                            total += r[i, b, c, a, a, j, k, i]
                    ric[b, c, j, k] = total
    return ric


def brute_force_homogeneity(ft):
    """Max-abs of the eight-term homogeneity expression, one
    (alpha, beta, gamma, eps) at a time with each term's Latin block
    written out as its own outer product."""
    m = ft.m
    lam = ft.lam
    worst = 0.0
    for a in range(m + 1):
        for b in range(m + 1):
            for c in range(m + 1):
                for e in range(m + 1):
                    h = (
                        np.einsum("ik,jl->ijkl", lam[a, b], lam[c, e])
                        + np.einsum("kj,il->ijkl", lam[a, b], lam[c, e])
                        + np.einsum("ij,kl->ijkl", lam[a, c], lam[b, e])
                        + np.einsum("ij,kl->ijkl", lam[c, b], lam[a, e])
                        - np.einsum("il,jk->ijkl", lam[a, b], lam[e, c])
                        - np.einsum("lj,ik->ijkl", lam[a, b], lam[e, c])
                        - np.einsum("ij,lk->ijkl", lam[a, e], lam[b, c])
                        - np.einsum("ij,lk->ijkl", lam[e, b], lam[a, c])
                    )
                    worst = max(worst, float(np.max(np.abs(h))))
    return worst


def brute_force_adjust(r, g_ab_inv, g_ij):
    """rc[a][b][c][e][i][j][k][l] = sum over A, I of
    g_ab_inv[a][A] g_ij[i][I] r[I][b][c][e][A][j][k][l], one (a, i, A, I)
    term at a time."""
    nm, m1 = r.shape[0], r.shape[1]
    rc = np.zeros((m1, m1, m1, m1, nm, nm, nm, nm))
    for a in range(m1):
        for i in range(nm):
            for big_a in range(m1):
                for big_i in range(nm):
                    coeff = g_ab_inv[a, big_a] * g_ij[i, big_i]
                    rc[a, :, :, :, i] += coeff * r[big_i, :, :, :, big_a]
    return rc


def raw_polar_basis(points, g):
    """Columns spanning the polar of span(points) under the quadric g:
    the null space of X^T G, with X the raw spanning points as columns,
    never canonicalized."""
    x = np.asarray(points, dtype=float).T
    vt = np.linalg.svd(x.T @ g)[2]
    return vt[x.shape[1] :].T


def raw_polar_cross_ratio_trace(points_a, points_b, g):
    """trace(W) of the polar pairs of two raw spanning sets.  The polar
    of span(X) is cut out by the rows of X^T G, so
    W = X (X^T G X)^-1 (X^T G Y) (Y^T G Y)^-1 Y^T G."""
    x = np.asarray(points_a, dtype=float).T
    y = np.asarray(points_b, dtype=float).T
    xg, yg = x.T @ g, y.T @ g
    w = x @ np.linalg.solve(xg @ x, xg @ y) @ np.linalg.solve(yg @ y, yg)
    return float(np.trace(w))


def five_call_covariant_derivative(nu, pair, d, eps):
    """Covariant derivative and base tensor lam0 in the form of five
    separate graph calls: lam0 at the base frame, then for t = +eps and
    t = -eps one transport of the frame and one estimate at it.

    Unlike the loops above it shares the one-frame estimator and the
    graph action with the library, so that the stacked derivative must
    reproduce it bit for bit."""
    m, n = pair.m, pair.ambient_n
    frame0 = adapted_frame(pair).frame_matrix
    lam0 = estimate_fundamental_tensor_in_frame(nu, frame0, m, eps=eps)
    lams, frames = [], []
    for t in (eps, -eps):
        b = t * d
        base = frame0[:, : m + 1] + frame0[:, m + 1 :] @ b
        off_chart = FramingFailure("complement left the chart of the base frame")
        graph = _graph_stack(nu, frame0[None], m, b[None], off_chart)[0]
        frame_t = np.hstack([base, frame0 @ np.vstack([graph, np.eye(n - m)])])
        frames.append(frame_t)
        lams.append(estimate_fundamental_tensor_in_frame(nu, frame_t, m, eps=eps))
    dlam = (lams[0] - lams[1]) / (2.0 * eps)
    omega = np.linalg.solve(frame0, frames[0] - frames[1]) / (2.0 * eps)
    greek = omega[: m + 1, : m + 1]
    latin = omega[m + 1 :, m + 1 :]
    grad = (
        dlam
        - np.einsum("abik,kj->abij", lam0, latin)
        - np.einsum("abkj,ki->abij", lam0, latin)
        + np.einsum("acij,bc->abij", lam0, greek)
        + np.einsum("cbij,ac->abij", lam0, greek)
    )
    return grad, lam0
