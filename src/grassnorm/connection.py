"""Affine connection induced by a normalization: curvature and torsion-free
invariants derivable from the fundamental tensor alone.

With lam[alpha][beta][i][j] the fundamental tensor, the curvature of the
induced connection is

    R[i][beta][gamma][eps][alpha][j][k][l] =
        (d(alpha,beta) d(k,i) lam[gamma][eps][j][l]
         + d(alpha,gamma) d(j,i) lam[beta][eps][k][l]
         - d(alpha,beta) d(l,i) lam[eps][gamma][j][k]
         - d(alpha,eps) d(j,i) lam[beta][gamma][l][k]) / 2

with d the Kronecker delta, upper indices (i, beta, gamma, eps) and
lower indices (alpha, j, k, l).  Contracting i with l and alpha with eps
yields the Ricci tensor, which also has the closed form

    Ric[beta][gamma][j][k] =
        (lam[gamma][beta][j][k] + lam[beta][gamma][k][j]
         - (n + 1) lam[beta][gamma][j][k]) / 2.

Ric is symmetric under the simultaneous exchange (beta, j) <-> (gamma, k)
exactly when lam is harmonic.

A normalization is homogeneous when its tensor is covariantly constant;
an algebraic consequence is the vanishing of the eight-term quadratic
expression checked by homogeneity_residual.  The covariant derivative
itself is estimated by finite differences along a tangent direction, in
two stacked evaluations of the map's graph action.

The curvature has rho^4 entries, rho = (m + 1)(n - m), most of them
structural zeros.  curvature_tensor writes each term onto its Kronecker
diagonal of one zeroed result, and homogeneity_residual works one first
Greek index at a time, so neither makes a second array of that size.
An array over linalg.DENSE_BUDGET_BYTES raises TensorTooLarge before
anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FramingFailure
from .linalg import _dense_zeros, _frozen
from .normalization import (
    FundamentalTensor,
    NormalizingMap,
    TangentDirection,
    _estimate_in_frames,
    _graph_stack,
)
from .projective_core import MPair, adapted_frame


@dataclass(frozen=True)
class CurvatureTensor:
    """Curvature components r[i][beta][gamma][eps][alpha][j][k][l]."""

    m: int
    n: int
    r: np.ndarray

    def __post_init__(self):
        gd, ld = self.m + 1, self.n - self.m
        expected = (ld, gd, gd, gd, gd, ld, ld, ld)
        object.__setattr__(self, "r", _frozen(self.r, expected, "curvature"))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.r), initial=0.0))


@dataclass(frozen=True)
class RicciTensor:
    """Ricci components ric[beta][gamma][j][k]."""

    m: int
    n: int
    ric: np.ndarray

    def __post_init__(self):
        gd, ld = self.m + 1, self.n - self.m
        object.__setattr__(self, "ric", _frozen(self.ric, (gd, gd, ld, ld), "ricci"))

    def asymmetry(self) -> float:
        """Max-abs deviation from pair symmetry (beta, j) <-> (gamma, k)."""
        return float(np.max(np.abs(self.ric - self.ric.transpose(1, 0, 3, 2)), initial=0.0))

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        scale = float(np.max(np.abs(self.ric), initial=0.0))
        return self.asymmetry() <= tol * scale


def curvature_tensor(lam: FundamentalTensor) -> CurvatureTensor:
    """Curvature of the connection induced by lam.

    Antisymmetric under the simultaneous swap (gamma, k) <-> (eps, l) by
    construction.  Each term is lam / 2 on one Kronecker diagonal, so the
    result starts at zero and each term is added onto its diagonal: no
    array of the result's size is made besides the result.  Raises
    TensorTooLarge, before allocating, when the result would exceed
    linalg.DENSE_BUDGET_BYTES.
    """
    gd, ld = lam.m + 1, lam.n - lam.m
    r = _dense_zeros((ld, gd, gd, gd, gd, ld, ld, ld), "curvature tensor")
    h = 0.5 * lam.lam
    # indexing both slots of each delta with the (i, alpha) grid picks, for
    # every (i, alpha), the four-axis block on which that term is nonzero
    i = np.arange(ld)[:, None]
    a = np.arange(gd)[None, :]
    r[i, a, :, :, a, :, i, :] += h                        # d(a,b) d(k,i) lam[c,e,j,l]
    r[i, :, a, :, a, i, :, :] += h                        # d(a,c) d(j,i) lam[b,e,k,l]
    r[i, a, :, :, a, :, :, i] -= h.transpose(1, 0, 2, 3)  # d(a,b) d(l,i) lam[e,c,j,k]
    r[i, :, :, a, a, i, :, :] -= h.transpose(0, 1, 3, 2)  # d(a,e) d(j,i) lam[b,c,l,k]
    r.flags.writeable = False  # fresh, so CurvatureTensor keeps it without a copy
    return CurvatureTensor(m=lam.m, n=lam.n, r=r)


def ricci_tensor(lam: FundamentalTensor) -> RicciTensor:
    """Ricci tensor of the induced connection, in closed form."""
    t = lam.lam
    ric = 0.5 * (t.transpose(1, 0, 2, 3) + t.transpose(0, 1, 3, 2) - (lam.n + 1) * t)
    return RicciTensor(m=lam.m, n=lam.n, ric=ric)


def ricci_from_curvature(curv: CurvatureTensor) -> RicciTensor:
    """Ricci by contracting the curvature over i = l and alpha = eps.

    Cross-check for ricci_tensor; both agree to rounding error.
    """
    ric = np.einsum("ibcaajki->bcjk", curv.r)
    return RicciTensor(m=curv.m, n=curv.n, ric=ric)


def homogeneity_residual(lam: FundamentalTensor) -> float:
    """Max-abs value of the eight-term quadratic homogeneity condition.

    Zero (to rounding) for tensors of covariantly constant
    normalizations such as the polar ones; order max(lam)^2 for generic
    tensors.  The expression is quadratic in lam, so compare against
    tol * max(lam)^2.

    Evaluated one first Greek index alpha at a time: each of the eight
    terms is a transpose of the outer product lam[alpha] (x) lam (terms 4
    and 8 because products commute), so a block of 1 / (m + 1) of the
    full expression is summed from views of that product.  Raises
    TensorTooLarge, before allocating, when such a block would exceed
    linalg.DENSE_BUDGET_BYTES.
    """
    gd, ld = lam.m + 1, lam.n - lam.m
    t = lam.lam
    # o[x0, .., x6] = t[alpha, x0, x1, x2] * t[x3, x4, x5, x6]; block axes b c e i j k l.
    # Both are reused for every alpha; a C-ordered block keeps the eight
    # strided adds in one iteration order.
    o = _dense_zeros((gd, ld, ld, gd, gd, ld, ld), "homogeneity block")
    block = _dense_zeros((gd, gd, gd, ld, ld, ld, ld), "homogeneity block")
    peaks = []
    for t_alpha in t:
        np.multiply.outer(t_alpha, t, out=o)
        np.add(
            o.transpose(0, 3, 4, 1, 5, 2, 6),  # t[a,b,i,k] t[c,e,j,l]
            o.transpose(0, 3, 4, 5, 2, 1, 6),  # t[a,b,k,j] t[c,e,i,l]
            out=block,
        )
        block += o.transpose(3, 0, 4, 1, 2, 5, 6)  # t[a,c,i,j] t[b,e,k,l]
        block += o.transpose(4, 3, 0, 5, 6, 1, 2)  # t[c,b,i,j] t[a,e,k,l]
        block -= o.transpose(0, 4, 3, 1, 5, 6, 2)  # t[a,b,i,l] t[e,c,j,k]
        block -= o.transpose(0, 4, 3, 5, 2, 6, 1)  # t[a,b,l,j] t[e,c,i,k]
        block -= o.transpose(3, 4, 0, 1, 2, 6, 5)  # t[a,e,i,j] t[b,c,l,k]
        block -= o.transpose(4, 0, 3, 5, 6, 2, 1)  # t[e,b,i,j] t[a,c,l,k]
        peaks.append(np.max(np.abs(block, out=block)))
    return float(np.max(peaks, initial=0.0))


def is_homogeneous(lam: FundamentalTensor, tol: float = 1e-9) -> bool:
    """True when the homogeneity residual vanishes relative to max(lam)^2."""
    scale = float(np.max(np.abs(lam.lam), initial=0.0))
    return homogeneity_residual(lam) <= tol * scale * scale


def covariant_derivative_estimate(
    nu: NormalizingMap, pair: MPair, direction: TangentDirection, eps: float
) -> np.ndarray:
    """Finite-difference estimate of the covariant derivative of the
    fundamental tensor of nu along the given direction.

    The subspace path is p(t) spanned by the adapted frame points
    A_beta + t * sum_i d[i][beta] A_{m+1+i}.  The tensor is estimated at
    p(+eps) and p(-eps) in an adapted frame transported smoothly from
    the base pair (the canonical frame of a displaced pair need not vary
    smoothly): one graph call of nu builds both transported frames, and
    one more estimates the tensor at them and at the base frame.  The
    frame motion is removed with the Maurer-Cartan coefficients of the
    same frame path:

        grad[a][b][i][j] = d(lam)[a][b][i][j]
            - sum_k lam[a][b][i][k] w(j->k) - sum_k lam[a][b][k][j] w(i->k)
            + sum_c lam[a][c][i][j] w(c->b) + sum_c lam[c][b][i][j] w(c->a)

    where w are per-unit-parameter displacement coefficients.  Result is
    the 4-index array of derivative components in the base frame;
    O(eps^2) truncation.
    """
    return _covariant_derivative(nu, pair, direction, eps)[0]


def _covariant_derivative(
    nu: NormalizingMap, pair: MPair, direction: TangentDirection, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """covariant_derivative_estimate and the base-pair tensor lam it used."""
    if not 0.0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    m, n = pair.m, pair.ambient_n
    if direction.m != m or direction.n != n:
        raise DimensionMismatch("direction does not match the pair's Grassmannian")
    if float(np.max(np.abs(direction.d), initial=0.0)) == 0.0:
        raise ValueError("direction must be nonzero")

    # frames at p(+eps), p(-eps): the displaced spanning columns, then nu(p(t)) as a
    # graph over frame0, so no canonicalization enters and the path has no jumps
    frame0 = adapted_frame(pair).frame_matrix
    b = np.array([eps, -eps])[:, None, None] * direction.d
    off_chart = FramingFailure("complement left the chart of the base frame")
    graphs = _graph_stack(nu, np.stack([frame0, frame0]), m, b, off_chart)
    unit = np.broadcast_to(np.eye(n - m), (2, n - m, n - m))
    comp = frame0 @ np.concatenate([graphs, unit], axis=1)
    moved = np.concatenate([frame0[:, : m + 1] + frame0[:, m + 1 :] @ b, comp], axis=2)
    lam0, *lams = _estimate_in_frames(nu, np.concatenate([frame0[None], moved]), m, eps)

    dlam = (lams[0] - lams[1]) / (2.0 * eps)
    omega = np.linalg.solve(frame0, moved[0] - moved[1]) / (2.0 * eps)
    greek = omega[: m + 1, : m + 1]  # greek[b, c] = w(c -> b)
    latin = omega[m + 1 :, m + 1 :]  # latin[k, j] = w(j -> k)

    grad = (
        dlam
        - np.einsum("abik,kj->abij", lam0, latin)
        - np.einsum("abkj,ki->abij", lam0, latin)
        + np.einsum("acij,bc->abij", lam0, greek)
        + np.einsum("cbij,ac->abij", lam0, greek)
    )
    return grad, lam0
