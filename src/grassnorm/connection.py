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
an algebraic consequence is the vanishing of homogeneity_residual, whose
eight quadratic terms are P - swap(P), P the sum of four and swap the
exchange (gamma, k) <-> (eps, l): two rank-2 matrix products per first
Greek index, in a layout where the swap is a matrix transpose.  The
covariant derivative is estimated by finite differences along a tangent
direction: one graph call of the map transports the adapted frame to the
two displaced subspaces, and one more estimates the tensor at both.

The curvature has rho^4 entries, rho = (m + 1)(n - m), most of them
structural zeros.  curvature_tensor writes each term onto its Kronecker
diagonal of one zeroed result, and homogeneity_residual works one first
Greek index at a time, so neither makes a second array of that size.
Past linalg.DENSE_BUDGET_BYTES, TensorTooLarge is raised before allocating.
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
    tol * max(lam)^2; products that overflow make it inf or nan.

    Terms 5 to 8 are terms 1 to 4 swapped, (gamma, k) <-> (eps, l), and
    negated.  So one first Greek index alpha at a time, a block P of terms
    1 to 4 is formed and the expression's block is P - swap(P).  P has
    axes (beta, i, j, gamma, k, eps, l): per (beta, i, j) a square matrix
    with rows (gamma, k) and columns (eps, l), whose transpose is the swap.
    Terms 1 + 2 are one batched matmul of inner dimension 2 with rows k
    and columns (eps, l), terms 3 + 4 another with one row and columns
    (k, eps, l); both land contiguously in that layout.  Raises
    TensorTooLarge, before allocating, when a block would exceed
    linalg.DENSE_BUDGET_BYTES.
    """
    gd, ld = lam.m + 1, lam.n - lam.m
    t, q = lam.lam, gd * ld
    # axes b i j c k e l, reused for every alpha: p takes terms 1 + 2, h terms 3 + 4
    p = _dense_zeros((gd, ld, ld, gd, ld, gd, ld), "homogeneity block")
    h = _dense_zeros(p.shape, "homogeneity block")
    # the factors of both products, axes named alongside, s the inner index;
    # the halves free of alpha are written once, the others for each alpha
    left12 = np.empty((gd, ld, ld, 1, ld, 2))  # b i j . k s
    right12 = np.empty((ld, ld, gd, 2, gd, ld))  # i j c s e l
    right12[:, :, :, 0] = t.transpose(2, 0, 1, 3)[None]  # t[c,e,j,l]
    right12[:, :, :, 1] = t.transpose(2, 0, 1, 3)[:, None]  # t[c,e,i,l]
    left34 = np.empty((gd, ld, ld, gd, 1, 2))  # b i j c . s
    left34[..., 0, 1] = t.transpose(1, 2, 3, 0)  # t[c,b,i,j]
    right34 = np.empty((gd, 2, ld, gd, ld))  # b s k e l
    right34[:, 0] = t.transpose(0, 2, 1, 3)  # t[b,e,k,l]
    r12, r34 = right12.reshape(ld, ld, gd, 2, q), right34.reshape(gd, 1, 1, 1, 2, ld * q)
    p12, h34 = p.reshape(gd, ld, ld, gd, ld, q), h.reshape(gd, ld, ld, gd, 1, ld * q)
    pm, hm = p.reshape(gd, ld, ld, q, q), h.reshape(gd, ld, ld, q, q)
    peaks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t_alpha in t:
            left12[..., 0] = t_alpha[:, :, None, None, :]  # t[a,b,i,k]
            left12[..., 1] = t_alpha.transpose(0, 2, 1)[:, None, :, None, :]  # t[a,b,k,j]
            left34[..., 0, 0] = t_alpha.transpose(1, 2, 0)  # t[a,c,i,j]
            right34[:, 1] = t_alpha.transpose(1, 0, 2)  # t[a,e,k,l]
            np.matmul(left12, r12, out=p12)
            np.matmul(left34, r34, out=h34)
            p += h
            np.subtract(pm, pm.swapaxes(-1, -2), out=hm)
            peaks.append(np.max(np.abs(h, out=h)))
    return float(np.max(peaks, initial=0.0))  # np.max keeps a nan peak; max() would not


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
    p(+eps) and p(-eps) in an adapted frame F(t) transported smoothly
    from the base frame F0 (the canonical frame of a displaced pair need
    not vary smoothly): one graph call of nu builds both transported
    frames, and one more estimates the tensor at them.  The result is
    the central difference (lam(F(eps)) - lam(F(-eps))) / (2 eps), with
    no connection term: F0^-1 F(t) = ((I, C(t)), (t d, I)), so the
    induced connection forms, the diagonal blocks of F(t)^-1 F'(t), are
    O(t) and vanish at t = 0, which is all the O(eps^2) central
    difference needs.  Result is the 4-index array of derivative
    components in the base frame.
    """
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
    lam_plus, lam_minus = _estimate_in_frames(nu, moved, m, eps)
    return (lam_plus - lam_minus) / (2.0 * eps)
