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
itself is estimated by finite differences along a tangent direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FramingFailure
from .linalg import _frozen
from .normalization import (
    FundamentalTensor,
    NormalizingMap,
    TangentDirection,
    _graph_stack,
    estimate_fundamental_tensor_in_frame,
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
    construction.
    """
    gd, ld = lam.m + 1, lam.n - lam.m
    ig = np.eye(gd)
    il = np.eye(ld)
    t = lam.lam
    # subscripts: a=alpha b=beta c=gamma e=eps (Greek), i j k l (Latin)
    r = 0.5 * (
        np.einsum("ab,ki,cejl->ibceajkl", ig, il, t)
        + np.einsum("ac,ji,bekl->ibceajkl", ig, il, t)
        - np.einsum("ab,li,ecjk->ibceajkl", ig, il, t)
        - np.einsum("ae,ji,bclk->ibceajkl", ig, il, t)
    )
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
    """
    t = lam.lam
    # subscripts as in curvature_tensor; free order a b c e i j k l
    total = (
        np.einsum("abik,cejl->abceijkl", t, t)
        + np.einsum("abkj,ceil->abceijkl", t, t)
        + np.einsum("acij,bekl->abceijkl", t, t)
        + np.einsum("cbij,aekl->abceijkl", t, t)
        - np.einsum("abil,ecjk->abceijkl", t, t)
        - np.einsum("ablj,ecik->abceijkl", t, t)
        - np.einsum("aeij,bclk->abceijkl", t, t)
        - np.einsum("ebij,aclk->abceijkl", t, t)
    )
    return float(np.max(np.abs(total), initial=0.0))


def is_homogeneous(lam: FundamentalTensor, tol: float = 1e-9) -> bool:
    """True when the homogeneity residual vanishes relative to max(lam)^2."""
    scale = float(np.max(np.abs(lam.lam), initial=0.0))
    return homogeneity_residual(lam) <= tol * scale * scale


def _transported_frame(frame0: np.ndarray, m: int, d: np.ndarray, t: float, nu: NormalizingMap):
    """Adapted frame at p(t), smooth in t, agreeing with frame0 at t = 0.

    The first block holds the displaced spanning columns themselves; the
    complement block is nu(p(t)) written as a graph over frame0, so no
    canonicalization enters and the path has no pivot or sign jumps.
    """
    n = frame0.shape[0] - 1
    b = t * d
    base = frame0[:, : m + 1] + frame0[:, m + 1 :] @ b
    off_chart = FramingFailure("complement left the chart of the base frame")
    graph = _graph_stack(nu, frame0, m, b[None], off_chart)[0]
    comp = frame0 @ np.vstack([graph, np.eye(n - m)])
    return np.hstack([base, comp])


def covariant_derivative_estimate(
    nu: NormalizingMap, pair: MPair, direction: TangentDirection, eps: float
) -> np.ndarray:
    """Finite-difference estimate of the covariant derivative of the
    fundamental tensor of nu along the given direction.

    The subspace path is p(t) spanned by the adapted frame points
    A_beta + t * sum_i d[i][beta] A_{m+1+i}.  The tensor is estimated at
    p(+eps) and p(-eps) in an adapted frame transported smoothly from
    the base pair (the canonical frame of a displaced pair need not vary
    smoothly), and the frame motion is removed with the Maurer-Cartan
    coefficients of the same frame path:

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
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    m, n = pair.m, pair.ambient_n
    if direction.m != m or direction.n != n:
        raise DimensionMismatch("direction does not match the pair's Grassmannian")
    if float(np.max(np.abs(direction.d), initial=0.0)) == 0.0:
        raise ValueError("direction must be nonzero")

    frame0 = adapted_frame(pair).frame_matrix
    lam0 = estimate_fundamental_tensor_in_frame(nu, frame0, m, eps=eps)

    lams = []
    frames = []
    for t in (eps, -eps):
        frame_t = _transported_frame(frame0, m, direction.d, t, nu)
        frames.append(frame_t)
        lams.append(estimate_fundamental_tensor_in_frame(nu, frame_t, m, eps=eps))

    dlam = (lams[0] - lams[1]) / (2.0 * eps)
    omega = np.linalg.solve(frame0, frames[0] - frames[1]) / (2.0 * eps)
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
