"""Polar normalization by a nondegenerate quadric.

A symmetric invertible matrix G on homogeneous coordinates defines the
polarity p -> span(G^-1 U^T), for equations U of p: the polar of an
m-subspace is the (n - m - 1)-subspace of points conjugate to all of
p.  Wherever p is not tangent to the quadric this is a complement, and
the resulting normalization has fundamental tensor

    lam[alpha][beta][i][j] = - g_ab_inv[alpha][beta] * g_ij[i][j]

built from the two diagonal blocks of G restricted to an adapted frame.
The tensor is harmonic, covariantly constant, and Einstein: its Ricci
tensor equals (n - 1)/2 times g_ab_inv (x) g_ij.

The fully covariant curvature (Greek indices raised with g_ab_inv,
Latin lowered with g_ij) has the closed form implemented by
covariant_curvature; adjust_curvature_indices performs the same raising
and lowering on a curvature tensor computed from any lam.  Both fill one
rho^4 result in place: covariant_curvature as a rank-2 matrix product,
adjust_curvature_indices one (beta, gamma, eps) block at a time.
covariant_curvature raises TensorTooLarge, before allocating, when its
result would exceed linalg.DENSE_BUDGET_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import CurvatureTensor, ricci_tensor
from .errors import (
    DegenerateBlock,
    DimensionMismatch,
    FramingFailure,
    NotPolarAdapted,
    TangentSubspace,
)
from .linalg import RANK_RTOL, _dense_zeros, _frozen, is_invertible
from .normalization import FundamentalTensor, NormalizingMap
from .projective_core import ProjectiveFrame, Subspace


@dataclass(frozen=True)
class Quadric:
    """Nondegenerate quadric given by a symmetric matrix on P^n."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        k = self.n + 1
        mat = _frozen(self.matrix, (k, k), "quadric matrix", finite=True)
        scale = float(np.max(np.abs(mat), initial=0.0))
        if scale == 0.0 or float(np.max(np.abs(mat - mat.T))) > 1e-12 * scale:
            raise ValueError("quadric matrix must be symmetric and nonzero")
        if not is_invertible(mat):
            raise ValueError("quadric matrix is singular at the working tolerance")
        object.__setattr__(self, "matrix", _frozen(0.5 * (mat + mat.T)))


@dataclass(frozen=True)
class BlockMetrics:
    """Diagonal blocks of a quadric in a polar-adapted frame."""

    m: int
    n: int
    g_ab: np.ndarray      # (m+1) x (m+1), restriction to p's frame points
    g_ij: np.ndarray      # (n-m) x (n-m), restriction to p_star's frame points
    g_ab_inv: np.ndarray

    def __post_init__(self):
        gd, ld = self.m + 1, self.n - self.m
        for name, k in (("g_ab", gd), ("g_ij", ld), ("g_ab_inv", gd)):
            object.__setattr__(self, name, _frozen(getattr(self, name), (k, k), name, finite=True))
        # far above the rounding error of any computed inverse
        tol = 1e-8 * np.linalg.norm(self.g_ab) * np.linalg.norm(self.g_ab_inv)
        if float(np.max(np.abs(self.g_ab @ self.g_ab_inv - np.eye(gd)))) > tol:
            raise ValueError("g_ab_inv is not the inverse of g_ab")


@dataclass(frozen=True)
class EinsteinResult:
    is_einstein: bool
    constant: float
    residual: float


def _check_not_tangent(x: np.ndarray, xg: np.ndarray, g: np.ndarray):
    """Raise TangentSubspace when span(x), or one of a stack, touches the
    quadric of g: when a singular value of X^T G X is at most RANK_RTOL
    times ||G|| ||X||^2 (Frobenius norms), a bound on its largest.  Its
    own largest is no scale: relative to it, a nonzero 1 x 1 Gram passes."""
    smin = np.linalg.svd(xg @ x, compute_uv=False)[..., -1]
    if np.any(smin <= RANK_RTOL * np.linalg.norm(g) * np.sum(x * x, axis=(-2, -1))):
        raise TangentSubspace("subspace is tangent to the quadric")


def polar_conjugate(p: Subspace, quadric: Quadric) -> Subspace:
    """Polar complement of p: span(G^-1 U^T), for the equations U of p,
    since G x is orthogonal to span(p) exactly when it is in U's row span.

    Raises TangentSubspace when Q^T G Q is singular relative to G, for the
    orthonormal basis Q of p, i.e. when p touches the quadric and the
    polar is not a complement.
    """
    if p.ambient_n != quadric.n:
        raise DimensionMismatch("subspace and quadric live in different ambient spaces")
    q = p.basis
    _check_not_tangent(q, q.T @ quadric.matrix, quadric.matrix)
    # G is invertible, so the polar has dimension n - m: no rank decision
    polar = np.linalg.solve(quadric.matrix, p.equations.T)
    return Subspace(ambient_n=p.ambient_n, coord_matrix=polar)


def polar_map(quadric: Quadric) -> NormalizingMap:
    """Normalizing map p -> polar_conjugate(p, quadric).

    Its graph action solves every displaced subspace X = F_top + F_bot b
    at once: the polar F_top c + F_bot is conjugate to X exactly when
    (X^T G F_top) c = -(X^T G F_bot).  Raises TangentSubspace when some
    X^T G X is singular relative to G and FramingFailure when some
    X^T G F_top is, i.e. when that polar meets span(F_top).
    """
    g = quadric.matrix

    def graph(frames, m, b):
        if frames.shape[-1] != quadric.n + 1:
            raise DimensionMismatch("subspace and quadric live in different ambient spaces")
        top, bot = frames[..., : m + 1], frames[..., m + 1 :]
        x = top + bot @ b
        xg = x.transpose(0, 2, 1) @ g
        _check_not_tangent(x, xg, g)
        xg_top = xg @ top
        if not is_invertible(xg_top):
            raise FramingFailure("polar complement meets the span of the frame's first block")
        return -np.linalg.solve(xg_top, xg @ bot)

    return NormalizingMap(fn=lambda p: polar_conjugate(p, quadric), graph=graph)


def block_metrics(frame: ProjectiveFrame, quadric: Quadric, m: int) -> BlockMetrics:
    """Restrict the quadric to the two column groups of an adapted frame.

    The frame must be polar-adapted: the off-diagonal block of the Gram
    matrix vanishes relative to its overall scale, which holds for the
    adapted frame of any pair (p, polar_conjugate(p)).
    """
    if frame.ambient_n != quadric.n:
        raise DimensionMismatch("frame and quadric live in different ambient spaces")
    if not 0 <= m <= frame.ambient_n - 1:
        raise DimensionMismatch(f"m={m} out of range for ambient dimension {frame.ambient_n}")
    a = frame.frame_matrix
    gram = a.T @ quadric.matrix @ a
    gram = 0.5 * (gram + gram.T)
    scale = float(np.max(np.abs(gram), initial=0.0))
    cross = gram[m + 1 :, : m + 1]
    if float(np.max(np.abs(cross), initial=0.0)) > 1e-9 * scale:
        raise NotPolarAdapted("frame columns are not conjugate across the split")
    g_ab = gram[: m + 1, : m + 1]
    g_ij = gram[m + 1 :, m + 1 :]
    for name, block in (("g_ab", g_ab), ("g_ij", g_ij)):
        if not is_invertible(block):
            raise DegenerateBlock(f"{name} block is singular at the working tolerance")
    return BlockMetrics(m=m, n=quadric.n, g_ab=g_ab, g_ij=g_ij, g_ab_inv=np.linalg.inv(g_ab))


def polar_lambda(bm: BlockMetrics) -> FundamentalTensor:
    """Closed-form fundamental tensor - g_ab_inv (x) g_ij of a polarity."""
    lam = -np.einsum("ab,ij->abij", bm.g_ab_inv, bm.g_ij)
    return FundamentalTensor(m=bm.m, n=bm.n, lam=lam)


@dataclass(frozen=True)
class CovariantCurvature:
    """Fully covariant curvature rc[a][b][c][e][i][j][k][l]."""

    m: int
    n: int
    rc: np.ndarray

    def __post_init__(self):
        gd, ld = self.m + 1, self.n - self.m
        expected = (gd, gd, gd, gd, ld, ld, ld, ld)
        object.__setattr__(self, "rc", _frozen(self.rc, expected, "covariant curvature"))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.rc), initial=0.0))


def covariant_curvature(bm: BlockMetrics) -> CovariantCurvature:
    """Closed-form covariant curvature of the polar normalization:

    rc = ((g_ab_inv[a,b] g_ab_inv[c,e]) (g_ij[i,l] g_ij[j,k] - g_ij[i,k] g_ij[j,l])
          + (g_ab_inv[a,e] g_ab_inv[b,c] - g_ab_inv[a,c] g_ab_inv[b,e])
            g_ij[i,j] g_ij[k,l]) / 2

    Both terms are a Greek tensor times a Latin one, so rc, flattened to
    (a b c e) x (i j k l), is one rank-2 matrix product written straight
    into the result.  Raises TensorTooLarge, before allocating, when the
    result would exceed linalg.DENSE_BUDGET_BYTES.
    """
    gd, ld = bm.m + 1, bm.n - bm.m
    rc = _dense_zeros((gd, gd, gd, gd, ld, ld, ld, ld), "covariant curvature")
    gi, gl = bm.g_ab_inv, bm.g_ij
    term_latin = np.einsum("il,jk->ijkl", gl, gl) - np.einsum("ik,jl->ijkl", gl, gl)
    term_greek = np.einsum("ae,bc->abce", gi, gi) - np.einsum("ac,be->abce", gi, gi)
    greek = 0.5 * np.stack([np.multiply.outer(gi, gi), term_greek]).reshape(2, -1)
    latin = np.stack([term_latin, np.multiply.outer(gl, gl)]).reshape(2, -1)
    np.matmul(greek.T, latin, out=rc.reshape(gd**4, ld**4))
    rc.flags.writeable = False  # fresh, so CovariantCurvature keeps it without a copy
    return CovariantCurvature(m=bm.m, n=bm.n, rc=rc)


def adjust_curvature_indices(curv: CurvatureTensor, bm: BlockMetrics) -> CovariantCurvature:
    """Raise the lower Greek index with g_ab_inv and lower the upper
    Latin index with g_ij, giving the fully covariant curvature.

    Both changes act on the (alpha, i) pair alone, as one square matrix
    kron[(a, i), (I, A)] = g_ab_inv[a, A] g_ij[i, I] of side
    (m + 1)(n - m); it is applied to the block of each (beta, gamma, eps)
    in turn, so no temporary is near the result's size.  The result is
    the size of curv.r, so it needs no budget check.
    """
    if (curv.m, curv.n) != (bm.m, bm.n):
        raise DimensionMismatch("curvature and block metrics have different shapes")
    gd, ld = bm.m + 1, bm.n - bm.m
    kron = np.einsum("aA,iI->aiIA", bm.g_ab_inv, bm.g_ij).reshape(gd * ld, ld * gd)
    rc = np.empty((gd, gd, gd, gd, ld, ld, ld, ld))
    for b, c, e in np.ndindex(gd, gd, gd):
        # r[I, b, c, e, A, j, k, l] -> rc[a, b, c, e, i, j, k, l]
        block = kron @ curv.r[:, b, c, e].reshape(ld * gd, ld**3)
        rc[:, b, c, e] = block.reshape(gd, ld, ld, ld, ld)
    rc.flags.writeable = False  # fresh, so CovariantCurvature keeps it without a copy
    return CovariantCurvature(m=bm.m, n=bm.n, rc=rc)


def ricci_proportionality(ric: np.ndarray, bm: BlockMetrics, tol: float = 1e-9) -> EinsteinResult:
    """Least-squares fit of ric against g_ab_inv (x) g_ij.

    The fitted multiple is the Einstein constant candidate; the check
    passes when the max-abs residual is below tol relative to the
    larger of 1 and the Ricci scale.
    """
    model = np.einsum("bc,jk->bcjk", bm.g_ab_inv, bm.g_ij)
    denom = float(np.sum(model * model))
    if denom == 0.0:
        raise DegenerateBlock("model tensor vanishes")
    c = float(np.sum(ric * model)) / denom
    residual = float(np.max(np.abs(ric - c * model), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(ric), initial=0.0)))
    return EinsteinResult(is_einstein=bool(residual <= tol * scale), constant=c, residual=residual)


def einstein_check(bm: BlockMetrics, tol: float = 1e-9) -> EinsteinResult:
    """Check that the polar Ricci tensor is the constant (n - 1)/2 times
    g_ab_inv (x) g_ij, returning the fitted constant and residual."""
    ric = ricci_tensor(polar_lambda(bm)).ric
    return ricci_proportionality(ric, bm, tol=tol)
