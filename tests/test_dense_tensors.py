"""The dense rho^4 builders: agreement with the einsum expressions they
replaced and with loop oracles, peak memory, and the size budget."""

import tracemalloc

import numpy as np
import pytest

from grassnorm import (
    BlockMetrics,
    FundamentalTensor,
    GeometryError,
    TensorTooLarge,
    adjust_curvature_indices,
    covariant_curvature,
    curvature_tensor,
    homogeneity_residual,
    polar_lambda,
)
from grassnorm import connection
from grassnorm.linalg import DENSE_BUDGET_BYTES

from _gen import random_block_metrics, random_lambda
from _oracles import (
    brute_force_adjust,
    brute_force_homogeneity,
    curvature_derivation_homogeneity,
)


# The einsum expressions the builders used before they were built in
# slices; curvature must reproduce its own bit for bit.  Homogeneity sums
# rank-2 products whose last bits depend on the BLAS kernel, so it is held
# to its eight-term expression summed in extended precision instead.


def einsum_curvature(ft):
    gd, ld = ft.m + 1, ft.n - ft.m
    ig, il, t = np.eye(gd), np.eye(ld), ft.lam
    return 0.5 * (
        np.einsum("ab,ki,cejl->ibceajkl", ig, il, t)
        + np.einsum("ac,ji,bekl->ibceajkl", ig, il, t)
        - np.einsum("ab,li,ecjk->ibceajkl", ig, il, t)
        - np.einsum("ae,ji,bclk->ibceajkl", ig, il, t)
    )


def einsum_homogeneity(ft, dtype=float):
    t = ft.lam.astype(dtype)
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
    return np.max(np.abs(total), initial=0.0)


def assert_homogeneity_near_longdouble_sum(ft):
    # a platform whose longdouble is a double would compare the code with itself
    assert np.finfo(np.longdouble).eps < 1e-18
    scale = float(np.max(np.abs(ft.lam), initial=0.0))
    reference = einsum_homogeneity(ft, np.longdouble)
    assert abs(homogeneity_residual(ft) - reference) <= 2e-15 * scale**2


def einsum_adjust(r, bm):
    return np.einsum("aA,iI,IbceAjkl->abceijkl", bm.g_ab_inv, bm.g_ij, r)


def einsum_covariant(bm):
    gi, gl = bm.g_ab_inv, bm.g_ij
    term_latin = np.einsum("il,jk->ijkl", gl, gl) - np.einsum("ik,jl->ijkl", gl, gl)
    term_greek = np.einsum("ae,bc->abce", gi, gi) - np.einsum("ac,be->abce", gi, gi)
    return 0.5 * (
        np.einsum("ab,ce,ijkl->abceijkl", gi, gi, term_latin)
        + np.einsum("abce,ij,kl->abceijkl", term_greek, gl, gl)
    )


def assert_close_to_scale(got, want, rel=1e-14):
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= rel * scale


SIZES = [(0, 3), (1, 3), (2, 5), (3, 4), (4, 9)]


@pytest.mark.parametrize("kind", ["polar", "generic"])
@pytest.mark.parametrize("m,n", SIZES)
def test_dense_builders_agree_with_einsum_forms_and_oracles(m, n, kind):
    rng = np.random.default_rng(100 * m + n)
    bm = random_block_metrics(rng, m, n)
    ft = polar_lambda(bm) if kind == "polar" else random_lambda(rng, m, n)

    curv = curvature_tensor(ft)
    assert np.array_equal(curv.r, einsum_curvature(ft))

    residual = homogeneity_residual(ft)
    assert_homogeneity_near_longdouble_sum(ft)
    scale = float(np.max(np.abs(ft.lam)))
    assert abs(residual - einsum_homogeneity(ft)) <= 1e-15 * scale**2
    assert abs(residual - brute_force_homogeneity(ft)) <= 1e-14 * scale**2

    adjusted = adjust_curvature_indices(curv, bm).rc
    assert_close_to_scale(adjusted, einsum_adjust(curv.r, bm))
    assert_close_to_scale(adjusted, brute_force_adjust(curv.r, bm.g_ab_inv, bm.g_ij))

    if kind == "polar":
        # the closed form is the index-adjusted curvature of the polar tensor
        rc = covariant_curvature(bm).rc
        assert_close_to_scale(rc, einsum_covariant(bm))
        assert_close_to_scale(rc, brute_force_adjust(curv.r, bm.g_ab_inv, bm.g_ij))


@pytest.mark.parametrize("kind", ["polar", "generic"])
@pytest.mark.parametrize("m,n", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 7)])
def test_homogeneity_is_near_its_longdouble_sum(m, n, kind):
    for seed in range(5):
        rng = np.random.default_rng([seed, m, n])
        if kind == "polar":
            ft = polar_lambda(random_block_metrics(rng, m, n))
        else:
            ft = random_lambda(rng, m, n)
        assert_homogeneity_near_longdouble_sum(ft)


def test_homogeneity_matches_the_loop_oracle_at_g511():
    ft = random_lambda(np.random.default_rng(511), 5, 11)
    scale = float(np.max(np.abs(ft.lam)))
    assert abs(homogeneity_residual(ft) - brute_force_homogeneity(ft)) <= 1e-15 * scale**2


def test_the_loop_oracle_keeps_a_nan_peak():
    # 1e200 squared overflows, and inf - inf in the antisymmetric terms is nan
    lam = random_lambda(np.random.default_rng(3), 1, 3).lam.copy()
    lam[1, 1, 1, 1] = 1e200
    ft = FundamentalTensor(m=1, n=3, lam=lam)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(brute_force_homogeneity(ft))
        assert np.isnan(homogeneity_residual(ft))


@pytest.mark.parametrize("m,n", [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (2, 5)])
def test_homogeneity_residual_is_the_curvature_acting_on_lam(m, n):
    # the residual is the largest entry of R(X, Y) lam over basis directions;
    # measured: generic within 8.2e-16 max|lam|^2 of the oracle, polar both
    # at most 1.3e-15 max|lam|^2, over these sizes and seeds
    for seed in range(10):
        rng = np.random.default_rng([seed, m, n])
        ft = random_lambda(rng, m, n)
        scale = float(np.max(np.abs(ft.lam))) ** 2
        assert abs(homogeneity_residual(ft) - curvature_derivation_homogeneity(ft)) <= 2e-15 * scale
        polar = polar_lambda(random_block_metrics(rng, m, n))
        scale = float(np.max(np.abs(polar.lam))) ** 2
        assert homogeneity_residual(polar) <= 4e-15 * scale
        assert curvature_derivation_homogeneity(polar) <= 4e-15 * scale


@pytest.mark.parametrize("kind", ["polar", "generic"])
@pytest.mark.parametrize("m,n", [(0, 2), (1, 3), (1, 4), (2, 5), (3, 7), (4, 9)])
def test_homogeneity_tiles_do_not_change_the_residual(m, n, kind, monkeypatch):
    rng = np.random.default_rng([m, n, 28])
    if kind == "polar":
        ft = polar_lambda(random_block_metrics(rng, m, n))
    else:
        ft = random_lambda(rng, m, n)
    default = homogeneity_residual(ft)
    gd, ld = m + 1, n - m
    row = 8 * ld * (gd * ld) ** 2  # bytes of P per (beta, i)
    for tile_bytes in (1, 3 * row, gd * ld * row):  # one row, three rows, one whole slab
        monkeypatch.setattr(connection, "_TILE_BYTES", tile_bytes)
        assert homogeneity_residual(ft) == default


@pytest.mark.parametrize("one_row_tiles", [False, True])
def test_an_overflow_in_the_last_tile_gives_a_nonfinite_residual(one_row_tiles, monkeypatch):
    # 1e200 squared overflows, and only products of that entry with itself
    # do; at the last index of every axis they all land in the last
    # (beta, i) row of the last alpha, the last tile computed
    m, n = 4, 9
    lam = random_lambda(np.random.default_rng(49), m, n).lam.copy()
    lam[m, m, n - m - 1, n - m - 1] = 1e200
    if one_row_tiles:
        monkeypatch.setattr(connection, "_TILE_BYTES", 1)
    assert not np.isfinite(homogeneity_residual(FundamentalTensor(m=m, n=n, lam=lam)))


def peak_bytes(fn):
    """Result of fn() and the tracemalloc peak of the allocations it made."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize(
    "builder,bound",
    [("curvature", 1.25), ("homogeneity", 0.75), ("adjust", 1.75), ("covariant", 1.5)],
)
def test_dense_builders_peak_memory_at_g49(builder, bound):
    # peak of new allocations, as a multiple of one rho^4 array (3.0 MiB);
    # the result, where there is one, counts as 1
    rng = np.random.default_rng(7)
    m, n = 4, 9
    bm = random_block_metrics(rng, m, n)
    ft = random_lambda(rng, m, n)
    curv = curvature_tensor(ft)
    calls = {
        "curvature": lambda: curvature_tensor(ft),
        "homogeneity": lambda: homogeneity_residual(ft),
        "adjust": lambda: adjust_curvature_indices(curv, bm),
        "covariant": lambda: covariant_curvature(bm),
    }
    _, peak = peak_bytes(calls[builder])
    assert peak <= bound * curv.r.nbytes


def test_homogeneity_peak_memory_at_g613():
    # tiles hold a few hundred KiB of the expression; P and its partner
    # over a whole alpha slab would be 0.29 of a rho^4 array (44 MiB)
    m, n = 6, 13
    ft = random_lambda(np.random.default_rng(613), m, n)
    _, peak = peak_bytes(lambda: homogeneity_residual(ft))
    assert peak <= 0.1 * 8 * ((m + 1) * (n - m)) ** 4


def test_dense_results_over_budget_raise_before_allocating():
    # G(20, 41): each eight-axis result would hold 21^8 floats, about 300 GB
    m, n = 20, 41
    ft = FundamentalTensor(m=m, n=n, lam=np.zeros((21, 21, 21, 21)))
    eye = np.eye(21)
    bm = BlockMetrics(m=m, n=n, g_ab=eye, g_ij=eye, g_ab_inv=eye)
    # homogeneity_residual's two working blocks hold 21^7 floats each
    cases = (
        (curvature_tensor, ft, 8 * 21**8),
        (covariant_curvature, bm, 8 * 21**8),
        (homogeneity_residual, ft, 8 * 21**7),
    )
    for build, arg, needed in cases:

        def attempt():
            with pytest.raises(TensorTooLarge) as info:
                build(arg)
            return info.value

        err, peak = peak_bytes(attempt)
        assert peak < 10 * 2**20
        assert isinstance(err, GeometryError)
        assert err.needed == needed
        assert err.budget == DENSE_BUDGET_BYTES == 2**30
        assert str(needed) in str(err)
