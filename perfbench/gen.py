"""Seeded inputs.  Only numpy here: the library sees the generated arrays.

Inputs are drawn well-conditioned by measures computed here with
orthonormal bases, never by whether the library accepts them:

* the Gram matrix of p under each quadric, and the blocks the cross-ratio
  inverts, have singular-value ratio at least 0.05;
* every subspace the library will canonicalize (p, its polar, the equations
  of the polar) has a leading coordinate block with smallest singular value
  at least 0.1 in an orthonormal basis.  The library stores subspaces in
  column-echelon form with pivots on the leading coordinates; when that
  block is nearly singular the stored basis has huge entries and
  well-conditioned inputs are rejected as tangent or not in general position
  (the fault kept on purpose in three fixed estimate-polar tasks, see
  workloads.FAULT_DELTAS).  Without this filter one random estimate-polar
  task in the 3,900 of seeds 1 to 150 was rejected, so the failure count
  would depend on the seed.
"""

from __future__ import annotations

import numpy as np

from checks import orthonormal_basis, polar_points


def symmetric(rng, k: int) -> np.ndarray:
    """Q diag(s) Q^T with |s| in [0.5, 2] and random signs: condition
    number at most 4, indefinite in general."""
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    s = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
    return (q * s) @ q.T


def conditioning(a) -> float:
    s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    return float(s[-1] / s[0])


def leading_margin(points) -> float:
    """Smallest singular value of the leading square block of an orthonormal
    basis of the span of ``points`` (rows, or columns if tall)."""
    q = orthonormal_basis(points)
    return float(np.linalg.svd(q[: q.shape[1]], compute_uv=False)[-1])


def polar_input(rng, m: int, n: int):
    """Quadric G, points spanning p and a unit direction d on G(m, n).

    p is off G, and p, its polar under G and the equations X^T G of that
    polar are in the position described in the module docstring.
    """
    while True:
        g = symmetric(rng, n + 1)
        points = rng.standard_normal((m + 1, n + 1))
        x = orthonormal_basis(points)
        if leading_margin(x) < 0.1:
            continue
        if (
            conditioning(x.T @ g @ x) >= 0.05
            and leading_margin(polar_points(points, g)) >= 0.1
            and leading_margin(points @ g) >= 0.1
        ):
            break
    d = rng.standard_normal((n - m, m + 1))
    return g, points, d / np.linalg.norm(d)


def block_metrics(rng, m: int, n: int):
    """Random nondegenerate g_ab ((m+1) square) and g_ij ((n-m) square)."""
    return symmetric(rng, m + 1), symmetric(rng, n - m)


def generic_lambda(rng, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m + 1, m + 1, n - m, n - m))
