"""Second-order truncation of the finite-difference estimators, shown on a
normalization whose response is genuinely nonlinear.

Acceptance criteria 6 and 7 ask for this rate on polar maps, where the
estimators have no truncation error at all (see README "Testing").  Here
the map is the polarity of a quadric that moves with p,

    G(p) = G + s (e^T P_p e) H,

P_p the orthogonal projector onto p and e, H fixed.  (G + s P_p alone would
not do: X^T P_p = X^T for any basis X of p, so its polar is that of the
fixed quadric G + s I.)  For such a map both central differences carry an
eps^2 term, so halving eps shrinks the change of the estimate by 4.
"""

import numpy as np
import pytest

from grassnorm import (
    MPair,
    NormalizingMap,
    Quadric,
    covariant_derivative_estimate,
    estimate_fundamental_tensor,
    polar_conjugate,
)

from _gen import random_direction, random_polar_pair, random_quadric, random_symmetric_invertible

STEPS = (1e-2, 5e-3, 2.5e-3)


def moving_quadric_map(q: Quadric, h: np.ndarray, e: np.ndarray, s: float) -> NormalizingMap:
    def fn(p):
        basis = np.linalg.qr(p.coord_matrix)[0]
        weight = float(np.sum((basis.T @ e) ** 2))  # e^T P_p e
        return polar_conjugate(p, Quadric(n=q.n, matrix=q.matrix + s * weight * h))

    return NormalizingMap(fn=fn)


def halving_ratio(estimates):
    """|f(eps) - f(eps/2)| / |f(eps/2) - f(eps/4)|, about 4 for an eps^2 term."""
    first = np.max(np.abs(estimates[0] - estimates[1]))
    second = np.max(np.abs(estimates[1] - estimates[2]))
    return float(first / second)


@pytest.mark.parametrize("m,n,seed", [(1, 3, 0), (1, 3, 1), (2, 5, 2)])
def test_estimators_converge_at_second_order_on_a_nonlinear_map(m, n, seed):
    rng = np.random.default_rng(seed)
    q = random_quadric(rng, n)
    nu = moving_quadric_map(q, random_symmetric_invertible(rng, n + 1), rng.standard_normal(n + 1), 0.3)
    p = random_polar_pair(rng, q, m).p
    pair = MPair(p=p, p_star=nu(p))
    d = random_direction(rng, m, n)
    lams = [estimate_fundamental_tensor(nu, pair, eps=eps).lam for eps in STEPS]
    grads = [covariant_derivative_estimate(nu, pair, d, eps=eps) for eps in STEPS]
    assert halving_ratio(lams) == pytest.approx(4.0, abs=0.25)
    assert halving_ratio(grads) == pytest.approx(4.0, abs=0.25)
    # the truncation is real, not rounding noise
    assert np.max(np.abs(lams[1] - lams[2])) > 1e-8
