"""
Estimating the fundamental tensor of a normalization
====================================================

A normalization assigns to each m-dimensional subspace a complementary
one.  Its first-order behavior at a given pair is captured by a
four-index tensor: displace the subspace in one coordinate direction,
watch how the assigned complement tilts, and read the coupling off in
an adapted frame.  The estimator below does that with central
differences.
"""

import numpy as np

from grassnorm import (
    MPair,
    Quadric,
    adapted_frame,
    block_metrics,
    constant_map,
    estimate_fundamental_tensor,
    harmonic_defect,
    lambda_rank,
    metric_inertia,
    polar_conjugate,
    polar_lambda,
    polar_map,
    subspace_from_points,
    symmetrize_metric,
)

# normalization by polarity: the complement of p is its polar with
# respect to a fixed nondegenerate quadric
g = np.diag([1.0, 2.0, 0.5, 1.0])
quadric = Quadric(n=3, matrix=g)
nu = polar_map(quadric)

p = subspace_from_points([[1, 0, 0.2, 0], [0, 1, 0, -0.1]])
pair = MPair(p=p, p_star=polar_conjugate(p, quadric))

estimated = estimate_fundamental_tensor(nu, pair, eps=1e-5)
print("tensor shape:", estimated.lam.shape)
print("flattened to a square matrix:")
print(np.array_str(estimated.flattened(), precision=6, suppress_small=True))

# for a polar normalization there is a closed form built from the two
# blocks of the quadric restricted to an adapted frame
bm = block_metrics(adapted_frame(pair), quadric, m=1)
exact = polar_lambda(bm)
print("max |estimate - closed form|:", np.max(np.abs(estimated.lam - exact.lam)))

# the estimate keeps the closed form's structure: full rank, harmonic,
# no isotropic directions.  The metric's signature (positive, negative,
# null) says which structure the normalization gives: this quadric is
# definite, so the metric is definite and the manifold Riemannian
print("rank:", lambda_rank(estimated), "of", estimated.rho)
print("harmonic defect:", harmonic_defect(estimated))
print("metric signature:", metric_inertia(symmetrize_metric(estimated)))

# a constant normalization ignores the displacement entirely, so the
# tensor is zero
frozen = constant_map(pair.p_star)
flat = estimate_fundamental_tensor(frozen, pair, eps=1e-5)
print("constant map tensor max abs:", np.max(np.abs(flat.lam)))
print("constant map rank:", lambda_rank(flat))
