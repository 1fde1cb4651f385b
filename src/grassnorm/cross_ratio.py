"""Cross-ratio of two m-pairs and the induced log distance.

For pairs (p_a, p_star_a) and (p_b, p_star_b) in general position the
cross-ratio matrix is

    W = X (U X)^-1 (U Y) (V Y)^-1 V

where X, Y are coordinate matrices of p_a, p_b and U, V are tangential
(equation) matrices of p_star_a, p_star_b.  W is independent of all
representative choices, and under a projective change of coordinates T
it transforms by conjugation, W -> T W T^-1, so its trace is a
projective invariant of the two pairs.

For coinciding pairs W is the projector onto p along p_star and its
trace equals m + 1.  For infinitesimally close pairs the deviation of
the trace from m + 1 is the quadratic form of the normalization, which
motivates the log distance
    (m + 1) * log(trace(W) / (m + 1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPair,
    NonPositiveTrace,
    NotInGeneralPosition,
)
from .linalg import is_invertible
from .projective_core import MPair, pair_is_valid, tangential_coordinates


@dataclass(frozen=True)
class CrossRatioMatrix:
    """Cross-ratio matrix of two m-pairs, in ambient coordinates."""

    ambient_n: int
    m: int
    w: np.ndarray

    @property
    def trace(self) -> float:
        return float(np.trace(self.w))


def _checked_pair(pair: MPair, label: str) -> MPair:
    if not pair_is_valid(pair):
        raise InvalidPair(f"{label} is not a valid pair")
    return pair


def cross_ratio(pair_a: MPair, pair_b: MPair) -> CrossRatioMatrix:
    """Cross-ratio matrix W of two m-pairs.

    Raises NotInGeneralPosition when p_a meets p_star_a's equations
    degenerately against p_b, i.e. when U X or V Y is singular.
    """
    if pair_a.ambient_n != pair_b.ambient_n or pair_a.m != pair_b.m:
        raise DimensionMismatch("pairs must share ambient dimension and subspace dimension")
    _checked_pair(pair_a, "pair_a")
    _checked_pair(pair_b, "pair_b")

    x = pair_a.p.coord_matrix
    y = pair_b.p.coord_matrix
    u = tangential_coordinates(pair_a.p_star).eq_matrix
    v = tangential_coordinates(pair_b.p_star).eq_matrix

    ux = u @ x
    vy = v @ y
    if not is_invertible(ux):
        raise NotInGeneralPosition("p_a and p_star_a meet p_b degenerately (U X singular)")
    if not is_invertible(vy):
        raise NotInGeneralPosition("p_b and p_star_b are not in general position (V Y singular)")

    w = x @ np.linalg.solve(ux, u @ y) @ np.linalg.solve(vy, v)
    return CrossRatioMatrix(ambient_n=pair_a.ambient_n, m=pair_a.m, w=w)


def cr_log_distance(pair_a: MPair, pair_b: MPair) -> float:
    """Log distance (m + 1) * log(trace(W) / (m + 1)) between two pairs.

    Returns exactly 0.0 for identical pairs.  Raises NonPositiveTrace
    when trace(W) <= 0, where the logarithm is undefined.
    """
    same = (
        pair_a.ambient_n == pair_b.ambient_n
        and pair_a.m == pair_b.m
        and np.array_equal(pair_a.p.coord_matrix, pair_b.p.coord_matrix)
        and np.array_equal(pair_a.p_star.coord_matrix, pair_b.p_star.coord_matrix)
    )
    if same:
        _checked_pair(pair_a, "pair_a")
        return 0.0
    t = cross_ratio(pair_a, pair_b).trace
    k = pair_a.m + 1
    if t <= 0.0:
        raise NonPositiveTrace(f"cross-ratio trace {t} is not positive")
    return k * float(np.log(t / k))
