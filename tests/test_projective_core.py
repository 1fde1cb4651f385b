import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grassnorm import (
    DependentPoints,
    DimensionMismatch,
    HomogeneousPoint,
    InvalidPair,
    MPair,
    ProjectiveFrame,
    SingularFrame,
    Subspace,
    adapted_frame,
    pair_is_valid,
    subspace_from_points,
)

from _gen import random_invertible, random_pair, random_subspace


def test_subspace_canonical_form_is_representative_free():
    rows = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, -1.0]])
    a = subspace_from_points(rows)
    b = subspace_from_points(np.array([[2.0, 5.0, 1.0, 1.0], [1.0, 3.0, 1.0, 0.0]]))
    # second spanning set = invertible mix of the first, same subspace
    np.testing.assert_allclose(a.coord_matrix, b.coord_matrix, atol=1e-13)
    assert a.same_as(b)
    assert a.dim == 1 and a.ambient_n == 3


@given(st.integers(0, 2**31 - 1))
def test_subspace_mix_invariance_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    dim = int(rng.integers(0, n - 1))
    sub = random_subspace(rng, n, dim)
    mix = random_invertible(rng, dim + 1, min_rel_sv=0.1)
    remixed = subspace_from_points((sub.coord_matrix @ mix).T)
    assert sub.same_as(remixed)
    np.testing.assert_allclose(sub.coord_matrix, remixed.coord_matrix, atol=1e-10)


def test_subspace_from_points_accepts_homogeneous_points():
    pts = [HomogeneousPoint(coords=np.array([1.0, 0.0, 0.0])),
           HomogeneousPoint(coords=np.array([0.0, 1.0, 0.0]))]
    sub = subspace_from_points(pts)
    assert sub.dim == 1 and sub.ambient_n == 2


def test_dependent_points_rejected():
    with pytest.raises(DependentPoints):
        subspace_from_points([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])


def test_pair_validity_and_invalid_pair_error():
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    good = subspace_from_points([[0, 0, 1, 0], [0, 0, 0, 1]])
    overlapping = subspace_from_points([[1, 0, 0, 0], [0, 0, 0, 1]])
    assert pair_is_valid(MPair(p=p, p_star=good))
    assert not pair_is_valid(MPair(p=p, p_star=overlapping))
    with pytest.raises(InvalidPair):
        adapted_frame(MPair(p=p, p_star=overlapping))


def test_mpair_rejects_wrong_complement_dimension():
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    line = subspace_from_points([[0, 0, 1, 0]])
    with pytest.raises(DimensionMismatch):
        MPair(p=p, p_star=line)


def test_adapted_frame_columns_span_the_pair():
    rng = np.random.default_rng(12)
    for _ in range(10):
        pair = random_pair(rng, 4, 1)
        frame = adapted_frame(pair)
        f = frame.frame_matrix
        np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)
        assert subspace_from_points(f[:, :2].T).same_as(pair.p)
        assert subspace_from_points(f[:, 2:].T).same_as(pair.p_star)


def test_adapted_frame_is_deterministic():
    rng = np.random.default_rng(13)
    pair = random_pair(rng, 3, 1)
    f1 = adapted_frame(pair).frame_matrix
    f2 = adapted_frame(MPair(p=pair.p, p_star=pair.p_star)).frame_matrix
    np.testing.assert_array_equal(f1, f2)


def test_projective_frame_must_be_invertible():
    with pytest.raises(SingularFrame):
        ProjectiveFrame(ambient_n=2, frame_matrix=np.ones((3, 3)))

