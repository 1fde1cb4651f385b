import numpy as np
import pytest

from grassnorm import (
    AffineChartPoint,
    DimensionMismatch,
    NotComplementary,
    chart_frame,
    flatness_report,
    inverse_projection,
    stereographic_projection,
    subspace_from_points,
)

from _gen import random_subspace


def orth_projector(sub):
    q, _ = np.linalg.qr(sub.coord_matrix)
    return q @ q.T


def test_chart_coordinates_read_off_the_trailing_columns():
    p_star = subspace_from_points([[0, 0, 1, 0], [0, 0, 0, 1]])
    p = subspace_from_points([[1, 0, 0.25, 1.0], [0, 1, -0.5, 0.75]])
    b = stereographic_projection(p, p_star)
    np.testing.assert_allclose(b.b, np.array([[0.25, -0.5], [1.0, 0.75]]), atol=1e-13)


def test_projection_is_affine_in_complement_offsets():
    p_star = subspace_from_points([[0, 0, 1, 0], [0, 0, 0, 1]])
    base = stereographic_projection(
        subspace_from_points([[1, 0, 0.1, 0.2], [0, 1, 0.3, 0.4]]), p_star
    )
    shifted = stereographic_projection(
        subspace_from_points([[1, 0, 1.1, 0.2], [0, 1, 0.3, 1.4]]), p_star
    )
    delta = shifted.b - base.b
    np.testing.assert_allclose(delta, np.array([[1.0, 0.0], [0.0, 1.0]]), atol=1e-13)


def test_roundtrip_subspace_to_chart_and_back():
    rng = np.random.default_rng(61)
    checked = 0
    while checked < 30:
        m, n = [(0, 2), (1, 3), (2, 5)][checked % 3]
        p_star = random_subspace(rng, n, n - m - 1)
        p = random_subspace(rng, n, m)
        try:
            b = stereographic_projection(p, p_star)
        except NotComplementary:
            continue
        if np.max(np.abs(b.b)) > 10:  # close to the chart boundary
            continue
        checked += 1
        p2 = inverse_projection(b, p_star)
        assert np.max(np.abs(orth_projector(p2) - orth_projector(p))) <= 1e-12
        assert p2.same_as(p, atol=1e-9)


def test_roundtrip_chart_to_subspace_and_back():
    rng = np.random.default_rng(62)
    for _ in range(20):
        m, n = (1, 4)
        p_star = random_subspace(rng, n, n - m - 1)
        b = AffineChartPoint(m=m, n=n, b=rng.uniform(-3, 3, (n - m, m + 1)))
        p = inverse_projection(b, p_star)
        b2 = stereographic_projection(p, p_star)
        np.testing.assert_allclose(b2.b, b.b, atol=1e-11)


def test_subspace_meeting_the_center_is_rejected():
    p_star = subspace_from_points([[0, 0, 1, 0], [0, 0, 0, 1]])
    crossing = subspace_from_points([[1, 0, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(NotComplementary):
        stereographic_projection(crossing, p_star)


def test_projection_dimension_validation():
    p_star = subspace_from_points([[0, 0, 1, 0], [0, 0, 0, 1]])
    wrong_center = subspace_from_points([[0, 0, 0, 1]])
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(DimensionMismatch):
        stereographic_projection(p, wrong_center)
    with pytest.raises(DimensionMismatch):
        inverse_projection(AffineChartPoint(m=1, n=3, b=np.zeros((2, 2))), wrong_center)


def test_projection_refuses_a_center_of_another_ambient_space():
    p = subspace_from_points([[1, 0, 0, 0], [0, 1, 0, 0]])
    center_in_p4 = subspace_from_points(np.eye(5)[2:])
    with pytest.raises(DimensionMismatch, match="different ambient spaces"):
        stereographic_projection(p, center_in_p4)


def test_chart_frame_splits_center_and_complement():
    rng = np.random.default_rng(63)
    p_star = random_subspace(rng, 4, 2)
    frame = chart_frame(p_star).frame_matrix
    assert subspace_from_points(frame[:, 2:].T).same_as(p_star)
    # leading block is orthogonal to the center's canonical columns
    np.testing.assert_allclose(p_star.coord_matrix.T @ frame[:, :2], 0.0, atol=1e-12)


def test_flatness_report_is_exactly_zero():
    for m, n in ((0, 2), (1, 3), (2, 5)):
        rep = flatness_report(m, n)
        assert rep == {"lambda_rank": 0, "curvature_max_abs": 0.0, "metric_rank": 0}
