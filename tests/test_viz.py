import math

import numpy as np
import pytest

from colordesc import ConfigError, Description, EvaluationError
from colordesc.viz import (
    DEFAULT_GRID,
    LOG_FLOOR,
    GridSpec,
    ProbField,
    cross_sections,
    describe_slug,
    hue_profile,
    periodic_local_maxima,
    probability_field,
    render,
    to_pixels,
    write_pgm,
)

from conftest import constant_step_model


# -- grid


def test_grid_axes_periodic_hue_inclusive_sl():
    g = GridSpec(4, 3, 5)
    h, s, l = g.axes()
    np.testing.assert_allclose(h, [0.0, 90.0, 180.0, 270.0])
    np.testing.assert_allclose(s, [0.0, 50.0, 100.0])
    np.testing.assert_allclose(l, [0.0, 25.0, 50.0, 75.0, 100.0])
    # hue stops short of 360 (periodic); s and l include both endpoints
    assert h.max() < 360.0


def test_grid_points_row_major_lightness_innermost():
    g = GridSpec(2, 2, 2)
    pts = g.hsl_points()
    assert pts.shape == (8, 3)
    np.testing.assert_allclose(pts[0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(pts[1], [0.0, 0.0, 100.0])
    np.testing.assert_allclose(pts[2], [0.0, 100.0, 0.0])
    np.testing.assert_allclose(pts[4], [180.0, 0.0, 0.0])


def test_grid_parse():
    g = GridSpec.parse("120x50x50")
    assert g.dims == DEFAULT_GRID
    assert GridSpec.parse("8X4x2").dims == (8, 4, 2)
    for bad in ("120x50", "axbxc", "1x2x3x4", ""):
        with pytest.raises(ConfigError):
            GridSpec.parse(bad)
    with pytest.raises(ConfigError):
        GridSpec(0, 5, 5)


# -- cross sections


def _hand_pixels(mat, total):
    """Independent pixel computation: normalize, log, min-max to 0..255
    with round-half-up."""
    logs = [[math.log(v / total) for v in row] for row in mat]
    flat = [x for row in logs for x in row]
    lo, hi = min(flat), max(flat)
    out = []
    for row in logs:
        out.append([int(math.floor((x - lo) * 255.0 / (hi - lo) + 0.5))
                    for x in row])
    return out


def test_cross_sections_of_counting_field():
    values = np.arange(1.0, 9.0).reshape(2, 2, 2)
    field = ProbField(GridSpec(2, 2, 2), values)
    L, R = cross_sections(field)
    assert (L.axis, R.axis) == ("L", "R")
    np.testing.assert_allclose(np.exp(L.values), [[6, 8], [10, 12]] / np.float64(36))
    np.testing.assert_allclose(np.exp(R.values), [[4, 6], [12, 14]] / np.float64(36))
    # each marginal's probability mass is 1
    assert np.exp(L.values).sum() == pytest.approx(1.0)
    assert np.exp(R.values).sum() == pytest.approx(1.0)


def test_pgm_goldens_for_counting_field(tmp_path):
    values = np.arange(1.0, 9.0).reshape(2, 2, 2)
    field = ProbField(GridSpec(2, 2, 2), values)
    L, R = cross_sections(field)
    lp = tmp_path / "L.pgm"
    rp = tmp_path / "R.pgm"
    render(L, lp)
    render(R, rp)

    assert _hand_pixels([[6, 8], [10, 12]], 36) == [[0, 106], [188, 255]]
    assert _hand_pixels([[4, 6], [12, 14]], 36) == [[0, 83], [224, 255]]
    assert lp.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 106, 188, 255])
    assert rp.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 83, 224, 255])


def test_cross_sections_shift_and_scale_invariant_pixels(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 1.0, size=(3, 4, 5))
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    L1, _ = cross_sections(ProbField(GridSpec(3, 4, 5), values))
    L2, _ = cross_sections(ProbField(GridSpec(3, 4, 5), values * 7.25))
    render(L1, a)
    render(L2, b)
    assert a.read_bytes() == b.read_bytes()


def test_zero_cells_hit_log_floor_not_minus_inf():
    values = np.zeros((2, 2, 2))
    values[1, 0, 1] = 1.0
    L, R = cross_sections(ProbField(GridSpec(2, 2, 2), values))
    assert L.values[0, 1] == pytest.approx(0.0)  # all the mass
    assert L.values[0, 0] == LOG_FLOOR
    assert np.isfinite(L.values).all() and np.isfinite(R.values).all()
    px = to_pixels(L.values)
    assert px[0, 1] == 255
    assert px[0, 0] == 0


def test_cross_sections_reject_empty_field():
    with pytest.raises(EvaluationError):
        cross_sections(ProbField(GridSpec(2, 2, 2), np.zeros((2, 2, 2))))


# -- pixel mapping


def test_to_pixels_examples():
    np.testing.assert_array_equal(
        to_pixels(np.array([[0.0, -1.0]])), [[255, 0]])
    np.testing.assert_array_equal(
        to_pixels(np.array([[0.0, -1.0, -2.0]])), [[255, 128, 0]])
    np.testing.assert_array_equal(
        to_pixels(np.full((2, 3), 4.2)), np.full((2, 3), 128, dtype=np.uint8))
    assert to_pixels(np.zeros((2, 2))).dtype == np.uint8


def test_to_pixels_rejects_nan():
    with pytest.raises(EvaluationError):
        to_pixels(np.array([[0.0, np.nan]]))


def test_write_pgm_layout(tmp_path):
    px = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)
    p = tmp_path / "x.pgm"
    write_pgm(px, p)
    blob = p.read_bytes()
    assert blob == b"P5\n3 2\n255\n" + bytes([1, 2, 3, 4, 5, 6])
    with pytest.raises(EvaluationError):
        write_pgm(np.zeros(4, dtype=np.uint8), tmp_path / "y.pgm")


# -- field construction from a model


def test_probability_field_constant_model():
    model = constant_step_model(["a"], [-1e9, 0.0, -1e9, 0.0])
    grid = GridSpec(3, 2, 2)
    field = probability_field(model, "a", grid)
    assert field.values.shape == (3, 2, 2)
    np.testing.assert_allclose(field.values, 0.25, rtol=1e-5)
    L, R = cross_sections(field)
    assert np.all(to_pixels(L.values) == 128)
    assert np.all(to_pixels(R.values) == 128)


def test_probability_field_rejects_empty_description():
    model = constant_step_model(["a"], [-1e9, 0.0, -1e9, 0.0])
    with pytest.raises(ConfigError):
        probability_field(model, "", GridSpec(2, 2, 2))


def test_probability_field_accepts_description_objects():
    model = constant_step_model(["a"], [-1e9, 0.0, -1e9, 0.0])
    field = probability_field(model, Description.from_text("a"), GridSpec(2, 2, 2))
    assert field.values.shape == (2, 2, 2)


# -- hue profiles


def test_hue_profile_picks_middle_lightness_row():
    values = np.zeros((4, 2, 3))
    values[:, 0, 1] = [1.0, 3.0, 2.0, 2.0]
    values[:, 1, 1] = [1.0, 1.0, 0.0, 1.0]
    values[:, :, 0] = 99.0  # other lightness rows must not leak in
    field = ProbField(GridSpec(4, 2, 3), values)
    prof = hue_profile(field)
    np.testing.assert_allclose(prof, np.array([2, 4, 2, 3]) / 11.0)
    assert prof.sum() == pytest.approx(1.0)


def test_periodic_local_maxima():
    assert periodic_local_maxima(np.array([0.0, 1.0, 0.0, 1.0])) == [1, 3]
    assert periodic_local_maxima(np.array([0.0, 2.0, 0.0, 1.0])) == [1, 3]
    assert periodic_local_maxima(np.array([0.0, 2.0, 1.0])) == [1]
    assert periodic_local_maxima(np.array([1.0, 1.0, 1.0])) == []
    assert periodic_local_maxima(np.array([1.0, 2.0])) == []
    # wraparound: peak at index 0 counts via the cyclic neighbors
    assert periodic_local_maxima(np.array([5.0, 1.0, 0.0, 1.0])) == [0]


def test_describe_slug():
    assert describe_slug("Dark Red!") == "dark-red"
    assert describe_slug(Description.from_text("greenish blue")) == "greenish-blue"
    assert describe_slug("???") == "description"
    # a token sequence is its tokens, not the text of its repr
    assert describe_slug(("greenish", "blue")) == "greenish-blue"
    assert describe_slug(list(np.array(["greenish", "blue"]))) == "greenish-blue"
    # tokens are lowercased as a text's are
    assert describe_slug(["Dark", "Red"]) == describe_slug("Dark Red") == "dark-red"
    # letters and digits of any script are kept
    assert describe_slug("Grün 2 ½") == describe_slug(["grün", "2", "½"]) == "grün-2-½"
