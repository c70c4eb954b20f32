import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from colordesc import hsl_to_hsv, hsl_to_hsv_array
from colordesc.colors import canonical_hue_array, checked_hsv


def hsv_to_hsl_array(hsv: np.ndarray) -> np.ndarray:
    """The inverse of ``hsl_to_hsv_array`` over (N, 3) rows of (h, s, v),
    the round-trip oracle; hue is unchanged, and saturation is 0 where
    lightness is 0 or 100, where it is undefined."""
    hsv = np.asarray(hsv, dtype=np.float64)
    sv = hsv[:, 1] / 100.0
    v = hsv[:, 2] / 100.0
    l = v * (1.0 - sv / 2.0)
    safe = (l > 0.0) & (l < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sl = np.where(safe, (v - l) / np.where(safe, np.minimum(l, 1.0 - l), 1.0), 0.0)
    return np.stack([hsv[:, 0], 100.0 * np.minimum(sl, 1.0), 100.0 * l], axis=1)


def test_canonical_hue_wraps_into_range():
    h = canonical_hue_array(np.array([0.0, 360.0, 725.0, -30.0, -1e-13]))
    assert h[0] == 0.0
    assert h[1] == 0.0
    assert h[2] == pytest.approx(5.0)
    assert h[3] == pytest.approx(330.0)
    # tiny negative values must not round up to the modulus itself
    assert 0.0 <= h[4] < 360.0


def test_canonical_hue_rejects_non_finite():
    # canonical_hue_array wraps finite hues; checked_hsv drops the others
    rows = np.array([[bad, 50.0, 50.0] for bad in (math.nan, math.inf, -math.inf)])
    for is_hsl in (False, True):
        valid, hsv = checked_hsv(rows, is_hsl)
        assert valid.tolist() == [] and hsv.shape == (0, 3)


def test_color_types_validate_and_canonicalize():
    valid, hsv = checked_hsv(np.array([[400.0, 50.0, 75.0], [10.0, -1.0, 50.0],
                                       [10.0, 40.0, 100.5]]), False)
    assert valid.tolist() == [0]
    assert hsv[0, 0] == pytest.approx(40.0)
    valid, _ = checked_hsv(np.array([[10.0, 40.0, math.nan]]), True)
    assert valid.tolist() == []


@pytest.mark.parametrize("hsl,expected_hsv", [
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),        # black
    ((0.0, 0.0, 100.0), (0.0, 0.0, 100.0)),    # white
    ((120.0, 100.0, 50.0), (120.0, 100.0, 100.0)),  # pure green
    ((240.0, 100.0, 25.0), (240.0, 100.0, 50.0)),
    ((0.0, 0.0, 40.0), (0.0, 0.0, 40.0)),      # gray keeps value=lightness
])
def test_hsl_to_hsv_known_points(hsl, expected_hsv):
    got = hsl_to_hsv(hsl)
    assert tuple(got) == pytest.approx(expected_hsv, abs=1e-9)


def test_hsl_hsv_roundtrip_dense():
    rng = np.random.default_rng(3)
    hsl = np.column_stack([
        rng.uniform(0, 360, 500),
        rng.uniform(0, 100, 500),
        rng.uniform(0, 100, 500),
    ])
    back = hsv_to_hsl_array(hsl_to_hsv_array(hsl))
    # saturation is undefined at l in {0, 1}; exclude the degenerate rows
    inner = (hsl[:, 2] > 1e-9) & (hsl[:, 2] < 100.0 - 1e-9)
    np.testing.assert_allclose(back[inner], hsl[inner], atol=1e-9)


def test_scalar_and_array_conversions_agree():
    rng = np.random.default_rng(9)
    hsl = np.column_stack([
        rng.uniform(0, 360, 50),
        rng.uniform(0, 100, 50),
        rng.uniform(0, 100, 50),
    ])
    arr = hsl_to_hsv_array(hsl)
    for i in range(len(hsl)):
        c = hsl_to_hsv(hsl[i])
        assert tuple(c) == pytest.approx(tuple(arr[i]), abs=1e-12)


def test_hue_is_preserved_by_conversion():
    for h in (0.0, 123.4, 359.9):
        assert hsl_to_hsv((h, 60.0, 70.0))[0] == pytest.approx(h)
        assert hsv_to_hsl_array(np.array([[h, 60.0, 70.0]]))[0, 0] == pytest.approx(h)


def _percent(lo=0.0, hi=100.0):
    return st.floats(lo, hi, allow_nan=False)


@given(h=st.floats(0.0, 360.0, exclude_max=True), s=_percent(), l=_percent())
def test_scalar_and_array_conversions_agree_exactly(h, s, l):
    # every HSL color is an HSV color after conversion
    valid, hsv = checked_hsv(np.array([[h, s, l]]), True)
    hsv_arr = hsl_to_hsv_array(np.array([[h, s, l]]))[0]
    assert valid.tolist() == [0]
    assert tuple(hsv[0]) == tuple(hsl_to_hsv((h, s, l))) == tuple(hsv_arr)


@given(h=st.floats(0.0, 360.0, exclude_max=True), s=_percent(),
       l=_percent(0.01, 99.99))
def test_hsl_hsv_hsl_roundtrip(h, s, l):
    # saturation is undefined at l in {0, 100}; away from there it returns
    hsv = hsl_to_hsv((h, s, l))
    back_h, back_s, back_l = hsv_to_hsl_array([hsv])[0]
    assert back_h == h
    assert back_s == pytest.approx(s, abs=1e-7)
    assert back_l == pytest.approx(l, abs=1e-9)
