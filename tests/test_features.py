import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from colordesc import feature_dim
from colordesc.errors import ConfigError
from colordesc.features import (
    BUCKET_GRIDS,
    BUCKET_SIZES,
    bucket_index_array,
    dense_feature_array,
    fourier_feature_array,
    raw_feature_array,
)


def test_raw_features_scale_each_axis_to_unit_interval():
    f = raw_feature_array(np.array([[180.0, 50.0, 25.0]]))[0]
    np.testing.assert_allclose(f, [0.5, 0.5, 0.25])
    arr = raw_feature_array(np.array([[360.0 - 1e-9, 100.0, 0.0]]))
    assert arr.shape == (1, 3)
    assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


def test_fourier_origin_gives_ones_then_zeros():
    f = fourier_feature_array(np.array([[0.0, 0.0, 0.0]]))[0]
    assert f.shape == (54,)
    np.testing.assert_allclose(f[:27], np.ones(27), atol=1e-12)
    np.testing.assert_allclose(f[27:], np.zeros(27), atol=1e-12)


def test_fourier_components_have_unit_modulus():
    rng = np.random.default_rng(1)
    hsv = np.column_stack([
        rng.uniform(0, 360, 100),
        rng.uniform(0, 100, 100),
        rng.uniform(0, 100, 100),
    ])
    f = fourier_feature_array(hsv)
    # each of the 27 (cos, sin) pairs lies on the unit circle
    mods = f[:, :27] ** 2 + f[:, 27:] ** 2
    np.testing.assert_allclose(mods, np.ones_like(mods), atol=1e-12)
    np.testing.assert_allclose((f ** 2).sum(axis=1), 27.0, atol=1e-9)


def test_fourier_periodic_in_hue():
    base = fourier_feature_array(np.array([[0.0, 30.0, 70.0]]))
    near_wrap = fourier_feature_array(np.array([[359.999999, 30.0, 70.0]]))
    np.testing.assert_allclose(near_wrap, base, atol=1e-6)


def test_fourier_first_component_is_constant_one():
    # frequency (0,0,0) contributes cos(0)=1 / sin(0)=0 everywhere
    rng = np.random.default_rng(2)
    hsv = np.column_stack([
        rng.uniform(0, 360, 10),
        rng.uniform(0, 100, 10),
        rng.uniform(0, 100, 10),
    ])
    f = fourier_feature_array(hsv)
    np.testing.assert_allclose(f[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(f[:, 27], 0.0, atol=1e-12)


def test_fourier_single_axis_phase():
    # with s=v=0, component for (j,k,l)=(1,0,0) is cos/sin of -2*pi*h/360
    h = 90.0
    f = fourier_feature_array(np.array([[h, 0.0, 0.0]]))[0]
    idx = 9  # (1,0,0) in row-major (j outer, l inner) enumeration
    expect = -2.0 * np.pi * (h / 360.0)
    assert f[idx] == pytest.approx(np.cos(expect), abs=1e-12)
    assert f[27 + idx] == pytest.approx(np.sin(expect), abs=1e-12)


def test_bucket_grid_sizes():
    assert BUCKET_GRIDS == ((90, 10, 10), (45, 5, 5), (1, 1, 1))
    assert BUCKET_SIZES == (9000, 1125, 1)


def _bucket_ids(h, s, v):
    """(fine, mid, global) ids of one color: [0, 360) x [0, 100] x [0, 100]
    cut into equal cells by floor, the closed top edge clamped into the
    last cell, ids row-major (hue outer, value inner)."""
    ids = []
    for nh, ns, nv in BUCKET_GRIDS:
        ih = min(math.floor(h * nh / 360.0), nh - 1)
        isat = min(math.floor(s * ns / 100.0), ns - 1)
        iv = min(math.floor(v * nv / 100.0), nv - 1)
        ids.append((ih * ns + isat) * nv + iv)
    return tuple(ids)


def test_bucket_index_hand_cases():
    # origin lands in cell 0 at every resolution
    assert tuple(bucket_index_array(np.array([[0.0, 0.0, 0.0]]))[0]) == (0, 0, 0)
    # h=4 -> fine hue cell 1 (4-degree cells), mid hue cell 0 (8-degree cells)
    fine, mid, global_ = bucket_index_array(np.array([[4.0, 0.0, 0.0]]))[0]
    assert fine == 100
    assert mid == 0
    assert global_ == 0
    # s=10 is the closed lower edge of fine cell 1 in saturation
    fine, _, _ = bucket_index_array(np.array([[0.0, 10.0, 0.0]]))[0]
    assert fine == 10
    # upper boundary s=v=100 clamps into the last cell, never overflows
    fine, mid, global_ = bucket_index_array(np.array([[359.9999, 100.0, 100.0]]))[0]
    assert fine == BUCKET_SIZES[0] - 1
    assert mid == BUCKET_SIZES[1] - 1
    assert global_ == 0


def test_bucket_index_array_matches_scalar():
    rng = np.random.default_rng(3)
    hsv = np.column_stack([
        rng.uniform(0, 360, 200),
        rng.uniform(0, 100, 200),
        rng.uniform(0, 100, 200),
    ])
    arr = bucket_index_array(hsv)
    assert arr.shape == (200, 3)
    assert np.all(arr >= 0)
    assert np.all(arr < np.array(BUCKET_SIZES))
    for i in (0, 57, 199):
        assert tuple(arr[i]) == _bucket_ids(*hsv[i])


def test_feature_dim():
    assert feature_dim("raw") == 3
    assert feature_dim("fourier") == 54
    assert feature_dim("buckets") == 30
    assert feature_dim("buckets", bucket_embedding_dim=7) == 21
    with pytest.raises(ConfigError):
        feature_dim("pca")


def test_dense_feature_array_dispatch():
    hsv = np.array([[180.0, 50.0, 25.0]])
    np.testing.assert_allclose(dense_feature_array(hsv, "raw"),
                               [[0.5, 0.5, 0.25]])
    assert dense_feature_array(hsv, "fourier").shape == (1, 54)
    with pytest.raises(ConfigError):
        dense_feature_array(hsv, "buckets")


def _hsv_rows():
    """(N, 3) HSV arrays over the whole closed color space."""
    row = st.tuples(st.floats(0.0, 360.0, exclude_max=True),
                    st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    return st.lists(row, min_size=1, max_size=30).map(np.array)


@given(hsv=_hsv_rows())
def test_fourier_identities(hsv):
    f = fourier_feature_array(hsv)
    np.testing.assert_allclose(f[:, :27] ** 2 + f[:, 27:] ** 2, 1.0, atol=1e-12)
    # the zero-frequency column is exactly cos 0 = 1 and sin 0 = 0
    assert (f[:, 0] == 1.0).all()
    assert (f[:, 27] == 0.0).all()


def _direct_fourier(hsv: np.ndarray) -> np.ndarray:
    """The 54 features by the defining formula: cos and sin of each of the
    27 phases -2*pi*(j*h' + k*s' + l*v'), in float64."""
    freqs = np.array([(j, k, l) for j in range(3) for k in range(3) for l in range(3)],
                     dtype=np.float64)
    phase = -2.0 * np.pi * ((hsv / np.array([360.0, 200.0, 200.0])) @ freqs.T)
    return np.concatenate([np.cos(phase), np.sin(phase)], axis=1)


def _edge_or_any(lo: float, hi: float):
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))


@given(hsv=st.lists(st.tuples(_edge_or_any(0.0, 360.0), _edge_or_any(0.0, 100.0),
                              _edge_or_any(0.0, 100.0)),
                    min_size=1, max_size=40).map(np.array))
def test_phasor_features_equal_the_direct_formula(hsv):
    direct = _direct_fourier(hsv)
    got = fourier_feature_array(hsv)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.abs(got - direct).max() <= 1e-14
    # float32 is the float64 value rounded once, so it differs from the
    # direct formula's float32 only where the two float64 values, at most
    # 1e-14 apart, round apart: at a tie, where the midpoint of two adjacent
    # float32 values lies between them. Below 1e-6 in magnitude float32's
    # steps are finer than 1e-14, and an entry that is zero up to rounding
    # (the direct formula's sin(-pi) is -1.2e-16) may move several steps.
    got32 = fourier_feature_array(hsv, np.float32)
    assert got32.dtype == np.float32
    assert got32.tobytes() == got.astype(np.float32).tobytes()
    want32 = direct.astype(np.float32)
    differ = got32 != want32
    lo, hi = np.minimum(got32, want32)[differ], np.maximum(got32, want32)[differ]
    mid = (lo.astype(np.float64) + hi.astype(np.float64)) / 2
    tie = (np.nextafter(lo, np.float32(np.inf)) == hi) & (np.abs(direct[differ] - mid) <= 1e-14)
    assert (tie | (np.abs(direct[differ]) < 1e-6)).all()


@given(hsv=_hsv_rows())
def test_bucket_ids_in_range_and_mid_follows_fine(hsv):
    idx = bucket_index_array(hsv)
    for r, size in enumerate(BUCKET_SIZES):
        assert ((idx[:, r] >= 0) & (idx[:, r] < size)).all()
    (fh, fs, fv), (mh, ms, mv) = BUCKET_GRIDS[0], BUCKET_GRIDS[1]
    ih, rest = np.divmod(idx[:, 0], fs * fv)
    isat, iv = np.divmod(rest, fv)
    # each fine cell lies inside one mid cell (the fine grid halves it)
    mid = ((ih // (fh // mh)) * ms + isat // (fs // ms)) * mv + iv // (fv // mv)
    np.testing.assert_array_equal(idx[:, 1], mid)
    assert (idx[:, 2] == 0).all()
