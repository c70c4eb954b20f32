"""HSV color rows: the one test of a color, and HSL -> HSV conversion.

A color is an (h, s, v) row of floats: hue in degrees, wrapped into
[0, 360) (360 wraps to 0), saturation and value in percent in [0, 100].
Many colors are an (N, 3) float64 array of such rows. Models condition
on HSV; HSL appears only at the I/O boundary because survey data and
reports commonly use it.
"""

from __future__ import annotations

import numpy as np


def canonical_hue_array(h: np.ndarray) -> np.ndarray:
    """Finite hues in degrees wrapped into [0, 360), as a new array."""
    h = np.mod(h, 360.0)
    # float mod can round up to the modulus itself for tiny negative inputs
    h[h >= 360.0] = 0.0
    return h


def percent_ok_array(x: np.ndarray) -> np.ndarray:
    """Elementwise test that x is in [0, 100] (NaN fails both
    comparisons, infinities fail one)."""
    return (x >= 0.0) & (x <= 100.0)


def checked_hsv(rows: np.ndarray, is_hsl: bool):
    """Indices of the (h, s, v) or (h, s, l) rows that are colors, and
    their canonical HSV rows: the hue is finite and the other two are in
    [0, 100] (for HSL, also after conversion to HSV); the hue is wrapped
    into [0, 360)."""
    ok = np.isfinite(rows[:, 0]) & percent_ok_array(rows[:, 1]) & percent_ok_array(rows[:, 2])
    idx = np.flatnonzero(ok)
    if is_hsl:
        hsv = hsl_to_hsv_array(rows[idx])
        ok = percent_ok_array(hsv[:, 1]) & percent_ok_array(hsv[:, 2])
        return idx[ok], hsv[ok]
    hsv = rows[idx]
    hsv[:, 0] = canonical_hue_array(hsv[:, 0])
    return idx, hsv


def hsl_to_hsv(hsl) -> np.ndarray:
    """``hsl_to_hsv_array`` of one (h, s, l) triple, as a (3,) row."""
    return hsl_to_hsv_array(np.reshape(hsl, (1, 3)))[0]


def hsl_to_hsv_array(hsl: np.ndarray) -> np.ndarray:
    """Standard cylindrical-space conversion of an (N, 3) array of
    (h, s, l) rows to (h, s, v); hue is only wrapped into [0, 360)."""
    hsl = np.asarray(hsl, dtype=np.float64)
    h = canonical_hue_array(hsl[:, 0])
    sl = hsl[:, 1] / 100.0
    l = hsl[:, 2] / 100.0
    v = l + sl * np.minimum(l, 1.0 - l)
    with np.errstate(divide="ignore", invalid="ignore"):
        sv = np.where(v == 0.0, 0.0, 2.0 * (1.0 - l / np.where(v == 0.0, 1.0, v)))
    return np.stack([h, 100.0 * sv, 100.0 * v], axis=1)
