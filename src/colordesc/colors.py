"""HSV/HSL color types and conversions.

Unit conventions used throughout the package: hue in degrees in [0, 360)
(360 wraps to 0), saturation and value/lightness in percent in [0, 100].
Models condition on HSV; HSL appears only at the I/O boundary because
survey data and reports commonly use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def canonical_hue(h: float) -> float:
    """Wrap a hue in degrees into [0, 360)."""
    if not math.isfinite(h):
        raise ValueError(f"hue must be finite, got {h!r}")
    h = h % 360.0
    # float mod can round up to the modulus itself for tiny negative inputs
    if h >= 360.0:
        h = 0.0
    return h


def _check_percent(name: str, x: float) -> float:
    if not math.isfinite(x) or x < 0.0 or x > 100.0:
        raise ValueError(f"{name} must be in [0, 100], got {x!r}")
    return float(x)


def canonical_hue_array(h: np.ndarray) -> np.ndarray:
    """Elementwise :func:`canonical_hue` of finite hues, as a new array."""
    h = np.mod(h, 360.0)
    h[h >= 360.0] = 0.0
    return h


def percent_ok_array(x: np.ndarray) -> np.ndarray:
    """Elementwise test that :func:`_check_percent` accepts x (NaN fails
    both comparisons, infinities fail one)."""
    return (x >= 0.0) & (x <= 100.0)


@dataclass(frozen=True)
class ColorHSV:
    """A point in HSV space. Canonicalizes hue and validates ranges."""

    h: float
    s: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "h", canonical_hue(float(self.h)))
        object.__setattr__(self, "s", _check_percent("s", self.s))
        object.__setattr__(self, "v", _check_percent("v", self.v))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.h, self.s, self.v)


@dataclass(frozen=True)
class ColorHSL:
    """A point in HSL space, used for corpus I/O and visualization grids."""

    h: float
    s: float
    l: float

    def __post_init__(self):
        object.__setattr__(self, "h", canonical_hue(float(self.h)))
        object.__setattr__(self, "s", _check_percent("s", self.s))
        object.__setattr__(self, "l", _check_percent("l", self.l))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.h, self.s, self.l)


def hsl_to_hsv(c: ColorHSL) -> ColorHSV:
    """Standard cylindrical-space conversion; hue is unchanged."""
    sl = c.s / 100.0
    l = c.l / 100.0
    v = l + sl * min(l, 1.0 - l)
    sv = 0.0 if v == 0.0 else 2.0 * (1.0 - l / v)
    return ColorHSV(c.h, 100.0 * sv, 100.0 * v)


def hsl_to_hsv_array(hsl: np.ndarray) -> np.ndarray:
    """Vectorized hsl_to_hsv over an (N, 3) array of (h, s, l) rows."""
    hsl = np.asarray(hsl, dtype=np.float64)
    h = canonical_hue_array(hsl[:, 0])
    sl = hsl[:, 1] / 100.0
    l = hsl[:, 2] / 100.0
    v = l + sl * np.minimum(l, 1.0 - l)
    with np.errstate(divide="ignore", invalid="ignore"):
        sv = np.where(v == 0.0, 0.0, 2.0 * (1.0 - l / np.where(v == 0.0, 1.0, v)))
    return np.stack([h, 100.0 * sv, 100.0 * v], axis=1)

