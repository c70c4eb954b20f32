"""Denotation visualization: evaluate S(d|c) over an HSL grid, collapse
to two log-marginal cross-sections, and render grayscale PGM images.

The L section marginalizes hue out (axes saturation x lightness); the R
section marginalizes saturation out (axes hue x lightness). Both are
normalized to sum to 1 before the log, so rendering is invariant to a
constant shift of all log values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .colors import hsl_to_hsv_array
from .corpus import Description, tokenize, tokens_of
from .errors import ConfigError, EvaluationError

# zero-probability cells are floored here so empty regions render black
LOG_FLOOR = math.log(1e-30)

DEFAULT_GRID = (120, 50, 50)


@dataclass(frozen=True)
class GridSpec:
    """Uniform HSL grid: hue sampled periodically on [0, 360), saturation
    and lightness on [0, 100] inclusive."""

    n_h: int = DEFAULT_GRID[0]
    n_s: int = DEFAULT_GRID[1]
    n_l: int = DEFAULT_GRID[2]

    def __post_init__(self):
        if min(self.n_h, self.n_s, self.n_l) < 1:
            raise ConfigError(f"grid dimensions must be >= 1, got {self.dims}")

    @property
    def dims(self) -> tuple:
        return (self.n_h, self.n_s, self.n_l)

    def axes(self):
        h = np.arange(self.n_h, dtype=np.float64) * (360.0 / self.n_h)
        s = np.linspace(0.0, 100.0, self.n_s)
        l = np.linspace(0.0, 100.0, self.n_l)
        return h, s, l

    def hsl_points(self) -> np.ndarray:
        """(n_h*n_s*n_l, 3) grid points, h outer / l inner (row-major)."""
        h, s, l = self.axes()
        hh, ss, ll = np.meshgrid(h, s, l, indexing="ij")
        return np.stack([hh.ravel(), ss.ravel(), ll.ravel()], axis=1)

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """'120x50x50' -> GridSpec(120, 50, 50)."""
        parts = text.lower().split("x")
        if len(parts) != 3:
            raise ConfigError(f"grid must be NHxNSxNL, got {text!r}")
        try:
            n_h, n_s, n_l = (int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"grid must be NHxNSxNL, got {text!r}") from exc
        return cls(n_h, n_s, n_l)


@dataclass
class ProbField:
    """S(d|c) sampled on a GridSpec, shape (n_h, n_s, n_l)."""

    grid: GridSpec
    values: np.ndarray


@dataclass
class CrossSection:
    """A log-normalized marginal: axis 'L' has shape (n_s, n_l), axis
    'R' has shape (n_h, n_l)."""

    axis: str
    values: np.ndarray


def probability_field(model, d, grid: GridSpec | None = None) -> ProbField:
    """Evaluate exp(score) for description d at every grid point,
    converting HSL grid coordinates to the model's HSV input."""
    if grid is None:
        grid = GridSpec()
    tokens = tokens_of(d)
    if not tokens:
        raise ConfigError("cannot visualize an empty description")
    colors = hsl_to_hsv_array(grid.hsl_points())
    scores = model.score_color_array(colors, tokens)
    values = np.exp(scores).reshape(grid.dims)
    return ProbField(grid=grid, values=values)


def cross_sections(field: ProbField):
    """(L, R) log marginals of the field; each marginal's pre-log mass
    sums to 1. All-zero fields are an error, zero cells get LOG_FLOOR."""
    S = field.values
    total = S.sum(dtype=np.float64)
    if not np.isfinite(total) or total <= 0.0:
        raise EvaluationError("probability field has no mass to normalize")
    with np.errstate(divide="ignore"):
        l_vals = np.log(S.sum(axis=0) / total)
        r_vals = np.log(S.sum(axis=1) / total)
    l_vals = np.maximum(l_vals, LOG_FLOOR)
    r_vals = np.maximum(r_vals, LOG_FLOOR)
    return CrossSection("L", l_vals), CrossSection("R", r_vals)


def to_pixels(values: np.ndarray) -> np.ndarray:
    """Linear min->0, max->255 mapping with round-half-up; a constant
    array maps to mid-gray 128."""
    vals = np.asarray(values, dtype=np.float64)
    if not np.isfinite(vals).all():
        raise EvaluationError("cross-section contains non-finite values")
    mn = vals.min()
    mx = vals.max()
    if mx == mn:
        return np.full(vals.shape, 128, dtype=np.uint8)
    scaled = (vals - mn) * (255.0 / (mx - mn))
    return np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)


def write_pgm(pixels: np.ndarray, path) -> None:
    """Binary PGM (P5, maxval 255), rows written top to bottom."""
    if pixels.ndim != 2:
        raise EvaluationError(f"PGM needs a 2-D array, got shape {pixels.shape}")
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def render(section: CrossSection, path) -> None:
    """Rasterize a cross-section: array row i becomes image row i."""
    write_pgm(to_pixels(section.values), path)


def hue_profile(field: ProbField, l_index: int | None = None) -> np.ndarray:
    """The R marginal restricted to one lightness row (default middle):
    a 1-D profile over hue, in probability (not log) scale."""
    S = field.values
    if l_index is None:
        l_index = field.grid.n_l // 2
    prof = S.sum(axis=1)[:, l_index]
    total = prof.sum(dtype=np.float64)
    return prof / total if total > 0 else prof


def periodic_local_maxima(profile: np.ndarray) -> list:
    """Indices that are strict local maxima of a cyclic 1-D profile."""
    p = np.asarray(profile, dtype=np.float64)
    n = p.size
    if n < 3:
        return []
    left = np.roll(p, 1)
    right = np.roll(p, -1)
    return [int(i) for i in np.nonzero((p > left) & (p > right))[0]]


def describe_slug(d) -> str:
    """Filesystem-safe slug for a description: tokens joined by '-',
    anything outside [a-z0-9-] dropped."""
    tokens = d.tokens if isinstance(d, Description) else tokenize(str(d))
    raw = "-".join(tokens)
    cleaned = "".join(ch for ch in raw if ch.isalnum() or ch == "-")
    cleaned = cleaned.strip("-")
    return cleaned or "description"
