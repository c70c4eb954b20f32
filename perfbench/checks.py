"""Output checks. Each returns a list of failure messages (empty when the
output is right), so the workload can count a wrong answer as a failed
operation and keep going."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from colordesc.corpus import END_ID, START_ID

# float32 parameters; batched and single-item paths may block GEMMs
# differently, so scores agree to float32 rounding, not bit for bit
SCORE_ATOL = 1e-3
MASS_TOL = 1e-9


def score_agreement(model, ds) -> list:
    """score_dataset agrees with score_description item by item."""
    batch = model.score_dataset(ds)
    fails = []
    for i in range(len(ds)):
        single = model.score_description(ds.colors[i], ds.descriptions[i])
        both_inf = math.isinf(single) and batch[i] == single
        if not both_inf and not abs(batch[i] - single) <= SCORE_ATOL:
            fails.append(f"{model.family} item {i}: score_dataset {batch[i]!r} "
                         f"!= score_description {single!r}")
    return fails


def _score(model, c, d) -> float:
    """score_description, extended to the empty description a sequence
    model may return as its top-1: log P(</s> | <s>)."""
    if d.tokens:
        return model.score_description(c, d)
    probs, _ = model.step(model.initial_state(c), START_ID)
    return math.log(probs[END_ID])


def beam_not_worse(model, colors, wide: list, width: int = 10) -> list:
    """The width-``width`` top-1 descriptions ``wide`` (one per color)
    score at least as high as the greedy ones under score_description."""
    fails = []
    for i, (c, d_wide) in enumerate(zip(colors, wide)):
        d_greedy = model.predict_top1(c, beam_width=1)
        s_wide = _score(model, c, d_wide)
        s_greedy = _score(model, c, d_greedy)
        if not s_wide >= s_greedy - SCORE_ATOL:
            fails.append(f"color {i}: width-{width} top-1 {d_wide.tokens} scores "
                         f"{s_wide:.6f} < greedy {d_greedy.tokens} {s_greedy:.6f}")
    return fails


def histogram_mass(model, colors: np.ndarray) -> list:
    """Histogram probabilities over the whole inventory sum to 1."""
    total = np.zeros(len(colors))
    for key in model.inventory:
        total += np.exp(model.score_color_array(colors, list(key)))
    bad = np.nonzero(~(np.abs(total - 1.0) <= MASS_TOL))[0]
    return [f"color {i}: inventory mass {total[i]!r}" for i in bad]


def perplexity_bounds(ppl: float, floor: float, ceiling: float, what: str) -> list:
    """A model's perplexity lies between the true S(d|c) floor and the
    uniform ceiling on the same items."""
    if not floor <= ppl <= ceiling:
        return [f"{what}: perplexity {ppl!r} outside [{floor:.4f}, {ceiling:.4f}]"]
    return []


def true_perplexity(true_log2: np.ndarray) -> float:
    return float(2.0 ** -np.mean(true_log2))


def uniform_sequence_perplexity(lengths: np.ndarray, vocab_size: int) -> float:
    """Perplexity of a decoder that spreads every step uniformly over the
    vocabulary: each item costs (tokens + 1) * log2 V bits, </s> included."""
    return float(2.0 ** (np.mean(np.asarray(lengths) + 1.0) * math.log2(vocab_size)))


def read_pgm_dims(path) -> tuple:
    """(width, height) from a binary PGM header, checking the payload size."""
    raw = Path(path).read_bytes()
    fields = raw.split(b"\n", 3)
    if len(fields) != 4 or fields[0] != b"P5" or fields[2] != b"255":
        raise ValueError(f"{path}: not a P5 PGM with maxval 255")
    width, height = (int(x) for x in fields[1].split())
    if len(fields[3]) != width * height:
        raise ValueError(f"{path}: payload has {len(fields[3])} bytes, "
                         f"expected {width * height}")
    return width, height


def denotation(field, path_l, path_r) -> list:
    """The field is finite with positive mass, and the L (saturation x
    lightness) and R (hue x lightness) images match the grid."""
    fails = []
    values = field.values
    n_h, n_s, n_l = field.grid.dims
    if values.shape != (n_h, n_s, n_l):
        fails.append(f"field shape {values.shape} != grid {field.grid.dims}")
    if not np.isfinite(values).all():
        fails.append("field has non-finite values")
    if not values.sum(dtype=np.float64) > 0.0:
        fails.append("field has no positive mass")
    for path, want in ((path_l, (n_l, n_s)), (path_r, (n_l, n_h))):
        try:
            got = read_pgm_dims(path)
        except (OSError, ValueError) as exc:
            fails.append(str(exc))
            continue
        if got != want:
            fails.append(f"{Path(path).name}: {got[0]}x{got[1]} != {want[0]}x{want[1]}")
    return fails
