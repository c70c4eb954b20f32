"""Evaluation metrics and reports.

Perplexity here is per-description: the geometric mean of the
reciprocal probability assigned to each whole description, with no
normalization by token count. Likelihoods are tracked in bits (log
base 2); the AIC convention is 2*l + 2*k with l the total negative
log2 likelihood and k the parameter count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .corpus import Dataset
from .errors import EvaluationError

LN2 = math.log(2.0)


def per_item_log2(model, ds: Dataset) -> np.ndarray:
    """log2 probability of each (color, description) item. Items the
    model assigns probability 0 come back as -inf."""
    return model.score_dataset(ds) / LN2


def perplexity_from_log2(log2p: np.ndarray, on_zero: str = "error"):
    """(perplexity, total_bits, n_used, n_zero) from per-item log2 probs.

    Zero-probability items (-inf) are an error by default; with
    on_zero='exclude' they are dropped from the geometric mean and
    counted instead of silently clipped.
    """
    log2p = np.asarray(log2p, dtype=np.float64)
    zero = ~np.isfinite(log2p)
    n_zero = int(zero.sum())
    if n_zero and on_zero == "error":
        raise EvaluationError(
            f"{n_zero} of {log2p.size} items have probability 0; "
            "rerun with the exclusion policy to drop and count them")
    if n_zero and on_zero != "exclude":
        raise EvaluationError(f"unknown zero-probability policy {on_zero!r}")
    used = log2p[~zero]
    if used.size == 0:
        raise EvaluationError("no items with nonzero probability")
    total_bits = float(-np.sum(used))
    # saturate to inf rather than raising for astronomically bad models
    with np.errstate(over="ignore"):
        ppl = float(np.exp2(np.float64(total_bits) / used.size))
    return ppl, total_bits, int(used.size), n_zero


def perplexity(model, ds: Dataset, on_zero: str = "error") -> float:
    """Per-description perplexity of the model on a dataset."""
    return perplexity_from_log2(per_item_log2(model, ds), on_zero)[0]


def count_params(model) -> int:
    return model.param_count


def aic(total_bits: float, k: int) -> float:
    """2*l + 2*k, with l the total negative log2 likelihood in bits."""
    if total_bits < 0:
        raise EvaluationError("negative log likelihood cannot be negative")
    if k < 0:
        raise EvaluationError("parameter count cannot be negative")
    return 2.0 * total_bits + 2.0 * k


def _check_beam_width(beam_width: int) -> None:
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")


def hit_flags(model, ds: Dataset, beam_width: int = 10) -> np.ndarray:
    """Per-item recall@1: does the model's most likely description
    exactly match the reference (token-normalized comparison)?"""
    _check_beam_width(beam_width)
    hits = np.zeros(len(ds), dtype=np.int8)
    for i in range(len(ds)):
        pred = model.predict_top1(ds.color(i), beam_width=beam_width)
        hits[i] = 1 if pred.key() == ds.descriptions[i].key() else 0
    return hits


def accuracy(model, ds: Dataset, beam_width: int = 10) -> float:
    """Recall@1 as a percentage in [0, 100]."""
    return float(hit_flags(model, ds, beam_width).mean() * 100.0)


def permutation_test(per_item_a, per_item_b, rounds: int = 10000,
                     seed: int = 0) -> float:
    """Two-sided paired approximate randomization test.

    Each of ``rounds`` resamples flips every pair independently with
    probability 0.5 and recomputes the mean difference; the p-value is
    (#{|stat*| >= |stat|} + 1) / (rounds + 1).
    """
    a = np.asarray(per_item_a, dtype=np.float64)
    b = np.asarray(per_item_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise EvaluationError(
            f"paired vectors must be equal-length 1-D, got {a.shape} and {b.shape}")
    if a.size == 0:
        raise EvaluationError("cannot test empty vectors")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise EvaluationError("paired vectors contain non-finite values")
    d = a - b
    stat = abs(float(d.mean()))
    rng = np.random.default_rng(seed)
    # bound the flip matrix to 64K entries (512 KB of doubles) per chunk:
    # the draws are sequential, so any chunking gives the same flips and
    # p-value, and a small chunk keeps the transient memory (and peak RSS)
    # small and cache-resident
    chunk = max(1, min(rounds, (1 << 16) // d.size))
    count = 0
    done = 0
    while done < rounds:
        r = min(chunk, rounds - done)
        flips = rng.random((r, d.size)) < 0.5
        stats = np.abs(np.where(flips, -d, d).mean(axis=1))
        count += int((stats >= stat).sum())
        done += r
    return (count + 1) / (rounds + 1)


@dataclass
class EvalReport:
    """Everything Table-style comparisons need, including the per-item
    vectors the significance test pairs up."""

    split: str
    n_items: int
    perplexity: float
    total_bits: float
    param_count: int
    aic: float
    accuracy: float | None
    beam_width: int | None
    zero_prob_items: int
    log2_probs: list
    hits: list | None
    timestamp: str = ""

    def summary_line(self) -> str:
        acc = "n/a" if self.accuracy is None else f"{self.accuracy:.2f}%"
        return (f"split={self.split} n={self.n_items} "
                f"perplexity={self.perplexity:.4f} aic={self.aic:.6g} "
                f"k={self.param_count} accuracy={acc}")

    def to_json(self) -> str:
        """Strict JSON: each non-finite float (a zero-probability item's
        log2 probability, a saturated perplexity) is written as null."""
        def strict(v):
            if isinstance(v, list):
                return [strict(x) for x in v]
            return None if isinstance(v, float) and not math.isfinite(v) else v
        fields = {k: strict(v) for k, v in asdict(self).items()}
        return json.dumps(fields, indent=2, sort_keys=True, allow_nan=False)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "EvalReport":
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        d = {k: v for k, v in d.items() if k in known}
        # null stands for a non-finite float; a report written with bare
        # -Infinity / Infinity tokens still loads as it did
        if d.get("perplexity", 0.0) is None:
            d["perplexity"] = math.inf
        if isinstance(d.get("log2_probs"), list):
            d["log2_probs"] = [-math.inf if x is None else x for x in d["log2_probs"]]
        return cls(**d)


def evaluate(model, ds: Dataset, split: str = "", beam_width: int | None = 10,
             on_zero: str = "error", timestamp: str = "") -> EvalReport:
    """Score a dataset and assemble the full report. ``beam_width=None``
    skips the (expensive) accuracy pass; a width below 1 is rejected
    before anything is scored."""
    if beam_width is not None:
        _check_beam_width(beam_width)
    log2p = per_item_log2(model, ds)
    ppl, total_bits, _, n_zero = perplexity_from_log2(log2p, on_zero)
    k = count_params(model)
    if beam_width is None:
        hits = None
        acc = None
    else:
        hits = hit_flags(model, ds, beam_width)
        acc = float(hits.mean() * 100.0)
        hits = [int(x) for x in hits]
    return EvalReport(
        split=split,
        n_items=len(ds),
        perplexity=ppl,
        total_bits=total_bits,
        param_count=k,
        aic=aic(total_bits, k),
        accuracy=acc,
        beam_width=beam_width,
        zero_prob_items=n_zero,
        log2_probs=[float(x) for x in log2p],
        hits=hits,
        timestamp=timestamp,
    )
