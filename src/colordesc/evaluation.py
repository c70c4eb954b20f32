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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .corpus import Dataset
from .errors import ConfigError, EvaluationError

LN2 = math.log(2.0)

# beam width of the accuracy pass and of ``predict_top1``
DEFAULT_BEAM_WIDTH = 10

# rounds and seed of ``permutation_test`` and of ``colordesc compare``
DEFAULT_ROUNDS = 10000
DEFAULT_PERMUTATION_SEED = 0


def check_generation_args(beam_width: int = 1, max_len: int = 0) -> None:
    """Reject a beam width below 1 or a max_len below 0, the rules of
    every decode and sample call."""
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")


def per_item_log2(model, ds: Dataset) -> np.ndarray:
    """log2 probability of each (color, description) item. Items the
    model assigns probability 0 come back as -inf."""
    return model.score_dataset(ds) / LN2


def _check_zero_policy(on_zero: str) -> None:
    if on_zero not in ("error", "exclude"):
        raise EvaluationError(f"unknown zero-probability policy {on_zero!r}")


def perplexity_from_log2(log2p: np.ndarray, on_zero: str = "error"):
    """(perplexity, total_bits, n_used, n_zero) from per-item log2 probs.

    Zero-probability items (-inf) are an error by default; with
    on_zero='exclude' they are dropped from the geometric mean and
    counted instead of silently clipped. Another policy is an error.
    """
    _check_zero_policy(on_zero)
    log2p = np.asarray(log2p, dtype=np.float64)
    zero = ~np.isfinite(log2p)
    n_zero = int(zero.sum())
    if n_zero and on_zero == "error":
        raise EvaluationError(
            f"{n_zero} of {log2p.size} items have probability 0; "
            "rerun with the exclusion policy to drop and count them")
    used = log2p[~zero]
    if used.size == 0:
        raise EvaluationError("no items with nonzero probability")
    total_bits = float(-np.sum(used))
    # saturate to inf rather than raising for astronomically bad models
    with np.errstate(over="ignore"):
        ppl = float(np.exp2(np.float64(total_bits) / used.size))
    return ppl, total_bits, int(used.size), n_zero


def aic(total_bits: float, k: int) -> float:
    """2*l + 2*k, with l the total negative log2 likelihood in bits."""
    if total_bits < 0:
        raise EvaluationError("negative log likelihood cannot be negative")
    if k < 0:
        raise EvaluationError("parameter count cannot be negative")
    return 2.0 * total_bits + 2.0 * k


def hit_flags(model, ds: Dataset, beam_width: int = DEFAULT_BEAM_WIDTH) -> np.ndarray:
    """Per-item recall@1: does the model's most likely description
    exactly match the reference (token-normalized comparison)? Every
    item is decoded in one ``predict_top1_batch`` call."""
    check_generation_args(beam_width)
    preds = model.predict_top1_batch(ds.colors, beam_width=beam_width)
    keys = [d.key() for d in ds.table]
    return np.array([p == keys[k] for p, k in zip(preds, ds.codes.tolist())], dtype=np.int8)


def permutation_test(per_item_a, per_item_b, rounds: int = DEFAULT_ROUNDS,
                     seed: int = DEFAULT_PERMUTATION_SEED) -> float:
    """Two-sided paired approximate randomization test.

    Each of ``rounds`` resamples flips the sign of every paired
    difference d = a - b independently with probability 0.5 and takes
    the absolute sum of the flipped differences; the p-value is
    (#{|stat*| >= |stat|} + 1) / (rounds + 1), in [1/(rounds + 1), 1].

    A round takes one random bit per pair: ceil(n/64) raw 64-bit words
    of PCG64(seed), read as little-endian bytes, so bit i % 64 of word
    i // 64 flips pair i on every platform. The differences, padded
    with zeros to whole words, fall into groups of 8 pairs, one per
    byte, and a (groups, 256) table holds each group's signed sum for
    each byte value; a round is then one lookup per group and one sum.
    Every entry adds its 8 signed terms in the same order, so flipping
    all pairs negates a sum exactly and flipping a zero difference does
    not change it. The observed statistic is the same lookup and sum at
    the all-zero byte row, so rounds that flip only zero differences
    tie it exactly, as they should. The table takes 256 bytes per pair.

    The stream is not the one of the earlier implementation (one
    uniform double per flip): for a given seed, p-values differ from
    reports made with it within Monte Carlo error.
    """
    if rounds < 1:
        raise EvaluationError(f"rounds must be >= 1, got {rounds}")
    if seed < 0:
        raise EvaluationError(f"seed must be >= 0, got {seed}")
    a = np.asarray(per_item_a, dtype=np.float64)
    b = np.asarray(per_item_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise EvaluationError(
            f"paired vectors must be equal-length 1-D, got {a.shape} and {b.shape}")
    if a.size == 0:
        raise EvaluationError("cannot test empty vectors")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise EvaluationError("paired vectors contain non-finite values")
    words = -(-a.size // 64)
    groups = 8 * words
    d = np.zeros((groups, 8))
    d.reshape(-1)[:a.size] = a - b
    # table[:, byte] = sum over k of (-d[:, k] if bit k of byte else d[:, k]),
    # added in order k = 0..7: each bit doubles the filled columns
    table = np.zeros((groups, 256))
    for k in range(8):
        w = 1 << k
        np.subtract(table[:, :w], d[:, k:k + 1], out=table[:, w:2 * w])
        table[:, :w] += d[:, k:k + 1]
    flat = table.reshape(-1)
    offsets = np.arange(groups, dtype=np.intp) * 256

    def flipped_stats(rows):
        return np.abs(flat.take(rows + offsets).sum(axis=1))

    stat = flipped_stats(np.zeros((1, groups), dtype=np.uint8))[0]
    draw = np.random.default_rng(seed).bit_generator.random_raw
    # at most 64K lookups per chunk; each round takes whole words of the
    # sequential stream, so the chunking does not change the p-value
    chunk = max(1, min(rounds, (1 << 16) // groups))
    count = 0
    done = 0
    while done < rounds:
        r = min(chunk, rounds - done)
        rows = draw(r * words).astype("<u8", copy=False).view(np.uint8)
        count += int((flipped_stats(rows.reshape(r, groups)) >= stat).sum())
        done += r
    return (count + 1) / (rounds + 1)


def _numbers(v, n) -> bool:
    """Is ``v`` a list of ``n`` ints or floats, with ``n`` an int?"""
    return (type(n) is int and isinstance(v, list) and len(v) == n
            and all(type(x) in (int, float) for x in v))


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

    def with_hits(self, hits: np.ndarray, beam_width: int) -> "EvalReport":
        """This report with the per-item hits of a beam search of
        ``beam_width`` and their accuracy."""
        return replace(self, accuracy=float(hits.mean() * 100.0),
                       beam_width=beam_width, hits=[int(x) for x in hits])

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
        """Read a report ``save`` wrote; a file that cannot be read, is not
        one, or whose per-item vectors are not numbers for each of its
        items, is a ConfigError naming the file."""
        try:
            with open(path, encoding="utf-8") as fh:
                d = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"{path} cannot be read: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError(f"{path} is not an eval report: not a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        d = {k: v for k, v in d.items() if k in known}
        # null stands for a non-finite float; a report written with bare
        # -Infinity / Infinity tokens still loads as it did
        if d.get("perplexity", 0.0) is None:
            d["perplexity"] = math.inf
        if isinstance(d.get("log2_probs"), list):
            d["log2_probs"] = [-math.inf if x is None else x for x in d["log2_probs"]]
        missing = sorted(known - set(d) - {"timestamp"})
        if missing:
            raise ConfigError(f"{path} is not an eval report: missing {missing}")
        if not _numbers(d["log2_probs"], d["n_items"]) or not (
                d["hits"] is None or _numbers(d["hits"], d["n_items"])):
            raise ConfigError(f"{path} is not an eval report: log2_probs and "
                              "hits must each hold n_items numbers")
        return cls(**d)


def evaluate(model, ds: Dataset, split: str = "", on_zero: str = "error",
             timestamp: str = "") -> EvalReport:
    """Score a dataset and assemble its report, without accuracy: add
    that with ``report.with_hits(hit_flags(model, ds, beam_width), beam_width)``."""
    _check_zero_policy(on_zero)  # an unknown policy must not cost a scoring pass
    log2p = per_item_log2(model, ds)
    ppl, total_bits, _, n_zero = perplexity_from_log2(log2p, on_zero)
    k = model.param_count
    return EvalReport(
        split=split,
        n_items=len(ds),
        perplexity=ppl,
        total_bits=total_bits,
        param_count=k,
        aic=aic(total_bits, k),
        accuracy=None,
        beam_width=None,
        zero_prob_items=n_zero,
        log2_probs=[float(x) for x in log2p],
        hits=None,
        timestamp=timestamp,
    )
