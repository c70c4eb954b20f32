import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colordesc import (
    EvalReport,
    EvaluationError,
    TrainingConfig,
    aic,
    evaluate,
    train_model,
)
from colordesc.evaluation import (
    hit_flags,
    permutation_test,
    per_item_log2,
    perplexity_from_log2,
)

from conftest import constant_step_model, disjoint_pairs


# -- perplexity


def test_perplexity_geometric_mean_two_items():
    # probabilities 1/2 and 1/8: bits = 1 + 3, N = 2, ppl = 2^2 = 4
    ppl, bits, n_used, n_zero = perplexity_from_log2(np.array([-1.0, -3.0]))
    assert ppl == pytest.approx(4.0)
    assert bits == pytest.approx(4.0)
    assert (n_used, n_zero) == (2, 0)


def test_perplexity_uniform_halves():
    ppl, _, _, _ = perplexity_from_log2(np.array([-1.0, -1.0]))
    assert ppl == pytest.approx(2.0)


def test_perplexity_counts_descriptions_not_tokens():
    # a three-token description with probability 1/8 is one item of 3 bits;
    # the exponent divides by 1, not by the token count
    ppl, _, _, _ = perplexity_from_log2(np.array([-3.0]))
    assert ppl == pytest.approx(8.0)


def test_zero_probability_item_errors_by_default():
    logs = np.array([-1.0, -np.inf])
    with pytest.raises(EvaluationError, match="probability 0"):
        perplexity_from_log2(logs)


def test_zero_probability_item_can_be_excluded():
    logs = np.array([-1.0, -np.inf, -3.0])
    ppl, bits, n_used, n_zero = perplexity_from_log2(logs, on_zero="exclude")
    assert ppl == pytest.approx(4.0)
    assert (n_used, n_zero) == (2, 1)
    with pytest.raises(EvaluationError):
        perplexity_from_log2(np.array([-np.inf]), on_zero="exclude")


@pytest.mark.parametrize("logs", [[-1.0, -2.0], [-1.0, -np.inf]])
def test_unknown_zero_policy_errors_whatever_the_items(logs):
    with pytest.raises(EvaluationError, match="unknown zero-probability policy 'bogus'"):
        perplexity_from_log2(np.array(logs), on_zero="bogus")


def test_evaluate_refuses_an_unknown_zero_policy_before_scoring():
    class Unscorable:
        param_count = 1

        def score_dataset(self, d):
            raise AssertionError("scored before the policy was checked")

    with pytest.raises(EvaluationError, match="unknown zero-probability policy 'bogus'"):
        evaluate(Unscorable(), disjoint_pairs(3, seed=25), on_zero="bogus")


def test_perplexity_on_model(tmp_corpus):
    from colordesc import load_manifest

    dev = load_manifest(tmp_corpus)["dev"]
    # uniform fifth of the mass on each content token and on stopping
    model = constant_step_model(
        ["red", "green", "blue", "dark"],
        [-1e9, 0.0, -1e9, 0.0, 0.0, 0.0, 0.0])
    logs = per_item_log2(model, dev)
    ppl = perplexity_from_log2(per_item_log2(model, dev))[0]
    assert ppl == pytest.approx(2.0 ** (-logs.mean()))
    # dev is three one-word items and one two-word item: 2+2+2+3 steps at 1/5
    assert logs.sum() == pytest.approx(-9.0 * math.log2(5.0), rel=1e-6)


# -- aic


def test_aic_reference_values():
    assert aic(1000.0, 50) == pytest.approx(2100.0)
    assert aic(0.0, 0) == 0.0


def test_aic_rejects_negative_inputs():
    with pytest.raises(EvaluationError):
        aic(-1.0, 10)
    with pytest.raises(EvaluationError):
        aic(10.0, -1)


def test_param_count_is_the_total_tensor_size():
    ds = disjoint_pairs(5, seed=20)
    cfg = TrainingConfig(max_epochs=1, batch_size=5, seed=0)
    model, _ = train_model("sequence", ds, cfg, scheme="raw")
    total = sum(int(np.prod(p.shape)) for p in model.params.values())
    assert model.param_count == total


# -- accuracy


def test_accuracy_is_exact_match_percent():
    ds = disjoint_pairs(4, seed=21)
    # predictor that always answers with item 0's description
    class Fixed:
        def predict_top1_batch(self, colors, beam_width=None, max_len=None):
            return [ds.descriptions[0].key()] * len(colors)

    flags = hit_flags(Fixed(), ds, beam_width=1)
    assert flags.tolist() == [1, 0, 0, 0]
    assert flags.mean() * 100 == pytest.approx(25.0)


def test_hit_flags_match_each_items_own_top1():
    from colordesc import Dataset, HistogramModel

    ds = disjoint_pairs(12, seed=25)
    # trained on the first eight items only: the last four cannot hit
    model = HistogramModel.build(TrainingConfig(), Dataset(ds.colors[:8],
                                                           ds.descriptions[:8]))
    want = [int(model.predict_top1(ds.color(i)).key() == ds.descriptions[i].key())
            for i in range(len(ds))]
    assert 0 < sum(want) < len(ds)
    assert hit_flags(model, ds, beam_width=1).tolist() == want


def test_accuracy_constant_predictor_hits_majority_share():
    from colordesc import Dataset, Description

    descs = ["red"] * 3 + ["blue"] * 7
    ds = Dataset(colors=np.zeros((10, 3)), descriptions=[
        Description.from_text(t) for t in descs])

    class AlwaysRed:
        def predict_top1_batch(self, colors, beam_width=None, max_len=None):
            return [Description.from_text("red").key()] * len(colors)

    assert hit_flags(AlwaysRed(), ds, beam_width=1).mean() * 100 == pytest.approx(30.0)


def test_bad_beam_width_is_rejected_before_scoring():
    ds = disjoint_pairs(3, seed=24)

    class Recording:
        param_count = 1

        def __init__(self):
            self.calls = []

        def score_dataset(self, d):
            self.calls.append("score")
            return np.zeros(len(d))

        def predict_top1_batch(self, colors, beam_width=None, max_len=None):
            self.calls.append(("top1", len(colors)))
            return [ds.descriptions[0].key()] * len(colors)

    for width in (0, -2):
        model = Recording()
        with pytest.raises(ValueError, match="beam_width"):
            hit_flags(model, ds, beam_width=width)
        assert model.calls == []
        # the report's accuracy pass refuses the width before it decodes
        with pytest.raises(ValueError, match="beam_width"):
            evaluate(model, ds).with_hits(hit_flags(model, ds, beam_width=width), width)
        assert model.calls == ["score"]
    model = Recording()
    evaluate(model, ds).with_hits(hit_flags(model, ds, beam_width=1), 1)
    assert model.calls == ["score", ("top1", 3)]


# -- permutation test


def test_permutation_identical_systems_p_is_one():
    a = np.arange(50, dtype=np.float64)
    p = permutation_test(a, a.copy(), rounds=500, seed=0)
    assert p == 1.0


def test_permutation_small_sample_matches_exact_enumeration():
    rng0 = np.random.default_rng(7)
    a = rng0.normal(0.3, 1.0, size=10)
    b = np.zeros(10)
    diffs = a - b
    stat = abs(diffs.mean())
    # exact reference: all 2^10 sign assignments
    count = 0
    total = 0
    for signs in itertools.product((1.0, -1.0), repeat=10):
        total += 1
        if abs((diffs * np.array(signs)).mean()) >= stat:
            count += 1
    exact = count / total
    p = permutation_test(a, b, rounds=10_000, seed=1)
    assert abs(p - exact) < 0.02


def test_permutation_large_shift_is_significant():
    rng = np.random.default_rng(2)
    a = rng.normal(1.0, 0.1, size=1000)
    p = permutation_test(a, np.zeros(1000), rounds=10_000, seed=3)
    assert p <= 0.001
    # add-one rule: never exactly zero
    assert p >= 1.0 / 10_001


def test_permutation_seeded_reproducibility():
    rng = np.random.default_rng(4)
    a = rng.normal(0.05, 1.0, size=40)
    b = rng.normal(0.0, 1.0, size=40)
    p1 = permutation_test(a, b, rounds=2000, seed=5)
    p2 = permutation_test(a, b, rounds=2000, seed=5)
    assert p1 == p2


def flip_signs(seed: int, rounds: int, n: int) -> np.ndarray:
    """(rounds, n) signs from one draw of rounds * ceil(n/64) raw words:
    -1 where bit i % 64 of the round's word i // 64 is set."""
    words = -(-n // 64)
    raw = np.random.default_rng(seed).bit_generator.random_raw(rounds * words)
    bits = np.unpackbits(raw.astype("<u8").view(np.uint8).reshape(rounds, 8 * words),
                         axis=1, bitorder="little")[:, :n]
    return 1.0 - 2.0 * bits


@pytest.mark.parametrize("n,rounds", [
    (1, 20_000), (63, 20_000), (64, 20_000), (65, 10_000), (300, 1000),
    (300, 5_000), (70_000, 5), (70_000, 40),
])
def test_permutation_chunking_keeps_the_unchunked_stream(n, rounds):
    """The chunked lookups give the p-value of one unchunked draw of
    rounds * ceil(n/64) words in which bit i % 64 of word i // 64 flips
    pair i, in one chunk (300 x 1000, 70,000 x 5) or over several (the
    rest). The differences are dyadic rationals, so every summation
    order is exact."""
    rng = np.random.default_rng(9)
    a = rng.integers(-40, 41, size=n) * 2.0 ** -3
    b = rng.integers(-40, 41, size=n) * 2.0 ** -4
    d = a - b
    stats = np.abs((flip_signs(10, rounds, n) * d).sum(axis=1))
    expected = (int((stats >= abs(d.sum())).sum()) + 1) / (rounds + 1)
    assert permutation_test(a, b, rounds=rounds, seed=10) == expected


def test_permutation_rejects_bad_input():
    with pytest.raises(EvaluationError):
        permutation_test(np.zeros(0), np.zeros(0), rounds=10)
    with pytest.raises(EvaluationError):
        permutation_test(np.array([1.0, np.nan]), np.zeros(2), rounds=10)
    with pytest.raises(EvaluationError):
        permutation_test(np.zeros(3), np.zeros(4), rounds=10)


@pytest.mark.parametrize("rounds, seed", [(0, 0), (-1, 0), (-2, 0), (10, -1)])
def test_permutation_rejects_bad_rounds_and_seed(rounds, seed):
    with pytest.raises(EvaluationError, match="rounds|seed"):
        permutation_test(np.ones(5), np.zeros(5), rounds=rounds, seed=seed)


def test_permutation_sign_symmetry():
    rng = np.random.default_rng(6)
    a = rng.normal(0.4, 1.0, size=30)
    b = np.zeros(30)
    assert permutation_test(a, b, rounds=4000, seed=8) == \
        permutation_test(b, a, rounds=4000, seed=8)


_values = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(_values, _values), min_size=1, max_size=200),
       seed=st.integers(0, 2 ** 32))
def test_permutation_is_exact_under_swap_and_scale(pairs, seed):
    a, b = np.array(pairs).T
    p = permutation_test(a, b, rounds=300, seed=seed)
    assert 1 / 301 <= p <= 1.0
    assert permutation_test(b, a, rounds=300, seed=seed) == p
    assert permutation_test(2 * a, 2 * b, rounds=300, seed=seed) == p


@settings(max_examples=80, deadline=None)
@given(b=st.lists(_values, min_size=1, max_size=200), data=st.data(),
       seed=st.integers(0, 2 ** 32))
def test_permutation_ties_flips_of_zero_differences(b, data, seed):
    """Identical systems, and systems that differ on one item only,
    tie the observed statistic in every round: p is exactly 1."""
    b = np.array(b)
    assert permutation_test(b.copy(), b, rounds=300, seed=seed) == 1.0
    a = b.copy()
    i = data.draw(st.integers(0, b.size - 1))
    a[i] += data.draw(_values)
    assert permutation_test(a, b, rounds=300, seed=seed) == 1.0


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=4),
       n=st.integers(4, 300), data=st.data(), seed=st.integers(0, 2 ** 32))
def test_permutation_ties_every_round_that_flips_all_nonzero_differences(
        values, n, data, seed):
    """With up to 4 positive differences in [1, 2] among zeros, a round
    ties the observed statistic exactly when it flips all of them or
    none, whatever it does to the zeros, and falls short otherwise."""
    where = data.draw(st.lists(st.integers(0, n - 1), min_size=len(values),
                               max_size=len(values), unique=True))
    d = np.zeros(n)
    d[where] = values
    signs = flip_signs(seed, 300, n)[:, where]
    ties = int((np.abs(signs.sum(axis=1)) == len(values)).sum())
    assert permutation_test(d, np.zeros(n), rounds=300, seed=seed) == (ties + 1) / 301


def reference_permutation_test(per_item_a, per_item_b, rounds: int = 10000,
                               seed: int = 0) -> float:
    """The earlier implementation, one uniform double per flip, kept
    verbatim to check that the byte-table test agrees with it."""
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


AGREEMENT_ROUNDS = 2000
AGREEMENT_SEEDS = range(10)


def agreement_inputs(kind: str):
    """Paired vectors for the agreement check, each with a p-value of
    roughly 0.1-0.8, where Monte Carlo error is large: per-item log2
    probabilities of two benchmark-sized models, accuracy hits that agree
    on ~90% of the items, and a 10-item sample."""
    rng = np.random.default_rng({"log2": 1, "hits": 2, "small": 3}[kind])
    if kind == "log2":
        base = -rng.gamma(2.0, 3.3, size=2341)
        return (base + rng.normal(0.0, 1.0, 2341),
                base + rng.normal(-0.02, 1.0, 2341))
    if kind == "hits":
        d = rng.choice([-1.0, 0.0, 1.0], size=2341, p=[0.048, 0.9, 0.052])
        return (d == 1.0).astype(np.float64), (d == -1.0).astype(np.float64)
    return rng.normal(0.3, 1.0, size=10), np.zeros(10)


@pytest.mark.parametrize("kind", ["log2", "hits", "small"])
def test_permutation_agrees_with_reference_within_monte_carlo_error(kind):
    a, b = agreement_inputs(kind)
    for seed in AGREEMENT_SEEDS:
        p_new = permutation_test(a, b, rounds=AGREEMENT_ROUNDS, seed=seed)
        p_old = reference_permutation_test(a, b, rounds=AGREEMENT_ROUNDS, seed=seed)
        p = (p_new + p_old) / 2
        bound = 4 * math.sqrt(2 * p * (1 - p) / AGREEMENT_ROUNDS) + 1 / AGREEMENT_ROUNDS
        assert abs(p_new - p_old) <= bound, (seed, p_new, p_old)


# -- reports


def test_evaluate_report_is_internally_consistent():
    ds = disjoint_pairs(6, seed=22)
    cfg = TrainingConfig(max_epochs=3, batch_size=3, dropout=0.0, seed=0)
    model, _ = train_model("sequence", ds, cfg, scheme="fourier")
    report = evaluate(model, ds, split="train").with_hits(hit_flags(model, ds, 2), 2)
    assert report.n_items == 6
    assert report.perplexity == pytest.approx(
        2.0 ** (report.total_bits / report.n_items))
    assert report.aic == pytest.approx(
        2.0 * report.total_bits + 2.0 * report.param_count)
    assert report.accuracy == pytest.approx(100.0 * np.mean(report.hits))
    assert len(report.log2_probs) == 6
    assert report.beam_width == 2
    assert report.zero_prob_items == 0


def test_evaluate_can_skip_accuracy():
    ds = disjoint_pairs(4, seed=23)
    cfg = TrainingConfig(max_epochs=1, batch_size=4, seed=0)
    model, _ = train_model("sequence", ds, cfg, scheme="raw")
    report = evaluate(model, ds, split="dev")
    assert report.accuracy is None
    assert report.hits is None


def test_report_json_roundtrip(tmp_path):
    report = EvalReport(
        split="dev", n_items=3, perplexity=4.5, total_bits=6.51,
        param_count=120, aic=253.02, accuracy=66.7, beam_width=10,
        zero_prob_items=0, log2_probs=[-1.0, -2.0, -3.51],
        hits=[1, 1, 0], timestamp="2026-08-14T00:00:00Z")
    path = tmp_path / "r.json"
    report.save(path)
    loaded = EvalReport.load(path)
    assert loaded == report
    raw = json.loads(path.read_text())
    assert raw["split"] == "dev"
    assert raw["n_items"] == 3


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_report_json_is_strict_and_roundtrips_zero_probability(tmp_path):
    report = EvalReport(
        split="dev", n_items=3, perplexity=math.inf, total_bits=3.0,
        param_count=5, aic=16.0, accuracy=None, beam_width=None,
        zero_prob_items=1, log2_probs=[-1.0, -math.inf, -2.0],
        hits=None, timestamp="")
    path = tmp_path / "r.json"
    report.save(path)
    raw = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert raw["log2_probs"] == [-1.0, None, -2.0]
    assert raw["perplexity"] is None
    assert EvalReport.load(path) == report


def test_report_summary_line_mentions_key_numbers():
    report = EvalReport(
        split="test", n_items=10, perplexity=12.345, total_bits=36.4,
        param_count=99, aic=270.8, accuracy=40.0, beam_width=10,
        zero_prob_items=0, log2_probs=[-3.64] * 10, hits=[1] * 4 + [0] * 6,
        timestamp="2026-08-14T00:00:00Z")
    line = report.summary_line()
    assert "12.3" in line
    assert "40.0" in line
    assert "test" in line
