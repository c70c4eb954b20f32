import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import colordesc
from colordesc import (
    AtomicModel,
    CheckpointError,
    ConfigError,
    Dataset,
    Description,
    HistogramModel,
    SequenceDecoderModel,
    TrainingConfig,
    load_checkpoint,
    nn,
    save_checkpoint,
    train_model,
)
from colordesc.corpus import END_ID, START_ID, UNK_ID, EncodedDataset
from colordesc.evaluation import per_item_log2, perplexity_from_log2
from colordesc.models import _monitor_perplexity

from conftest import (
    constant_step_model,
    disjoint_pairs,
    encode_one,
    enumerate_sequences,
    make_vocab,
    padded_sequence_logprobs,
    random_tiny_model,
)

GRAY = (0.0, 0.0, 50.0)


def test_every_exported_name_resolves():
    assert [name for name in colordesc.__all__ if not hasattr(colordesc, name)] == []


# -- scoring


def test_score_is_product_of_step_probabilities():
    # one content token; every step puts probability 0.5 on it and on </s>
    model = constant_step_model(["a"], [-1e9, 0.0, -1e9, 0.0])
    score = model.score_description(GRAY, "a")
    assert score == pytest.approx(math.log(0.25), rel=1e-6)
    # empty description scores P(</s> first) = 0.5 when asked via the walker
    probs, _ = model.step(model.initial_state(GRAY), START_ID)
    assert probs[END_ID] == pytest.approx(0.5, rel=1e-6)


def test_score_rejects_empty_description():
    model = random_tiny_model(0)
    with pytest.raises(ValueError):
        model.score_description(GRAY, "")
    with pytest.raises(ValueError):
        model.score_description(GRAY, [])


def test_oov_tokens_score_as_unknown():
    model = random_tiny_model(1)
    s_unk = model.score_description(GRAY, ["zzz"])
    ids_direct = encode_one(model.vocab, ["zzz"])
    assert ids_direct[1] == UNK_ID
    assert model.vocab.encode_batch([["zzz"]])[0].tolist() == ids_direct
    # scoring the literal unknown token gives the same value
    assert s_unk == model.score_description(GRAY, [model.vocab.id_to_token[UNK_ID]])


def _w_models():
    """One model per family over the descriptions w0, w1, w2."""
    ds = Dataset(colors=np.array([[0.0, 0.0, 50.0], [120.0, 80.0, 40.0],
                                  [300.0, 20.0, 90.0], [125.0, 70.0, 45.0]]),
                 descriptions=[Description.from_text(t)
                               for t in ["w0", "w1", "w2", "w1"]])
    atomic, _ = train_model("atomic", ds, TrainingConfig(max_epochs=1, seed=0),
                            scheme="buckets")
    return {"sequence": random_tiny_model(0), "atomic": atomic,
            "histogram": HistogramModel.build(TrainingConfig(), ds)}


@pytest.mark.parametrize("family", ["sequence", "atomic", "histogram"])
def test_score_color_array_tokenizes_text_like_score_description(family):
    model = _w_models()[family]
    colors = np.array([[0.0, 0.0, 50.0], [118.0, 75.0, 42.0], [301.0, 25.0, 88.0]])
    by_text = model.score_color_array(colors, "w1")
    assert np.isfinite(by_text).all()
    np.testing.assert_array_equal(by_text, model.score_color_array(colors, ["w1"]))
    np.testing.assert_array_equal(
        by_text, model.score_color_array(colors, Description.from_text(" W1 ")))
    for c in colors:
        assert model.score_color_array(c[None], "w1")[0] == model.score_description(c, "w1")
    for empty in ("", "  ", []):
        with pytest.raises(ValueError, match="empty description"):
            model.score_color_array(colors, empty)


def _full_vocab_mass(model, color, depth):
    """(completed, live) probability mass walking every token to depth."""
    V = len(model.vocab)

    def walk(state, prev, d, p):
        probs, nxt = model.step(state, prev)
        completed = p * float(probs[END_ID])
        live = 0.0
        for tok in range(V):
            if tok == END_ID:
                continue
            q = p * float(probs[tok])
            if d == depth:
                live += q
            else:
                c2, l2 = walk(nxt, tok, d + 1, q)
                completed += c2
                live += l2
        return completed, live

    return walk(model.initial_state(color), START_ID, 1, 1.0)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("conditioning", ["every-step", "init-state"])
def test_sequence_mass_sums_to_one(seed, conditioning):
    model = random_tiny_model(seed, n_content=2, conditioning=conditioning)
    color = (200.0, 40.0, 60.0)
    completed, live = _full_vocab_mass(model, color, depth=3)
    assert completed + live == pytest.approx(1.0, abs=1e-5)
    assert completed <= 1.0


def test_single_token_description_mass_bounded():
    model = random_tiny_model(2, n_content=3)
    total = sum(
        math.exp(model.score_description(GRAY, [tok]))
        for tok in model.vocab.id_to_token[3:]
    )
    assert total <= 1.0


def test_per_step_distribution_is_proper():
    model = random_tiny_model(3)
    state = model.initial_state((10.0, 90.0, 90.0))
    prev = START_ID
    for _ in range(4):
        probs, state = model.step(state, prev)
        assert probs.sum() == pytest.approx(1.0, abs=1e-5)
        assert np.all(probs > 0.0)
        prev = int(np.argmax(probs))


def test_score_matches_step_walk():
    model = random_tiny_model(4, n_content=3)
    color = (123.0, 45.0, 67.0)
    tokens = ["w1", "w2"]
    ids = [model.vocab.token_to_id[t] for t in tokens]
    state = model.initial_state(color)
    logp = 0.0
    prev = START_ID
    for tok in ids + [END_ID]:
        probs, state = model.step(state, prev)
        logp += math.log(float(probs[tok]))
        prev = tok
    # batched scoring and the incremental walker round float32 differently
    assert model.score_description(color, tokens) == pytest.approx(logp, abs=1e-5)


# -- generation


def test_sampling_follows_step_distribution():
    # fixed step distribution; <s> and <unk> mass renormalized away
    logits = np.log([1e-12, 0.5, 1e-12, 0.3, 0.2])
    model = constant_step_model(["a", "b"], logits)
    rng = np.random.default_rng(11)
    counts = {"end": 0, "a": 0, "b": 0}
    n = 100_000
    for tokens in model.sample_batch(np.tile(GRAY, (n, 1)), rng, max_len=1):
        if not tokens:
            counts["end"] += 1
        else:
            counts[tokens[0]] += 1
    assert abs(counts["end"] / n - 0.5) < 0.01
    assert abs(counts["a"] / n - 0.3) < 0.01
    assert abs(counts["b"] / n - 0.2) < 0.01


class FixedUniforms:
    """A generator stand-in whose ``random`` hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, shape):
        assert self.u.shape == np.empty(shape).shape
        return self.u


def reference_sample(model, color, rng, max_len):
    """The one-color samplers ``sample_batch`` replaced: one ``rng.choice``
    per step (sequence) or per draw (atomic, histogram)."""
    row = np.array([color])
    C = len(getattr(model, "inventory", ()))
    if model.family == "atomic":
        feats, _ = model.featurize(row)
        p = np.exp(nn.atomic_logprobs(model.params, model.config, feats)[0])
        p /= p.sum()
        return model.inventory[int(rng.choice(C, p=p))]
    if model.family == "histogram":
        cell, total = model._backoff(row)
        lo, hi = np.searchsorted(model._keys, [cell[0] * C, (cell[0] + 1) * C])
        p = np.ones(C)
        p[model._keys[lo:hi] % C] += model._row_counts[lo:hi]
        return model.inventory[int(rng.choice(C, p=p / (total[0] + C)))]
    state = model.initial_state(color)
    prev, ids = START_ID, []
    for _ in range(max_len):
        probs, state = model.step(state, prev)
        p = probs.copy()
        p[START_ID] = 0.0
        p[UNK_ID] = 0.0
        p /= p.sum()
        tok = int(rng.choice(len(p), p=p))
        if tok == END_ID:
            break
        ids.append(tok)
        prev = tok
    return tuple(model.vocab.decode(ids))


def _models_of_each_family():
    ds = disjoint_pairs(30, seed=16)
    cfg = TrainingConfig(max_epochs=2, batch_size=8, seed=0)
    return [random_tiny_model(0, n_content=20),
            train_model("atomic", ds, cfg, scheme="fourier")[0],
            train_model("histogram", ds, cfg, scheme="buckets")[0]]


def _random_colors(n, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0, 360, n), rng.uniform(0, 100, n),
                            rng.uniform(0, 100, n)])


def test_draw_is_rng_choice_inverse_cdf_on_every_row():
    from colordesc.models import _draw

    rng = np.random.default_rng(23)
    p = rng.dirichlet(np.ones(6), size=200)
    p[::7, 2] = 0.0  # rows with an impossible outcome
    cdfs = [np.cumsum(row) / np.cumsum(row)[-1] for row in p]  # as rng.choice
    u = rng.random(200)
    u[::5] = [cdf[3] for cdf in cdfs[::5]]  # exactly on a cumulative probability
    want = [np.searchsorted(cdf, x, side="right") for cdf, x in zip(cdfs, u)]
    assert _draw(p, u).tolist() == want


def test_a_single_draw_follows_the_one_color_sampler_it_replaced():
    models = _models_of_each_family()
    for model in models:
        for i, c in enumerate(_random_colors(40, 17)):
            color = c
            got = model.sample(color, np.random.default_rng([3, i]), max_len=6)
            want = reference_sample(model, color, np.random.default_rng([3, i]), 6)
            assert got.key() == want, (model.family, i)
    # an inventory draw takes one uniform, as one rng.choice does: a batch
    # of 1,100 rows (three chunks) is 1,100 successive one-color draws
    colors = _random_colors(1100, 24)
    for model in models[1:]:
        batch = model.sample_batch(colors, np.random.default_rng(25))
        rng = np.random.default_rng(25)
        want = [reference_sample(model, c, rng, 20) for c in colors]
        assert batch == want, model.family


def test_sample_batch_rows_depend_only_on_their_own_uniforms():
    # 1,100 rows span three scoring chunks
    colors = _random_colors(1100, 18)
    rng = np.random.default_rng(19)
    for model in _models_of_each_family():
        shape = (len(colors), 5) if model.family == "sequence" else (len(colors),)
        u = rng.random(shape)
        batch = model.sample_batch(colors, FixedUniforms(u), max_len=5)
        assert len(batch) == len(colors)
        for i in (0, 1, 511, 512, 513, 1023, 1024, 1099):
            one = model.sample_batch(colors[i:i + 1], FixedUniforms(u[i:i + 1]), max_len=5)
            assert one == [batch[i]], (model.family, i)


def test_decoders_and_samplers_never_run_a_one_row_block(monkeypatch):
    # numpy sends a one-row product to gemv, which can round differently
    # from the same row of a GEMM: every decode step and class distribution
    # runs on at least two rows, a lone row twice
    rows = []
    for name in ("sequence_step_probs", "atomic_logits"):
        def spy(*args, real=getattr(nn, name)):
            rows.append(len(args[-1]))
            return real(*args)
        monkeypatch.setattr(nn, name, spy)
    sequence, atomic, _ = _models_of_each_family()
    colors = _random_colors(3, 26)
    # row 0 never draws </s> (its uniforms sit at the top of every CDF)
    # and the others draw it first, so row 0 steps on alone
    u = np.zeros((3, 6))
    u[0] = 0.999
    outlived = sequence.sample_batch(colors, FixedUniforms(u), max_len=6)
    assert len(outlived[0]) == 6 and outlived[1:] == [(), ()]
    color = colors[0]
    for model in (sequence, atomic):
        model.sample(color, np.random.default_rng(27), max_len=6)
        model.sample_batch(colors[:1], np.random.default_rng(28))
        model.sample_batch(colors, np.random.default_rng(29))
        for width in (1, 3):
            model.predict_top1(color, beam_width=width, max_len=6)
    assert rows and min(rows) >= 2


def test_sampling_never_emits_reserved_tokens():
    # put most of the raw mass on <s> and <unk>
    model = constant_step_model(["a"], [8.0, 0.0, 8.0, 0.0])
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = model.sample(GRAY, rng, max_len=3)
        assert "<unk>" not in d.tokens
        assert "<s>" not in d.tokens


def test_sampling_with_all_mass_on_reserved_tokens_raises():
    # </s> and the content token underflow to probability 0
    model = constant_step_model(["a"], [1e3, -1e3, 1e3, -1e3])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        model.sample(GRAY, np.random.default_rng(0))


def test_degenerate_distribution_always_samples_same_description():
    model = constant_step_model(["a", "b"], [-30.0, -30.0, -30.0, 30.0, -30.0])
    rng = np.random.default_rng(13)
    outs = {tuple(model.sample(GRAY, rng, max_len=4).tokens) for _ in range(20)}
    assert outs == {("a", "a", "a", "a")}


def test_sample_respects_max_len():
    model = constant_step_model(["a"], [-1e9, -4.0, -1e9, 4.0])  # rarely ends
    rng = np.random.default_rng(14)
    for _ in range(50):
        assert len(model.sample(GRAY, rng, max_len=2).tokens) <= 2


def test_empty_sample_possible_when_end_dominates():
    model = constant_step_model(["a"], [-1e9, 30.0, -1e9, -30.0])
    rng = np.random.default_rng(15)
    d = model.sample(GRAY, rng)
    assert d.tokens == []
    assert model.predict_top1(GRAY).tokens == []


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_beam_width_27_equals_exhaustive_argmax(seed):
    model = random_tiny_model(seed, n_content=3)
    for color in (GRAY, (300.0, 80.0, 20.0)):
        table = enumerate_sequences(model, color, max_len=3)
        best_logp, best_ids = min(table, key=lambda t: (-t[0], t[1]))
        pred = model.predict_top1(color, beam_width=27, max_len=3)
        got_ids = tuple(model.vocab.token_to_id[t] for t in pred.tokens)
        assert got_ids == best_ids
        if pred.tokens:
            assert model.score_description(color, pred.tokens) == pytest.approx(
                best_logp, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_wider_beam_never_scores_worse_than_greedy(seed):
    model = random_tiny_model(seed, n_content=4)
    for color in (GRAY, (50.0, 60.0, 70.0), (340.0, 10.0, 95.0)):
        wide = model.predict_top1(color, beam_width=10, max_len=5)
        greedy = model.predict_top1(color, beam_width=1, max_len=5)

        def total(d):
            if d.tokens:
                return model.score_description(color, d.tokens)
            probs, _ = model.step(model.initial_state(color), START_ID)
            return math.log(float(probs[END_ID]))

        assert total(wide) >= total(greedy) - 1e-12


def test_beam_width_validation():
    model = random_tiny_model(5)
    with pytest.raises(ValueError):
        model.predict_top1(GRAY, beam_width=0)
    with pytest.raises(ValueError):
        model.predict_top1(GRAY, max_len=-1)
    # every family's sampler keeps the decoder's max_len rule
    colors = np.tile(GRAY, (3, 1))
    for model in _models_of_each_family():
        with pytest.raises(ValueError, match="max_len must be >= 0"):
            model.sample_batch(colors, np.random.default_rng(0), max_len=-1)
        with pytest.raises(ValueError, match="max_len must be >= 0"):
            model.sample(GRAY, np.random.default_rng(0), max_len=-1)


@pytest.mark.parametrize("family", ["atomic", "histogram"])
def test_baseline_top1_rejects_bad_generation_args(family):
    ds = disjoint_pairs(4, seed=8)
    cfg = TrainingConfig(max_epochs=1, seed=0)
    model, _ = train_model(family, ds, cfg, scheme="buckets")
    with pytest.raises(ValueError, match="beam_width"):
        model.predict_top1(GRAY, beam_width=0)
    with pytest.raises(ValueError, match="max_len"):
        model.predict_top1(GRAY, max_len=-1)
    # the widths and lengths the sequence family accepts still work
    assert model.predict_top1(GRAY, beam_width=1, max_len=0).tokens


# -- training


def test_single_pair_is_memorized():
    ds = disjoint_pairs(1, seed=3)
    cfg = TrainingConfig(max_epochs=60, batch_size=1, dropout=0.0, seed=0,
                         patience=10**6)
    model, history = train_model("sequence", ds, cfg, scheme="fourier")
    assert model.predict_top1(ds.color(0)).key() == ds.descriptions[0].key()
    assert history[-1]["perplexity"] < 1.5


def test_training_history_schema_and_early_stop():
    ds = disjoint_pairs(12, seed=4)
    cfg = TrainingConfig(max_epochs=8, batch_size=4, dropout=0.0, seed=0,
                         patience=2, evals_per_epoch=2)
    model, history = train_model("sequence", ds, cfg, scheme="raw")
    assert all(set(rec) == {"epoch", "split", "perplexity"} for rec in history)
    epochs = [rec["epoch"] for rec in history]
    assert epochs == sorted(epochs)
    assert len(history) <= cfg.max_epochs * cfg.evals_per_epoch
    assert model.epochs_trained <= cfg.max_epochs


def test_both_conditioning_modes_train_and_differ():
    ds = disjoint_pairs(10, seed=5)
    ppl = {}
    score = {}
    for mode in ("every-step", "init-state"):
        cfg = TrainingConfig(max_epochs=6, batch_size=5, dropout=0.0, seed=0,
                             conditioning=mode)
        model, history = train_model("sequence", ds, cfg, scheme="fourier")
        ppl[mode] = history[-1]["perplexity"]
        score[mode] = model.score_description(ds.color(0), ds.descriptions[0])
        assert math.isfinite(ppl[mode])
    # distinct graphs: same data and seed, different numbers out
    assert score["every-step"] != score["init-state"]
    assert ppl["every-step"] != ppl["init-state"]


def test_bucket_scheme_trains_sequence_and_atomic():
    ds = disjoint_pairs(10, seed=6)
    cfg = TrainingConfig(max_epochs=25, batch_size=5, dropout=0.0, seed=1)
    for family in ("sequence", "atomic"):
        model, history = train_model(family, ds, cfg, scheme="buckets")
        assert math.isfinite(history[-1]["perplexity"])
        # bucket tables moved away from their tiny init: training reached them
        assert float(np.abs(model.params["buckets.fine"]).max()) > 0.05


def test_training_uses_dev_split_for_monitoring():
    train = disjoint_pairs(10, seed=7)
    dev = disjoint_pairs(5, seed=8)
    cfg = TrainingConfig(max_epochs=2, batch_size=5, seed=0)
    _, history = train_model("sequence", train, cfg, scheme="raw", dev=dev)
    assert all(rec["split"] == "dev" for rec in history)


def test_monitor_perplexity_is_eval_perplexity_bit_for_bit():
    # the train log's best dev perplexity reads as eval --allow-zero's
    rng = np.random.default_rng(11)
    words = ["w0", "w1", "w2", "zz"]
    pool = Dataset(
        colors=np.column_stack([rng.uniform(0, 360, 300), rng.uniform(0, 100, 300),
                                rng.uniform(0, 100, 300)]),
        descriptions=[Description.from_text(" ".join(rng.choice(words, n)))
                      for n in rng.integers(1, 4, 300)])
    atomic = AtomicModel.build(TrainingConfig(seed=2),
                               [("w0",), ("w1",), ("w0", "w2")], "fourier")
    for model in (random_tiny_model(2), atomic):
        for seed in range(150):
            sub = np.random.default_rng(seed).choice(300, 2 + seed % 50,
                                                     replace=False)
            ds = Dataset(pool.colors[sub], [pool.descriptions[i] for i in sub])
            log2p = per_item_log2(model, ds)
            expected = (perplexity_from_log2(log2p, "exclude")[0]
                        if np.isfinite(log2p).any() else math.inf)
            assert _monitor_perplexity(model, ds) == expected


def test_atomic_monitor_outside_the_inventory_records_inf():
    train = disjoint_pairs(6, seed=10)
    dev = Dataset(train.colors[:3], [Description.from_text("never seen")] * 3)
    cfg = TrainingConfig(max_epochs=2, batch_size=3, seed=0)
    model, history = train_model("atomic", train, cfg, scheme="raw", dev=dev)
    assert history
    assert all(rec["perplexity"] == math.inf for rec in history)
    assert model.epochs_trained >= 1.0


def test_train_rejects_bad_inputs():
    ds = disjoint_pairs(4)
    cfg = TrainingConfig(max_epochs=1)
    with pytest.raises(ConfigError):
        train_model("boosted-trees", ds, cfg)
    with pytest.raises(ConfigError):
        train_model("histogram", ds, cfg, scheme="fourier")
    empty = Dataset(colors=np.zeros((0, 3)), descriptions=[])
    with pytest.raises(ConfigError):
        train_model("sequence", empty, cfg)
    # out-of-range settings fail before training, for every family
    for family, scheme in (("sequence", "raw"), ("atomic", "raw"),
                           ("histogram", "buckets")):
        for bad in ({"seed": -1}, {"patience": 0}, {"evals_per_epoch": 0}):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                train_model(family, ds, TrainingConfig(max_epochs=1, **bad),
                            scheme=scheme)


# -- atomic family


def test_atomic_inventory_is_exactly_distinct_training_descriptions():
    ds = Dataset(
        colors=np.tile(np.array([[10.0, 50.0, 50.0]]), (4, 1)),
        descriptions=[Description.from_text(t)
                      for t in ["red", "dark red", "red", "blue"]],
    )
    cfg = TrainingConfig(max_epochs=2, batch_size=2, seed=0)
    model, _ = train_model("atomic", ds, cfg, scheme="raw")
    assert sorted(model.inventory) == [("blue",), ("dark", "red"), ("red",)]
    assert model.params["out.b"].shape == (3,)


def test_atomic_scores_out_of_inventory_as_zero_probability():
    ds = disjoint_pairs(5, seed=9)
    cfg = TrainingConfig(max_epochs=2, batch_size=5, seed=0)
    model, _ = train_model("atomic", ds, cfg, scheme="raw")
    assert model.score_description(GRAY, "never seen") == -math.inf
    known = model.score_description(ds.color(0), ds.descriptions[0])
    assert math.isfinite(known)


def test_atomic_class_distribution_sums_to_one():
    # and the histogram's: the distributions the inventory sampler draws from
    ds = disjoint_pairs(6, seed=10)
    cfg = TrainingConfig(max_epochs=2, batch_size=3, seed=0)
    for family, scheme in (("atomic", "fourier"), ("histogram", "buckets")):
        model, _ = train_model(family, ds, cfg, scheme=scheme)
        p = model._class_probs(ds.colors)
        assert p.shape == (len(ds), len(model.inventory)), family
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize("scheme", ["raw", "fourier", "buckets"])
def test_atomic_batch_top1_is_the_per_row_log_softmax_argmax(scheme):
    ds = disjoint_pairs(40, seed=20)
    cfg = TrainingConfig(max_epochs=2, batch_size=8, seed=0)
    model, _ = train_model("atomic", ds, cfg, scheme=scheme)
    colors = _random_colors(1100, 21)  # three scoring chunks
    want = [model.inventory[int(np.argmax(nn.atomic_logprobs(
                model.params, model.config, model.featurize(colors[i:i + 1])[0])[0]))]
            for i in range(len(colors))]
    assert model.predict_top1_batch(colors) == want
    assert [model.predict_top1(c).key() for c in colors[:50]] == want[:50]


def test_atomic_top1_ties_go_to_the_smaller_class():
    inventory = [("a",), ("b",), ("c",), ("d",)]
    model = AtomicModel.build(TrainingConfig(seed=0), inventory, "raw")
    # classes 1 and 3 share their output column and bias; 0 and 2 score lower
    W, b = model.params["out.W"], model.params["out.b"]
    W[:, 3] = W[:, 1]
    b[:] = (-5.0, 1.0, -5.0, 1.0)
    W[:, [0, 2]] = 0.0
    colors = _random_colors(30, 22)
    logits = nn.atomic_logits(model.params, model.featurize(colors)[0])
    assert (logits[:, 1] == logits[:, 3]).all()
    assert (logits[:, 1] > logits[:, [0, 2]].max(axis=1)).all()
    assert model.predict_top1_batch(colors) == [("b",)] * len(colors)


def test_atomic_memorizes_small_set():
    ds = disjoint_pairs(8, seed=11)
    cfg = TrainingConfig(max_epochs=200, batch_size=4, dropout=0.0, seed=0,
                         patience=10**6)
    model, _ = train_model("atomic", ds, cfg, scheme="fourier")
    hits = sum(model.predict_top1(ds.color(i)).key() == ds.descriptions[i].key()
               for i in range(len(ds)))
    assert hits == len(ds)


# -- histogram family


def _one_bucket_dataset(descs, color=(1.0, 1.0, 1.0)):
    colors = np.tile(np.array([color]), (len(descs), 1))
    return Dataset(colors=colors,
                   descriptions=[Description.from_text(t) for t in descs])


def test_histogram_add_one_smoothing_arithmetic():
    ds = _one_bucket_dataset(["a", "a", "b"])
    model = HistogramModel.build(TrainingConfig(), ds)
    c = ds.color(0)
    assert math.exp(model.score_description(c, "a")) == pytest.approx(3.0 / 5.0)
    assert math.exp(model.score_description(c, "b")) == pytest.approx(2.0 / 5.0)


def test_histogram_probabilities_sum_to_one_everywhere():
    ds = disjoint_pairs(20, seed=12)
    model = HistogramModel.build(TrainingConfig(), ds)
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = (float(rng.uniform(0, 360)), float(rng.uniform(0, 100)),
             float(rng.uniform(0, 100)))
        total = sum(math.exp(model.score_description(c, list(key)))
                    for key in model.inventory)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_histogram_backoff_reaches_global_unigram():
    # train data is all red-ish; query a far-away color whose fine and
    # mid buckets are empty, forcing the global fallback
    ds = _one_bucket_dataset(["a", "a", "b"], color=(1.0, 99.0, 99.0))
    model = HistogramModel.build(TrainingConfig(), ds)
    far = (180.0, 1.0, 1.0)
    assert math.exp(model.score_description(far, "a")) == pytest.approx(3.0 / 5.0)
    assert math.exp(model.score_description(far, "b")) == pytest.approx(2.0 / 5.0)


def test_histogram_out_of_inventory_gets_smoothed_floor():
    ds = _one_bucket_dataset(["a", "a", "b"])
    model = HistogramModel.build(TrainingConfig(), ds)
    p_oov = math.exp(model.score_description(ds.color(0), "zzz"))
    assert p_oov == pytest.approx(1.0 / 5.0)


def test_histogram_top1_is_bucket_majority():
    ds = _one_bucket_dataset(["a", "a", "b"])
    model = HistogramModel.build(TrainingConfig(), ds)
    assert model.predict_top1(ds.color(0)).tokens == ["a"]


def test_histogram_top1_ties_go_to_the_smaller_class_at_every_level():
    ds = _one_bucket_dataset(["b", "c", "a", "c", "a", "b"])
    model = HistogramModel.build(TrainingConfig(), ds)
    near, far = ds.colors[0], (180.0, 1.0, 1.0)  # fine cell, global fallback
    assert model.predict_top1_batch(np.array([near, far])) == [("a",), ("a",)]
    assert model.predict_top1(far).tokens == ["a"]


def test_histogram_param_count_formula():
    inventory = [(f"d{i}",) for i in range(100)]
    counts = [
        np.array([(b, 0, 1) for b in range(n)], dtype=np.int32).reshape(-1, 3)
        for n in (5, 4, 1)  # nonempty fine, mid and global buckets
    ]
    model = HistogramModel(TrainingConfig(), inventory, counts)
    assert model.param_count == 99 * 10


def test_histogram_via_train_model_logs_perplexity():
    ds = _one_bucket_dataset(["a", "a", "b"])
    model, history = train_model("histogram", ds, TrainingConfig(),
                                 scheme="buckets")
    assert len(history) == 1
    assert history[0]["perplexity"] > 1.0
    assert isinstance(model, HistogramModel)


# -- parameter counts


def test_sequence_param_count_breakdown():
    vocab = make_vocab([f"t{i}" for i in range(47)])  # V = 50 with sentinels
    V = len(vocab)
    cfg = TrainingConfig()  # H=20, E=20, fourier F=54
    model = SequenceDecoderModel.build(cfg, vocab, "fourier")
    expected = (
        V * 20          # token embeddings
        + (54 + 20) * 80  # input weights, 4 fused gates
        + 20 * 80       # recurrent weights
        + 3 * 20        # peepholes
        + 80            # gate biases
        + 20 * V + V    # output layer
    )
    assert model.param_count == expected == 41 * V + 7660


def test_atomic_param_count_breakdown():
    cfg = TrainingConfig()
    model = AtomicModel.build(cfg, [("a",), ("b",), ("c",)], "raw")
    assert model.param_count == 3 * 20 + 20 + 20 * 20 + 20 + 20 * 3 + 3


# -- scoring chunks on every usable CPU

PHRASE_WORDS = ["w0", "w1", "w2", "zz"]


def _phrases(n: int, seed: int) -> Dataset:
    """n random colors with 1-3 token phrases over PHRASE_WORDS."""
    rng = np.random.default_rng(seed)
    colors = np.column_stack([rng.uniform(0, 360, n), rng.uniform(0, 100, n),
                              rng.uniform(0, 100, n)])
    return Dataset(colors, [Description.from_text(" ".join(rng.choice(PHRASE_WORDS, k)))
                            for k in rng.integers(1, 4, n)])


def _scoring_models():
    """An untrained H = 20 sequence model and an atomic model whose
    inventory holds some of the phrases, both with sharpened outputs."""
    cfg = TrainingConfig(hidden_size=20, seed=4)
    seq = SequenceDecoderModel.build(cfg, make_vocab(PHRASE_WORDS[:3]), "fourier")
    atomic = AtomicModel.build(cfg, [(w,) for w in PHRASE_WORDS]
                               + [("w0", "w1"), ("w2", "zz", "w1")], "fourier")
    for model in (seq, atomic):
        model.params["out.W"] *= np.float32(4.0)
    return seq, atomic


def _serial_reference_scores(model, ds: Dataset) -> np.ndarray:
    """The serial loop over 512-row chunks that scoring ran before it
    used every CPU, on the reference kernels: the padded scorer with a
    full (B, V) log-softmax, and the atomic full log-softmax."""
    tokens = [d.tokens for d in ds.descriptions]
    if model.family == "sequence":
        enc = EncodedDataset(*model.vocab.encode_batch(tokens), np.arange(len(tokens)))
        out = np.empty(len(ds))
        for lo in range(0, len(ds), 512):
            rows = np.arange(lo, min(lo + 512, len(ds)))
            feats, _ = model.featurize(ds.colors[rows])
            out[rows] = padded_sequence_logprobs(model.params, model.config, feats,
                                                 *enc.teacher_forcing(rows))
        return out
    cls_ids = np.array([model.index.get(tuple(t), -1) for t in tokens])
    out = np.full(len(ds), -np.inf)
    known = np.flatnonzero(cls_ids >= 0)
    for lo in range(0, len(known), 512):
        rows = known[lo : lo + 512]
        feats, _ = model.featurize(ds.colors[rows])
        logp = nn.atomic_logprobs(model.params, model.config, feats)
        out[rows] = logp[np.arange(len(rows)), cls_ids[rows]]
    return out


def test_chunked_scores_equal_the_serial_reference_loop():
    ds = _phrases(3000, 3)
    for model in _scoring_models():
        want = _serial_reference_scores(model, ds)
        assert np.isfinite(want).sum() > 1024, model.family  # several chunks
        assert model.score_dataset(ds).tobytes() == want.tobytes(), model.family


def test_concurrent_callers_share_the_pool_and_score_bit_identically():
    # more callers than CPUs, switching threads as often as they can
    seq, atomic = _scoring_models()
    ds = _phrases(2000, 7)
    want = {m.family: m.score_dataset(ds).tobytes() for m in (seq, atomic)}
    got = []

    def caller(model):
        for _ in range(3):
            got.append((model.family, model.score_dataset(ds).tobytes()))

    callers = [threading.Thread(target=caller, args=(m,))
               for m in (seq, atomic) * (os.cpu_count() or 1) * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(got) == 3 * len(callers)
    assert all(scores == want[family] for family, scores in got)


# Run in a fresh interpreter, pinned to one CPU or with all of them: it
# trains and scores with both neural families and prints what it got,
# with the number of threads that ran a scoring kernel.
CPU_CHILD = r"""
import hashlib, json, os, sys, threading
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from colordesc import TrainingConfig, nn, train_model
from test_models import _phrases

threads = set()

def recording(kernel):
    def run(*args, **kwargs):
        threads.add(threading.get_ident())
        return kernel(*args, **kwargs)
    return run

nn.sequence_logprobs = recording(nn.sequence_logprobs)
nn.atomic_target_logprobs = recording(nn.atomic_target_logprobs)

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

train, dev = _phrases(600, 1), _phrases(3000, 2)
grid = _phrases(3000, 3).colors
out = {"cpus": len(os.sched_getaffinity(0))}
for family in ("sequence", "atomic"):
    model, history = train_model(family, train, TrainingConfig(max_epochs=1, batch_size=64, seed=5),
                                 scheme="fourier", dev=dev)
    out[family] = {
        "history": [repr(rec["perplexity"]) for rec in history],
        "params": digest(np.concatenate([v.ravel() for v in model.params.values()])),
        "scores": digest(model.score_dataset(dev)),
        "grid": digest(model.score_color_array(grid, train.descriptions[0].tokens)),
    }
out["threads"] = len(threads)
print(json.dumps(out))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_scores_and_monitor_are_bit_identical_on_one_cpu_and_on_all():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(colordesc.__file__).parents[1]),
                                          str(Path(__file__).parent),
                                          os.environ.get("PYTHONPATH", "")])}
    runs = {}
    for mode in ("pinned", "all"):
        proc = subprocess.run([sys.executable, "-c", CPU_CHILD, mode], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout.splitlines()[-1])
    pinned, every = runs["pinned"], runs["all"]
    assert pinned["cpus"] == 1 and pinned["threads"] == 1
    if every["cpus"] > 1:
        assert every["threads"] > 1
    for family in ("sequence", "atomic"):
        assert len(pinned[family]["history"]) == 2
        assert pinned[family] == every[family], family


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
# forking a process that has threads is what this test checks
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_child_forked_after_scoring_scores_like_its_parent():
    seq, _ = _scoring_models()
    ds = _phrases(3000, 6)
    want = seq.score_dataset(ds).tobytes()  # the parent's pool is running
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=lambda: results.put(seq.score_dataset(ds).tobytes()))
    child.start()
    try:
        got = results.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert got == want


# -- checkpoints


def _probe_scores(model, n=20, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        c = (float(rng.uniform(0, 360)), float(rng.uniform(0, 100)),
             float(rng.uniform(0, 100)))
        tokens = [model.vocab.id_to_token[3]] if hasattr(model, "vocab") else \
            list(model.inventory[0])
        out.append(model.score_description(c, tokens))
    return out


@pytest.mark.parametrize("family,scheme", [
    ("sequence", "fourier"),
    ("sequence", "buckets"),
    ("atomic", "raw"),
    ("histogram", "buckets"),
])
def test_checkpoint_roundtrip_scores_bit_identical(tmp_path, family, scheme):
    ds = disjoint_pairs(8, seed=13)
    cfg = TrainingConfig(max_epochs=2, batch_size=4, seed=0)
    model, _ = train_model(family, ds, cfg, scheme=scheme)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert _probe_scores(model) == _probe_scores(loaded)


def test_checkpoint_same_model_saves_identical_bytes(tmp_path):
    ds = disjoint_pairs(6, seed=14)
    cfg = TrainingConfig(max_epochs=2, batch_size=3, seed=5)
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    m1, _ = train_model("sequence", ds, cfg, scheme="fourier")
    m2, _ = train_model("sequence", ds, cfg, scheme="fourier")
    save_checkpoint(m1, a)
    save_checkpoint(m2, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_truncation_error_names_offset(tmp_path):
    model = random_tiny_model(6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(cut)


def test_checkpoint_rejects_corruption_and_bad_magic(tmp_path):
    model = random_tiny_model(7)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    not_ckpt = tmp_path / "x.ckpt"
    not_ckpt.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(not_ckpt)


def test_checkpoint_rejects_future_version(tmp_path):
    model = random_tiny_model(8)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[8:12] = (99).to_bytes(4, "little")
    bad = tmp_path / "v99.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)


@pytest.mark.parametrize("family,edit,message", [
    pytest.param("sequence", lambda t: t.update({"emb": t["emb"][:-1]}), "shape",
                 id="sequence-emb-row-dropped"),
    pytest.param("atomic", lambda t: t.update({"out.W": t["out.W"].astype(np.int32)}),
                 "tensor 'out.W' has dtype int32, expected float32",
                 id="atomic-out.W-int32"),
    pytest.param("sequence", lambda t: t.update({"lstm.b": t["lstm.b"].astype(np.int32)}),
                 "tensor 'lstm.b' has dtype int32, expected float32",
                 id="sequence-lstm.b-int32"),
])
def test_checkpoint_shape_mismatch_detected(tmp_path, capsys, family, edit, message):
    from colordesc.checkpoint import read_checkpoint, write_checkpoint
    from colordesc.cli import main

    if family == "sequence":
        model = random_tiny_model(9)
    else:
        model = AtomicModel.build(TrainingConfig(hidden_size=4), [("a",), ("b",)], "raw")
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    header, tensors = read_checkpoint(path)
    edit(tensors)
    header.pop("tensors")
    bad = tmp_path / "reshaped.ckpt"
    write_checkpoint(bad, header, tensors)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(bad)
    # the CLI reports it as a usage error on one line
    assert main(["top1", "--ckpt", str(bad), "--hsv", "10,50,50"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "Traceback" not in err[0]


def test_checkpoint_preserves_vocab_and_meta(tmp_path):
    model = random_tiny_model(10)
    model.epochs_trained = 2.5
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.vocab.id_to_token == model.vocab.id_to_token
    assert loaded.epochs_trained == 2.5
    assert loaded.config == model.config
