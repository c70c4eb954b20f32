import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
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
    models,
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
    # numpy sends a one-row product to gemv, and a GEMM's row can round
    # differently with a different row count: every product of sequence
    # scoring, of the initial state and of the atomic classifier runs on a
    # (k, nn.TILE, ...) stack, one GEMM per tile, and each product of a
    # decode step through nn._tile_matmul, which makes that stack
    seen = []  # (array, leading shape) of the rows each product multiplies
    tiled = set()  # ids of the weights multiplied through nn._tile_matmul
    real_start, real_step, real_logits, real_matmul = (
        nn.sequence_initial_state, nn._lstm_step, nn.atomic_logits, nn._tile_matmul)

    def tile_matmul(x, W):
        tiled.add(id(W))
        return real_matmul(x, W)

    def initial_state(params, cfg, feats):
        seen.append(("feats", feats.shape[:-1]))
        return real_start(params, cfg, feats)

    def lstm_step(a, *rest):  # a = h W_h + (x W_x + b)
        seen.append(("scoring gate inputs", a.shape[:-1]))
        return real_step(a, *rest)

    def atomic_logits(params, feats):
        seen.append(("atomic feats", feats.shape[:-1]))
        return real_logits(params, feats)

    monkeypatch.setattr(nn, "_tile_matmul", tile_matmul)
    monkeypatch.setattr(nn, "sequence_initial_state", initial_state)
    monkeypatch.setattr(nn, "_lstm_step", lstm_step)
    monkeypatch.setattr(nn, "atomic_logits", atomic_logits)
    sequence, atomic, _ = _models_of_each_family()
    colors = _random_colors(3, 26)
    color = colors[0]
    models = ((sequence, "w0 w1"), (atomic, " ".join(atomic.inventory[0])))
    for model, d in models:
        model.score_description(color, d)
        model.score_color_array(colors, d)
    # the decode step forms its gate inputs from nn._tile_matmul products
    monkeypatch.setattr(nn, "_lstm_step", real_step)
    # row 0 never draws </s> (its uniforms sit at the top of every CDF)
    # and the others draw it first, so row 0 steps on alone
    u = np.zeros((3, 6))
    u[0] = 0.999
    outlived = sequence.sample_batch(colors, FixedUniforms(u), max_len=6)
    assert len(outlived[0]) == 6 and outlived[1:] == [(), ()]
    for model, _ in models:
        model.sample(color, np.random.default_rng(27), max_len=6)
        model.sample_batch(colors[:1], np.random.default_rng(28))
        model.sample_batch(colors, np.random.default_rng(29))
        for width in (1, 3):
            model.predict_top1(color, beam_width=width, max_len=6)
    assert {name for name, _ in seen} == {"feats", "scoring gate inputs", "atomic feats"}
    assert tiled == {id(sequence.params[k]) for k in ("lstm.W_x", "lstm.W_h", "out.W")}
    for name, shape in seen:
        assert len(shape) == 2 and shape[0] >= 1 and shape[1] == nn.TILE, (name, shape)


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
        for bad in ({"seed": -1}, {"patience": 0}, {"evals_per_epoch": 0},
                    {"adagrad_eps": 0.0}, {"learning_rate": 10**400}):
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


# -- the inventory families run every product over the C classes on row
# tiles of nn.TILE rows, the last one zero-padded


def _atomic_model(C: int, hidden: int) -> AtomicModel:
    """An untrained fourier atomic model over C one-word classes, with
    sharpened outputs."""
    model = AtomicModel.build(TrainingConfig(atomic_hidden=hidden, seed=0),
                              [(f"c{k}",) for k in range(C)], "fourier")
    model.params["out.W"] *= np.float32(4.0)
    return model


def _class_rows(model, colors, classes) -> Dataset:
    return Dataset(colors, [Description.from_text(" ".join(model.inventory[k]))
                            for k in classes])


def _whole_chunk_reference(model, colors, classes, u, rng):
    """Scores, top-1 classes and draws of each row from the logits of
    whole 512-row chunks, one (rows, C) product each, as scoring ran before
    tiles (a lone row runs twice, as numpy would send one row to gemv;
    a product of 1,000 rows or more rounds the first layer differently):
    the log-softmax at the class, the argmax, and the inverse-CDF draw
    from the float64 softmax. Every third row's uniform is moved onto a
    cumulative probability of its row, where a last-bit change of the
    row's distribution would change the draw."""
    n, C = len(colors), len(model.inventory)
    p = model.params
    scores = np.empty(n)
    top1, draws = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for lo in range(0, n, 512):
        chunk = colors[lo : lo + 512]
        feats, _ = model.featurize(chunk.repeat(2, axis=0) if len(chunk) == 1 else chunk)
        h1 = np.maximum(feats @ p["fc1.W"] + p["fc1.b"], 0.0)
        logits = (h1 @ p["fc2.W"] + p["fc2.b"]) @ p["out.W"]
        logits += p["out.b"]
        top1[lo : lo + len(chunk)] = np.argmax(logits[: len(chunk)], axis=1)
        for a in range(lo, lo + len(chunk), 32):  # the float64 rows, 32 at a time
            rows = np.arange(a, min(a + 32, n))
            z = logits[rows - lo].astype(np.float64)
            z -= z.max(axis=1, keepdims=True)
            e = np.exp(z)
            total = e.sum(axis=1)
            scores[rows] = z[rows - a, classes[rows]] - np.log(total)
            cdf = np.cumsum(e / total[:, None], axis=1)
            cdf /= cdf[:, -1:].copy()
            for i in rows[rows % 3 == 0]:
                u[i] = cdf[i - a, rng.integers(C - 1)]
            draws[rows] = [np.searchsorted(c, x, side="right")
                           for c, x in zip(cdf, u[rows])]
    return scores, top1, draws


@pytest.mark.parametrize("C", [5, 4376, 28235])
def test_tiled_atomic_rows_equal_the_whole_chunk_reference(C):
    # at hidden size 20 a row of the product does not depend on the row
    # count (two rows or more), so tiles give the full product's bits
    model = _atomic_model(C, hidden=20)
    rng = np.random.default_rng(C)
    for n in (1, 2, 63, 64, 65, 127, 513, 1250):
        colors = _random_colors(n, n)
        classes = rng.integers(0, C, n)
        u = rng.random(n)
        scores, top1, draws = _whole_chunk_reference(model, colors, classes, u, rng)
        got = model.score_dataset(_class_rows(model, colors, classes))
        assert got.tobytes() == scores.tobytes(), n
        assert model.predict_top1_batch(colors) == [model.inventory[k] for k in top1], n
        assert model.sample_batch(colors, FixedUniforms(u)) == \
            [model.inventory[k] for k in draws], n


@pytest.mark.parametrize("hidden", [50, 100])
@pytest.mark.parametrize("family", ["sequence", "atomic"])
def test_a_row_alone_equals_it_at_every_position_of_a_batch(monkeypatch, family, hidden):
    # at hidden sizes 50 and 100 a product's row rounds differently with
    # 2-65 rows, so only a fixed tile height keeps a row's score, beam-3
    # top-1 and draws off its batch
    from colordesc import models

    rng = np.random.default_rng(41)
    if family == "atomic":
        model = _atomic_model(400, hidden=hidden)
    else:
        vocab = make_vocab([f"w{k}" for k in range(97)])
        model = SequenceDecoderModel.build(TrainingConfig(hidden_size=hidden, seed=0),
                                           vocab, "fourier")
        model.params["out.W"] *= np.float32(4.0)
    steps = 6 if family == "sequence" else 1  # uniforms a row draws

    def uniforms(u):
        return FixedUniforms(u if family == "sequence" else u[:, 0])
    seen = []  # the distributions the sampler draws from

    def spy(p, u, real=models._draw):
        seen.append(p.copy())
        return real(p, u)

    monkeypatch.setattr(models, "_draw", spy)

    def descriptions(n):
        if family == "atomic":
            return [Description.from_text(" ".join(model.inventory[k]))
                    for k in rng.integers(0, 400, n)]
        return [Description.from_text(" ".join(f"w{k}" for k in rng.integers(0, 97, m)))
                for m in rng.integers(1, 5, n)]

    for n in (2, 63, 64, 65, 513):
        colors = _random_colors(n, 100 + n)
        ds = Dataset(colors, descriptions(n))
        # each of a row's uniforms is the cumulative probability just below
        # the draw of 0.5 from the distribution it is drawn from alone, so
        # it draws the token 0.5 draws and later steps see the same
        # distributions; a batch that rounded that entry up in the last bit
        # would draw another token
        u = np.full((n, steps), 0.5)
        for i in range(n):
            seen.clear()
            model.sample_batch(colors[i : i + 1], uniforms(u[i : i + 1]), max_len=6)
            for t, p in enumerate(seen):
                cdf = np.cumsum(p[0])
                cdf /= cdf[-1:].copy()
                u[i, t] = cdf[max(np.count_nonzero(cdf <= 0.5) - 1, 0)]
        scores = model.score_dataset(ds)
        top1 = model.predict_top1_batch(colors, beam_width=3, max_len=6)
        drawn = model.sample_batch(colors, uniforms(u), max_len=6)
        for i in range(n):
            row = slice(i, i + 1)
            alone = model.score_dataset(Dataset(colors[row], ds.descriptions[row]))
            assert alone.tobytes() == scores[row].tobytes(), (n, i)
            top1_alone = model.predict_top1(colors[i], beam_width=3, max_len=6)
            assert top1_alone.key() == top1[i], (n, i)
            drawn_alone = model.sample_batch(colors[row], uniforms(u[row]), max_len=6)
            assert drawn_alone == [drawn[i]], (n, i)


def test_a_512_row_call_holds_one_tile_of_class_rows_not_the_chunk():
    # at C = 28,235 a (512, C) float32 logits chunk is 58 MB and the
    # sampler's float64 p and cdf 116 MB each; a 64-row tile's are 7.2 MB
    # and 14.5 MB. The bounds are ~1.5x the peaks measured with numpy
    # 2.4.6: 9.5 MB scoring, 7.4 MB top-1, 30.8 MB sampling
    from colordesc.models import _SCORE_BATCH

    C = 28235
    model = _atomic_model(C, hidden=20)
    colors = _random_colors(512, 42)
    ds = _class_rows(model, colors, np.random.default_rng(43).integers(0, C, 512))
    calls = {
        "score": (lambda: model.score_dataset(ds), 15e6),
        "top1": (lambda: model.predict_top1_batch(colors), 12e6),
        "sample": (lambda: model.sample_batch(colors, np.random.default_rng(44)), 48e6),
    }
    for name, (call, bound) in calls.items():
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (name, peak)
    assert _SCORE_BATCH % nn.TILE == 0  # a chunk is whole tiles


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


def test_permuting_the_rows_permutes_the_scores_bit_for_bit():
    ds = _phrases(2000, 11)  # four chunks of 1-3-token rows, interleaved
    perm = np.random.default_rng(12).permutation(len(ds))
    shuffled = Dataset(ds.colors[perm], [ds.descriptions[i] for i in perm])
    for model in _scoring_models():
        want = model.score_dataset(ds)[perm]
        assert model.score_dataset(shuffled).tobytes() == want.tobytes(), model.family


def test_sequence_chunks_take_the_calls_rows_longest_first(monkeypatch):
    seq, _ = _scoring_models()
    real = nn.sequence_logprobs
    chunks = []  # the step counts of each chunk's rows

    def recording(params, cfg, feats, in_ids, targets, mask):
        chunks.append(np.count_nonzero(mask, axis=1))
        return real(params, cfg, feats, in_ids, targets, mask)

    monkeypatch.setattr(nn, "sequence_logprobs", recording)
    ds = _phrases(2000, 13)
    seq.score_dataset(ds)
    assert len(chunks) == 4 and sum(map(len, chunks)) == len(ds)
    # chunks may run in any order on the threads; their rows do not overlap
    # in length, so each chunk's shortest row is at least as long as the
    # next chunk's longest
    chunks.sort(key=lambda steps: (-steps.max(), -steps.min()))
    for this, nxt in zip(chunks, chunks[1:]):
        assert this.min() >= nxt.max()
    assert chunks[0].max() == 4 and chunks[-1].min() == 2


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


@pytest.mark.skipif(models._usable_cpus() < 2, reason="needs two usable CPUs")
def test_a_chunk_error_is_raised_after_every_worker_stops():
    # the first chunk fails at once; the others sleep, so a worker that
    # took one is still in it when the error comes
    chunk = models._SCORE_BATCH
    workers = min(8, models._usable_cpus())
    started, ended = [], []

    def score_chunk(lo, hi):
        if lo == 0:
            raise ValueError("chunk 0")
        started.append(time.monotonic())
        time.sleep(0.05)
        ended.append(time.monotonic())

    with pytest.raises(ValueError, match="chunk 0"):
        models._map_chunks(8 * chunk, score_chunk)
    returned = time.monotonic()
    # no worker starts a chunk after the failed one, and the call returns
    # only once every started chunk has ended
    assert len(started) + 1 <= workers
    assert len(ended) == len(started) and all(t <= returned for t in ended)


# Run in a fresh interpreter, pinned to one CPU or with all of them: it
# trains and scores with both neural families, makes two- and
# three-chunk scoring, sampling and top-1 calls with all three, and
# prints what it got, with the number of threads that ran each call's
# kernel.
CPU_CHILD = r"""
import hashlib, json, os, sys, threading, time
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from colordesc import TrainingConfig, nn, train_model
from colordesc.models import HistogramModel
from test_models import _phrases

threads = {}  # call label -> idents of the threads that ran its kernels
label = None

def recording(kernel):
    def run(*args, **kwargs):
        seen = threads.setdefault(label, set())
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            # a thread's first chunk waits, so that a woken worker is
            # sure to find a chunk left however short the kernel is
            time.sleep(0.05)
        return kernel(*args, **kwargs)
    return run

for owner, name in ((nn, "sequence_logprobs"), (nn, "atomic_target_logprobs"),
                    (nn, "sequence_step_probs"), (nn, "atomic_logits"),
                    (HistogramModel, "_class_probs")):
    setattr(owner, name, recording(getattr(owner, name)))

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

def call(name, fn, *args):
    global label
    label = name
    try:
        return fn(*args)
    finally:
        label = None

train, dev = _phrases(600, 1), _phrases(3000, 2)
grid = _phrases(3000, 3).colors
out = {"cpus": len(os.sched_getaffinity(0))}
models = {}
for family, scheme in (("sequence", "fourier"), ("atomic", "fourier"),
                       ("histogram", "buckets")):
    model, history = call(f"train {family}", train_model, family, train,
                          TrainingConfig(max_epochs=1, batch_size=64, seed=5),
                          scheme, dev)
    models[family] = model
    if family == "histogram":
        continue
    out[family] = {
        "history": [repr(rec["perplexity"]) for rec in history],
        "params": digest(np.concatenate([v.ravel() for v in model.params.values()])),
        "scores": digest(call(f"score {family}", model.score_dataset, dev)),
        "grid": digest(call(f"grid {family}", model.score_color_array, grid,
                            train.descriptions[0].tokens)),
    }
# two- and three-chunk calls of every chunked path
for n in (700, 1200):
    ds = _phrases(n, 7)
    for family, model in models.items():
        if family != "histogram":
            out[f"score {family} {n}"] = digest(
                call(f"score {family} {n}", model.score_dataset, ds))
        out[f"sample {family} {n}"] = call(f"sample {family} {n}", model.sample_batch,
                                           ds.colors, np.random.default_rng(n))
        if family != "sequence":
            out[f"top1 {family} {n}"] = call(f"top1 {family} {n}",
                                             model.predict_top1_batch, ds.colors)
out["threads"] = {name: len(seen) for name, seen in threads.items()}
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
        # run in this directory, so that the child's ``import conftest``
        # finds this suite's, not the repository root's
        proc = subprocess.run([sys.executable, "-c", CPU_CHILD, mode], env=env,
                              cwd=Path(__file__).parent,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout.splitlines()[-1])
    pinned, every = runs["pinned"], runs["all"]
    assert pinned["cpus"] == 1 and set(pinned["threads"].values()) == {1}
    for family in ("sequence", "atomic"):
        assert len(pinned[family]["history"]) == 2
        assert pinned[family] == every[family], family
    calls = [key for key in pinned if key[-4:] in (" 700", "1200")]
    assert len(calls) == 14
    for key in calls:
        assert pinned[key] == every[key], key
    if every["cpus"] > 1:
        # every call of two or more chunks wakes a thread; the histogram
        # decodes without chunks
        chunked = [key for key in calls if key[:4] != "top1" or "atomic" in key]
        assert chunked and all(every["threads"][key] > 1 for key in chunked), \
            every["threads"]
        assert every["threads"]["train sequence"] > 1
        assert every["threads"]["score atomic"] > 1


# Run in a fresh interpreter that has loaded nothing, so that it has freed
# no large block before scoring: an untrained H = 20, V = 400 sequence model
# scores 20,000 rows twice, and the minor page faults of the second pass are
# printed.
FAULTS_CHILD = r"""
import resource
import numpy as np
from colordesc import TrainingConfig, Vocabulary
from colordesc.corpus import RESERVED_TOKENS
from colordesc.models import SequenceDecoderModel

words = [f"w{i}" for i in range(397)]
model = SequenceDecoderModel.build(TrainingConfig(hidden_size=20, seed=3),
                                   Vocabulary(list(RESERVED_TOKENS) + words), "fourier")
rng = np.random.default_rng(5)
colors = rng.uniform(0, 1, (20000, 3)) * [360, 100, 100]
table = [list(rng.choice(words, k)) for k in rng.integers(1, 4, 2000)]
codes = rng.integers(0, len(table), len(colors))
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.score_token_batch(colors, table, codes)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="glibc's dynamic mmap and trim thresholds")
def test_a_second_scoring_pass_reuses_its_pages_in_a_process_that_loaded_nothing():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(colordesc.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", FAULTS_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # a pass that faults each 512-row chunk's buffers in anew makes
    # 13,000-32,000 faults
    assert int(proc.stdout.splitlines()[-1]) < 1000


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
