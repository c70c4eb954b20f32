"""Acceptance suite: one test per shipped guarantee, runnable end to end
with ``pytest -v tests/test_acceptance.py``.

Corpus-scale checks (7, 8, and the trained-model half of 9) need the real
dataset, which is not bundled. Point COLORDESC_DATA at a split manifest to
enable 7; additionally set COLORDESC_FULL=1 for the full training run in 8;
point COLORDESC_MODEL at a trained sequence checkpoint for 9's hue-profile
check. Without those, the tests skip with an explicit reason rather than
silently passing.
"""

import itertools
import math
import os

import numpy as np
import pytest

from colordesc import (
    TrainingConfig,
    aic,
    evaluate,
    load_checkpoint,
    load_manifest,
    permutation_test,
    perplexity_from_log2,
    save_checkpoint,
    train_model,
)
from colordesc.corpus import END_ID, START_ID
from colordesc.evaluation import hit_flags, per_item_log2
from colordesc.features import FOURIER_DIM, fourier_feature_array
from colordesc.models import SequenceDecoderModel
from colordesc.viz import GridSpec, ProbField, cross_sections, hue_profile, \
    periodic_local_maxima, probability_field, render
from colordesc import nn

from conftest import (
    constant_step_model,
    disjoint_pairs,
    enumerate_sequences,
    fd_max_relative_error,
    make_vocab,
)

DATA_ENV = "COLORDESC_DATA"
FULL_ENV = "COLORDESC_FULL"
MODEL_ENV = "COLORDESC_MODEL"


def _corpus_or_skip():
    path = os.environ.get(DATA_ENV, "")
    if not path:
        pytest.skip(f"real corpus not available; set {DATA_ENV} to a split manifest")
    return load_manifest(path)


def test_criterion_01_gradients_match_finite_differences():
    vocab = make_vocab(["a", "b"])  # 5 entries with the reserved three
    worst_overall = 0.0
    for seed in range(5):
        cfg = TrainingConfig(hidden_size=4, embedding_dim=4, dropout=0.0,
                             seed=seed, dtype="float64")
        rng = np.random.default_rng(seed)
        params = nn.init_params(nn.sequence_layout(cfg, len(vocab), FOURIER_DIM), rng)
        feats = fourier_feature_array(
            rng.uniform((0, 0, 0), (360, 100, 100), size=(2, 3))
        ).astype(np.float64)
        # <s>, two content tokens, </s>: three steps a row
        ids = rng.integers(3, len(vocab), size=(2, 4))
        ids[:, 0] = START_ID
        ids[:, -1] = END_ID
        steps = np.full(2, 3)

        def loss_fn():
            loss, _ = nn.sequence_forward(params, cfg, feats, ids, steps)
            return loss

        _, cache = nn.sequence_forward(params, cfg, feats, ids, steps)
        grads = nn.sequence_backward(cache)
        worst = fd_max_relative_error(params, loss_fn, grads)
        worst_overall = max(worst_overall, worst)
    assert worst_overall <= 1e-4


def test_criterion_02_fourier_featurizer_analytic_properties():
    origin = fourier_feature_array(np.zeros((1, 3)))[0]
    np.testing.assert_array_equal(origin[:27], np.ones(27))
    np.testing.assert_array_equal(origin[27:], np.zeros(27))

    rng = np.random.default_rng(0)
    colors = rng.uniform((0, 0, 0), (360, 100, 100), size=(200, 3))
    feats = fourier_feature_array(colors)
    norms = (feats ** 2).sum(axis=1)
    assert np.abs(norms - 27.0).max() <= 1e-9

    # hue periodicity: phases move by at most 2*pi*2*dh/360 per component
    eps = 1e-6
    lo = np.array([[eps, 40.0, 60.0]])
    hi = np.array([[360.0 - eps, 40.0, 60.0]])
    gap = np.abs(fourier_feature_array(lo) - fourier_feature_array(hi)).max()
    assert gap <= 2.0 * math.pi * 2.0 * (2.0 * eps) / 360.0 + 1e-12


def test_criterion_03_memorizes_fifty_disjoint_pairs():
    ds = disjoint_pairs(50, seed=0)
    cfg = TrainingConfig(max_epochs=300, batch_size=10, dropout=0.0,
                         learning_rate=0.1, seed=0, patience=10**6)
    assert cfg.max_epochs <= 500
    model, history = train_model("sequence", ds, cfg, scheme="fourier")
    logs = per_item_log2(model, ds)
    ppl, _, _, _ = perplexity_from_log2(logs)
    assert ppl < 1.1
    hits = sum(model.predict_top1(ds.color(i), beam_width=10).key()
               == ds.descriptions[i].key() for i in range(len(ds)))
    assert hits == len(ds)


def test_criterion_04_sequence_mass_and_beam_oracle():
    # vocab 5 = three reserved + two content tokens
    model = constant_step_model(["x", "y"],
                                [-1e9, math.log(0.2), -1e9,
                                 math.log(0.5), math.log(0.3)])
    color = (180.0, 50.0, 50.0)

    def mass(state, prev, depth):
        probs, nxt = model.step(state, prev)
        completed = float(probs[END_ID])
        live = 0.0
        for tok in range(len(model.vocab)):
            if tok == END_ID:
                continue
            p = float(probs[tok])
            if depth == 3:
                live += p
            else:
                c, l = mass(nxt, tok, depth + 1)
                completed += p * c
                live += p * l
        return completed, live

    completed, live = mass(model.initial_state(color), START_ID, 1)
    assert completed + live == pytest.approx(1.0, abs=1e-5)

    # beam width 27 equals brute-force argmax on hand-built and random models
    from conftest import random_tiny_model
    for seed in range(3):
        m = random_tiny_model(seed, n_content=2)
        table = enumerate_sequences(m, color, max_len=3)
        best_logp, best_ids = min(table, key=lambda t: (-t[0], t[1]))
        pred = m.predict_top1(color, beam_width=27, max_len=3)
        assert tuple(m.vocab.token_to_id[t] for t in pred.tokens) == best_ids


def test_criterion_05_metric_oracles():
    ppl, _, _, _ = perplexity_from_log2(np.log2([0.5, 0.125]))
    assert ppl == 4.0

    assert aic(1000.0, 50) == 2100.0

    rng = np.random.default_rng(42)
    a = rng.normal(0.4, 1.0, size=10)
    b = rng.normal(0.0, 1.0, size=10)
    diffs = a - b
    stat = abs(diffs.mean())
    exact = sum(
        abs((diffs * np.array(signs)).mean()) >= stat
        for signs in itertools.product((1.0, -1.0), repeat=10)
    ) / 2 ** 10
    approx = permutation_test(a, b, rounds=10_000, seed=0)
    assert abs(approx - exact) <= 0.02

    same = np.arange(20, dtype=np.float64)
    assert permutation_test(same, same.copy(), rounds=1000, seed=1) == 1.0


def test_criterion_06_aic_convention_reconciles_published_scale():
    n_dev = 108_545
    dev_ppl = 12.35
    published_aic = 8.33e5
    total_bits = n_dev * math.log2(dev_ppl)
    assert 2.0 * total_bits == pytest.approx(7.88e5, rel=0.01)
    implied_k = (published_aic - 2.0 * total_bits) / 2.0
    assert implied_k == pytest.approx(2.2e4, rel=0.05)

    # the default architecture lands within a factor of 2 of the implied
    # parameter count across the plausible vocabulary range
    cfg = TrainingConfig()
    for v_content in (100 - 3, 500 - 3, 900 - 3):
        vocab = make_vocab([f"w{i}" for i in range(v_content)])
        model = SequenceDecoderModel.build(cfg, vocab, "fourier")
        ratio = model.param_count / implied_k
        assert 0.5 <= ratio <= 2.0, (len(vocab), model.param_count, implied_k)


def test_criterion_07_subsample_feature_and_family_orderings():
    splits = _corpus_or_skip()
    if "train" not in splits or "dev" not in splits:
        pytest.skip("manifest must provide train and dev splits")
    train = splits["train"].subsample(50_000, seed=0)
    dev = splits["dev"]
    cfg = TrainingConfig(seed=0)

    rnn_fourier, _ = train_model("sequence", train, cfg, scheme="fourier", dev=dev)
    rnn_raw, _ = train_model("sequence", train, cfg, scheme="raw", dev=dev)
    atomic_fourier, _ = train_model("atomic", train, cfg, scheme="fourier", dev=dev)

    logs = {}
    for name, model in (("rnn_fourier", rnn_fourier), ("rnn_raw", rnn_raw),
                        ("atomic_fourier", atomic_fourier)):
        logs[name] = per_item_log2(model, dev)

    finite_af = np.isfinite(logs["atomic_fourier"])
    mean_bits = {k: -v[np.isfinite(v)].mean() for k, v in logs.items()}
    # orderings: sequence beats atomic at matched features, Fourier beats raw
    assert mean_bits["rnn_fourier"] < mean_bits["atomic_fourier"]
    assert mean_bits["rnn_fourier"] < mean_bits["rnn_raw"]
    p_family = permutation_test(logs["rnn_fourier"][finite_af],
                                logs["atomic_fourier"][finite_af],
                                rounds=10_000, seed=0)
    p_feature = permutation_test(logs["rnn_fourier"], logs["rnn_raw"],
                                 rounds=10_000, seed=0)
    assert p_family < 0.05
    assert p_feature < 0.05


def test_criterion_08_full_data_reproduction():
    splits = _corpus_or_skip()
    if os.environ.get(FULL_ENV, "") != "1":
        pytest.skip(f"full training run disabled; set {FULL_ENV}=1 (hours of CPU)")
    if not {"train", "dev", "test"} <= set(splits):
        pytest.skip("manifest must provide train, dev, and test splits")
    cfg = TrainingConfig(seed=0)
    model, _ = train_model("sequence", splits["train"], cfg, scheme="fourier",
                           dev=splits["dev"])
    dev_report = evaluate(model, splits["dev"], split="dev").with_hits(
        hit_flags(model, splits["dev"], 10), 10)
    test_report = evaluate(model, splits["test"], split="test")
    assert dev_report.perplexity <= 13.0
    assert dev_report.accuracy >= 39.0
    assert test_report.perplexity <= 13.2


def test_criterion_09_visualization_goldens_and_profile(tmp_path):
    values = np.arange(1.0, 9.0).reshape(2, 2, 2)
    L, R = cross_sections(ProbField(GridSpec(2, 2, 2), values))
    lp, rp = tmp_path / "L.pgm", tmp_path / "R.pgm"
    render(L, lp)
    render(R, rp)
    assert lp.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 106, 188, 255])
    assert rp.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 83, 224, 255])

    # rendering is invariant to rescaling the field
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    rng = np.random.default_rng(0)
    field = rng.uniform(0.5, 2.0, size=(4, 3, 3))
    render(cross_sections(ProbField(GridSpec(4, 3, 3), field))[0], a)
    render(cross_sections(ProbField(GridSpec(4, 3, 3), field * 3.0))[0], b)
    assert a.read_bytes() == b.read_bytes()

    # the hue-profile shape check applies once a corpus-trained model
    # exists; the goldens above always run
    ckpt = os.environ.get(MODEL_ENV, "")
    if ckpt:
        model = load_checkpoint(ckpt)
        field = probability_field(model, "greenish", GridSpec(120, 50, 50))
        prof = hue_profile(field)
        peaks = periodic_local_maxima(prof)
        assert len(peaks) >= 2
        # an interior minimum separates the modes
        lo, hi = sorted(peaks)[:2]
        assert prof[lo:hi + 1].min() < min(prof[lo], prof[hi])


def test_criterion_10_checkpoint_roundtrip_bit_identical(tmp_path):
    ds = disjoint_pairs(12, seed=1)
    cfg = TrainingConfig(max_epochs=3, batch_size=4, dropout=0.0, seed=0)
    model, _ = train_model("sequence", ds, cfg, scheme="fourier")
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)

    rng = np.random.default_rng(99)
    words = model.vocab.id_to_token[3:]
    for _ in range(100):
        color = (float(rng.uniform(0, 360)), float(rng.uniform(0, 100)),
                 float(rng.uniform(0, 100)))
        tokens = list(rng.choice(words, size=rng.integers(1, 4)))
        assert model.score_description(color, tokens) == \
            loaded.score_description(color, tokens)
