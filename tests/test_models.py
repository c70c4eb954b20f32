import math

import numpy as np
import pytest

import colordesc
from colordesc import (
    AtomicModel,
    CheckpointError,
    ColorHSV,
    ConfigError,
    Dataset,
    Description,
    HistogramModel,
    SequenceDecoderModel,
    TrainingConfig,
    load_checkpoint,
    save_checkpoint,
    train_model,
)
from colordesc.corpus import END_ID, START_ID, UNK_ID

from conftest import (
    constant_step_model,
    disjoint_pairs,
    enumerate_sequences,
    make_vocab,
    random_tiny_model,
)

GRAY = ColorHSV(0.0, 0.0, 50.0)


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
    ids_direct = model.vocab.encode(["zzz"])
    assert ids_direct[1] == UNK_ID
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
    color = ColorHSV(200.0, 40.0, 60.0)
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
    state = model.initial_state(ColorHSV(10.0, 90.0, 90.0))
    prev = START_ID
    for _ in range(4):
        probs, state = model.step(state, prev)
        assert probs.sum() == pytest.approx(1.0, abs=1e-5)
        assert np.all(probs > 0.0)
        prev = int(np.argmax(probs))


def test_score_matches_step_walk():
    model = random_tiny_model(4, n_content=3)
    color = ColorHSV(123.0, 45.0, 67.0)
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
    for _ in range(n):
        d = model.sample(GRAY, rng, max_len=1)
        if not d.tokens:
            counts["end"] += 1
        else:
            counts[d.tokens[0]] += 1
    assert abs(counts["end"] / n - 0.5) < 0.01
    assert abs(counts["a"] / n - 0.3) < 0.01
    assert abs(counts["b"] / n - 0.2) < 0.01


def test_sampling_never_emits_reserved_tokens():
    # put most of the raw mass on <s> and <unk>
    model = constant_step_model(["a"], [8.0, 0.0, 8.0, 0.0])
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = model.sample(GRAY, rng, max_len=3)
        assert "<unk>" not in d.tokens
        assert "<s>" not in d.tokens


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
    for color in (GRAY, ColorHSV(300.0, 80.0, 20.0)):
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
    for color in (GRAY, ColorHSV(50.0, 60.0, 70.0), ColorHSV(340.0, 10.0, 95.0)):
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
    ds = disjoint_pairs(6, seed=10)
    cfg = TrainingConfig(max_epochs=2, batch_size=3, seed=0)
    model, _ = train_model("atomic", ds, cfg, scheme="fourier")
    lp = model.class_logprobs(ds.colors)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-6)


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
        c = ColorHSV(float(rng.uniform(0, 360)), float(rng.uniform(0, 100)),
                     float(rng.uniform(0, 100)))
        total = sum(math.exp(model.score_description(c, list(key)))
                    for key in model.inventory)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_histogram_backoff_reaches_global_unigram():
    # train data is all red-ish; query a far-away color whose fine and
    # mid buckets are empty, forcing the global fallback
    ds = _one_bucket_dataset(["a", "a", "b"], color=(1.0, 99.0, 99.0))
    model = HistogramModel.build(TrainingConfig(), ds)
    far = ColorHSV(180.0, 1.0, 1.0)
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


# -- checkpoints


def _probe_scores(model, n=20, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        c = ColorHSV(float(rng.uniform(0, 360)), float(rng.uniform(0, 100)),
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


def test_cross_family_load_rejected(tmp_path):
    ds = disjoint_pairs(5, seed=15)
    cfg = TrainingConfig(max_epochs=1, batch_size=5, seed=0)
    model, _ = train_model("atomic", ds, cfg, scheme="raw")
    path = tmp_path / "atomic.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match="family|expected"):
        SequenceDecoderModel.load(path)
    assert isinstance(AtomicModel.load(path), AtomicModel)


def test_checkpoint_shape_mismatch_detected(tmp_path):
    from colordesc.checkpoint import read_checkpoint, write_checkpoint

    model = random_tiny_model(9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    header, tensors = read_checkpoint(path)
    tensors["emb"] = tensors["emb"][:-1]  # drop a vocabulary row
    header.pop("tensors")
    bad = tmp_path / "reshaped.ckpt"
    write_checkpoint(bad, header, tensors)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(bad)


def test_checkpoint_preserves_vocab_and_meta(tmp_path):
    model = random_tiny_model(10)
    model.epochs_trained = 2.5
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.vocab == model.vocab
    assert loaded.epochs_trained == 2.5
    assert loaded.config == model.config
