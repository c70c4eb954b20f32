"""A Dataset states its repeated descriptions once, as ``table`` and
``codes``; every consumer that works per table entry must give what the
per-row code gave. The references below are that per-row code."""

from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colordesc import (
    AtomicModel,
    CorpusError,
    Dataset,
    Description,
    HistogramModel,
    TrainingConfig,
    Vocabulary,
    encode_dataset,
)
from colordesc.corpus import END_ID, RESERVED_TOKENS
from colordesc.evaluation import hit_flags
from colordesc.models import _inventory

from conftest import random_tiny_model

# equal texts under different raw forms, and w3, which the tiny sequence
# model's vocabulary (w0..w2) does not hold
TEXTS = ["w0", "W0", " w0 ", "w1 w2", "W1  w2", "w2", "w3 w0", "w3", "w2 w2 w1"]


def per_row_vocab(ds: Dataset) -> list:
    counts = Counter(chain.from_iterable(d.tokens for d in ds.descriptions))
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return list(RESERVED_TOKENS) + [tok for tok, _ in ordered]


def per_row_teacher_forcing(vocab: Vocabulary, ds: Dataset, rows: np.ndarray):
    """Every row encoded on its own, then padded, as before the table."""
    flat, offsets = vocab.encode_batch([d.tokens for d in ds.descriptions])
    start = offsets[rows]
    steps = offsets[rows + 1] - start - 1
    live = np.arange(steps.max() + 1) <= steps[:, None]
    ids = np.full(live.shape, END_ID, dtype=np.int64)
    ids[live] = flat[(start[:, None] + np.arange(live.shape[1]))[live]]
    return ids, steps


def per_row_inventory(ds: Dataset):
    inventory = sorted({d.key() for d in ds.descriptions})
    index = {k: i for i, k in enumerate(inventory)}
    return inventory, np.array([index.get(tuple(d.tokens), -1) for d in ds.descriptions],
                               dtype=np.int64)


def per_row_scores(model, ds: Dataset) -> np.ndarray:
    """One token list per row, each row its own code."""
    return model.score_token_batch(ds.colors, [d.tokens for d in ds.descriptions],
                                   np.arange(len(ds)))


def per_row_hits(model, ds: Dataset) -> list:
    preds = model.predict_top1_batch(ds.colors, beam_width=2)
    return [int(p == d.key()) for p, d in zip(preds, ds.descriptions)]


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(0, len(TEXTS) - 1), min_size=1, max_size=60),
       fresh=st.data(), seed=st.integers(0, 2**16))
def test_table_consumers_equal_the_per_row_code(picks, fresh, seed):
    rng = np.random.default_rng(seed)
    colors = np.column_stack([rng.uniform(0, 360, len(picks)), rng.uniform(0, 100, len(picks)),
                              rng.uniform(0, 100, len(picks))])
    shared_objs = [Description.from_text(t) for t in TEXTS]
    # rows that share one object per text, rows with a fresh equal object
    # each, and a mix of the two
    mixed = fresh.draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
    splits = {
        "shared": Dataset(colors, [shared_objs[k] for k in picks]),
        "fresh": Dataset(colors.copy(), [Description.from_text(TEXTS[k]) for k in picks]),
        "mixed": Dataset(colors.copy(), [Description.from_text(TEXTS[k]) if m else shared_objs[k]
                                         for k, m in zip(picks, mixed)]),
    }
    rows = np.array(fresh.draw(st.lists(st.integers(0, len(picks) - 1), min_size=1,
                                        max_size=30)))
    sequence = random_tiny_model(seed % 7)
    cfg = TrainingConfig(hidden_size=8, seed=seed % 5)
    got = {}
    for name, ds in splits.items():
        # table: each distinct object once, in order of first use
        seen, want_table = set(), []
        for d in ds.descriptions:
            if id(d) not in seen:
                seen.add(id(d))
                want_table.append(d)
        assert len(ds.table) == len(want_table)
        assert all(a is b for a, b in zip(ds.table, want_table))
        assert ds.codes.shape == (len(ds),)
        assert all(ds.table[k] is d for k, d in zip(ds.codes.tolist(), ds.descriptions))

        vocab = Vocabulary.build(ds)
        assert vocab.id_to_token == per_row_vocab(ds)
        for got_t, want_t in zip(encode_dataset(ds, vocab).teacher_forcing(rows),
                                 per_row_teacher_forcing(vocab, ds, rows)):
            assert got_t.dtype == want_t.dtype
            np.testing.assert_array_equal(got_t, want_t)
        inventory, cls_ids = _inventory(ds)
        want_inventory, want_ids = per_row_inventory(ds)
        assert inventory == want_inventory
        assert cls_ids.dtype == want_ids.dtype
        np.testing.assert_array_equal(cls_ids, want_ids)

        atomic = AtomicModel.build(cfg, inventory, "fourier")
        histogram = HistogramModel.build(cfg, ds)
        for model in (sequence, atomic, histogram):
            scores = model.score_dataset(ds)
            np.testing.assert_array_equal(scores, per_row_scores(model, ds))
            hits = hit_flags(model, ds, beam_width=2)
            assert hits.dtype == np.int8
            assert hits.tolist() == per_row_hits(model, ds)
            got.setdefault(model.family, []).append((scores, hits))
        got.setdefault("counts", []).append(histogram.counts)
    # the three splits hold equal texts, so they score and hit alike
    for family in ("sequence", "atomic", "histogram"):
        first_scores, first_hits = got[family][0]
        for scores, hits in got[family][1:]:
            np.testing.assert_array_equal(scores, first_scores)
            np.testing.assert_array_equal(hits, first_hits)
    for counts in got["counts"][1:]:
        for a, b in zip(counts, got["counts"][0]):
            np.testing.assert_array_equal(a, b)


def test_dataset_rejects_a_length_mismatch():
    teal = Description.from_text("teal")
    for n_colors, n_descriptions in ((3, 2), (1, 2), (0, 1)):
        with pytest.raises(CorpusError, match="colors and descriptions length mismatch"):
            Dataset(np.zeros((n_colors, 3)), [teal] * n_descriptions)


@pytest.mark.parametrize("where", ["shared by many rows", "only at the last row"])
def test_dataset_rejects_an_empty_description(where):
    empty = Description(raw="   ", tokens=[])
    if where == "shared by many rows":
        descriptions = [Description.from_text("teal"), empty] * 50
    else:
        descriptions = [Description.from_text(f"t{i}") for i in range(99)] + [empty]
    with pytest.raises(CorpusError, match="dataset contains an empty description"):
        Dataset(np.zeros((len(descriptions), 3)), descriptions)
