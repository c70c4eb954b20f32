"""Histogram baseline: checkpoint validation, the pinned checkpoint
format, and a differential test of the vectorized backoff against a
brute-force oracle over the training rows."""

import hashlib
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colordesc import CheckpointError, Dataset, Description, TrainingConfig
from colordesc.checkpoint import read_checkpoint, write_checkpoint
from colordesc.features import BUCKET_GRIDS
from colordesc.models import HistogramModel, load_checkpoint, save_checkpoint

# fixed tiny corpus; its checkpoint digest pins the histogram file format
GOLDEN_ROWS = [
    ((0.0, 0.0, 0.0), "red"),
    ((1.0, 50.0, 100.0), "red"),
    ((2.0, 50.0, 100.0), "dark red"),
    ((5.0, 55.0, 100.0), "red"),
    ((200.0, 99.9, 10.0), "blue"),
    ((359.9, 100.0, 100.0), "red"),
]
GOLDEN_SHA256 = "0f7c11de17d189199e564f2fdfb5c2c5a51391a84f8a9bf35fedbb7e934f7de8"


def _dataset(rows) -> Dataset:
    return Dataset(colors=np.array([c for c, _ in rows], dtype=np.float64),
                   descriptions=[Description.from_text(t) for _, t in rows])


def _golden_model() -> HistogramModel:
    return HistogramModel.build(TrainingConfig(), _dataset(GOLDEN_ROWS))


def test_histogram_checkpoint_golden_digest(tmp_path):
    path = tmp_path / "h.ckpt"
    save_checkpoint(_golden_model(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256


def test_histogram_counts_are_sorted_int32_triples():
    model = _golden_model()
    for level in model.counts:
        assert level.dtype == np.int32 and level.shape[1] == 3
        keys = level[:, 0].astype(np.int64) * len(model.inventory) + level[:, 1]
        assert (np.diff(keys) > 0).all()
        assert (level[:, 2] >= 1).all()
    assert model.counts[2].tolist() == [[0, 0, 1], [0, 1, 1], [0, 2, 4]]


def test_out_of_inventory_does_not_alias_previous_bucket():
    # fine buckets 0 and 1 are adjacent; class 1 ("zulu", the last key)
    # sits only in bucket 0, so key 1 * C - 1 names (bucket 0, class 1)
    model = HistogramModel.build(TrainingConfig(), _dataset([
        ((1.0, 0.0, 0.0), "zulu"), ((1.0, 0.0, 10.0), "alpha")]))
    upper = np.array([[1.0, 0.0, 10.0]])
    assert math.exp(model.score_description(upper[0], "oov")) == pytest.approx(1 / 3)
    assert math.exp(model.score_color_array(upper, ["oov"])[0]) == pytest.approx(1 / 3)


# -- load validation


def _drop(name):
    def edit(t):
        del t[name]
    return edit


def _set(name, value):
    def edit(t):
        t[name] = value(t.get(name))
    return edit


def _cell(name, row, col, value):
    def edit(t):
        t[name] = t[name].copy()
        t[name][row, col] = value
    return edit


CORRUPTIONS = {
    "missing level": _drop("counts.mid"),
    "extra tensor": _set("counts.extra", lambda _: np.zeros((1, 3), np.int32)),
    "float dtype": _set("counts.fine", lambda a: a.astype(np.float32)),
    "two columns": _set("counts.fine", lambda a: a[:, :2].copy()),
    "flat": _set("counts.global", lambda a: a.ravel().copy()),
    "fine bucket too large": _cell("counts.fine", 0, 0, 9000),
    "negative mid bucket": _cell("counts.mid", 0, 0, -1),
    "global bucket nonzero": _cell("counts.global", 0, 0, 1),
    "class too large": _cell("counts.fine", 0, 1, 3),
    "negative class": _cell("counts.mid", 0, 1, -1),
    "zero count": _cell("counts.fine", 0, 2, 0),
    "negative count": _cell("counts.global", 0, 2, -4),
    "rows reversed": _set("counts.fine", lambda a: a[::-1].copy()),
    "duplicate row": _set("counts.mid", lambda a: np.concatenate([a[:1], a])),
    "empty global": _set("counts.global", lambda a: a[:0].copy()),
}


@pytest.mark.parametrize("defect", sorted(CORRUPTIONS))
def test_histogram_load_rejects_malformed_counts(tmp_path, defect):
    path = tmp_path / "h.ckpt"
    save_checkpoint(_golden_model(), path)
    header, tensors = read_checkpoint(path)
    CORRUPTIONS[defect](tensors)
    write_checkpoint(path, header, tensors)  # valid CRC over the bad data
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# -- differential test against a brute-force oracle

# hues at the start of even fine hue cells (0, 2, 88); +4 degrees moves a
# color to an odd fine cell of the same mid cell, which training never
# fills, so those queries back off to mid. Hue 180 lies in a mid cell
# training never fills, so it backs off to global. s and v include the
# closed upper boundary 100.
TRAIN_HUES = (1.0, 9.0, 353.0)
SV = (0.0, 37.5, 99.99, 100.0)
WORDS = ("red", "dark red", "blue", "pale blue")
OOV = (("zzz",), ("red", "zzz"))

train_rows = st.lists(
    st.tuples(st.tuples(st.sampled_from(TRAIN_HUES), st.sampled_from(SV),
                        st.sampled_from(SV)),
              st.sampled_from(WORDS)),
    min_size=1, max_size=25)
free_colors = st.lists(
    st.tuples(st.floats(0.0, 360.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
    max_size=8)


def _cell_of(color, grid) -> tuple:
    h, s, v = color
    nh, ns, nv = grid
    return (min(math.floor(h * nh / 360.0), nh - 1),
            min(math.floor(s * ns / 100.0), ns - 1),
            min(math.floor(v * nv / 100.0), nv - 1))


def _oracle(rows, color):
    """(level, Counter of keys, bucket size) of the first resolution
    whose cell around ``color`` holds training rows."""
    for level, grid in enumerate(BUCKET_GRIDS):
        keys = [tuple(text.split()) for c, text in rows
                if _cell_of(c, grid) == _cell_of(color, grid)]
        if keys:
            return level, Counter(keys), len(keys)
    raise AssertionError("the global cell holds every row")


@settings(max_examples=60, deadline=None)
@given(rows=train_rows, extra=free_colors)
def test_histogram_matches_brute_force_oracle(rows, extra):
    model = HistogramModel.build(TrainingConfig(), _dataset(rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)

    inventory = sorted({tuple(text.split()) for _, text in rows})
    assert model.inventory == inventory
    C = len(inventory)
    keys = inventory + list(OOV)
    queries = [c for c, _ in rows]
    queries += [(c[0] + 4.0, c[1], c[2]) for c, _ in rows]
    queries += [(180.0, s, v) for s in SV for v in SV]
    queries += extra
    colors = np.array(queries, dtype=np.float64)

    levels = set()
    want = np.empty((len(queries), len(keys)))
    want_top1 = []
    for i, color in enumerate(queries):
        level, counts, total = _oracle(rows, color)
        levels.add(level)
        want[i] = [math.log((counts[k] + 1.0) / (total + C)) for k in keys]
        want_top1.append(min(inventory, key=lambda k: -counts[k]))
    assert levels == {0, 1, 2}

    item_keys = [keys[i % len(keys)] for i in range(len(queries))]
    item_want = want[np.arange(len(queries)), np.arange(len(queries)) % len(keys)]
    ds = Dataset(colors=colors,
                 descriptions=[Description(raw=" ".join(k), tokens=list(k))
                               for k in item_keys])
    for m in (model, loaded):
        np.testing.assert_allclose(m.score_dataset(ds), item_want, rtol=0, atol=1e-12)
        single = [m.score_description(c, k) for c, k in zip(queries, item_keys)]
        np.testing.assert_allclose(single, item_want, rtol=0, atol=1e-12)
        for j, k in enumerate(keys):
            np.testing.assert_allclose(m.score_color_array(colors, list(k)),
                                       want[:, j], rtol=0, atol=1e-12)
        assert [m.predict_top1(c).key() for c in queries] == want_top1
        assert m.predict_top1_batch(colors) == want_top1
