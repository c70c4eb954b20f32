"""The traced run: wrappers see the calls, time them consistently, and
leave every patched attribute as it was."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import colordesc  # noqa: E402
from colordesc import Dataset, Description, TrainingConfig  # noqa: E402
from colordesc.evaluation import hit_flags, per_item_log2  # noqa: E402


def _snapshot():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in
            tracing.targets(colordesc) + tracing.count_targets(colordesc)]


def _tiny_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    colors = np.column_stack([rng.uniform(0, 360, n), rng.uniform(0, 100, n),
                              rng.uniform(0, 100, n)])
    words = ["red", "blue", "light blue", "dark red", "green"]
    return Dataset(colors=colors, descriptions=[Description.from_text(words[i % 5])
                                                for i in range(n)], split="train")


def test_restore_leaves_every_attribute_identical():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install(colordesc)
    assert all(owner.__dict__[attr] is not raw for owner, attr, raw in before)
    tracer.restore()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)


def test_restore_after_an_exception_inside_a_traced_call():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install(colordesc)
    try:
        with pytest.raises(colordesc.EvaluationError):
            colordesc.evaluation.permutation_test(np.zeros(0), np.zeros(0))
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)
    assert tracer.stat("evaluation.permutation_test", "calls") == 1
    assert tracer._stack == []


def test_every_declared_layer_has_a_wrapper():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = {name for _, _, name, *_ in tracing.targets(colordesc)}
    layers |= {name for _, _, name in tracing.count_targets(colordesc)}
    for metric in spec["per_layer"]:
        layer, _, stat = metric["name"].rpartition(".")
        if layer in ("trace", "models.predict_top1") and stat not in tracing.STATS:
            continue  # derived in the workload
        assert layer in layers, metric["name"]
        assert stat in tracing.STATS, metric["name"]


def test_spans_nest_and_times_add_up(tmp_path):
    ds = _tiny_dataset()
    cfg = TrainingConfig(hidden_size=6, embedding_dim=4, max_epochs=1, seed=0)
    tracer = tracing.Tracer()
    tracer.install(colordesc)
    try:
        tracer.set_phase("train")
        model, _ = colordesc.models.train_model("sequence", ds, cfg, dev=ds)
        tracer.set_phase("score")
        per_item_log2(model, ds)  # imported before install: not traced
        colordesc.evaluation.per_item_log2(model, ds)
        tracer.set_phase("top1")
        hit_flags(model, Dataset(ds.colors[:3], ds.descriptions[:3]))
    finally:
        tracer.restore()

    assert tracer.stat("evaluation.per_item_log2", "calls") == 1
    assert tracer.stat("evaluation.per_item_log2", "rows") == len(ds)
    # the monitor's one check (a single batch) and both per_item_log2 calls
    assert tracer.stat("models.score_dataset", "calls") == 3
    assert tracer.stat("models.train_model", "rows") == len(ds)
    assert tracer.stat("features.dense_feature_array", "rows") > 0
    assert tracer.phase_calls("top1", "models.predict_top1") == 3
    assert tracer.phase_calls("top1", "nn.sequence_step_probs") > 3
    for layer in ("models.train_model", "nn.sequence_forward", "nn.log_softmax"):
        assert 0.0 <= tracer.stat(layer, "self_s") <= tracer.stat(layer, "s")

    names = tracer.names
    by_index = tracer.spans
    for nid, start, end, parent, phase in by_index:
        assert start <= end
        if parent >= 0:
            p = by_index[parent]
            assert p[1] <= start and end <= p[2]
            assert p[4] == phase
    roots = [names[sp[0]] for sp in by_index if sp[3] < 0]
    assert set(roots) == {"models.train_model", "models.score_dataset",
                          "evaluation.per_item_log2", "models.predict_top1"}

    path = tmp_path / "spans.npz"
    tracer.save(path)
    saved = np.load(path)
    assert len(saved["spans"]) == len(by_index)
    assert json.loads(str(saved["names"])) == names
