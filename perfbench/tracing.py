"""Layer tracing from outside the library.

A ``Tracer`` replaces module and class attributes of colordesc with
timing wrappers, at the name each caller looks up: ``models`` imports
``dense_feature_array`` by name, so the wrapper goes on ``models``, not
on ``features``. Spans (name, start, end, parent span, phase) stay in
memory until ``save``; ``restore`` puts every original attribute back.
Busy time counts only the outermost span of a name; self time is span
time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

STATS = ("s", "self_s", "calls", "rows", "bytes")


def _rows_arg(i):
    """Rows = len of positional argument i (after self for methods)."""
    def rows(args, kwargs):
        return len(args[i])
    return rows


def _file_bytes(i):
    """Size of the file named by argument i, read after the call."""
    def nbytes(args, kwargs):
        path = args[i] if len(args) > i else kwargs.get("path")
        try:
            return os.path.getsize(path)
        except OSError:
            return 0
    return nbytes


def targets(colordesc) -> list:
    """(owner, attribute, layer name, rows fn, bytes fn) for every traced
    boundary of the colordesc package."""
    corpus, models, nn, evaluation, viz = (
        colordesc.corpus, colordesc.models, colordesc.nn,
        colordesc.evaluation, colordesc.viz)
    out = [
        (corpus, "load_manifest", "corpus.load_manifest", None, None),
        (corpus, "load_corpus", "corpus.load_corpus", None, None),
        (models, "encode_dataset", "corpus.encode_dataset", None, None),
        (models, "dense_feature_array", "features.dense_feature_array",
         _rows_arg(0), None),
        (models, "bucket_index_array", "features.bucket_index_array",
         _rows_arg(0), None),
        (viz, "hsl_to_hsv_array", "colors.hsl_to_hsv_array", _rows_arg(0), None),
        (nn, "sequence_forward", "nn.sequence_forward", _rows_arg(2), None),
        (nn, "sequence_backward", "nn.sequence_backward", None, None),
        (nn, "sequence_logprobs", "nn.sequence_logprobs", _rows_arg(2), None),
        (nn, "sequence_step_probs", "nn.sequence_step_probs", _rows_arg(3), None),
        (nn, "log_softmax", "nn.log_softmax", None, None),
        (nn, "atomic_forward", "nn.atomic_forward", _rows_arg(2), None),
        (nn, "atomic_backward", "nn.atomic_backward", None, None),
        (nn, "atomic_logprobs", "nn.atomic_logprobs", _rows_arg(2), None),
        (nn.Adagrad, "update", "nn.Adagrad.update", None, None),
        (models, "train_model", "models.train_model", _rows_arg(1), None),
        (models, "save_checkpoint", "models.save_checkpoint", None, None),
        (models, "load_checkpoint", "models.load_checkpoint", None, None),
        (models, "write_checkpoint", "checkpoint.write_checkpoint", None,
         _file_bytes(0)),
        (models, "read_checkpoint", "checkpoint.read_checkpoint", None,
         _file_bytes(0)),
        # a classmethod wrapper receives cls first
        (models.HistogramModel, "build", "models.HistogramModel.build",
         _rows_arg(2), None),
        (evaluation, "per_item_log2", "evaluation.per_item_log2", _rows_arg(1), None),
        (evaluation, "hit_flags", "evaluation.hit_flags", _rows_arg(1), None),
        (evaluation, "permutation_test", "evaluation.permutation_test",
         _rows_arg(0), None),
        (viz, "probability_field", "viz.probability_field", None, None),
        (viz, "cross_sections", "viz.cross_sections", None, None),
        (viz, "render", "viz.render", None, None),
    ]
    for cls in (models.SequenceDecoderModel, models.AtomicModel, models.HistogramModel):
        out += [
            (cls, "predict_top1", "models.predict_top1", None, None),
            (cls, "sample", "models.sample", None, None),
            (cls, "score_dataset", "models.score_dataset", _rows_arg(1), None),
            (cls, "score_color_array", "models.score_color_array",
             _rows_arg(1), None),
        ]
    return out


def count_targets(colordesc) -> list:
    """(owner, attribute, layer name) of per-row calls that are only
    counted: a span each would cost more than the call."""
    return [(colordesc.corpus, "hsl_to_hsv", "colors.hsl_to_hsv")]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_id: dict = {}
        self.spans: list = []  # (name id, start, end, parent index, phase)
        self.phases: list = []
        self.phase = -1
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._depth: dict = defaultdict(int)
        self._child: dict = defaultdict(float)
        self.busy: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.rows: dict = defaultdict(int)
        self.bytes: dict = defaultdict(int)
        self._saved: list = []  # (owner, attribute, original raw attribute)

    def set_phase(self, name: str) -> None:
        self.phases.append(name)
        self.phase = len(self.phases) - 1

    def _span(self, name: str, fn, rows_fn, bytes_fn):
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._depth[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[name] -= 1
                dur = end - start
                tracer.spans[idx] = (nid, start, end, parent, tracer.phase)
                tracer.self_time[name] += dur - tracer._child.pop(idx, 0.0)
                if parent >= 0:
                    tracer._child[parent] += dur
                if tracer._depth[name] == 0:
                    tracer.busy[name] += dur
                tracer.calls[name] += 1
                if rows_fn is not None:
                    tracer.rows[name] += rows_fn(args, kwargs)
                if bytes_fn is not None:
                    tracer.bytes[name] += bytes_fn(args, kwargs)
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, colordesc) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, rows_fn, bytes_fn in targets(colordesc):
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(name, raw.__func__, rows_fn, bytes_fn))
            else:
                wrapped = self._span(name, raw, rows_fn, bytes_fn)
            setattr(owner, attr, wrapped)
        for owner, attr, name in count_targets(colordesc):
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._counter(name, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def phase_calls(self, phase: str, name: str) -> int:
        """Number of spans of ``name`` recorded during ``phase``."""
        if phase not in self.phases or name not in self._name_id:
            return 0
        pid = self.phases.index(phase)
        nid = self._name_id[name]
        return sum(1 for sp in self.spans if sp[0] == nid and sp[4] == pid)

    def stat(self, layer: str, stat: str) -> float:
        if stat == "s":
            return self.busy.get(layer, 0.0)
        if stat == "self_s":
            return self.self_time.get(layer, 0.0)
        if stat == "calls":
            return self.calls.get(layer, 0) + self.counts.get(layer, 0)
        if stat == "rows":
            return self.rows.get(layer, 0)
        if stat == "bytes":
            return self.bytes.get(layer, 0)
        raise KeyError(stat)

    def save(self, path) -> None:
        """Write the spans as .npz (one array per field) plus name tables."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arr = np.array(self.spans, dtype=[("name", "i4"), ("start", "f8"), ("end", "f8"),
                                          ("parent", "i8"), ("phase", "i4")])
        np.savez_compressed(path, spans=arr,
                            names=np.array(json.dumps(self.names)),
                            phases=np.array(json.dumps(self.phases)))
