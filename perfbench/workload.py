"""The workload process: set-up, timed operations, output checks, and the
traced pass. ``run.py`` starts it; it prints one JSON record as its last
line of output.

    python3 perfbench/workload.py setup   --corpus DIR [--fixture CKPT]
    python3 perfbench/workload.py fixture --corpus DIR --seed N --out CKPT
    python3 perfbench/workload.py run     --corpus DIR --workload W --seed N
                                          --seconds S --trace 0|1 --scratch DIR
                                          [--fixture CKPT] [--per-layer NAME ...]

Every phase drives the library function a ``colordesc`` command calls,
in a closed loop: one caller, each call sent when the previous returns.
A phase is the list of operations of one pass: the dev split scored in
32 calls, a training pass as eight trainings on eighths of the train
split, single interactive calls. A phase's time is its median operation
time times the operations in one pass.

The timed loop hands out time in rounds of ``QUANTUM`` seconds, each
phase getting its share (deficit round robin), so every phase is sampled
all through the run: a slow spell of the machine moves every phase's
samples alike, and the median drops bursts. Each round starts by timing
``Reference``, a fixed kernel, and every operation of the round is also
recorded scaled by the host speed it shows; ``session_s`` sums the scaled
phase times. Every operation is deterministic; its output must match the
first output of the same operation bit for bit, or the operation fails.

Set-up time runs from process start (taken by the parent) to the moment
the corpus and checkpoint are loaded, so it includes interpreter start
and ``import colordesc``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks

EPOCHS = 1  # fixed epoch budget of every neural training
MONITOR_ITEMS = 10_000  # dev subsample a full-split training monitors
TRAIN_CHUNKS = 8  # a timed training pass: eight trainings on train eighths
CHECK_ITEMS = 64  # dev items for the batch-vs-single score check
MASS_COLORS = 8  # colors for the histogram mass check
BEAM_WIDTH = 10
SCORE_CHUNKS = 32  # calls that score the dev split
SEQ_ACCURACY_ITEMS = 40  # beam search is ~20 ms per item today
HIST_ACCURACY_ITEMS = 2_000
ACCURACY_CHUNKS = 20
TOP1_CALLS = 100
SAMPLE_CALLS = 300
COMPARE_ITEMS = 10_000  # dev subsample paired by the permutation test
COMPARE_CHUNKS = 4  # compare calls of one pass, each on a quarter of the pairs
COMPARE_ROUNDS = 10_000
DENOTATION = "blue"  # the commonest head term of the synthetic language
DENOTATION_GRID = (24, 25, 25)  # `denotation --grid 24x25x25`: ~0.5 s on the sequence model
QUANTUM = 0.5  # seconds of one scheduling round
REFERENCE_S = 0.0105  # median time of Reference on a quiet 2-vCPU x86-64 VM
REFERENCE_REPS = 4  # reference runs per scheduling round; the first warms up

# (phase, share of the timed loop); a share near the phase's part of a
# pass keeps each phase's error in the sum alike
PHASES = {
    "train-seq": [("train", 1.0)],
    "eval-seq": [("score", 0.5), ("accuracy", 0.12), ("top1", 0.25), ("sample", 0.03),
                 ("denotation", 0.1)],
    "baselines": [("hist_build", 0.08), ("hist_score", 0.6), ("hist_accuracy", 0.03),
                  ("hist_denotation", 0.02), ("atomic_train", 0.12),
                  ("atomic_score", 0.05), ("compare", 0.1)],
}

FAILED = object()  # what an operation that raised returns


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def subsample_idx(n_total: int, n: int, seed: int) -> np.ndarray:
    """Sorted seeded sample of n indices out of n_total, without replacement."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_total, size=min(n, n_total), replace=False))


def subset(cd, ds, idx, split: str):
    return cd.Dataset(colors=ds.colors[idx].copy(),
                      descriptions=[ds.descriptions[i] for i in idx], split=split)


def training_config(seed: int):
    from colordesc import TrainingConfig
    return TrainingConfig(max_epochs=EPOCHS, seed=seed,
                          conditioning="every-step").validate()


def monitor_set(cd, dev, seed: int):
    return subset(cd, dev, subsample_idx(len(dev), MONITOR_ITEMS, seed + 1), "dev-monitor")


def train_full(cd, splits, family: str, scheme: str, seed: int):
    """Fit ``family`` on the whole train split, monitoring the seeded dev
    subsample: the eval-seq fixture and train-seq's recorded checkpoint."""
    return cd.models.train_model(family, splits["train"], training_config(seed),
                                 scheme=scheme, dev=monitor_set(cd, splits["dev"], seed))


def setup(corpus_dir: Path, fixture: Path | None):
    """Import the library and load what the workload's commands load."""
    import colordesc
    splits = colordesc.corpus.load_manifest(corpus_dir / "manifest.txt")
    model = colordesc.models.load_checkpoint(fixture) if fixture else None
    return colordesc, splits, model


class Reference:
    """A fixed piece of work of the library's two kinds: a small float32
    recurrence (GEMM, tanh, exp) and parsing CSV lines in Python. It is
    part of the benchmark, so it never changes, and its time tracks the
    speed of the machine: on a host shared with other tenants, identical
    work runs up to a third slower in busy spells lasting seconds to
    minutes, in CPU time as much as in wall time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = (rng.standard_normal((80, 320)) * 0.1).astype(np.float32)
        self.x = rng.standard_normal((128, 80)).astype(np.float32)
        self.lines = [f"{h:.2f},{s:.2f},{l:.2f},light blue"
                      for h, s, l in rng.uniform(0.0, 100.0, (2000, 3))]

    def __call__(self) -> float:
        """Seconds one run took. The garbage collector is off, so the
        time does not depend on how many objects the library holds."""
        gc.disable()
        try:
            start = time.perf_counter()
            h = self.x
            for _ in range(40):
                _, _, o, c = np.split(h @ self.w, 4, axis=1)
                h = np.tanh(c) / (1.0 + np.exp(-o))
            rows = []
            for line in self.lines:
                a, b, c, desc = line.split(",", 3)
                rows.append((float(a), float(b), float(c), tuple(desc.split())))
            return time.perf_counter() - start
        finally:
            gc.enable()


def late(owner, name: str):
    """A function that looks ``owner.name`` up when it is called, so the
    operations built before a traced pass call the tracer's wrappers."""
    return lambda *args, **kwargs: getattr(owner, name)(*args, **kwargs)


def _fingerprint(out):
    """A comparable digest of an operation's output."""
    if isinstance(out, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
    if isinstance(out, Path):
        return _sha256(out)
    if hasattr(out, "values"):  # a probability field
        return _fingerprint(out.values)
    if hasattr(out, "tokens"):
        return tuple(out.tokens)
    return repr(out)


class Session:
    """Runs, times and counts operations; an operation fails if it raises
    or if its output differs from the first output of the same operation."""

    def __init__(self):
        self.ops: dict = {}  # phase -> durations of every timed operation
        self.scaled: dict = {}  # phase -> the same durations times the host scale
        self.scale = 1.0  # host scale of the current round
        self.per_pass: dict = {}  # phase -> operations in one pass
        self.first: dict = {}  # (phase, index) -> first output
        self.prints: dict = {}  # (phase, index) -> fingerprint of the first output
        self.attempted = 0
        self.failures: list = []
        self.reference = Reference()
        self.reference_s: list = []  # Reference times taken through the timed loop

    def call(self, phase: str, fn, *args, **kwargs):
        """One untimed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures.append(f"{phase}: {traceback.format_exc(limit=3)}")
            return FAILED

    def op(self, phase: str, index: int, call, timed: bool = True) -> float:
        """Operation ``index`` of a phase's pass; returns its duration."""
        fn, args, kwargs = call
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failures.append(f"{phase}[{index}]: {traceback.format_exc(limit=3)}")
            return time.perf_counter() - start
        duration = time.perf_counter() - start
        key = (phase, index)
        if key in self.prints:
            if _fingerprint(out) != self.prints[key]:
                self.failures.append(f"{phase}[{index}]: output differs from its first run")
        else:
            self.first[key] = out
            self.prints[key] = _fingerprint(out)
        if timed:
            self.ops.setdefault(phase, []).append(duration)
            self.scaled.setdefault(phase, []).append(duration * self.scale)
        return duration

    def check(self, phase: str, fails: list) -> None:
        """Count a check's failures against the operation it checked."""
        if fails:
            self.failures.append(f"{phase}: " + "; ".join(fails[:5]))

    def outputs(self, phase: str, n: int) -> list:
        """First outputs of operations 0..n-1 of a phase that ran."""
        return [self.first[(phase, i)] for i in range(n) if (phase, i) in self.first]

    def phase_s(self, phase: str, scaled: bool = False) -> float:
        """Median operation time times the operations in one pass."""
        times = self.scaled if scaled else self.ops
        return statistics.median(times[phase]) * self.per_pass[phase]

    def measure_host(self) -> None:
        """Run Reference; the scale of the operations that follow is
        REFERENCE_S over its median, below 1 while the machine runs slower
        than it does when quiet."""
        times = [self.reference() for _ in range(REFERENCE_REPS)][1:]
        self.reference_s += times
        self.scale = REFERENCE_S / statistics.median(times)


class Workload:
    """Operations and checks of one workload over one corpus and seed."""

    def __init__(self, name, colordesc, splits, fixture_model, corpus_dir: Path,
                 seed: int, scratch: Path, session: Session):
        self.name = name
        self.cd = colordesc
        self.splits = splits
        self.train = splits["train"]
        self.dev = splits["dev"]
        self.seed = seed
        self.scratch = scratch
        self.s = session
        self.config = training_config(seed)
        self.monitor_idx = self._idx(MONITOR_ITEMS, seed + 1)
        self.true_log2 = np.load(corpus_dir / "dev_true_log2.npy")
        self.model = fixture_model
        self.extra: dict = {}
        self.passes: dict = {}  # phase -> [(fn, args, kwargs)] of one pass

    def _idx(self, n: int, seed: int) -> np.ndarray:
        return subsample_idx(len(self.dev), n, seed)

    def _subset(self, idx, split):
        return subset(self.cd, self.dev, idx, split)

    def _chunks(self, idx, parts: int, split: str) -> list:
        return [self._subset(i, split) for i in np.array_split(idx, parts)]

    # -- operations and checks shared by the workloads

    def _check_scores(self, phase, model):
        sample = self._subset(self._idx(CHECK_ITEMS, self.seed + 2), "check")
        self.s.check(phase, checks.score_agreement(model, sample))

    def _check_training(self, phase, model, history, finite_mask=None):
        """Best monitor perplexity within [truth, uniform] on the items the
        monitor scored."""
        best = min(rec["perplexity"] for rec in history)
        monitor = self._subset(self.monitor_idx, "dev-monitor")
        mask = np.ones(len(monitor), bool) if finite_mask is None else finite_mask
        floor = checks.true_perplexity(self.true_log2[self.monitor_idx][mask])
        if model.family == "sequence":
            lengths = np.array([len(d.tokens) for d in monitor.descriptions])
            ceiling = checks.uniform_sequence_perplexity(lengths[mask], len(model.vocab))
        else:
            ceiling = float(len(model.inventory))
        self.s.check(phase, checks.perplexity_bounds(best, floor, ceiling,
                                                     f"{model.family} monitor"))
        return best

    def _train_and_save(self, family, scheme, ds, monitor, path):
        """``colordesc train``: fit, then write the checkpoint."""
        model, _ = self.cd.models.train_model(family, ds, self.config, scheme=scheme,
                                              dev=monitor)
        self.cd.models.save_checkpoint(model, path)
        return path

    def _training_pass(self, family, scheme, tag) -> list:
        """Eight trainings, each on an eighth of train and monitoring an
        eighth of the monitor subsample: one epoch over the split."""
        train_parts = np.array_split(np.arange(len(self.train)), TRAIN_CHUNKS)
        monitor_parts = np.array_split(self.monitor_idx, TRAIN_CHUNKS)
        calls = []
        for i, (t, m) in enumerate(zip(train_parts, monitor_parts)):
            ds = subset(self.cd, self.train, t, "train")
            calls.append((self._train_and_save,
                          (family, scheme, ds, self._subset(m, "dev-monitor"),
                           self.scratch / f"{tag}-{i}.ckpt"), {}))
        return calls

    def _accuracy_pass(self, model, n) -> list:
        """``colordesc eval`` accuracy pass over a seeded dev subsample."""
        hit_flags = late(self.cd.evaluation, "hit_flags")
        return [(hit_flags, (model, c), {"beam_width": BEAM_WIDTH})
                for c in self._chunks(self._idx(n, self.seed + 3), ACCURACY_CHUNKS,
                                      "accuracy")]

    def _score_pass(self, model, idx, parts, split) -> list:
        return [(late(self.cd.evaluation, "per_item_log2"), (model, c), {})
                for c in self._chunks(idx, parts, split)]

    def _sample(self, model, color, k):
        """``colordesc sample``: one draw, from a generator of its own so a
        repeated draw is reproducible."""
        return model.sample(color, np.random.default_rng([self.seed + 6, k]))

    def _denotation_files(self, model, tag):
        """``colordesc denotation``: field, cross-sections, two PGMs."""
        viz = self.cd.viz
        field = viz.probability_field(model, DENOTATION, viz.GridSpec(*DENOTATION_GRID))
        sec_l, sec_r = viz.cross_sections(field)
        viz.render(sec_l, self.scratch / f"{tag}-L.pgm")
        viz.render(sec_r, self.scratch / f"{tag}-R.pgm")
        return field

    def _check_denotation(self, phase, tag):
        for field in self.s.outputs(phase, 1):
            self.s.check(phase, checks.denotation(
                field, self.scratch / f"{tag}-L.pgm", self.scratch / f"{tag}-R.pgm"))

    # -- preparation: untimed operations the checks and later phases need

    def prepare(self) -> None:
        getattr(self, f"prepare_{self.name.replace('-', '_')}")()

    def prepare_train_seq(self):
        out = self.s.call("checkpoint", train_full, self.cd, self.splits, "sequence",
                          "fourier", self.seed)
        if out is not FAILED:
            model, history = out
            self.extra["dev_perplexity"] = self._check_training("checkpoint", model, history)
            self._check_scores("checkpoint", model)
            path = self.scratch / "model.ckpt"
            if self.s.call("checkpoint", self.cd.models.save_checkpoint, model,
                           path) is not FAILED:
                self.extra["checkpoint_sha256"] = _sha256(path)
        self.passes["train"] = self._training_pass("sequence", "fourier", "sequence")

    def prepare_eval_seq(self):
        model = self.model
        self._check_scores("score", model)
        self.passes["score"] = self._score_pass(model, np.arange(len(self.dev)),
                                                SCORE_CHUNKS, "dev")
        self.passes["accuracy"] = self._accuracy_pass(model, SEQ_ACCURACY_ITEMS)
        self.top1_colors = [self.dev.color(int(i))
                            for i in self._idx(TOP1_CALLS, self.seed + 4)]
        top1 = late(model, "predict_top1")
        self.passes["top1"] = [(top1, (c,), {"beam_width": BEAM_WIDTH})
                               for c in self.top1_colors]
        self.passes["sample"] = [(self._sample, (model, self.dev.color(int(i)), k), {})
                                 for k, i in enumerate(self._idx(SAMPLE_CALLS, self.seed + 5))]
        self.passes["denotation"] = [(self._denotation_files, (model, "sequence"), {})]

    def prepare_baselines(self):
        s = self.s
        out = s.call("hist_build", train_full, self.cd, self.splits, "histogram",
                     "buckets", self.seed)
        if out is FAILED:
            return
        self.hist, history = out
        self.extra["dev_perplexity"] = history[0]["perplexity"]
        colors = self.dev.colors[self._idx(MASS_COLORS, self.seed + 7)]
        s.check("hist_build", checks.histogram_mass(self.hist, colors))
        self._check_scores("hist_build", self.hist)

        out = s.call("atomic_train", train_full, self.cd, self.splits, "atomic",
                     "buckets", self.seed)
        if out is FAILED:
            return
        atomic, history = out
        known = np.array([d.key() in atomic.index for d in
                          self._subset(self.monitor_idx, "dev-monitor").descriptions])
        self.extra["atomic_dev_perplexity"] = self._check_training(
            "atomic_train", atomic, history, known)
        self._check_scores("atomic_train", atomic)

        # ``colordesc compare``: histogram against atomic over the pairs
        # both score finitely, a quarter of the pairs per call
        compare_idx = self._idx(COMPARE_ITEMS, self.seed + 8)
        compare_set = self._subset(compare_idx, "compare")
        a = s.call("compare", self.cd.evaluation.per_item_log2, self.hist, compare_set)
        b = s.call("compare", self.cd.evaluation.per_item_log2, atomic, compare_set)
        if a is FAILED or b is FAILED:
            return
        both = np.nonzero(np.isfinite(a) & np.isfinite(b))[0]
        self.extra["compare_pairs"] = int(len(both))

        self.passes["hist_build"] = self._training_pass("histogram", "buckets", "histogram")
        self.passes["hist_score"] = self._score_pass(self.hist, np.arange(len(self.dev)),
                                                     SCORE_CHUNKS, "dev")
        self.passes["hist_accuracy"] = self._accuracy_pass(self.hist, HIST_ACCURACY_ITEMS)
        self.passes["hist_denotation"] = [(self._denotation_files, (self.hist, "histogram"),
                                           {})]
        self.passes["atomic_train"] = self._training_pass("atomic", "buckets", "atomic")
        self.passes["atomic_score"] = self._score_pass(atomic, compare_idx, TRAIN_CHUNKS,
                                                       "compare")
        self.passes["compare"] = [
            (late(self.cd.evaluation, "permutation_test"), (a[part], b[part]),
             {"rounds": COMPARE_ROUNDS, "seed": self.seed})
            for part in np.array_split(both, COMPARE_CHUNKS)]

    # -- checks on the first outputs of the timed operations

    def finish(self) -> None:
        s = self.s
        if self.name == "eval-seq":
            self._finish_score()
            colors = self.top1_colors
            wide = s.outputs("top1", len(colors))
            if wide:
                s.check("top1", checks.beam_not_worse(self.model, colors[:len(wide)],
                                                      wide, BEAM_WIDTH))
            self._check_denotation("denotation", "sequence")
        elif self.name == "baselines":
            self._check_denotation("hist_denotation", "histogram")
            for p in s.outputs("compare", COMPARE_CHUNKS):
                if not 0.0 < p <= 1.0:
                    s.check("compare", [f"p-value {p!r} outside (0, 1]"])

    def _finish_score(self):
        """Score the dev chunks the timed loop did not reach, then check
        the dev perplexity (what ``colordesc eval`` reports)."""
        calls = self.passes["score"]
        for i, call in enumerate(calls):
            if ("score", i) not in self.s.first:
                self.s.op("score", i, call, timed=False)
        parts = self.s.outputs("score", len(calls))
        if len(parts) < len(calls):
            return
        ev = self.cd.evaluation
        ppl = ev.perplexity_from_log2(np.concatenate(parts))[0]
        self.extra["dev_perplexity"] = ppl
        floor = checks.true_perplexity(self.true_log2)
        lengths = np.array([len(d.tokens) for d in self.dev.descriptions])
        ceiling = checks.uniform_sequence_perplexity(lengths, len(self.model.vocab))
        self.s.check("score", checks.perplexity_bounds(ppl, floor, ceiling, "dev"))

    # -- the loops

    def run_pass(self, phase: str) -> None:
        """Every operation of one pass of a phase, in order."""
        for i, call in enumerate(self.passes[phase]):
            self.s.op(phase, i, call)
        self.s.per_pass[phase] = len(self.passes[phase])

    def run_timed(self, seconds: float) -> None:
        """Deficit round robin: each round credits every phase its share
        of QUANTUM, and a phase runs its next operations while its credit
        is positive, until ``seconds`` have passed."""
        phases = [(p, share) for p, share in PHASES[self.name] if p in self.passes]
        credit = {p: 0.0 for p, _ in phases}
        cursor = {p: 0 for p, _ in phases}
        for p, _ in phases:
            self.s.per_pass[p] = len(self.passes[p])
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.s.measure_host()
            for p, share in phases:
                credit[p] += share * QUANTUM
                calls = self.passes[p]
                while credit[p] > 0 and time.perf_counter() < end:
                    i = cursor[p] % len(calls)
                    cursor[p] += 1
                    credit[p] -= self.s.op(p, i, calls[i])


def phase_metrics(name: str, s: Session, w: Workload) -> dict:
    """session_s and the per-command metrics, {name: {value, unit}}.
    session_s scales each operation by the host speed of its round;
    every other figure is as measured."""
    phase_s = {p: s.phase_s(p) for p in s.ops}
    out = {"session_s": (sum(s.phase_s(p, scaled=True) for p in s.ops), "s"),
           "session_raw_s": (sum(phase_s.values()), "s"),
           "reference_ms": (statistics.median(s.reference_s) * 1000.0, "ms")}

    def ms(phase, q):
        return float(np.percentile(s.ops[phase], q)) * 1000.0, "ms"
    if name == "train-seq":
        out["train_items_per_s"] = (EPOCHS * len(w.train) / phase_s["train"], "items/s")
    elif name == "eval-seq":
        out["score_items_per_s"] = (len(w.dev) / phase_s["score"], "items/s")
        out["accuracy_items_per_s"] = (SEQ_ACCURACY_ITEMS / phase_s["accuracy"], "items/s")
        out["top1_ms_p50"] = ms("top1", 50)
        out["top1_ms_p90"] = ms("top1", 90)
        out["sample_ms_p50"] = ms("sample", 50)
        out["sample_ms_p90"] = ms("sample", 90)
        out["denotation_s"] = (phase_s["denotation"], "s")
    else:
        out["hist_build_s"] = (phase_s["hist_build"], "s")
        out["score_items_per_s"] = (len(w.dev) / phase_s["hist_score"], "items/s")
        out["accuracy_items_per_s"] = (HIST_ACCURACY_ITEMS / phase_s["hist_accuracy"],
                                       "items/s")
        out["denotation_s"] = (phase_s["hist_denotation"], "s")
        out["train_items_per_s"] = (EPOCHS * len(w.train) / phase_s["atomic_train"],
                                    "items/s")
        out["compare_s"] = (phase_s["compare"], "s")
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
        "phase_s": phase_s,
        "operation_s": s.ops,
    }


def environment() -> dict:
    """What the workload process ran on, as seen from inside it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "PYTHONHASHSEED")},
    }


def traced_run(args, w: Workload, session: Session, corpus_dir, fixture) -> dict:
    """The traced set-up and pass of every phase, then an untraced pass;
    preparation has warmed the process, and the tracing overhead is the
    traced pass minus the untraced one."""
    import tracing

    def total():
        return sum(sum(t) for t in session.ops.values())

    phases = [p for p, _ in PHASES[args.workload] if p in w.passes]
    cd = w.cd
    snapshot = [(o, a, o.__dict__[a]) for o, a, *_ in
                tracing.targets(cd) + tracing.count_targets(cd)]
    tracer = tracing.Tracer()
    tracer.install(cd)
    try:
        tracer.set_phase("setup")
        setup(corpus_dir, fixture)
        before = total()
        for phase in phases:
            tracer.set_phase(phase)
            w.run_pass(phase)
    finally:
        tracer.restore()
    traced = total() - before
    before = total()
    for phase in phases:
        w.run_pass(phase)
    untraced = total() - before
    changed = [f"{getattr(o, '__name__', o)}.{a}" for o, a, raw in snapshot
               if o.__dict__[a] is not raw]
    session.check("trace", [f"attribute not restored: {c}" for c in changed])
    tracer.save(Path(args.scratch) / "spans.npz")

    per_layer = {}
    for metric in args.per_layer:
        layer, _, stat = metric.rpartition(".")
        if metric == "models.predict_top1.step_calls":
            tops = tracer.phase_calls("top1", "models.predict_top1")
            steps = tracer.phase_calls("top1", "nn.sequence_step_probs")
            per_layer[metric] = steps / tops if tops else 0.0
        elif metric == "trace.overhead_s":
            per_layer[metric] = traced - untraced
        elif metric == "trace.overhead_share":
            per_layer[metric] = (traced - untraced) / untraced
        else:
            per_layer[metric] = tracer.stat(layer, stat)
    return {"per_layer": per_layer, "spans": len(tracer.spans)}


def cmd_setup(args) -> int:
    setup(Path(args.corpus), Path(args.fixture) if args.fixture else None)
    print(json.dumps({"ready": time.monotonic()}))
    return 0


def cmd_fixture(args) -> int:
    """Train and save the eval-seq checkpoint exactly as train-seq does."""
    import colordesc
    splits = colordesc.corpus.load_manifest(Path(args.corpus) / "manifest.txt")
    model, _ = train_full(colordesc, splits, "sequence", "fourier", args.seed)
    tmp = Path(f"{args.out}.tmp")
    colordesc.models.save_checkpoint(model, tmp)
    tmp.replace(args.out)
    return 0


def cmd_run(args) -> int:
    corpus_dir = Path(args.corpus)
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    fixture = Path(args.fixture) if args.fixture else None
    colordesc, splits, model = setup(corpus_dir, fixture)
    ready = time.monotonic()

    session = Session()
    record = {"ready": ready}
    w = Workload(args.workload, colordesc, splits, model, corpus_dir, args.seed,
                 scratch, session)
    w.prepare()
    if fixture:
        w.extra["checkpoint_sha256"] = _sha256(fixture)
    if args.trace:
        record.update(traced_run(args, w, session, corpus_dir, fixture))
    else:
        w.run_timed(args.seconds)
        record["phases"] = phase_metrics(args.workload, session, w)
    w.finish()
    record.update(
        env=environment(),
        attempted=session.attempted,
        failed=len(session.failures),
        failures=session.failures,
        extra=w.extra,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(record, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--corpus", required=True)
    p.add_argument("--fixture")
    p = sub.add_parser("fixture")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("run")
    p.add_argument("--corpus", required=True)
    p.add_argument("--workload", choices=sorted(PHASES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", required=True)
    p.add_argument("--fixture")
    p.add_argument("--per-layer", nargs="*", default=[])
    args = ap.parse_args(argv)
    return {"setup": cmd_setup, "fixture": cmd_fixture, "run": cmd_run}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
