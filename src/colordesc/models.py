"""The three model families over color-conditioned descriptions:

* ``sequence``: LSTM decoder emitting one token at a time, softmax over
  the full vocabulary at every step (the conditional language model).
* ``atomic``: feed-forward classifier whose output classes are the
  distinct full descriptions seen in training.
* ``histogram``: smoothed per-bucket description counts with strict
  finest-first backoff (90x10x10 -> 45x5x5 -> 1x1x1).

All families derive from ``_Model``, which holds the config, feature
scheme, parameter tensors and epochs trained, featurizes colors and
saves and loads checkpoints; atomic and histogram also share an
inventory of descriptions. Every family exposes score_description /
sample / predict_top1. Each family has one scoring path,
``score_token_batch(colors, token_seqs)``; score_description,
score_dataset and score_color_array only adapt their arguments to it.
Scores are natural-log probabilities; metric code converts to bits
where needed.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from . import nn
from .checkpoint import read_checkpoint, write_checkpoint
from .colors import ColorHSV
from .corpus import (
    Dataset,
    Description,
    EncodedDataset,
    END_ID,
    START_ID,
    UNK_ID,
    Vocabulary,
    encode_dataset,
    tokenize,
)
from .errors import CheckpointError, ConfigError, CorpusError, TrainingDivergence
from .evaluation import DEFAULT_BEAM_WIDTH, per_item_log2, perplexity_from_log2
from .features import (
    BUCKET_GRIDS,
    BUCKET_SIZES,
    FOURIER_DIM,
    SCHEMES,
    bucket_index_array,
    dense_feature_array,
    feature_dim,
)
from .nn import TrainingConfig

FAMILIES = ("sequence", "atomic", "histogram")

DEFAULT_MAX_LEN = 20

# the bit generator of every seeded draw; checkpoints and run-meta record it
PRNG_ID = "numpy.PCG64"

BUCKET_PARAM_NAMES = ("buckets.fine", "buckets.mid", "buckets.global")
HISTOGRAM_LEVELS = ("fine", "mid", "global")

# featurizer constants are stamped into checkpoints so a file trained
# under different conventions is rejected instead of silently misread
FEATURE_CONSTANTS = {
    "raw_scale": [360.0, 100.0, 100.0],
    "fourier_dim": FOURIER_DIM,
    "bucket_grids": [list(g) for g in BUCKET_GRIDS],
}

_SCORE_BATCH = 512

# Scoring runs its chunks on the calling thread and on pool threads, at
# most one for each other usable CPU; numpy releases the interpreter lock
# inside its kernels. The pool is made by the first call that wakes a
# thread. A forked child has none of the pool's threads, so it drops the
# pool and makes its own.
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_forget_pool)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _score_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _usable_cpus() - 1),
                                       thread_name_prefix="colordesc-score")
        return _pool


def _map_chunks(n: int, score_chunk) -> None:
    """``score_chunk(lo, hi)`` for every ``_SCORE_BATCH``-row chunk
    [lo, hi) of n rows, on up to one thread per usable CPU. Each chunk is
    computed as it would be alone and writes only its own rows, so
    results do not depend on the number of threads. An error is raised
    once every worker has stopped; no worker starts a chunk after it."""
    todo = iter(range(0, n, _SCORE_BATCH))
    # a thread is woken only if it can take two chunks: with fewer, it saves
    # little of a short call, and its wake-up and the two threads' handoffs
    # of the interpreter lock cost more on a busy machine
    workers = min(-(-n // _SCORE_BATCH) // 2, _usable_cpus())
    lock = threading.Lock()

    def drain():
        try:
            while True:
                with lock:
                    lo = next(todo, None)
                if lo is None:
                    return
                score_chunk(lo, min(lo + _SCORE_BATCH, n))
        except BaseException:
            with lock:
                for _ in todo:
                    pass
            raise

    if workers <= 1:
        drain()
        return
    pool = _score_pool()
    futures = [pool.submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        # a worker that has not started would find no chunk left: waiting
        # for it would only wait for its thread to be scheduled
        for future in futures:
            future.cancel()
        wait(futures)
    for future in futures:
        if not future.cancelled():
            future.result()

# first cell of each resolution when the three are numbered as one space
_LEVEL_OFFSETS = np.cumsum((0,) + BUCKET_SIZES[:-1])


def _as_color_array(c) -> np.ndarray:
    if isinstance(c, ColorHSV):
        return np.array([c.as_tuple()], dtype=np.float64)
    arr = np.asarray(c, dtype=np.float64)
    return arr.reshape(1, 3) if arr.ndim == 1 else arr


def _as_tokens(d) -> list:
    if isinstance(d, Description):
        return list(d.tokens)
    if isinstance(d, str):
        return tokenize(d)
    return list(d)


def _class_ids(index: dict, token_seqs) -> np.ndarray:
    """Inventory class id of each token sequence, -1 outside the inventory."""
    return np.array([index.get(tuple(t), -1) for t in token_seqs], dtype=np.int64)


def _inventory(train: Dataset):
    """The sorted distinct descriptions of ``train`` and the class id of
    each of its rows."""
    inventory = sorted({d.key() for d in train.descriptions})
    index = {k: i for i, k in enumerate(inventory)}
    return inventory, _class_ids(index, [d.tokens for d in train.descriptions])


def _nonempty_tokens(d) -> list:
    tokens = _as_tokens(d)
    if not tokens:
        raise ValueError("cannot score an empty description")
    return tokens


def _description(tokens) -> Description:
    tokens = list(tokens)
    return Description(raw=" ".join(tokens), tokens=tokens)


# score_dataset and score_color_array are bound in every family's class
# body rather than inherited: perfbench's tracer wraps the attributes each
# family class holds itself.

def _score_dataset(self, ds: Dataset) -> np.ndarray:
    return self.score_token_batch(ds.colors, [d.tokens for d in ds.descriptions])


def _score_color_array(self, colors: np.ndarray, d) -> np.ndarray:
    """One description (text, tokens or Description) scored against many
    colors (grid queries)."""
    return self.score_token_batch(np.asarray(colors, dtype=np.float64),
                                  [_nonempty_tokens(d)] * len(colors))


def _check_generation_args(beam_width: int, max_len: int) -> None:
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")


def _layout(family: str, cfg: TrainingConfig, scheme: str, n_words: int) -> list:
    """(name, shape, init) of every tensor of a neural family, in draw
    order: the family's own, then for ``buckets`` the bucket embedding
    tables. Models are initialized and checkpoint shapes checked from it.
    ``n_words`` is the vocabulary or inventory size."""
    F = feature_dim(scheme, cfg.bucket_embedding_dim)
    if family == "sequence":
        layout = nn.sequence_layout(cfg, n_words, F)
    else:
        layout = nn.atomic_layout(cfg, F, n_words)
    if scheme == "buckets":
        E = cfg.bucket_embedding_dim
        layout += [(name, (size, E), nn.normal(cfg.embedding_sigma))
                   for name, size in zip(BUCKET_PARAM_NAMES, BUCKET_SIZES)]
    return layout


class _Model:
    """What the three families share. ``params`` holds the tensors a
    checkpoint stores, by name: the neural weights, or the histogram's
    counts."""

    def __init__(self, config: TrainingConfig, scheme: str, params: dict,
                 epochs_trained: float = 0.0):
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown feature scheme {scheme!r}")
        self.config = config
        self.scheme = scheme
        self.params = params
        self.epochs_trained = epochs_trained

    @classmethod
    def _init_params(cls, config: TrainingConfig, scheme: str, n_words: int,
                     rng) -> dict:
        """A neural family's initial parameters, drawn in ``_layout``
        order from ``rng`` (default: seeded by the config)."""
        config.validate()
        if rng is None:
            rng = np.random.default_rng(config.seed)
        return nn.init_params(_layout(cls.family, config, scheme, n_words), rng,
                              config.np_dtype)

    @property
    def param_count(self) -> int:
        return int(sum(v.size for v in self.params.values()))

    def featurize(self, colors: np.ndarray):
        """(feats, bucket_ids) for an (N, 3) HSV array, as a neural
        family's input. bucket_ids is None for the continuous schemes."""
        if self.scheme == "buckets":
            idx = bucket_index_array(colors)
            feats = np.concatenate(
                [self.params[name][idx[:, r]] for r, name in enumerate(BUCKET_PARAM_NAMES)],
                axis=1,
            )
            return feats, idx
        return dense_feature_array(colors, self.scheme).astype(self.config.np_dtype), None

    def score_description(self, c, d) -> float:
        """Natural-log probability of description d given color c."""
        return float(self.score_token_batch(_as_color_array(c), [_nonempty_tokens(d)])[0])

    def save(self, path) -> None:
        save_checkpoint(self, path)

    @classmethod
    def load(cls, path):
        return load_checkpoint(path, expect_family=cls.family)


class _InventoryModel(_Model):
    """A family whose outcomes are the distinct training descriptions."""

    def __init__(self, config: TrainingConfig, inventory: list, scheme: str,
                 params: dict, epochs_trained: float = 0.0):
        super().__init__(config, scheme, params, epochs_trained)
        self.inventory = [tuple(k) for k in inventory]
        self.index = {k: i for i, k in enumerate(self.inventory)}

    def _description(self, cls_id: int) -> Description:
        return _description(self.inventory[cls_id])


# ---------------------------------------------------------------------------
# sequence decoder


class SequenceDecoderModel(_Model):
    """Color-conditioned LSTM token decoder.

    Conditioning per ``config.conditioning``: the featurized color is
    concatenated to the token embedding at every step, or mapped through
    a dense layer to the initial (h0, c0).
    """

    family = "sequence"

    def __init__(self, config: TrainingConfig, vocab: Vocabulary, scheme: str,
                 params: dict, epochs_trained: float = 0.0):
        super().__init__(config, scheme, params, epochs_trained)
        self.vocab = vocab

    @classmethod
    def build(cls, config: TrainingConfig, vocab: Vocabulary, scheme: str,
              rng=None) -> "SequenceDecoderModel":
        params = cls._init_params(config, scheme, len(vocab), rng)
        return cls(config, vocab, scheme, params)

    # -- scoring

    def score_token_batch(self, colors: np.ndarray, token_seqs: list) -> np.ndarray:
        """Log probability of each full description, </s> included, given
        its color row. OOV tokens score as <unk>."""
        enc = EncodedDataset(colors, *self.vocab.encode_batch(token_seqs))
        out = np.empty(len(enc), dtype=np.float64)

        def score_chunk(lo, hi):
            feats, _ = self.featurize(colors[lo:hi])
            out[lo:hi] = nn.sequence_logprobs(
                self.params, self.config, feats,
                *enc.teacher_forcing(np.arange(lo, hi)))

        _map_chunks(len(enc), score_chunk)
        return out

    score_dataset = _score_dataset
    score_color_array = _score_color_array

    # -- incremental decoding (also the enumeration probe used in tests)

    def initial_state(self, c):
        feats, _ = self.featurize(_as_color_array(c))
        h, c0 = nn.sequence_initial_state(self.params, self.config, feats)
        return (feats, h, c0)

    def step(self, state, prev_id: int):
        """Next-token distribution (float64, sums to 1) after feeding
        prev_id, plus the advanced state."""
        feats, h, c = state
        probs, h2, c2 = nn.sequence_step_probs(
            self.params, self.config, feats,
            np.array([prev_id], dtype=np.int64), h, c)
        return probs[0], (feats, h2, c2)

    # -- generation

    def sample(self, c, rng, max_len: int = DEFAULT_MAX_LEN) -> Description:
        """Ancestral sampling; <s> and <unk> are never emitted (their
        mass is renormalized away). Stops at </s> or max_len tokens."""
        state = self.initial_state(c)
        prev = START_ID
        ids: list = []
        for _ in range(max_len):
            probs, state = self.step(state, prev)
            p = probs.copy()
            p[START_ID] = 0.0
            p[UNK_ID] = 0.0
            p /= p.sum()
            tok = int(rng.choice(len(p), p=p))
            if tok == END_ID:
                break
            ids.append(tok)
            prev = tok
        return _description(self.vocab.decode(ids))

    def predict_top1(self, c, beam_width: int = DEFAULT_BEAM_WIDTH,
                     max_len: int = DEFAULT_MAX_LEN) -> Description:
        """Highest-probability complete description found by beam search.

        At each depth the beam keeps the ``beam_width`` best one-token
        extensions of its live hypotheses by score, with ties going to the
        lexicographically smaller id tuple; every (hypothesis, token) pair
        is a candidate, with no cap. A width-1 (greedy) pass runs
        alongside wider beams and the better completion wins, so widening
        the beam never hurts the returned score. Ties between completions
        also break toward the smaller id tuple.
        """
        _check_generation_args(beam_width, max_len)
        best = self._beam(c, beam_width, max_len)
        if beam_width > 1:
            greedy = self._beam(c, 1, max_len)
            if (-greedy[0], greedy[1]) < (-best[0], best[1]):
                best = greedy
        return _description(self.vocab.decode(best[1]))

    def _beam(self, c, width: int, max_len: int):
        """Returns (logp, content token ids) of the completion minimizing
        (-logp, ids); every score includes the </s> step. Each depth
        records every live completion, then keeps the ``width`` best
        finite extensions by (-score, ids), never <s>, <unk> or </s>. The
        search stops when none is left or the best completion so far
        scores strictly above the best extension."""
        feats1, _ = self.featurize(_as_color_array(c))
        h_arr, c_arr = nn.sequence_initial_state(self.params, self.config, feats1)
        V = len(self.vocab)
        live_ids = np.zeros((1, 0), dtype=np.int64)
        # all live ids have one length, so a child's lexicographic order
        # is (parent rank, token)
        live_rank = np.zeros(1, dtype=np.int64)
        live_logp = np.zeros(1, dtype=np.float64)
        prev = np.array([START_ID], dtype=np.int64)
        best = None  # (-logp, ids) of the best completion so far

        for depth in range(max_len + 1):
            probs, h_new, c_new = nn.sequence_step_probs(
                self.params, self.config, np.repeat(feats1, len(prev), axis=0),
                prev, h_arr, c_arr)
            with np.errstate(divide="ignore"):
                step_logp = np.log(probs)
            completed = live_logp + step_logp[:, END_ID]
            tied = np.flatnonzero(completed == completed.max())
            i = tied[np.argmin(live_rank[tied])]
            cand = (-completed[i], tuple(live_ids[i].tolist()))
            if best is None or cand < best:
                best = cand
            if depth == max_len:
                break
            scores = live_logp[:, None] + step_logp
            scores[:, [START_ID, UNK_ID, END_ID]] = -np.inf
            flat = scores.ravel()
            keep = np.isfinite(flat)
            if keep.sum() > width:
                keep &= flat >= np.partition(flat[keep], -width)[-width]
            pos = np.flatnonzero(keep)
            if pos.size == 0:
                break
            parent, tok = np.divmod(pos, V)
            sel = np.lexsort((tok, live_rank[parent], -flat[pos]))[:width]
            pos, parent, tok = pos[sel], parent[sel], tok[sel]
            if -best[0] > flat[pos[0]]:
                break
            live_rank = np.argsort(np.argsort(live_rank[parent] * V + tok))
            live_ids = np.column_stack([live_ids[parent], tok])
            live_logp, prev = flat[pos], tok
            h_arr, c_arr = h_new[parent], c_new[parent]

        return -best[0], best[1]


# ---------------------------------------------------------------------------
# atomic classifier


class AtomicModel(_InventoryModel):
    """Softmax over the inventory of distinct training descriptions.

    Descriptions outside the inventory have probability zero; metric
    code decides how to surface that.
    """

    family = "atomic"

    @classmethod
    def build(cls, config: TrainingConfig, inventory: list, scheme: str,
              rng=None) -> "AtomicModel":
        if not inventory:
            raise ConfigError("atomic model needs a nonempty description inventory")
        params = cls._init_params(config, scheme, len(inventory), rng)
        return cls(config, list(inventory), scheme, params)

    def class_logprobs(self, colors: np.ndarray) -> np.ndarray:
        feats, _ = self.featurize(colors)
        return nn.atomic_logprobs(self.params, self.config, feats)

    def score_token_batch(self, colors: np.ndarray, token_seqs: list) -> np.ndarray:
        """Log probability of each description given its color row;
        -inf outside the inventory."""
        cls_ids = _class_ids(self.index, token_seqs)
        out = np.full(len(cls_ids), -np.inf, dtype=np.float64)
        known = np.flatnonzero(cls_ids >= 0)

        def score_chunk(lo, hi):
            rows = known[lo:hi]
            feats, _ = self.featurize(colors[rows])
            out[rows] = nn.atomic_target_logprobs(self.params, self.config, feats,
                                                  cls_ids[rows])

        _map_chunks(len(known), score_chunk)
        return out

    score_dataset = _score_dataset
    score_color_array = _score_color_array

    def sample(self, c, rng, max_len: int = DEFAULT_MAX_LEN) -> Description:
        p = np.exp(self.class_logprobs(_as_color_array(c))[0])
        p /= p.sum()
        return self._description(int(rng.choice(len(p), p=p)))

    def predict_top1(self, c, beam_width: int = DEFAULT_BEAM_WIDTH,
                     max_len: int = DEFAULT_MAX_LEN) -> Description:
        _check_generation_args(beam_width, max_len)
        lp = self.class_logprobs(_as_color_array(c))[0]
        return self._description(int(np.argmax(lp)))


# ---------------------------------------------------------------------------
# histogram baseline


class HistogramModel(_InventoryModel):
    """Add-one-smoothed description counts per color bucket with strict
    backoff to the first resolution whose bucket is nonempty.

    ``counts[r]`` holds resolution r (fine, mid, global) as an (n, 3)
    int32 array of (bucket, class, count) rows sorted by (bucket, class)
    with every count >= 1, exactly as the checkpoint stores it. The
    global level must be nonempty.
    """

    family = "histogram"

    def __init__(self, config: TrainingConfig, inventory: list, counts: list,
                 epochs_trained: float = 1.0):
        self.counts = list(counts)
        super().__init__(config, inventory, "buckets",
                         {f"counts.{name}": level
                          for name, level in zip(HISTOGRAM_LEVELS, self.counts)},
                         epochs_trained)
        # all levels in one cell space: cell = level offset + bucket id,
        # row key = cell * C + class, increasing across the joined rows
        rows = np.concatenate(self.counts).astype(np.int64)
        level_sizes = [len(lvl) for lvl in self.counts]
        cells = rows[:, 0] + np.repeat(_LEVEL_OFFSETS, level_sizes)
        self._keys = cells * len(self.inventory) + rows[:, 1]
        self._row_counts = rows[:, 2]
        self._totals = np.bincount(cells, weights=self._row_counts,
                                   minlength=sum(BUCKET_SIZES)).astype(np.int64)

    @classmethod
    def build(cls, config: TrainingConfig, train: Dataset) -> "HistogramModel":
        if len(train) == 0:
            raise ConfigError("histogram model needs a nonempty dataset")
        inventory, cls_ids = _inventory(train)
        C = len(inventory)
        idx = bucket_index_array(train.colors)
        counts = []
        for r in range(len(BUCKET_GRIDS)):
            keys, n = np.unique(idx[:, r] * C + cls_ids, return_counts=True)
            counts.append(np.column_stack([keys // C, keys % C, n]).astype(np.int32))
        return cls(config, inventory, counts)

    @property
    def param_count(self) -> int:
        """(inventory - 1) free probabilities per nonempty bucket."""
        return (len(self.inventory) - 1) * int(np.count_nonzero(self._totals))

    def _backoff(self, colors: np.ndarray):
        """(cell, total) per color row: the fine bucket if it has counts,
        else the mid bucket if it has, else the global one."""
        cells = bucket_index_array(colors) + _LEVEL_OFFSETS
        totals = self._totals[cells]
        level = np.argmax(totals > 0, axis=1)
        rows = np.arange(len(cells))
        return cells[rows, level], totals[rows, level]

    def score_token_batch(self, colors: np.ndarray, token_seqs: list) -> np.ndarray:
        """Log of (count + 1) / (total + C) in each row's backed-off bucket;
        a description outside the inventory has count 0."""
        C = len(self.inventory)
        cls_ids = _class_ids(self.index, token_seqs)
        cell, total = self._backoff(colors)
        query = cell * C + cls_ids
        pos = np.minimum(np.searchsorted(self._keys, query), len(self._keys) - 1)
        # class -1 would alias the last class of the previous cell
        hit = (cls_ids >= 0) & (self._keys[pos] == query)
        count = np.where(hit, self._row_counts[pos], 0)
        return np.log((count + 1.0) / (total + C))

    score_dataset = _score_dataset
    score_color_array = _score_color_array

    def _bucket_rows(self, c):
        """Row slice of c's backed-off bucket, and its total."""
        cell, total = self._backoff(_as_color_array(c))
        C = len(self.inventory)
        lo, hi = np.searchsorted(self._keys, [cell[0] * C, (cell[0] + 1) * C])
        return slice(lo, hi), int(total[0])

    def sample(self, c, rng, max_len: int = DEFAULT_MAX_LEN) -> Description:
        rows, total = self._bucket_rows(c)
        C = len(self.inventory)
        p = np.ones(C, dtype=np.float64)
        p[self._keys[rows] % C] += self._row_counts[rows]
        return self._description(int(rng.choice(C, p=p / (total + C))))

    def predict_top1(self, c, beam_width: int = DEFAULT_BEAM_WIDTH,
                     max_len: int = DEFAULT_MAX_LEN) -> Description:
        _check_generation_args(beam_width, max_len)
        # rows are sorted by class, so argmax ties go to the smaller key
        rows, _ = self._bucket_rows(c)
        best = rows.start + int(np.argmax(self._row_counts[rows]))
        return self._description(int(self._keys[best] % len(self.inventory)))


# ---------------------------------------------------------------------------
# training


def _monitor_perplexity(model, ds: Dataset) -> float:
    """Per-description perplexity for the training monitor, as ``eval
    --allow-zero`` computes it: items the model cannot represent (atomic
    dev OOV) are excluded, and inf is returned when none is left."""
    log2p = per_item_log2(model, ds)
    if not np.isfinite(log2p).any():
        return math.inf
    return perplexity_from_log2(log2p, on_zero="exclude")[0]


def _first_nonfinite(params: dict) -> str:
    for name, value in params.items():
        if not np.isfinite(value).all():
            return f"first non-finite parameter: {name}"
    return "every parameter is finite"


def _neural_train_loop(model, config: TrainingConfig, train: Dataset, batch_grads,
                       monitor_ds: Dataset, monitor_name: str):
    """Shared minibatch/Adagrad/early-stopping driver.

    ``batch_grads(feats, batch, rng)`` runs the family's forward and
    backward passes on the featurized batch (rows ``batch`` of train) and
    returns the gradients, with the gradient of the featurized input
    under "feats"; the driver scatters that one into the bucket
    embedding tables. Dev perplexity is checked
    ``evals_per_epoch`` times per epoch; training stops after
    ``patience`` consecutive non-improving checks and the best parameters
    are restored.
    """
    opt = nn.Adagrad(model.params, config.learning_rate, config.adagrad_eps)
    rng = np.random.default_rng([config.seed, 1])
    history = []
    best_ppl = math.inf
    best_params = None
    best_epoch = 0.0
    stale = 0
    n_items = len(train)
    n_batches = max(1, math.ceil(n_items / config.batch_size))
    eval_points = {
        math.ceil(n_batches * k / config.evals_per_epoch) - 1
        for k in range(1, config.evals_per_epoch + 1)
    }
    stop = False
    epoch = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_items)
        for b in range(n_batches):
            batch = order[b * config.batch_size : (b + 1) * config.batch_size]
            feats, idx = model.featurize(train.colors[batch])
            try:
                grads = batch_grads(feats, batch, rng)
            except TrainingDivergence as exc:
                raise TrainingDivergence(
                    f"{exc} at epoch {epoch}, batch {b} of {n_batches}; "
                    f"{_first_nonfinite(model.params)}") from exc
            dfeats = grads.pop("feats")
            if idx is not None:
                E = config.bucket_embedding_dim
                for r, name in enumerate(BUCKET_PARAM_NAMES):
                    grads[name] = np.zeros_like(model.params[name])
                    np.add.at(grads[name], idx[:, r], dfeats[:, r * E : (r + 1) * E])
            opt.update(model.params, grads)
            if b in eval_points:
                frac = epoch - 1 + (b + 1) / n_batches
                ppl = _monitor_perplexity(model, monitor_ds)
                history.append({"epoch": round(frac, 4), "split": monitor_name,
                                "perplexity": ppl})
                if ppl < best_ppl:
                    best_ppl = ppl
                    best_params = {k: v.copy() for k, v in model.params.items()}
                    best_epoch = frac
                    stale = 0
                else:
                    stale += 1
                    if stale >= config.patience:
                        stop = True
                        break
        if stop:
            break
    if best_params is not None:
        model.params.update(best_params)
        model.epochs_trained = best_epoch
    else:
        model.epochs_trained = float(epoch)
    return history


def _train_sequence(train: Dataset, config: TrainingConfig, scheme: str,
                    monitor: Dataset, monitor_name: str):
    vocab = Vocabulary.build(train)
    model = SequenceDecoderModel.build(config, vocab, scheme)
    enc = encode_dataset(train, vocab)

    def batch_grads(feats, batch, rng):
        _, cache = nn.sequence_forward(model.params, config, feats,
                                       *enc.teacher_forcing(batch), train=True,
                                       rng=rng)
        return nn.sequence_backward(cache)

    return model, _neural_train_loop(model, config, train, batch_grads,
                                     monitor, monitor_name)


def _train_atomic(train: Dataset, config: TrainingConfig, scheme: str,
                  monitor: Dataset, monitor_name: str):
    inventory, targets_all = _inventory(train)
    model = AtomicModel.build(config, inventory, scheme)

    def batch_grads(feats, batch, rng):
        _, cache = nn.atomic_forward(model.params, config, feats,
                                     targets_all[batch], train=True, rng=rng)
        return nn.atomic_backward(cache)

    return model, _neural_train_loop(model, config, train, batch_grads,
                                     monitor, monitor_name)


def train_model(family: str, train: Dataset, config: TrainingConfig,
                scheme: str = "fourier", dev: Dataset | None = None):
    """Train a model of the given family; returns (model, history) where
    history is a list of {epoch, split, perplexity} records."""
    config.validate()
    if len(train) == 0:
        raise ConfigError("training dataset is empty")
    monitor = dev if dev is not None and len(dev) else train
    monitor_name = "dev" if monitor is dev else "train"
    if family == "sequence":
        return _train_sequence(train, config, scheme, monitor, monitor_name)
    if family == "atomic":
        return _train_atomic(train, config, scheme, monitor, monitor_name)
    if family == "histogram":
        if scheme != "buckets":
            raise ConfigError("histogram family is defined over buckets only")
        model = HistogramModel.build(config, train)
        history = [{"epoch": 1.0, "split": monitor_name,
                    "perplexity": _monitor_perplexity(model, monitor)}]
        return model, history
    raise ConfigError(f"unknown model family {family!r}")


# ---------------------------------------------------------------------------
# checkpoint persistence


def _expected_shapes(family: str, cfg: TrainingConfig, scheme: str,
                     n_words: int) -> dict:
    """Tensor name -> shape; None stands for a dimension of any size.
    ``n_words`` is the vocabulary or inventory size."""
    if family == "histogram":
        return {f"counts.{name}": (None, 3) for name in HISTOGRAM_LEVELS}
    return {name: shape for name, shape, _ in _layout(family, cfg, scheme, n_words)}


def _check_histogram_counts(counts: list, C: int) -> None:
    """Reject count rows the backoff cannot use: wrong dtype, ids out of
    range, counts below 1, rows out of (bucket, class) order, or an
    empty global level."""
    for name, level, size in zip(HISTOGRAM_LEVELS, counts, BUCKET_SIZES):
        what = f"tensor 'counts.{name}'"
        if level.dtype != np.int32:
            raise CheckpointError(f"{what} has dtype {level.dtype}, expected int32")
        bucket, cls_id, n = level.T.astype(np.int64)
        if ((bucket < 0) | (bucket >= size)).any():
            raise CheckpointError(f"{what} has a bucket id outside [0, {size})")
        if ((cls_id < 0) | (cls_id >= C)).any():
            raise CheckpointError(f"{what} has a class id outside [0, {C})")
        if (n < 1).any():
            raise CheckpointError(f"{what} has a count below 1")
        if (np.diff(bucket * C + cls_id) <= 0).any():
            raise CheckpointError(
                f"{what} rows are not strictly increasing by (bucket, class)")
    if len(counts[-1]) == 0:
        raise CheckpointError("histogram checkpoint has an empty global level")


def save_checkpoint(model, path) -> None:
    header = {
        "family": model.family,
        "scheme": model.scheme,
        "config": model.config.to_dict(),
        "features": FEATURE_CONSTANTS,
        "meta": {
            "seed": model.config.seed,
            "prng": PRNG_ID,
            "epochs_trained": model.epochs_trained,
        },
    }
    if model.family == "sequence":
        header["vocab"] = model.vocab.id_to_token
    else:
        header["inventory"] = [" ".join(k) for k in model.inventory]
    write_checkpoint(path, header, model.params)


def load_checkpoint(path, expect_family: str | None = None):
    header, tensors = read_checkpoint(path)
    family = header.get("family")
    if family not in FAMILIES:
        raise CheckpointError(f"checkpoint has unknown family tag {family!r}")
    if expect_family is not None and family != expect_family:
        raise CheckpointError(
            f"checkpoint holds a {family} model, expected {expect_family}")
    if header.get("features") != FEATURE_CONSTANTS:
        raise CheckpointError(
            "checkpoint was written with different featurizer constants")
    cfg, epochs, words = _header_fields(family, header)

    expected = _expected_shapes(family, cfg, header.get("scheme"), len(words))
    if set(expected) != set(tensors):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise CheckpointError(
            f"checkpoint tensor set mismatch (missing {missing}, extra {extra})")
    for name, shape in expected.items():
        got = tensors[name].shape
        if len(got) != len(shape) or any(w is not None and g != w
                                         for g, w in zip(got, shape)):
            raise CheckpointError(
                f"tensor {name!r} has shape {got}, expected {shape}")
    if family == "sequence":
        try:
            vocab = Vocabulary(words)
        except CorpusError as exc:
            raise CheckpointError(f"checkpoint vocabulary is invalid: {exc}") from exc
        return SequenceDecoderModel(cfg, vocab, header["scheme"], tensors,
                                    epochs_trained=epochs)
    inventory = [s.split(" ") for s in words]
    if family == "histogram":
        counts = [tensors[f"counts.{name}"] for name in HISTOGRAM_LEVELS]
        _check_histogram_counts(counts, len(inventory))
        return HistogramModel(cfg, inventory, counts, epochs_trained=epochs)
    return AtomicModel(cfg, inventory, header["scheme"], tensors,
                       epochs_trained=epochs)


# JSON types a config field may hold, by the type of its default
_CONFIG_KINDS = {float: (int, float), int: (int,), str: (str,)}


def _header_fields(family: str, header: dict):
    """(config, epochs trained, vocabulary or inventory strings) of a
    checkpoint header, with the scheme, each checked for type and value;
    a bad field is a CheckpointError."""
    fields = header.get("config")
    if not isinstance(fields, dict):
        raise CheckpointError("checkpoint header has no config object")
    for name in TrainingConfig.__dataclass_fields__:
        kinds = _CONFIG_KINDS[type(getattr(TrainingConfig, name))]
        if name in fields and type(fields[name]) not in kinds:
            raise CheckpointError(
                f"checkpoint config field {name!r} has a bad value {fields[name]!r}")
    try:
        cfg = TrainingConfig.from_dict(fields)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc
    meta = header.get("meta", {})
    epochs = meta.get("epochs_trained", 0.0) if isinstance(meta, dict) else None
    # compared before float() so that a huge int cannot overflow
    if type(epochs) not in (int, float) or not 0 <= epochs < 2**53:
        raise CheckpointError(f"checkpoint has a bad epochs_trained {epochs!r}")
    key = "vocab" if family == "sequence" else "inventory"
    words = header.get(key)
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise CheckpointError(f"checkpoint {key} is not a list of strings")
    if family != "histogram" and header.get("scheme") not in SCHEMES:
        raise CheckpointError(
            f"checkpoint has unknown feature scheme {header.get('scheme')!r}")
    return cfg, float(epochs), words
