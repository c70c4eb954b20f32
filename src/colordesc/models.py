"""The three model families over color-conditioned descriptions:

* ``sequence``: LSTM decoder emitting one token at a time, softmax over
  the full vocabulary at every step (the conditional language model).
* ``atomic``: feed-forward classifier whose output classes are the
  distinct full descriptions seen in training.
* ``histogram``: smoothed per-bucket description counts with strict
  finest-first backoff (90x10x10 -> 45x5x5 -> 1x1x1).

All families derive from ``_Model``, which holds the config, feature
scheme, parameter tensors and epochs trained and featurizes colors;
atomic and histogram also share an inventory of descriptions and one
sampler over it. Each family has one scoring path,
``score_token_batch(colors, token_seqs, codes)``; score_description,
score_dataset and score_color_array only adapt their arguments to it.
Likewise each family decodes and samples many colors per call,
``predict_top1_batch`` and ``sample_batch``; predict_top1 and sample
are their one-row calls. Scores are natural-log probabilities; metric
code converts to bits where needed.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cached_property

import numpy as np

from . import nn
from .checkpoint import read_checkpoint, write_checkpoint
from .corpus import (
    Dataset,
    Description,
    EncodedDataset,
    END_ID,
    RESERVED_TOKENS,
    START_ID,
    UNK_ID,
    Vocabulary,
    encode_dataset,
    tokenize,
    tokens_of,
)
from .errors import CheckpointError, ConfigError, TrainingDivergence
from .evaluation import (DEFAULT_BEAM_WIDTH, check_generation_args, per_item_log2,
                         perplexity_from_log2)
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

_SCORE_BATCH = 512  # whole nn.TILE tiles: only a call's last tile is padded

def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


# Scoring runs its chunks on the calling thread and on pool threads, at
# most one for each other usable CPU, as read at import; numpy releases
# the interpreter lock inside its kernels. The pool starts a thread at
# the first call that needs one and keeps it. A forked child has none of
# the pool's threads, so it makes a new pool.
def _make_pool() -> None:
    global _pool
    _pool = ThreadPoolExecutor(max(1, _usable_cpus() - 1),
                               thread_name_prefix="colordesc-score")


_make_pool()
if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_make_pool)


def _map_chunks(n: int, score_chunk) -> None:
    """``score_chunk(lo, hi)`` for every ``_SCORE_BATCH``-row chunk
    [lo, hi) of n rows, on one thread per chunk up to one per usable CPU,
    so that a call of two chunks already runs on two CPUs. Each chunk is
    computed as it would be alone and writes only its own rows, so
    results do not depend on the number of threads. An error is raised
    once every worker has stopped; no worker starts a chunk after it."""
    if n <= _SCORE_BATCH:
        if n:
            score_chunk(0, n)
        return
    todo = iter(range(0, n, _SCORE_BATCH))
    workers = min(-(-n // _SCORE_BATCH), _usable_cpus())
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

    futures = [_pool.submit(drain) for _ in range(workers - 1)]
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

# the lowest finite float64: a floor that keeps every finite score
_LOWEST = np.finfo(np.float64).min

# first cell of each resolution when the three are numbered as one space
_LEVEL_OFFSETS = np.cumsum((0,) + BUCKET_SIZES[:-1])


def _as_color_array(c) -> np.ndarray:
    arr = np.asarray(c, dtype=np.float64)
    return arr.reshape(1, 3) if arr.ndim == 1 else arr


def _class_ids(index: dict, token_seqs, codes) -> np.ndarray:
    """Class id of each row's token list, -1 outside the inventory."""
    return np.array([index.get(tuple(t), -1) for t in token_seqs], dtype=np.int64)[codes]


def _inventory(train: Dataset):
    """The sorted distinct keys of ``train`` and each row's class id."""
    keys = [d.key() for d in train.table]
    inventory = sorted(set(keys))
    return inventory, _class_ids({k: i for i, k in enumerate(inventory)}, keys, train.codes)


def _check_inventory(texts) -> None:
    """The inventory rule, on an inventory's keys joined by spaces as a
    checkpoint stores them: a nonempty list of distinct strings, each a
    key that a text can have, so nonempty and equal to its tokens joined
    by single spaces (no capital, no empty token, no other whitespace)."""
    if not isinstance(texts, list) or not all(isinstance(s, str) for s in texts):
        raise ConfigError("description inventory is not a list of strings")
    if not texts:
        raise ConfigError("description inventory is empty")
    if len(set(texts)) != len(texts):
        raise ConfigError("description inventory contains duplicate descriptions")
    for s in texts:
        if not s or s != " ".join(tokenize(s)):
            raise ConfigError(f"description inventory entry {s!r} has an empty token, "
                              "a capital or whitespace other than single spaces")


def _description(tokens) -> Description:
    tokens = list(tokens)
    return Description(raw=" ".join(tokens), tokens=tokens)


def _draw(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The index that each row of probabilities ``p`` yields for its
    uniform ``u``, as ``rng.choice(len(row), p=row)`` computes it from the
    same uniform: the number of entries of the row's cumulative sum,
    divided by its last entry, that are <= u."""
    cdf = np.cumsum(p, axis=1)
    total = cdf[:, -1:].copy()  # a view would make ``cdf /=`` copy all of cdf
    if not (total > 0).all():  # rng.choice raises on such a row too
        raise ValueError("a row to draw from has no probability mass")
    cdf /= total
    return (cdf <= u[:, None]).sum(axis=1)


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a < b between id tuples stored as rows padded with -1, so
    that a tuple sorts before every longer tuple it starts."""
    if a.shape[1] == 0:
        return np.zeros(len(a), dtype=bool)
    diff = a != b
    j = np.argmax(diff, axis=1)
    rows = np.arange(len(a))
    return diff[rows, j] & (a[rows, j] < b[rows, j])


def _layout(family: str, cfg: TrainingConfig, scheme: str, n_words: int) -> list:
    """(name, shape, dtype, init) of every tensor of a model, which a
    checkpoint must match. A neural family draws them in list order: its
    own, then for ``buckets`` the bucket embedding tables. The histogram's
    are its count levels, any number (a None length) of int32 rows, with
    no init. ``n_words`` is the vocabulary or inventory size."""
    if family == "histogram":
        return [(f"counts.{name}", (None, 3), np.int32, None) for name in HISTOGRAM_LEVELS]
    F = feature_dim(scheme, cfg.bucket_embedding_dim)
    layout = (nn.sequence_layout(cfg, n_words, F) if family == "sequence"
              else nn.atomic_layout(cfg, F, n_words))
    if scheme == "buckets":
        E = cfg.bucket_embedding_dim
        layout += [(name, (size, E), cfg.np_dtype, nn.normal(cfg.embedding_sigma))
                   for name, size in zip(BUCKET_PARAM_NAMES, BUCKET_SIZES)]
    return layout


class _Model:
    """What the three families share. ``params`` holds the tensors a
    checkpoint stores, by name: the neural weights, or the histogram's
    counts."""

    def __init__(self, config: TrainingConfig, scheme: str, params: dict,
                 epochs_trained: float = 0.0):
        check_family_scheme(self.family, scheme)
        # compared before float() so that a huge int cannot overflow
        if type(epochs_trained) not in (int, float) or not 0 <= epochs_trained < 2**53:
            raise ConfigError(f"bad epochs_trained {epochs_trained!r}")
        self.config = config
        self.scheme = scheme
        self.params = params
        self.epochs_trained = float(epochs_trained)

    def __init_subclass__(cls, **kwargs):
        # perfbench's tracer wraps the attributes a family class holds
        # itself, so each class gets the shared adapters in its own dict
        super().__init_subclass__(**kwargs)
        for name in ("score_dataset", "score_color_array", "predict_top1", "sample"):
            setattr(cls, name, getattr(cls, name))

    @classmethod
    def _init_params(cls, config: TrainingConfig, scheme: str, n_words: int) -> dict:
        """A neural family's initial parameters, drawn in ``_layout``
        order from a generator seeded by the config."""
        config.validate()
        return nn.init_params(_layout(cls.family, config, scheme, n_words),
                              np.random.default_rng(config.seed))

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
        return float(self.score_color_array(_as_color_array(c), d)[0])

    def score_dataset(self, ds: Dataset) -> np.ndarray:
        return self.score_token_batch(ds.colors, [d.tokens for d in ds.table], ds.codes)

    def score_color_array(self, colors: np.ndarray, d) -> np.ndarray:
        """One description (text, tokens or Description) scored against many
        colors (grid queries)."""
        tokens = tokens_of(d)
        if not tokens:
            raise ValueError("cannot score an empty description")
        return self.score_token_batch(np.asarray(colors, dtype=np.float64), [tokens],
                                      np.zeros(len(colors), dtype=np.intp))

    def predict_top1(self, c, beam_width: int = DEFAULT_BEAM_WIDTH,
                     max_len: int = DEFAULT_MAX_LEN) -> Description:
        """The most likely description of color c: ``predict_top1_batch`` on
        one row."""
        check_generation_args(beam_width, max_len)
        return _description(self._top1_batch(_as_color_array(c), beam_width, max_len)[0])

    def sample(self, c, rng, max_len: int = DEFAULT_MAX_LEN) -> Description:
        """One draw for color c: ``sample_batch`` on one row."""
        return _description(self.sample_batch(_as_color_array(c), rng, max_len)[0])

    def predict_top1_batch(self, colors, beam_width: int = DEFAULT_BEAM_WIDTH,
                           max_len: int = DEFAULT_MAX_LEN) -> list:
        """The most likely description of each (N, 3) color row, as a
        token tuple; row i equals ``predict_top1(colors[i]).key()``. A
        class whose ``predict_top1`` is not the family's one-row call of
        this method (a subclass's own, or a wrapper set on the class, as
        perfbench's tracer sets) is decoded one color at a time through
        it, so that the two never disagree."""
        check_generation_args(beam_width, max_len)
        colors = _as_color_array(colors)
        if type(self).predict_top1 is not _Model.predict_top1:
            return [self.predict_top1(c, beam_width, max_len).key() for c in colors]
        return self._top1_batch(colors, beam_width, max_len)


class _InventoryModel(_Model):
    """A family whose outcomes are the distinct training descriptions.
    It supplies ``_class_probs(colors)``, the (n, C) float64 distribution
    over the inventory of each of at most ``nn.TILE`` color rows, which
    ``sample_batch`` draws from one tile of rows at a time."""

    def __init__(self, config: TrainingConfig, inventory: list, scheme: str,
                 params: dict, epochs_trained: float = 0.0):
        super().__init__(config, scheme, params, epochs_trained)
        self.inventory = [tuple(k) for k in inventory]
        self.index = {k: i for i, k in enumerate(self.inventory)}

    def sample_batch(self, colors, rng, max_len: int = DEFAULT_MAX_LEN) -> list:
        """One inventory description per color row, drawn from the row's
        ``_class_probs`` with uniform ``rng.random(N)[i]``."""
        check_generation_args(max_len=max_len)
        colors = _as_color_array(colors)
        u = rng.random(len(colors))
        drawn = np.empty(len(colors), dtype=np.int64)

        def sample_chunk(lo, hi):
            for a in range(lo, hi, nn.TILE):
                b = min(a + nn.TILE, hi)
                drawn[a:b] = _draw(self._class_probs(colors[a:b]), u[a:b])

        _map_chunks(len(colors), sample_chunk)
        return [self.inventory[k] for k in drawn.tolist()]


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
    def build(cls, config: TrainingConfig, vocab: Vocabulary,
              scheme: str) -> "SequenceDecoderModel":
        params = cls._init_params(config, scheme, len(vocab))
        return cls(config, vocab, scheme, params)

    # -- scoring

    def score_token_batch(self, colors: np.ndarray, token_seqs: list, codes) -> np.ndarray:
        """Log probability of row i's full description ``token_seqs[codes[i]]``,
        </s> included, given its color row. OOV tokens score as <unk>.
        Chunks are cut from the call's rows ordered longest first, so a
        chunk runs only the steps its own rows need."""
        enc = EncodedDataset(*self.vocab.encode_batch(token_seqs), codes)
        order = np.argsort(-np.diff(enc.offsets)[enc.codes], kind="stable")
        out = np.empty(len(enc), dtype=np.float64)

        def score_chunk(lo, hi):
            rows = order[lo:hi]
            feats, _ = self.featurize(colors[rows])
            out[rows] = nn.sequence_logprobs(
                self.params, self.config, feats, *enc.teacher_forcing(rows))

        _map_chunks(len(enc), score_chunk)
        return out

    # -- incremental decoding (also the enumeration probe used in tests)

    def initial_state(self, colors):
        """(feats, h0, c0) of one color or of each (N, 3) color row."""
        feats, _ = self.featurize(_as_color_array(colors))
        return (feats,) + nn.sequence_start_state(self.params, self.config, feats)

    def step(self, state, prev_id: int):
        """Next-token distribution (float64, sums to 1) after feeding
        prev_id, plus the advanced state."""
        feats, h, c = state
        probs, h2, c2 = nn.sequence_step_probs(self.params, self.config, feats,
                                               np.array([prev_id], dtype=np.int64), h, c)
        return probs[0], (feats, h2, c2)

    # -- generation

    def sample_batch(self, colors, rng, max_len: int = DEFAULT_MAX_LEN) -> list:
        """One ancestral sample per color row, as a token tuple; <s> and
        <unk> are never emitted (their mass is renormalized away). A row
        stops at </s> or after max_len tokens. Row i draws its t-th token
        with uniform ``u[i, t]`` of ``u = rng.random((N, max_len))``, so
        the draws do not depend on how rows are chunked."""
        check_generation_args(max_len=max_len)
        colors = _as_color_array(colors)
        n = len(colors)
        u = rng.random((n, max_len))
        ids = np.zeros((n, max_len), dtype=np.int64)
        lengths = np.full(n, max_len)

        def sample_chunk(lo, hi):
            feats, h, c = self.initial_state(colors[lo:hi])
            rows = np.arange(lo, hi)  # rows still sampling
            tok = np.full(hi - lo, START_ID, dtype=np.int64)
            neg_w = nn.negated_peepholes(self.params, 1)
            for t in range(max_len):
                p, h, c = nn.sequence_step_probs(self.params, self.config, feats, tok, h, c,
                                                 neg_w=neg_w)
                p[:, START_ID] = 0.0
                p[:, UNK_ID] = 0.0
                p /= p.sum(axis=1, keepdims=True)
                tok = _draw(p, u[rows, t])
                go = tok != END_ID
                if not go.all():
                    lengths[rows[~go]] = t
                    rows, feats, tok, h, c = rows[go], feats[go], tok[go], h[go], c[go]
                    if not rows.size:
                        break
                ids[rows, t] = tok

        _map_chunks(n, sample_chunk)
        return [tuple(self.vocab.decode(row[:k]))
                for row, k in zip(ids.tolist(), lengths.tolist())]

    def _top1_batch(self, colors: np.ndarray, width: int, max_len: int) -> list:
        out = [None] * len(colors)

        def decode_chunk(lo, hi):
            out[lo:hi] = [tuple(self.vocab.decode(ids))
                          for ids in self._top1_ids(colors[lo:hi], width, max_len)[1]]

        _map_chunks(len(colors), decode_chunk)
        return out

    def _top1_ids(self, colors: np.ndarray, width: int, max_len: int):
        """(log probability, content token ids) of the completion that
        ``predict_top1`` returns for each color row. Beside a beam wider
        than 1 a greedy beam runs, and its completion wins if it is better,
        so widening the beam never hurts the returned score."""
        feats, h, c = self.initial_state(colors)
        with np.errstate(divide="ignore"):  # a zero probability's log is -inf
            logp, ids = self._beam(feats, h, c, width, max_len)
            if width > 1:
                greedy_logp, greedy = self._beam(feats, h, c, 1, max_len)
                wins = (greedy_logp > logp) | (
                    (greedy_logp == logp) & _lex_less(greedy, ids))
                ids = np.where(wins[:, None], greedy, ids)
                logp = np.where(wins, greedy_logp, logp)
        lengths = (ids >= 0).sum(axis=1).tolist()
        return logp, [tuple(row[:k]) for row, k in zip(ids.tolist(), lengths)]

    def _beam(self, feats, h, c, width: int, max_len: int):
        """Beam search from the initial states (h, c) of colors with
        features ``feats``: the log probability of each color's best
        completion, and its content token ids padded with -1 to max_len.

        One decode step per depth advances the live hypotheses of every
        color. A color's search records the best completion of its
        hypotheses (every score includes the </s> step), then keeps the
        ``width`` best finite one-token extensions, never <s>, <unk> or
        </s>; every (hypothesis, token) pair is a candidate, with no cap.
        The search stops when none is left or when its best completion so
        far scores strictly above its best extension; its rows then drop
        out. Completions and extensions are ranked by (-score, ids), ties
        going to the lexicographically smaller id tuple. A search keeps
        its hypotheses in id order, so an extension's rank is (hypothesis
        row, token).
        """
        n, V = len(feats), len(self.vocab)
        search = np.arange(n)  # color of each live hypothesis, ascending
        starts = group = search  # first row of each searching color; row's group
        # ids, padded with -1: a tuple sorts before the longer ones it starts
        ids = np.full((n, max_len), -1, dtype=np.int64)
        logp = np.zeros(n)
        prev = np.full(n, START_ID, dtype=np.int64)
        # before depth 0 every best is the empty completion at -inf, so a
        # depth-0 completion at -inf ties it and changes nothing
        best_logp = np.full(n, -np.inf)
        best_ids = ids.copy()
        neg_w = nn.negated_peepholes(self.params, 1)

        for depth in range(max_len + 1):
            probs, h_new, c_new = nn.sequence_step_probs(self.params, self.config,
                                                         feats[search], prev, h, c,
                                                         neg_w=neg_w)
            scores = np.log(probs, out=probs)

            # each search's best completion: stable, so ties keep id order
            done = logp + scores[:, END_ID]
            if len(starts) == len(search):
                act, pick = search, starts
            else:
                act, pick = search[starts], np.lexsort((-done, search))[starts]
            cand_logp = done[pick]
            old_logp = best_logp[act]
            better = cand_logp > old_logp
            tied = cand_logp == old_logp
            if tied.any():
                better |= tied & _lex_less(ids[pick], best_ids[act])
            if better.any():
                won = act[better]
                best_logp[won] = cand_logp[better]
                best_ids[won] = ids[pick[better]]
            if depth == max_len:
                break

            scores += logp[:, None]
            scores[:, :len(RESERVED_TOKENS)] = -np.inf  # <s>, </s>, <unk>
            if width == 1:
                # one row per search: its first best finite extension
                row = np.arange(len(search))
                tok = scores.argmax(axis=1)
                val = scores[row, tok]
                chosen = ((val > -np.inf) & ~(best_logp[search] > val)).nonzero()[0]
                starts = row[:len(chosen)]
            else:
                # a search's width best finite extensions score at least the
                # width-th best of any one of its rows: take the row with
                # its best extension. A width of V or more takes the row's
                # minimum, -inf on <s>, which floors at the lowest finite.
                top = np.lexsort((-scores.max(axis=1), search))[starts]
                k = max(V - width, 0)
                floor = np.partition(scores[top], k, axis=1)[:, k]
                floor = np.maximum(floor, _LOWEST)[group]
                row, tok = np.divmod((scores >= floor[:, None]).ravel().nonzero()[0], V)
                val = scores[row, tok]
                # stable: equal scores stay in (row, token) order
                order = np.lexsort((-val, search[row]))
                s, ranked = search[row[order]], val[order]
                first = s.searchsorted(s)
                take = (np.arange(len(s)) - first < width) & ~(best_logp[s] > ranked[first])
                chosen = order[take]
                chosen.sort()
            if not len(chosen):
                break
            parent = row[chosen]
            search = search[parent]
            if width > 1:
                new = np.empty(len(search), dtype=bool)
                new[0] = True
                np.not_equal(search[1:], search[:-1], out=new[1:])
                starts, group = new.nonzero()[0], new.cumsum() - 1
            ids = ids[parent]
            ids[:, depth] = tok[chosen]
            logp, prev = val[chosen], tok[chosen]
            h, c = h_new[parent], c_new[parent]
        return best_logp, best_ids


# ---------------------------------------------------------------------------
# atomic classifier


class AtomicModel(_InventoryModel):
    """Softmax over the inventory of distinct training descriptions.

    Descriptions outside the inventory have probability zero; metric
    code decides how to surface that.
    """

    family = "atomic"

    @classmethod
    def build(cls, config: TrainingConfig, inventory: list, scheme: str) -> "AtomicModel":
        _check_inventory([" ".join(k) for k in inventory])
        params = cls._init_params(config, scheme, len(inventory))
        return cls(config, list(inventory), scheme, params)

    def _class_probs(self, colors: np.ndarray) -> np.ndarray:
        """(n, C) class distribution of each color row, in float64."""
        return nn.softmax(nn.atomic_tile_logits(self.params, self.featurize(colors)[0]),
                          axis=1)

    def score_token_batch(self, colors: np.ndarray, token_seqs: list, codes) -> np.ndarray:
        """Log probability of row i's description ``token_seqs[codes[i]]``
        given its color row; -inf outside the inventory."""
        cls_ids = _class_ids(self.index, token_seqs, codes)
        out = np.full(len(cls_ids), -np.inf, dtype=np.float64)
        known = np.flatnonzero(cls_ids >= 0)

        def score_chunk(lo, hi):
            rows = known[lo:hi]
            feats, _ = self.featurize(colors[rows])
            out[rows] = nn.atomic_target_logprobs(self.params, self.config, feats,
                                                  cls_ids[rows])

        _map_chunks(len(known), score_chunk)
        return out

    def _top1_batch(self, colors: np.ndarray, width: int, max_len: int) -> list:
        """The argmax class of each row, ties to the smaller id, taken on
        the working-precision logits of each tile of rows
        (``nn.atomic_tile_logits``): the log-softmax only shifts a row."""
        best = np.empty(len(colors), dtype=np.int64)

        def decode_chunk(lo, hi):
            feats, _ = self.featurize(colors[lo:hi])
            out = best[lo:hi]
            for a in range(0, hi - lo, nn.TILE):
                rows = slice(a, a + nn.TILE)
                out[rows] = np.argmax(nn.atomic_tile_logits(self.params, feats[rows]),
                                      axis=1)

        _map_chunks(len(colors), decode_chunk)
        return [self.inventory[k] for k in best.tolist()]


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

    def score_token_batch(self, colors: np.ndarray, token_seqs: list, codes) -> np.ndarray:
        """Log of (count + 1) / (total + C) for ``token_seqs[codes[i]]`` in
        row i's backed-off bucket; outside the inventory the count is 0."""
        C = len(self.inventory)
        cls_ids = _class_ids(self.index, token_seqs, codes)
        cell, total = self._backoff(colors)
        query = cell * C + cls_ids
        pos = np.minimum(np.searchsorted(self._keys, query), len(self._keys) - 1)
        # class -1 would alias the last class of the previous cell
        hit = (cls_ids >= 0) & (self._keys[pos] == query)
        count = np.where(hit, self._row_counts[pos], 0)
        return np.log((count + 1.0) / (total + C))

    def _class_probs(self, colors: np.ndarray) -> np.ndarray:
        """(n, C) add-one-smoothed distribution of each color row's
        backed-off bucket."""
        C = len(self.inventory)
        cell, total = self._backoff(colors)
        # the count rows of each color's cell, one run per color
        first, last = (np.searchsorted(self._keys, (cell + k) * C) for k in (0, 1))
        sizes = last - first
        at = np.arange(sizes.sum()) + np.repeat(first - np.cumsum(sizes) + sizes, sizes)
        p = np.ones((len(cell), C))
        rows = np.repeat(np.arange(len(cell)), sizes)
        p[rows, self._keys[at] % C] += self._row_counts[at]
        p /= (total + C)[:, None]
        return p

    @cached_property
    def _best(self) -> np.ndarray:
        """The class of each nonempty cell's largest count, ties to the
        smaller class: the cell's largest count * C + (C - 1 - class).
        Made by the first top-1 call, as a model built only to be scored
        (each training of a histogram) never reads it."""
        C = len(self.inventory)
        cells, classes = np.divmod(self._keys, C)
        starts = np.flatnonzero(np.diff(cells, prepend=-1))
        top = np.maximum.reduceat(self._row_counts * C + (C - 1 - classes), starts)
        best = np.full(len(self._totals), -1, dtype=np.int64)
        best[cells[starts]] = C - 1 - top % C
        return best

    def _top1_batch(self, colors: np.ndarray, width: int, max_len: int) -> list:
        cell, _ = self._backoff(colors)
        return [self.inventory[k] for k in self._best[cell].tolist()]


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
    under "feats"; the loop adds that one into the rows of the bucket
    embedding tables that the batch looked up. Dev perplexity is checked
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
                    opt.update_rows(model.params, name, idx[:, r],
                                    dfeats[:, r * E : (r + 1) * E])
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


def check_family_scheme(family: str, scheme: str) -> None:
    """Reject an unknown family or scheme, or a scheme the family is not
    defined over, before any data is read."""
    if family not in FAMILIES:
        raise ConfigError(f"unknown model family {family!r}")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown feature scheme {scheme!r}")
    if family == "histogram" and scheme != "buckets":
        raise ConfigError("histogram family is defined over buckets only")


def train_model(family: str, train: Dataset, config: TrainingConfig,
                scheme: str = "fourier", dev: Dataset | None = None):
    """Train a model of the given family; returns (model, history) where
    history is a list of {epoch, split, perplexity} records."""
    check_family_scheme(family, scheme)
    config.validate()
    if len(train) == 0:
        raise ConfigError("training dataset is empty")
    monitor = dev if dev is not None and len(dev) else train
    monitor_name = "dev" if monitor is dev else "train"
    if family == "histogram":
        model = HistogramModel.build(config, train)
        return model, [{"epoch": 1.0, "split": monitor_name,
                        "perplexity": _monitor_perplexity(model, monitor)}]
    if family == "sequence":
        model = SequenceDecoderModel.build(config, Vocabulary.build(train), scheme)
        enc = encode_dataset(train, model.vocab)

        def batch_grads(feats, batch, rng):
            _, cache = nn.sequence_forward(model.params, config, feats,
                                           *enc.teacher_forcing(batch), rng=rng)
            return nn.sequence_backward(cache)
    else:
        inventory, targets_all = _inventory(train)
        model = AtomicModel.build(config, inventory, scheme)

        def batch_grads(feats, batch, rng):
            _, cache = nn.atomic_forward(model.params, config, feats,
                                         targets_all[batch], rng=rng)
            return nn.atomic_backward(cache)
    return model, _neural_train_loop(model, config, train, batch_grads,
                                     monitor, monitor_name)


# ---------------------------------------------------------------------------
# checkpoint persistence


def _check_histogram_counts(tensors: dict, C: int) -> None:
    """Reject count levels the backoff cannot use: an id out of range, a
    count below 1, rows not strictly increasing by (bucket, class), or an
    empty global level."""
    for name, size in zip(HISTOGRAM_LEVELS, BUCKET_SIZES):
        what = f"tensor 'counts.{name}'"
        bucket, cls_id, n = tensors[f"counts.{name}"].T.astype(np.int64)
        if ((bucket < 0) | (bucket >= size)).any():
            raise CheckpointError(f"{what} has a bucket id outside [0, {size})")
        if ((cls_id < 0) | (cls_id >= C)).any():
            raise CheckpointError(f"{what} has a class id outside [0, {C})")
        if (n < 1).any():
            raise CheckpointError(f"{what} has a count below 1")
        if (np.diff(bucket * C + cls_id) <= 0).any():
            raise CheckpointError(
                f"{what} rows are not strictly increasing by (bucket, class)")
    if len(tensors["counts.global"]) == 0:
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


def load_checkpoint(path):
    """The model a checkpoint file holds. Its tensors must match the
    family's ``_layout`` in name, shape and dtype; each header field is
    checked by the rule that makes a model of it. A fault of the file is
    a CheckpointError."""
    header, tensors = read_checkpoint(path)
    if header.get("features") != FEATURE_CONSTANTS:
        raise CheckpointError(
            "checkpoint was written with different featurizer constants")
    family, scheme = header.get("family"), header.get("scheme")
    meta = header.get("meta", {})
    epochs = meta.get("epochs_trained", 0.0) if isinstance(meta, dict) else None
    try:
        check_family_scheme(family, scheme)
        cfg = TrainingConfig.from_dict(header.get("config"))
        if family == "sequence":
            words = Vocabulary(header.get("vocab"))
        else:
            words = header.get("inventory")
            _check_inventory(words)
            words = [s.split(" ") for s in words]
        layout = _layout(family, cfg, scheme, len(words))
        names = [name for name, *_ in layout]
        if set(names) != set(tensors):
            raise CheckpointError(f"checkpoint has tensors {sorted(tensors)}, "
                                  f"expected {sorted(names)}")
        for name, shape, dtype, _ in layout:
            t = tensors[name]
            want = tuple(m if n is None else n for n, m in zip(shape, t.shape))
            if t.ndim != len(shape) or t.shape != want:
                raise CheckpointError(
                    f"tensor {name!r} has shape {t.shape}, expected {shape}")
            if t.dtype != dtype:
                raise CheckpointError(
                    f"tensor {name!r} has dtype {t.dtype}, expected {np.dtype(dtype)}")
        if family == "histogram":
            _check_histogram_counts(tensors, len(words))
            return HistogramModel(cfg, words, [tensors[name] for name in names], epochs)
        model_cls = SequenceDecoderModel if family == "sequence" else AtomicModel
        return model_cls(cfg, words, scheme, tensors, epochs)
    except CheckpointError:
        raise
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint header is invalid: {exc}") from exc
