"""Minimal numeric kernel: fused peephole LSTM, dense/softmax ops,
inverted dropout, Adagrad, initializers, and hand-derived gradients.

Parameters live in flat ``dict[str, np.ndarray]`` maps so the optimizer,
checkpointing, and finite-difference verification can treat every model
uniformly; in training each map's tensors are views of one flat buffer
(``flatten``), so that Adagrad updates them all in one call. float32 is
the working precision; float64 is available for gradient checks
(``TrainingConfig.dtype``).

LSTM formulation (Graves 2013, peephole variant), gates fused into
single matrices with column blocks ordered [input, forget, candidate,
output]:

    a  = x W_x + h_prev W_h + b
    i  = sigmoid(a_i + w_ci * c_prev)
    f  = sigmoid(a_f + w_cf * c_prev)
    c  = f * c_prev + i * tanh(a_g)
    o  = sigmoid(a_o + w_co * c)
    h  = o * tanh(c)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError, TrainingDivergence

ADAGRAD_EPS = 1e-8

Params = dict  # str -> np.ndarray

CONDITIONING_MODES = ("every-step", "init-state")


@dataclass
class TrainingConfig:
    """Hyperparameters for model construction and training."""

    learning_rate: float = 0.1
    dropout: float = 0.2
    hidden_size: int = 20
    embedding_dim: int = 20
    bucket_embedding_dim: int = 10
    atomic_hidden: int = 20
    embedding_sigma: float = 0.01
    lstm_sigma: float = 0.1
    forget_bias: float = 5.0
    batch_size: int = 128
    max_epochs: int = 10
    patience: int = 2
    evals_per_epoch: int = 2
    seed: int = 0
    conditioning: str = "every-step"  # one of CONDITIONING_MODES
    dtype: str = "float32"
    adagrad_eps: float = ADAGRAD_EPS

    def validate(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        # a zero-gradient row is left exactly as it is only when eps > 0
        if self.adagrad_eps <= 0:
            raise ConfigError("adagrad_eps must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must be in [0, 1)")
        for name in ("hidden_size", "embedding_dim", "bucket_embedding_dim",
                     "atomic_hidden", "batch_size", "max_epochs", "patience",
                     "evals_per_epoch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.conditioning not in CONDITIONING_MODES:
            raise ConfigError(f"unknown conditioning mode {self.conditioning!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        # after the range rules, which compare a huge int exactly; a float
        # field may hold an int, which must fit in a float
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, float) or type(getattr(TrainingConfig, name)) is float:
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an int too large for a float
                    finite = False
                if not finite:
                    raise ConfigError(f"{name} must be finite, got {value!r}")
        return self

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        """A validated config from a JSON object. Unknown keys are ignored;
        a field holds a JSON number or string of its default's type."""
        if not isinstance(d, dict):
            raise ConfigError(f"config is not an object: {d!r}")
        # the JSON types a field may hold, by the type of its default
        kinds = {float: (int, float), int: (int,), str: (str,)}
        for name in cls.__dataclass_fields__:
            if name in d and type(d[name]) not in kinds[type(getattr(cls, name))]:
                raise ConfigError(f"config field {name!r} has a bad value {d[name]!r}")
        return cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__}).validate()


# ---------------------------------------------------------------------------
# elementwise ops

def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """exp(z - max) / sum, in float64 whatever z's precision, computed in
    place in one float64 buffer. The max is cast to float64 once, as a
    float32 one would be cast per element of the subtraction."""
    p = z.astype(np.float64)
    p -= z.max(axis=axis, keepdims=True).astype(np.float64)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p


def log_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - np.max(z, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


def dropout_mask(rng, shape, rate, dtype):
    """Inverted dropout: zeros with probability ``rate``, survivors scaled
    by 1/(1-rate). At rate 0 it is all ones and draws nothing from
    ``rng``, which may then be None."""
    if rate == 0.0:
        return np.ones(shape, dtype=dtype)
    keep = (rng.random(shape) >= rate).astype(dtype)
    keep /= np.asarray(1.0 - rate, dtype=dtype)
    return keep


# ---------------------------------------------------------------------------
# initializers

def normal(sigma: float):
    """Initializer drawing N(0, sigma^2) entries."""
    return lambda rng, shape, dtype: (rng.standard_normal(shape) * sigma).astype(dtype)


def glorot(rng, shape, dtype) -> np.ndarray:
    """Initializer drawing a (fan_in, fan_out) Glorot-uniform matrix."""
    limit = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def zeros(rng, shape, dtype) -> np.ndarray:
    """Initializer of all-zero tensors; draws nothing."""
    return np.zeros(shape, dtype=dtype)


def init_params(layout, rng) -> Params:
    """Draw every tensor of a layout, a list of (name, shape, dtype, init)
    entries, from ``rng`` in list order: ``init(rng, shape, dtype)``."""
    return {name: init(rng, shape, dtype) for name, shape, dtype, init in layout}


# ---------------------------------------------------------------------------
# Adagrad

def flatten(tensors: Params) -> tuple[np.ndarray, Params]:
    """(flat, views): the tensors, of one dtype, copied back to back in
    dict order into one 1-D buffer, and a view of it per name in that
    tensor's shape. Two buffers flattened from tensors of the same
    shapes have the same layout."""
    flat = np.concatenate([t.reshape(-1) for t in tensors.values()])
    views, lo = {}, 0
    for name, t in tensors.items():
        views[name] = flat[lo : lo + t.size].reshape(t.shape)
        lo += t.size
    return flat, views


def add_rows_at(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(table, ids, rows)`` for a C-contiguous (m, E) table and
    (n, E) rows, bit for bit: each entry takes the same additions in the
    same order, by flat entry index, which is numpy's much faster 1-D
    path."""
    E = table.shape[1]
    flat_ids = (ids[:, None] * E + np.arange(E)).reshape(-1)
    np.add.at(table.reshape(-1), flat_ids, rows.reshape(-1))


def adagrad_update(param: np.ndarray, grad: np.ndarray, accum: np.ndarray,
                   lr: float, eps: float = ADAGRAD_EPS) -> None:
    """In place: accum += grad^2; param -= lr * grad / (sqrt(accum) + eps)."""
    accum += grad * grad
    param -= lr * grad / (np.sqrt(accum) + eps)


class Adagrad:
    """Squared-gradient accumulators, initialized to zero, in one flat
    buffer ``flat`` laid out as ``flatten(params)``, with a view per name
    in ``accum``. The updates take the flattened parameters."""

    def __init__(self, params: Params, lr: float, eps: float = ADAGRAD_EPS):
        self.lr = lr
        self.eps = eps
        self.flat, self.accum = flatten({k: np.zeros_like(v) for k, v in params.items()})

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One step, in place, of the first ``len(grads)`` entries of the
        flat parameter buffer ``params``: one elementwise update, entry by
        entry the one each named tensor would get alone."""
        n = len(grads)
        adagrad_update(params[:n], grads, self.flat[:n], self.lr, self.eps)

    def update_rows(self, params: np.ndarray, lo: int, ids: np.ndarray,
                    grads: np.ndarray) -> None:
        """``update`` of the (rows, E) table that fills the flat parameter
        buffer ``params`` from entry ``lo`` on, E = grads.shape[1], whose
        gradient is the sum of row i of ``grads`` into its row ``ids[i]``,
        added in order of i, as ``np.add.at`` into a zero tensor sums it.
        With eps > 0 a zero gradient leaves a row and its accumulator
        exactly as they are, so only the distinct rows of ``ids`` are
        updated. Tables stacked in one span take one call, their ids
        offset by the rows before them."""
        E = grads.shape[1]
        table, accum = params[lo:].reshape(-1, E), self.flat[lo:].reshape(-1, E)
        rows, at = np.unique(ids, return_inverse=True)
        grad = np.zeros((len(rows), E), dtype=table.dtype)
        add_rows_at(grad, at, grads)
        param, acc = table[rows], accum[rows]
        adagrad_update(param, grad, acc, self.lr, self.eps)
        table[rows], accum[rows] = param, acc


# ---------------------------------------------------------------------------
# conditional sequence decoder graph
#
# Step input is [color features ; previous-token embedding] in every-step
# mode, or the embedding alone in init-state mode (where a learned linear
# map of the features initializes h0 and c0). Output layer + softmax over
# the full vocabulary at every step. Loss: cross-entropy summed over a
# description's steps, averaged over descriptions in the batch. A batch is
# ``EncodedDataset.teacher_forcing``'s (ids, steps): row b's step t, for
# t < steps[b], reads input ids[b, t] and target ids[b, t + 1], and its
# ids past steps[b] are never read.

def sequence_layout(cfg: TrainingConfig, vocab_size: int, feature_width: int) -> list:
    """(name, shape, dtype, init) of every sequence-decoder tensor, in
    draw order. LSTM weights ~ N(0, lstm_sigma^2); its biases are 0 except
    the forget-gate block, which is ``forget_bias``."""
    H, E, V, F = cfg.hidden_size, cfg.embedding_dim, vocab_size, feature_width
    D = F + E if cfg.conditioning == "every-step" else E
    lstm = normal(cfg.lstm_sigma)

    def forget_bias(rng, shape, dtype):
        b = zeros(rng, shape, dtype)
        b[H : 2 * H] = cfg.forget_bias
        return b

    layout = [
        ("emb", (V, E), normal(cfg.embedding_sigma)),
        ("lstm.W_x", (D, 4 * H), lstm),
        ("lstm.W_h", (H, 4 * H), lstm),
        ("lstm.w_ci", (H,), lstm),
        ("lstm.w_cf", (H,), lstm),
        ("lstm.w_co", (H,), lstm),
        ("lstm.b", (4 * H,), forget_bias),
        ("out.W", (H, V), glorot),
        ("out.b", (V,), zeros),
    ]
    if cfg.conditioning == "init-state":
        layout += [
            ("cond.W_h0", (F, H), glorot), ("cond.b_h0", (H,), zeros),
            ("cond.W_c0", (F, H), glorot), ("cond.b_c0", (H,), zeros),
        ]
    return [(name, shape, cfg.np_dtype, init) for name, shape, init in layout]


def sequence_initial_state(params: Params, cfg: TrainingConfig, feats: np.ndarray):
    """(h0, c0) for featurized colors: (..., F) rows give (..., H) states."""
    if cfg.conditioning == "init-state":
        h0 = feats @ params["cond.W_h0"] + params["cond.b_h0"]
        c0 = feats @ params["cond.W_c0"] + params["cond.b_c0"]
        return h0, c0
    shape, dt = feats.shape[:-1] + (cfg.hidden_size,), params["lstm.b"].dtype
    return np.zeros(shape, dtype=dt), np.zeros(shape, dtype=dt)


def _step_inputs(params, cfg, feats, ids):
    """(..., D) step inputs for (..., F) color rows and their previous tokens."""
    emb = params["emb"][ids]
    if cfg.conditioning == "every-step":
        return np.concatenate([feats, emb], axis=-1)
    return emb


def _sigmoid_of_negated(x: np.ndarray) -> np.ndarray:
    """In place: x holds -a on entry and sigmoid(a) = 1 / (1 + exp(-a))
    on return. The caller silences exp overflow."""
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def negated_peepholes(params: Params, rows: int) -> np.ndarray:
    """(3, rows, H): -w_ci, -w_cf and -w_co, each tiled over the rows."""
    neg_w = -np.array([params["lstm.w_ci"], params["lstm.w_cf"], params["lstm.w_co"]])
    return np.repeat(neg_w[:, None], rows, axis=1)


def _lstm_step(a, neg_w, c, gates, c_out, tc_out, h_out):
    """One step of the peephole LSTM over a block of rows, in place, from
    its gate inputs a = h_prev W_h + (x W_x + b). The callers form the
    products, so that inference can run them on tiles.

    The rows are (rows, H) arrays or (k, TILE, H) stacks. ``neg_w`` holds
    the negated peepholes (``negated_peepholes``). i, f, g, o go to
    ``gates`` (4, ...), the new cell to ``c_out``, its tanh to ``tc_out``
    and the new hidden state to ``h_out``; ``c_out`` may be ``c``. Returns
    (h, c). Each sigmoid argument is formed negated, ready for exp:
    c (-w) - a equals -(c w + a) exactly. An exp that overflows saturates
    its sigmoid to 0.
    """
    H = c.shape[-1]
    i, f, g, o = gates
    with np.errstate(over="ignore"):
        np.multiply(c, neg_w[0], out=i)
        i -= a[..., :H]
        np.multiply(c, neg_w[1], out=f)
        f -= a[..., H : 2 * H]
        _sigmoid_of_negated(gates[:2])
        np.tanh(a[..., 2 * H : 3 * H], out=g)
        c = np.multiply(f, c, out=c_out)
        c += i * g
        np.multiply(c, neg_w[2], out=o)
        o -= a[..., 3 * H :]
        _sigmoid_of_negated(o)
        h = np.multiply(o, np.tanh(c, out=tc_out), out=h_out)
    return h, c


_LOG_SOFTMAX_BUFFER = 1 << 18  # entries of _log_softmax_at's buffer

# glibc raises its mmap threshold to the largest mapped block freed so far, and its trim
# threshold to twice that: with this 4 MiB block freed at import, every scoring buffer (at
# most 2 MiB) comes from a heap not trimmed between chunks. Other allocators ignore it.
np.empty(2 * _LOG_SOFTMAX_BUFFER)


def _block_rows(N: int, C: int) -> int:
    """Rows of a block of an (N, C) array that fills at most
    ``_LOG_SOFTMAX_BUFFER`` entries, and at least one row."""
    return max(1, min(N, _LOG_SOFTMAX_BUFFER // C))


def _log_softmax_at(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """log_softmax(logits)[row, targets[row]] of each row, in float64,
    without building the (N, C) log-softmax: z[target] - log(sum(exp(z)))
    with z = logits - max, the operations of a full log-softmax row.
    Blocks of rows go through one reused float64 buffer of at most
    ``_LOG_SOFTMAX_BUFFER`` entries (at least one row), so the logits are
    never converted whole; a row's value does not depend on its block.
    Each row max is cast to float64 once, not per element."""
    N, C = logits.shape
    step = _block_rows(N, C)
    out = np.empty(N, dtype=np.float64)
    buf = np.empty((step, C), dtype=np.float64)
    for lo in range(0, N, step):
        block = logits[lo : lo + step]
        z = buf[: len(block)]
        np.copyto(z, block)
        z -= block.max(axis=1, keepdims=True).astype(np.float64)
        z_target = z[np.arange(len(z)), targets[lo : lo + len(z)]]
        log_sum = np.log(np.sum(np.exp(z, out=z), axis=1))
        np.subtract(z_target, log_sum, out=out[lo : lo + len(z)])
    return out


def _softmax_xent(logits: np.ndarray, targets: np.ndarray):
    """(log p[row, targets[row]], p - onehot) of the (N, C) ``logits``,
    computed in place: the logits become the gradient. Each logit is
    exponentiated once: with z = logits - max and s = sum(exp(z)),
    log p = z - log(s) at the targets, and p = exp(z) / s. Callers scale
    the gradient."""
    rows = np.arange(len(logits))
    logits -= logits.max(axis=1, keepdims=True)
    z_target = logits[rows, targets]
    p = np.exp(logits, out=logits)
    sums = p.sum(axis=1, keepdims=True)
    p /= sums
    p[rows, targets] -= 1.0
    return z_target - np.log(sums[:, 0]), p


def _longest_first(steps: np.ndarray):
    """(order, n_live) of rows of the given step counts. ``order`` lists
    the rows longest first (a stable sort), and n_live[t] counts the rows
    longer than t, for each t below the longest: step t's live rows are
    order[:n_live[t]]."""
    order = np.argsort(-steps, kind="stable")
    # the rows of each length, longest first, added up
    n_live = np.bincount(steps)[:0:-1].cumsum()[::-1]
    return order, n_live


def sequence_forward(params: Params, cfg: TrainingConfig, feats: np.ndarray,
                     ids: np.ndarray, steps: np.ndarray, rng=None):
    """Teacher-forced training pass.

    feats: (B, F) featurized colors; ids, steps: a batch as
    ``EncodedDataset.teacher_forcing`` gives it. Returns (loss, cache);
    loss is the batch-mean summed cross-entropy. The hidden states always
    pass through one (B, T, H) dropout mask drawn from ``rng``
    (``dropout_mask``), in input row order, T the longest row's steps. At
    dropout 0 the mask is all ones, nothing is drawn and ``rng`` may be
    None; multiplying by 1 is exact. A fresh generator of a fixed seed
    pins the mask.

    Only live cells run: a row's (row, step) cells below its step count
    (``_longest_first``). Rows run longest first and step t advances the
    prefix of rows live at t, so every per-cell value is packed
    step-major, one contiguous (n_live[t], ...) block per step. Every
    live cell takes its loss: the output product, the log-softmax and
    the logit gradient (p - onehot) / B run in place in one
    (live cells, V) buffer (``_softmax_xent``).
    """
    B = len(steps)
    H = cfg.hidden_size
    dt = cfg.np_dtype
    order, n_live = _longest_first(steps)
    # step t's cells are bounds[t]:bounds[t + 1], the rows order[:n_live[t]]
    bounds = np.concatenate([[0], np.cumsum(n_live)])
    cell_step = np.repeat(np.arange(len(n_live)), n_live)
    rank = np.arange(bounds[-1]) - bounds[cell_step]
    rows = order[rank]
    in_ids = ids[rows, cell_step]
    X = _step_inputs(params, cfg, feats[rows], in_ids)
    AX = X @ params["lstm.W_x"] + params["lstm.b"]

    # states[:B] hold the sorted rows' initial states and states[B:] each
    # cell's new state, so step t reads its rows' previous ones from prev[t] on
    N = len(rows)
    prev = np.concatenate([[0], B + bounds[:-2]])
    h_states = np.empty((B + N, H), dtype=dt)
    c_states = np.empty((B + N, H), dtype=dt)
    h_states[:B], c_states[:B] = sequence_initial_state(params, cfg, feats[order])
    hidden, cells = h_states[B:], c_states[B:]
    neg_w = negated_peepholes(params, B)
    gates = np.empty((4, N, H), dtype=dt)  # i, f, g, o
    tanh_c = np.empty((N, H), dtype=dt)
    for t, n in enumerate(n_live):
        cell, p = slice(bounds[t], bounds[t + 1]), prev[t]
        a = h_states[p : p + n] @ params["lstm.W_h"]
        a += AX[cell]
        _lstm_step(a, neg_w[:, :n], c_states[p : p + n], gates[:, cell], cells[cell],
                   tanh_c[cell], hidden[cell])

    drop = dropout_mask(rng, (B, len(n_live), H), cfg.dropout, dt)[rows, cell_step]
    dropped = hidden * drop
    logits = dropped @ params["out.W"]
    logits += params["out.b"]
    logp, dlogits = _softmax_xent(logits, ids[rows, cell_step + 1])
    loss = float((-logp).sum(dtype=np.float64) / B)
    if not np.isfinite(loss):
        raise TrainingDivergence("non-finite loss in sequence forward pass")
    dlogits *= dt(1.0 / B)  # the rounded 1/B, not a division: checkpoint bytes rest on it

    cache = {
        "cfg": cfg, "params": params, "feats": feats, "X": X, "ids": in_ids,
        "order": order, "n_live": n_live, "bounds": bounds, "prev_cell": prev[cell_step] + rank,
        "h_states": h_states, "c_states": c_states, "gates": gates, "tanh_c": tanh_c,
        "dropped": dropped, "drop": drop, "dlogits": dlogits,
    }
    return loss, cache


def sequence_backward(cache, grads: Params | None = None,
                      input_grad: bool = False) -> Params:
    """Exact gradients of the sequence loss for every parameter, written
    into the arrays of ``grads`` where it has them (for example views of
    one flat buffer) and into new ones where it does not; returns
    ``grads``.

    With ``input_grad`` it also sets key "feats": the gradient w.r.t. the
    featurized color input, in input row order, which only trainable
    features (bucket embeddings) read. Without it neither the feature
    columns of the input gradient nor their per-row sums are computed.

    Every product and reduction runs on the packed live cells of the
    forward pass, step t's block on its n_live[t] rows.
    """
    cfg: TrainingConfig = cache["cfg"]
    params = cache["params"]
    grads = {} if grads is None else grads
    feats, order, n_live, bounds = (cache[k] for k in ("feats", "order", "n_live", "bounds"))
    B, F = feats.shape
    H = cfg.hidden_size
    dt = cfg.np_dtype
    dlogits, gates, tc = cache["dlogits"], cache["gates"], cache["tanh_c"]
    N = gates.shape[1]
    cells = cache["c_states"][B:]
    # each cell's previous states, where the forward step loop read them
    h_prev = cache["h_states"][cache["prev_cell"]]
    c_prev = cache["c_states"][cache["prev_cell"]]

    grads["out.W"] = np.matmul(cache["dropped"].T, dlogits, out=grads.get("out.W"))
    grads["out.b"] = dlogits.sum(axis=0, out=grads.get("out.b"))
    dH_out = (dlogits @ params["out.W"].T) * cache["drop"]

    # each cell's local derivatives, computed once for all steps: from the
    # gradients dh and dc_next reaching its hidden and cell states,
    # dao = dh k_o, dc = dh k_dc + dc_next, [dai, daf] = dc k_if, dag = dc k_g,
    # and dc k_next reaches the previous cell state
    i, f, g, o = gates
    w_ci, w_cf, w_co = params["lstm.w_ci"], params["lstm.w_cf"], params["lstm.w_co"]
    k_o = tc * o * (1.0 - o)
    k_dc = o * (1.0 - tc ** 2) + k_o * w_co
    gates_if = gates[:2].transpose(1, 0, 2)
    k_if = np.stack([g, c_prev], axis=1) * gates_if * (1.0 - gates_if)
    k_g = i * (1.0 - g ** 2)
    k_next = f + k_if[:, 0] * w_ci + k_if[:, 1] * w_cf
    W_hT = params["lstm.W_h"].T
    da = np.empty((N, 4, H), dtype=dt)  # dai, daf, dag, dao of each cell
    # the sorted rows' gradients from the next step; a row's stay zero
    # until the loop reaches the row's last step
    dh_next = np.zeros((B, H), dtype=dt)
    dc_next = np.zeros((B, H), dtype=dt)
    for t in range(len(n_live) - 1, -1, -1):
        n, cell = n_live[t], slice(bounds[t], bounds[t + 1])
        dh = dH_out[cell]
        dh += dh_next[:n]
        np.multiply(dh, k_o[cell], out=da[cell, 3])
        dc = np.multiply(dh, k_dc[cell], out=dh)
        dc += dc_next[:n]
        np.multiply(dc[:, None], k_if[cell], out=da[cell, :2])
        np.multiply(dc, k_g[cell], out=da[cell, 2])
        np.multiply(dc, k_next[cell], out=dc_next[:n])
        np.matmul(da[cell].reshape(n, 4 * H), W_hT, out=dh_next[:n])

    da_flat = da.reshape(N, 4 * H)
    grads["lstm.W_x"] = np.matmul(cache["X"].T, da_flat, out=grads.get("lstm.W_x"))
    grads["lstm.W_h"] = np.matmul(h_prev.T, da_flat, out=grads.get("lstm.W_h"))
    grads["lstm.b"] = da_flat.sum(axis=0, out=grads.get("lstm.b"))
    grads["lstm.w_ci"] = (da[:, 0] * c_prev).sum(axis=0, out=grads.get("lstm.w_ci"))
    grads["lstm.w_cf"] = (da[:, 1] * c_prev).sum(axis=0, out=grads.get("lstm.w_cf"))
    grads["lstm.w_co"] = (da[:, 3] * cells).sum(axis=0, out=grads.get("lstm.w_co"))

    # the input gradient da W_x^T by column blocks: the embedding's always,
    # the features' (every-step mode) only when asked for
    W_x = params["lstm.W_x"]
    every_step = cfg.conditioning == "every-step"
    if "emb" not in grads:
        grads["emb"] = np.empty_like(params["emb"])
    grads["emb"][...] = 0.0
    add_rows_at(grads["emb"], cache["ids"], da_flat @ (W_x[F:] if every_step else W_x).T)
    if not every_step:
        # gradient reaching h0/c0 closes the recurrences above
        sorted_feats = feats[order]
        grads["cond.W_h0"] = np.matmul(sorted_feats.T, dh_next, out=grads.get("cond.W_h0"))
        grads["cond.b_h0"] = dh_next.sum(axis=0, out=grads.get("cond.b_h0"))
        grads["cond.W_c0"] = np.matmul(sorted_feats.T, dc_next, out=grads.get("cond.W_c0"))
        grads["cond.b_c0"] = dc_next.sum(axis=0, out=grads.get("cond.b_c0"))
    if input_grad:
        if every_step:
            dX = da_flat @ W_x[:F].T
            dfeats = np.zeros((B, F), dtype=dt)
            for t, n in enumerate(n_live):
                dfeats[:n] += dX[bounds[t] : bounds[t + 1]]
        else:
            dfeats = dh_next @ params["cond.W_h0"].T + dc_next @ params["cond.W_c0"].T
        grads["feats"] = np.empty_like(dfeats)
        grads["feats"][order] = dfeats
    return grads


# Inference runs on tiles of TILE rows: a call's rows are zero-padded to
# whole tiles and every product runs on a (k, TILE, K) stack, one GEMM per
# tile, never a gemv (a one-row product) and never one GEMM over many
# tiles. With numpy's OpenBLAS a row in a tile gets one result whatever
# the other rows hold and wherever the row sits, so a row's score, top-1
# and draw do not depend on its batch.
TILE = 64


def _tiles(x: np.ndarray) -> np.ndarray:
    """The rows of x zero-padded to whole tiles, as a (k, TILE, ...) stack."""
    out = np.zeros((-(-len(x) // TILE), TILE) + x.shape[1:], dtype=x.dtype)
    _rows(out, len(x))[...] = x
    return out


def _rows(stack: np.ndarray, n: int) -> np.ndarray:
    """The first n rows of a (k, TILE, ...) stack."""
    return stack.reshape((-1,) + stack.shape[2:])[:n]


def _tile_matmul(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """x @ W for the rows of x, computed on whole tiles."""
    return _rows(_tiles(x) @ W, len(x))


def sequence_logprobs(params: Params, cfg: TrainingConfig, feats: np.ndarray,
                      ids: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Per-item log probability (nats) of the target sequences, dropout
    off, for a batch as ``EncodedDataset.teacher_forcing`` gives it.

    Rows run longest first (stable order), and step t advances the
    prefix of rows still live at t, rounded up to whole tiles (``TILE``),
    from that step's inputs alone, so a call's buffers grow with its rows
    and not with its steps. The log-softmax is taken on the live rows at
    the target only, z[target] - log(sum(exp(z))) with z = logits - max
    in float64, the same operations as a full log-softmax row. Scores
    come back in input order, summed over steps per item in float64.
    """
    B = len(steps)
    order, n_live = _longest_first(steps)
    k_live = -(-n_live // TILE)
    feats = _tiles(feats[order])
    h, c = sequence_initial_state(params, cfg, feats)
    feats = feats.reshape(-1, feats.shape[-1])
    ids = _tiles(ids[order]).reshape(-1, ids.shape[1])

    # each step overwrites the live tiles of one state stack in place
    neg_w = negated_peepholes(params, TILE)
    gates = np.empty((4,) + h.shape, dtype=h.dtype)
    tanh_c = np.empty_like(h)
    logits = np.empty(h.shape[:2] + params["out.b"].shape, dtype=h.dtype)
    total = np.zeros(B, dtype=np.float64)
    for t, (n, k) in enumerate(zip(n_live, k_live)):
        x = _step_inputs(params, cfg, feats[: k * TILE], ids[: k * TILE, t])
        a = h[:k] @ params["lstm.W_h"]
        a += x.reshape(k, TILE, -1) @ params["lstm.W_x"] + params["lstm.b"]
        _lstm_step(a, neg_w, c[:k], gates[:, :k], c[:k], tanh_c[:k], h[:k])
        step_logits = np.matmul(h[:k], params["out.W"], out=logits[:k])
        step_logits += params["out.b"]
        total[:n] += _log_softmax_at(_rows(step_logits, n), ids[:n, t + 1])
    out = np.empty(B, dtype=np.float64)
    out[order] = total
    return out


def sequence_start_state(params: Params, cfg: TrainingConfig, feats: np.ndarray):
    """(h0, c0) of each row of ``feats`` for decoding, computed on tiles."""
    return tuple(_rows(s, len(feats))
                 for s in sequence_initial_state(params, cfg, _tiles(feats)))


def sequence_step_probs(params: Params, cfg: TrainingConfig, feats: np.ndarray,
                        prev_ids: np.ndarray, h: np.ndarray, c: np.ndarray, *,
                        neg_w: np.ndarray | None = None):
    """Incremental decode step of each row: next-token distribution
    (float64) and new state. The products run on tiles, the elementwise
    steps on the rows. A caller that steps many times passes
    ``neg_w = negated_peepholes(params, 1)``, built once."""
    if neg_w is None:
        neg_w = negated_peepholes(params, 1)
    x = _step_inputs(params, cfg, feats, prev_ids)
    a = _tile_matmul(h, params["lstm.W_h"])
    a += _tile_matmul(x, params["lstm.W_x"]) + params["lstm.b"]
    h, c = _lstm_step(a, neg_w, c,
                      np.empty((4,) + c.shape, dtype=c.dtype), np.empty_like(c),
                      np.empty_like(c), np.empty_like(c))
    logits = _tile_matmul(h, params["out.W"])
    logits += params["out.b"]
    return softmax(logits, axis=1), h, c


# ---------------------------------------------------------------------------
# atomic (whole-description classifier) graph
#
# Two hidden layers with a ReLU after the first, softmax over the
# inventory of distinct training descriptions. Training passes apply
# dropout after each hidden layer.

def atomic_layout(cfg: TrainingConfig, feature_width: int, n_classes: int) -> list:
    """(name, shape, dtype, init) of every atomic-classifier tensor, in draw order."""
    Hd, dt = cfg.atomic_hidden, cfg.np_dtype
    return [
        ("fc1.W", (feature_width, Hd), dt, glorot), ("fc1.b", (Hd,), dt, zeros),
        ("fc2.W", (Hd, Hd), dt, glorot), ("fc2.b", (Hd,), dt, zeros),
        ("out.W", (Hd, n_classes), dt, glorot), ("out.b", (n_classes,), dt, zeros),
    ]


def atomic_forward(params: Params, cfg: TrainingConfig, feats: np.ndarray,
                   targets: np.ndarray, rng=None):
    """Training pass; returns (loss, cache), loss the mean cross-entropy
    over the batch. Each hidden layer is multiplied by its own (B, H)
    dropout mask, both drawn from ``rng`` first; at dropout 0 they are
    all ones (see ``sequence_forward``). The log-softmax and the logit
    gradient (p - onehot) / B are computed in place (``_softmax_xent``)
    in the (B, C) logits buffer."""
    dt = cfg.np_dtype
    B = feats.shape[0]
    drop_masks = [dropout_mask(rng, (B, cfg.atomic_hidden), cfg.dropout, dt)
                  for _ in range(2)]
    a1 = feats @ params["fc1.W"] + params["fc1.b"]
    d1 = np.maximum(a1, 0.0) * drop_masks[0]
    d2 = (d1 @ params["fc2.W"] + params["fc2.b"]) * drop_masks[1]
    logits = d2 @ params["out.W"]
    logits += params["out.b"]
    logp, dlogits = _softmax_xent(logits, targets)
    loss = float((-logp).sum(dtype=np.float64) / B)
    if not np.isfinite(loss):
        raise TrainingDivergence("non-finite loss in atomic forward pass")
    dlogits /= B
    cache = {
        "cfg": cfg, "params": params, "feats": feats,
        "a1": a1, "d1": d1, "d2": d2, "drop_masks": drop_masks,
        "dlogits": dlogits,
    }
    return loss, cache


def atomic_backward(cache, grads: Params | None = None,
                    input_grad: bool = False) -> Params:
    """Exact gradients of the atomic loss, into ``grads`` as
    ``sequence_backward`` writes them, with key "feats" only when
    ``input_grad`` asks for it."""
    params = cache["params"]
    dlogits = cache["dlogits"]
    grads = {} if grads is None else grads
    grads["out.W"] = np.matmul(cache["d2"].T, dlogits, out=grads.get("out.W"))
    grads["out.b"] = dlogits.sum(axis=0, out=grads.get("out.b"))
    dh2 = (dlogits @ params["out.W"].T) * cache["drop_masks"][1]
    grads["fc2.W"] = np.matmul(cache["d1"].T, dh2, out=grads.get("fc2.W"))
    grads["fc2.b"] = dh2.sum(axis=0, out=grads.get("fc2.b"))
    da1 = (dh2 @ params["fc2.W"].T) * cache["drop_masks"][0] * (cache["a1"] > 0)
    grads["fc1.W"] = np.matmul(cache["feats"].T, da1, out=grads.get("fc1.W"))
    grads["fc1.b"] = da1.sum(axis=0, out=grads.get("fc1.b"))
    if input_grad:
        grads["feats"] = da1 @ params["fc1.W"].T
    return grads


def atomic_logits(params: Params, feats: np.ndarray) -> np.ndarray:
    """(..., C) class logits of (..., F) rows in the working precision,
    dropout off."""
    h1 = np.maximum(feats @ params["fc1.W"] + params["fc1.b"], 0.0)
    h2 = h1 @ params["fc2.W"] + params["fc2.b"]
    logits = h2 @ params["out.W"]
    logits += params["out.b"]
    return logits


def atomic_tile_logits(params: Params, feats: np.ndarray) -> np.ndarray:
    """(n, C) class logits of n <= TILE rows, dropout off, computed on
    one tile, so that a call holds the (TILE, C) logits of one tile."""
    return _rows(atomic_logits(params, _tiles(feats)), len(feats))


def atomic_logprobs(params: Params, cfg: TrainingConfig,
                    feats: np.ndarray) -> np.ndarray:
    """(B, C) log class probabilities, dropout off, float64, taken tile
    by tile (``atomic_tile_logits``)."""
    out = np.empty((len(feats), params["out.b"].size), dtype=np.float64)
    for lo in range(0, len(feats), TILE):
        rows = slice(lo, lo + TILE)
        out[rows] = log_softmax(atomic_tile_logits(params, feats[rows]).astype(np.float64),
                                axis=1)
    return out


def atomic_target_logprobs(params: Params, cfg: TrainingConfig, feats: np.ndarray,
                           targets: np.ndarray) -> np.ndarray:
    """log p(targets[b] | feats[b]) per row, float64, dropout off: the
    entries of ``atomic_logprobs`` at the targets, bit for bit, taken
    tile by tile (``atomic_tile_logits``)."""
    out = np.empty(len(feats), dtype=np.float64)
    for lo in range(0, len(feats), TILE):
        rows = slice(lo, lo + TILE)
        out[rows] = _log_softmax_at(atomic_tile_logits(params, feats[rows]), targets[rows])
    return out
