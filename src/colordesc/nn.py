"""Minimal numeric kernel: fused peephole LSTM, dense/softmax ops,
inverted dropout, Adagrad, initializers, and hand-derived gradients.

Parameters live in flat ``dict[str, np.ndarray]`` maps so the optimizer,
checkpointing, and finite-difference verification can treat every model
uniformly. float32 is the working precision; float64 is available for
gradient checks (``TrainingConfig.dtype``).

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
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
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
    place in one float64 buffer."""
    p = np.subtract(z, z.max(axis=axis, keepdims=True), dtype=np.float64)
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

def adagrad_update(param: np.ndarray, grad: np.ndarray, accum: np.ndarray,
                   lr: float, eps: float = ADAGRAD_EPS) -> None:
    """In place: accum += grad^2; param -= lr * grad / (sqrt(accum) + eps)."""
    accum += grad * grad
    param -= lr * grad / (np.sqrt(accum) + eps)


class Adagrad:
    """Per-parameter squared-gradient accumulators, initialized to zero."""

    def __init__(self, params: Params, lr: float, eps: float = ADAGRAD_EPS):
        self.lr = lr
        self.eps = eps
        self.accum = {k: np.zeros_like(v) for k, v in params.items()}

    def update(self, params: Params, grads: Params) -> None:
        for name, g in grads.items():
            adagrad_update(params[name], g, self.accum[name], self.lr, self.eps)


# ---------------------------------------------------------------------------
# conditional sequence decoder graph
#
# Step input is [color features ; previous-token embedding] in every-step
# mode, or the embedding alone in init-state mode (where a learned linear
# map of the features initializes h0 and c0). Output layer + softmax over
# the full vocabulary at every step. Loss: cross-entropy summed over a
# description's tokens, averaged over descriptions in the batch, with
# padded positions masked out.

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
    """(h0, c0) for a batch of featurized colors."""
    B = feats.shape[0]
    H = cfg.hidden_size
    if cfg.conditioning == "init-state":
        h0 = feats @ params["cond.W_h0"] + params["cond.b_h0"]
        c0 = feats @ params["cond.W_c0"] + params["cond.b_c0"]
        return h0, c0
    dt = params["lstm.b"].dtype
    return np.zeros((B, H), dtype=dt), np.zeros((B, H), dtype=dt)


def _step_inputs(params, cfg, feats, ids):
    """(N, D) step inputs for N (color row, previous token) pairs."""
    emb = params["emb"][ids]
    if cfg.conditioning == "every-step":
        return np.concatenate([feats, emb], axis=1)
    return emb


def _sigmoid_of_negated(x: np.ndarray) -> np.ndarray:
    """In place: x holds -a on entry and sigmoid(a) = 1 / (1 + exp(-a))
    on return. The caller silences exp overflow."""
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _negated_peepholes(params: Params, rows: int) -> np.ndarray:
    """(3, rows, H): -w_ci, -w_cf and -w_co, each tiled over the rows."""
    neg_w = -np.array([params["lstm.w_ci"], params["lstm.w_cf"], params["lstm.w_co"]])
    return np.repeat(neg_w[:, None], rows, axis=1)


def _lstm_step(W_h, neg_w, ax, h, c, gates, c_out, tc_out, h_out):
    """One step of the peephole LSTM over a block of rows, in place.

    ``ax`` is the block's x W_x + b and ``neg_w`` its negated peepholes
    (``_negated_peepholes``). i, f, g, o go to ``gates`` (4, rows, H),
    the new cell to ``c_out``, its tanh to ``tc_out`` and the new hidden
    state to ``h_out``; ``c_out`` may be ``c`` and ``h_out`` may be ``h``.
    Returns (h, c). Each sigmoid argument is formed negated, ready for
    exp: c (-w) - a equals -(c w + a) exactly. An exp that overflows
    saturates its sigmoid to 0.
    """
    H = h.shape[1]
    a = h @ W_h
    a += ax
    i, f, g, o = gates
    with np.errstate(over="ignore"):
        np.multiply(c, neg_w[0], out=i)
        i -= a[:, :H]
        np.multiply(c, neg_w[1], out=f)
        f -= a[:, H : 2 * H]
        _sigmoid_of_negated(gates[:2])
        np.tanh(a[:, 2 * H : 3 * H], out=g)
        c = np.multiply(f, c, out=c_out)
        c += i * g
        np.multiply(c, neg_w[2], out=o)
        o -= a[:, 3 * H :]
        _sigmoid_of_negated(o)
        h = np.multiply(o, np.tanh(c, out=tc_out), out=h_out)
    return h, c


_LOG_SOFTMAX_BUFFER = 1 << 18  # float64 entries (2 MiB) of _log_softmax_at's buffer


def _log_softmax_at(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """log_softmax(logits)[row, targets[row]] of each row, in float64,
    without building the (N, C) log-softmax: z[target] - log(sum(exp(z)))
    with z = logits - max, the operations of a full log-softmax row.
    Blocks of rows go through one reused float64 buffer of at most
    ``_LOG_SOFTMAX_BUFFER`` entries (at least one row), so the logits are
    never converted whole; a row's value does not depend on its block."""
    N, C = logits.shape
    step = max(1, _LOG_SOFTMAX_BUFFER // C)
    out = np.empty(N, dtype=np.float64)
    buf = np.empty((min(N, step), C), dtype=np.float64)
    for lo in range(0, N, step):
        block = logits[lo : lo + step]
        z = buf[: len(block)]
        np.subtract(block, block.max(axis=1, keepdims=True), out=z, dtype=np.float64)
        z_target = z[np.arange(len(z)), targets[lo : lo + len(z)]]
        log_sum = np.log(np.sum(np.exp(z, out=z), axis=1))
        np.subtract(z_target, log_sum, out=out[lo : lo + len(z)])
    return out


def _softmax_xent(logits: np.ndarray, targets: np.ndarray):
    """(log p[row, targets[row]], p - onehot) of the (N, C) ``logits``,
    which hold the log-softmax on return; one more (N, C) buffer holds
    the probabilities and becomes the gradient. Callers scale it."""
    rows = np.arange(len(logits))
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    logits -= np.log(probs.sum(axis=1, keepdims=True))
    dlogits = np.exp(logits, out=probs)
    dlogits[rows, targets] -= 1.0
    return logits[rows, targets], dlogits


def sequence_forward(params: Params, cfg: TrainingConfig, feats: np.ndarray,
                     in_ids: np.ndarray, targets: np.ndarray, mask: np.ndarray,
                     rng=None):
    """Teacher-forced training pass.

    feats: (B, F) featurized colors; in_ids/targets/mask: (B, T).
    Returns (loss, cache); loss is the batch-mean summed cross-entropy.
    The hidden states always pass through one (B, T, H) dropout mask
    drawn from ``rng`` (``dropout_mask``). At dropout 0 the mask is all
    ones, nothing is drawn and ``rng`` may be None; multiplying by 1 is
    exact. A fresh generator of a fixed seed pins the mask.

    Every (row, step) cell runs through the recurrence and the output
    product. The log-softmax, the probabilities and the logit gradient
    (p - onehot) * mask / B are taken on live cells (mask != 0) only, in
    row-major order, so the loss and every gradient are bit-identical to
    masking a padded (B, T, V) log-softmax. The recurrence keeps its
    per-step values step-major, (T, ..., B, H), so that each step works
    on contiguous (B, H) blocks.
    """
    B, T = in_ids.shape
    H = cfg.hidden_size
    dt = cfg.np_dtype
    # inputs of every (row, step) pair, row-major, and their input
    # contribution in one GEMM
    X = _step_inputs(params, cfg, np.repeat(feats, T, axis=0), in_ids.ravel())
    AX = X @ params["lstm.W_x"] + params["lstm.b"]
    AX = AX.reshape(B, T, 4 * H).transpose(1, 0, 2).copy()

    h0, c0 = sequence_initial_state(params, cfg, feats)
    neg_w = _negated_peepholes(params, B)
    gates = np.empty((T, 4, B, H), dtype=dt)  # i, f, g, o
    cells = np.empty((T, B, H), dtype=dt)
    tanh_c = np.empty((T, B, H), dtype=dt)
    hidden = np.empty((T, B, H), dtype=dt)
    h, c = h0, c0
    for t in range(T):
        h, c = _lstm_step(params["lstm.W_h"], neg_w, AX[t], h, c, gates[t],
                          cells[t], tanh_c[t], hidden[t])

    drop_mask = dropout_mask(rng, (B, T, H), cfg.dropout, dt)
    # row-major (B, T, H), as the logit product and its gradients read it
    dropped = np.multiply(hidden.transpose(1, 0, 2), drop_mask,
                          out=np.empty_like(drop_mask))

    logits = dropped.reshape(B * T, H) @ params["out.W"]
    logits += params["out.b"]
    live = np.flatnonzero(mask)
    weight = mask.ravel()[live]
    logp, dlogits = _softmax_xent(logits[live], targets.ravel()[live])
    nll = np.zeros(B * T, dtype=np.float64)
    nll[live] = -logp * weight
    loss = float(nll.sum(dtype=np.float64) / B)
    if not np.isfinite(loss):
        raise TrainingDivergence("non-finite loss in sequence forward pass")
    dlogits *= (weight / B).astype(dt)[:, None]
    # the logits buffer becomes the (B*T, V) logit gradient, zero on padding
    dflat = logits
    dflat[mask.ravel() == 0] = 0.0
    dflat[live] = dlogits

    cache = {
        "cfg": cfg, "params": params, "feats": feats, "X": X,
        "in_ids": in_ids, "h0": h0, "c0": c0, "gates": gates, "c": cells,
        "tanh_c": tanh_c, "hidden": hidden, "dropped": dropped,
        "drop_mask": drop_mask, "dlogits": dlogits, "dflat": dflat,
    }
    return loss, cache


def sequence_backward(cache) -> Params:
    """Exact gradients of the sequence loss for every parameter.

    Also returns key "feats": the gradient w.r.t. the featurized color
    input (used to train bucket embeddings and the init-state maps'
    upstream, zero cost for fixed featurizers).

    Padded cells keep zero logit gradients in the (B*T, V) products, so
    every GEMM and batch sum runs over the rows, and in the order, of the
    padded computation.
    """
    cfg: TrainingConfig = cache["cfg"]
    params = cache["params"]
    B, T = cache["in_ids"].shape
    H = cfg.hidden_size
    dt = cfg.np_dtype

    dflat = cache["dflat"]
    grads: Params = {}
    grads["out.W"] = cache["dropped"].reshape(B * T, H).T @ dflat
    grads["out.b"] = cache["dlogits"].sum(axis=0)
    dH_out = dflat @ params["out.W"].T
    dH_out *= cache["drop_mask"].reshape(B * T, H)
    dH_out = dH_out.reshape(B, T, H).transpose(1, 0, 2).copy()

    gates, cells, tc = cache["gates"], cache["c"], cache["tanh_c"]
    # per-cell factors of every step, computed once: 1-i, 1-f, 1-g^2, 1-o
    one_minus = 1.0 - gates
    np.subtract(1.0, gates[:, 2] ** 2, out=one_minus[:, 2])
    one_minus_tc2 = 1.0 - tc ** 2
    # dc times [g, c_prev] starts [dai, daf]
    g_cprev = np.empty((T, 2, B, H), dtype=dt)
    g_cprev[:, 0] = gates[:, 2]
    g_cprev[0, 1] = cache["c0"]
    g_cprev[1:, 1] = cells[:-1]
    w = np.empty((3, B, H), dtype=dt)
    w[:] = np.stack([params["lstm.w_ci"], params["lstm.w_cf"],
                     params["lstm.w_co"]])[:, None]
    W_hT = params["lstm.W_h"].T
    dgates = np.empty((T, 4, B, H), dtype=dt)  # dai, daf, dag, dao
    da = np.empty((B, T, 4, H), dtype=dt)  # the same, row-major for the GEMMs
    dh_next = np.zeros((B, H), dtype=dt)
    dc_next = np.zeros((B, H), dtype=dt)
    for t in range(T - 1, -1, -1):
        i, f, g, o = gates[t]
        dai_f, dag, dao = dgates[t, :2], dgates[t, 2], dgates[t, 3]
        dh = dH_out[t]
        dh += dh_next
        np.multiply(dh, tc[t], out=dao)
        dao *= o
        dao *= one_minus[t, 3]
        dc = np.multiply(dh, o, out=dh)
        dc *= one_minus_tc2[t]
        dc += dc_next
        dc += dao * w[2]
        np.multiply(dc, g_cprev[t], out=dai_f)
        dai_f *= gates[t, :2]
        dai_f *= one_minus[t, :2]
        np.multiply(dc, i, out=dag)
        dag *= one_minus[t, 2]
        peep = dai_f * w[:2]
        dc_next = np.multiply(dc, f, out=dc_next)
        dc_next += peep[0]
        dc_next += peep[1]
        np.copyto(da[:, t], dgates[t].transpose(1, 0, 2))
        dh_next = da[:, t].reshape(B, 4 * H) @ W_hT

    da_flat = da.reshape(B * T, 4 * H)
    h_prev = np.concatenate(
        [cache["h0"][:, None], cache["hidden"][:-1].transpose(1, 0, 2)], axis=1)
    grads["lstm.W_x"] = cache["X"].T @ da_flat
    grads["lstm.W_h"] = h_prev.reshape(B * T, H).T @ da_flat
    grads["lstm.b"] = da_flat.sum(axis=0)
    # peephole gradients: each step's batch sum, added in the loop's order
    step_if = (dgates[:, :2] * g_cprev[:, 1:]).sum(axis=2)
    step_o = (dgates[:, 3] * cells).sum(axis=1)
    dw_if = np.zeros((2, H), dtype=dt)
    dw_co = np.zeros(H, dtype=dt)
    for t in range(T - 1, -1, -1):
        dw_if += step_if[t]
        dw_co += step_o[t]
    grads["lstm.w_ci"], grads["lstm.w_cf"] = dw_if
    grads["lstm.w_co"] = dw_co

    dX = (da_flat @ params["lstm.W_x"].T).reshape(B, T, -1)
    feats = cache["feats"]
    F = feats.shape[1]
    grads["emb"] = np.zeros_like(params["emb"])
    if cfg.conditioning == "every-step":
        np.add.at(grads["emb"], cache["in_ids"], dX[:, :, F:])
        dfeats = dX[:, :, :F].sum(axis=1)
    else:
        np.add.at(grads["emb"], cache["in_ids"], dX)
        # gradient reaching h0/c0 closes the recurrences above
        grads["cond.W_h0"] = feats.T @ dh_next
        grads["cond.b_h0"] = dh_next.sum(axis=0)
        grads["cond.W_c0"] = feats.T @ dc_next
        grads["cond.b_c0"] = dc_next.sum(axis=0)
        dfeats = dh_next @ params["cond.W_h0"].T + dc_next @ params["cond.W_c0"].T
    grads["feats"] = dfeats
    return grads


def sequence_logprobs(params: Params, cfg: TrainingConfig, feats: np.ndarray,
                      in_ids: np.ndarray, targets: np.ndarray,
                      mask: np.ndarray) -> np.ndarray:
    """Per-item log probability (nats) of the target sequences, dropout off.

    A row's length is one past its last nonzero mask entry. Rows run
    longest first (stable order), and step t advances only the prefix of
    rows still live at t, never fewer than min(B, 2): numpy sends a
    one-row product to gemv, whose sums can differ in the last bit from
    the same row of a GEMM. The log-softmax is taken at the target only,
    z[target] - log(sum(exp(z))) with z = logits - max in float64, the
    same operations as a full log-softmax row. Scores come back in input
    order. They match running every row for all T steps only up to BLAS
    rounding: a product's row can round differently with a different row
    count. With numpy's OpenBLAS they are bit-identical at hidden sizes 4
    and 20, and differ by up to ~7e-7 nats at hidden size 50. Summation
    over steps is per item, accumulated in float64.
    """
    B, T = in_ids.shape
    live = mask != 0
    lengths = np.where(live.any(axis=1), T - np.argmax(live[:, ::-1], axis=1), 0)
    order = np.argsort(-lengths, kind="stable")
    n_live = np.maximum(np.count_nonzero(lengths[:, None] > np.arange(T), axis=0),
                        min(B, 2))
    h, c = sequence_initial_state(params, cfg, feats)
    h, c, feats = h[order], c[order], feats[order]
    in_ids, targets, mask = in_ids[order], targets[order], mask[order]

    # input contribution of every advanced (step, row) pair in one GEMM,
    # step-major so each step's rows are one contiguous block; all T steps
    # run, so a one-row block keeps the T-row product it had when padded
    first = np.cumsum(n_live) - n_live
    pair_rows = np.arange(n_live.sum()) - np.repeat(first, n_live)
    pair_steps = np.repeat(np.arange(T), n_live)
    X = _step_inputs(params, cfg, feats[pair_rows], in_ids[pair_rows, pair_steps])
    AX = X @ params["lstm.W_x"] + params["lstm.b"]

    # each step overwrites the live prefix of one (B, H) state in place
    neg_w = _negated_peepholes(params, B)
    gates = np.empty((4,) + h.shape, dtype=h.dtype)
    tanh_c = np.empty_like(h)
    logits = np.empty((B, params["out.b"].size), dtype=h.dtype)
    total = np.zeros(B, dtype=np.float64)
    lo = 0
    for t, n in enumerate(n_live):
        _lstm_step(params["lstm.W_h"], neg_w[:, :n], AX[lo : lo + n], h[:n], c[:n],
                   gates[:, :n], c[:n], tanh_c[:n], h[:n])
        lo += n
        step_logits = np.matmul(h[:n], params["out.W"], out=logits[:n])
        step_logits += params["out.b"]
        total[:n] += _log_softmax_at(step_logits, targets[:n, t]) * mask[:n, t]
    out = np.empty(B, dtype=np.float64)
    out[order] = total
    return out


def sequence_step_probs(params: Params, cfg: TrainingConfig, feats: np.ndarray,
                        prev_ids: np.ndarray, h: np.ndarray, c: np.ndarray):
    """Incremental decode step: next-token distribution (float64) and new
    state."""
    ax = _step_inputs(params, cfg, feats, prev_ids) @ params["lstm.W_x"] + params["lstm.b"]
    h, c = _lstm_step(params["lstm.W_h"], _negated_peepholes(params, 1), ax, h, c,
                      np.empty((4,) + h.shape, dtype=h.dtype), np.empty_like(c),
                      np.empty_like(c), np.empty_like(h))
    logits = h @ params["out.W"]
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
    in the (B, C) logits buffer and one more."""
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


def atomic_backward(cache) -> Params:
    params = cache["params"]
    dlogits = cache["dlogits"]
    grads: Params = {}
    grads["out.W"] = cache["d2"].T @ dlogits
    grads["out.b"] = dlogits.sum(axis=0)
    dh2 = (dlogits @ params["out.W"].T) * cache["drop_masks"][1]
    grads["fc2.W"] = cache["d1"].T @ dh2
    grads["fc2.b"] = dh2.sum(axis=0)
    da1 = (dh2 @ params["fc2.W"].T) * cache["drop_masks"][0] * (cache["a1"] > 0)
    grads["fc1.W"] = cache["feats"].T @ da1
    grads["fc1.b"] = da1.sum(axis=0)
    grads["feats"] = da1 @ params["fc1.W"].T
    return grads


def atomic_logits(params: Params, feats: np.ndarray) -> np.ndarray:
    """(B, C) class logits in the working precision, dropout off."""
    h1 = np.maximum(feats @ params["fc1.W"] + params["fc1.b"], 0.0)
    h2 = h1 @ params["fc2.W"] + params["fc2.b"]
    logits = h2 @ params["out.W"]
    logits += params["out.b"]
    return logits


def atomic_logprobs(params: Params, cfg: TrainingConfig,
                    feats: np.ndarray) -> np.ndarray:
    """(B, C) log class probabilities, dropout off, float64."""
    return log_softmax(atomic_logits(params, feats).astype(np.float64), axis=1)


def atomic_target_logprobs(params: Params, cfg: TrainingConfig, feats: np.ndarray,
                           targets: np.ndarray) -> np.ndarray:
    """log p(targets[b] | feats[b]) per row, float64, dropout off: the
    entries of ``atomic_logprobs`` at the targets, bit for bit."""
    return _log_softmax_at(atomic_logits(params, feats), targets)
