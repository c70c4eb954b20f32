"""Training kernels against plain references.

``padded_sequence_forward``/``padded_sequence_backward`` and
``padded_atomic_forward``/``padded_atomic_backward`` are the earlier
kernels, kept verbatim apart from their names and annotations and from
taking the current signature, under which dropout is always a mask (all
ones at dropout 0): the sequence pair runs every row for all T steps,
builds the full (B, T, V) log-softmax and masks padding, and both keep a
``probs`` copy for the backward pass. The atomic pair takes ``probs`` as
the kernels do, each row's exps divided by its sum, exponentiating each
logit once. ``live_sequence_forward``/``live_sequence_backward`` compute
the same loss on live cells only, in the order the kernels in
``colordesc.nn`` use, straight-line: the same ``probs``, and the input
gradient taken by column blocks, the embedding's and the features'. The
atomic kernels in ``colordesc.nn`` must match the padded pair bit for
bit, and the sequence kernels the live pair: the same loss and the same
bytes in every gradient. The padded sequence pair stays the math oracle:
the live cells change the order of the sums, and it takes p as
exp(log p), so the sequence kernels match it within rounding. Golden
digests pin whole seeded trainings."""

import hashlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colordesc import (Dataset, Description, TrainingConfig, TrainingDivergence,
                       nn)
from colordesc.corpus import END_ID
from colordesc.evaluation import hit_flags, per_item_log2, perplexity_from_log2
from colordesc.models import BUCKET_PARAM_NAMES, save_checkpoint, train_model

from conftest import lstm_step_full


def padded_sequence_forward(params, cfg, feats, ids, steps, rng=None):
    """Teacher-forced forward pass.

    feats: (B, F) featurized colors; ids: (B, T + 1); steps: (B,).
    Returns (loss, cache); loss is the batch-mean summed cross-entropy.
    """
    in_ids, targets = ids[:, :-1], ids[:, 1:]
    B, T = in_ids.shape
    mask = (np.arange(T) < steps[:, None]).astype(np.float64)
    H = cfg.hidden_size
    dt = cfg.np_dtype
    # inputs of every (row, step) pair, row-major, and their input
    # contribution in one GEMM
    X = nn._step_inputs(params, cfg, np.repeat(feats, T, axis=0), in_ids.ravel())
    AX = (X @ params["lstm.W_x"] + params["lstm.b"]).reshape(B, T, 4 * H)

    h, c = nn.sequence_initial_state(params, cfg, feats)
    h_prev = np.empty((B, T, H), dtype=dt)
    c_prev = np.empty((B, T, H), dtype=dt)
    gates_i = np.empty((B, T, H), dtype=dt)
    gates_f = np.empty((B, T, H), dtype=dt)
    gates_g = np.empty((B, T, H), dtype=dt)
    gates_o = np.empty((B, T, H), dtype=dt)
    cells = np.empty((B, T, H), dtype=dt)
    tanh_c = np.empty((B, T, H), dtype=dt)
    hidden = np.empty((B, T, H), dtype=dt)
    for t in range(T):
        h_prev[:, t] = h
        c_prev[:, t] = c
        h, c, (i, f, g, o, tc) = lstm_step_full(params, None, h, c, a=AX[:, t])
        gates_i[:, t], gates_f[:, t] = i, f
        gates_g[:, t], gates_o[:, t] = g, o
        cells[:, t], tanh_c[:, t], hidden[:, t] = c, tc, h

    drop_mask = nn.dropout_mask(rng, (B, T, H), cfg.dropout, dt)
    dropped = hidden * drop_mask

    logits = dropped.reshape(B * T, H) @ params["out.W"] + params["out.b"]
    logits = logits.reshape(B, T, -1)
    logp = nn.log_softmax(logits, axis=2)
    rows = np.arange(B)[:, None]
    cols = np.arange(T)[None, :]
    nll = -logp[rows, cols, targets] * mask
    loss = float(nll.sum(dtype=np.float64) / B)
    if not np.isfinite(loss):
        raise TrainingDivergence("non-finite loss in sequence forward pass")

    cache = {
        "cfg": cfg, "params": params, "feats": feats, "X": X,
        "in_ids": in_ids, "targets": targets, "mask": mask,
        "h_prev": h_prev, "c_prev": c_prev, "i": gates_i, "f": gates_f,
        "g": gates_g, "o": gates_o, "c": cells, "tanh_c": tanh_c,
        "hidden": hidden, "dropped": dropped, "drop_mask": drop_mask,
        "probs": np.exp(logp),
    }
    return loss, cache


def padded_sequence_backward(cache):
    """Exact gradients of the sequence loss for every parameter.

    Also returns key "feats": the gradient w.r.t. the featurized color
    input (used to train bucket embeddings and the init-state maps'
    upstream, zero cost for fixed featurizers).
    """
    cfg = cache["cfg"]
    params = cache["params"]
    B, T = cache["in_ids"].shape
    H = cfg.hidden_size
    dt = cfg.np_dtype
    V = params["out.b"].shape[0]

    # softmax cross-entropy gradient, masked and batch-averaged
    dlogits = cache["probs"].copy()
    rows = np.arange(B)[:, None]
    cols = np.arange(T)[None, :]
    dlogits[rows, cols, cache["targets"]] -= 1.0
    dlogits *= (cache["mask"] / B)[:, :, None].astype(dt)

    dropped = cache["dropped"]
    grads = {}
    dflat = dlogits.reshape(B * T, V)
    grads["out.W"] = dropped.reshape(B * T, H).T @ dflat
    grads["out.b"] = dflat.sum(axis=0)
    dH_out = (dflat @ params["out.W"].T).reshape(B, T, H) * cache["drop_mask"]

    w_ci, w_cf, w_co = params["lstm.w_ci"], params["lstm.w_cf"], params["lstm.w_co"]
    da = np.empty((B, T, 4 * H), dtype=dt)
    dw_ci = np.zeros(H, dtype=dt)
    dw_cf = np.zeros(H, dtype=dt)
    dw_co = np.zeros(H, dtype=dt)
    dh_next = np.zeros((B, H), dtype=dt)
    dc_next = np.zeros((B, H), dtype=dt)
    i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
    c, tc, c_prev = cache["c"], cache["tanh_c"], cache["c_prev"]
    for t in range(T - 1, -1, -1):
        dh = dH_out[:, t] + dh_next
        do = dh * tc[:, t]
        dao = do * o[:, t] * (1.0 - o[:, t])
        dc = dh * o[:, t] * (1.0 - tc[:, t] ** 2) + dc_next + dao * w_co
        dw_co += (dao * c[:, t]).sum(axis=0)
        di = dc * g[:, t]
        dai = di * i[:, t] * (1.0 - i[:, t])
        df = dc * c_prev[:, t]
        daf = df * f[:, t] * (1.0 - f[:, t])
        dg = dc * i[:, t]
        dag = dg * (1.0 - g[:, t] ** 2)
        dw_ci += (dai * c_prev[:, t]).sum(axis=0)
        dw_cf += (daf * c_prev[:, t]).sum(axis=0)
        dc_next = dc * f[:, t] + dai * w_ci + daf * w_cf
        da[:, t, :H] = dai
        da[:, t, H : 2 * H] = daf
        da[:, t, 2 * H : 3 * H] = dag
        da[:, t, 3 * H :] = dao
        dh_next = da[:, t] @ params["lstm.W_h"].T

    da_flat = da.reshape(B * T, 4 * H)
    grads["lstm.W_x"] = cache["X"].T @ da_flat
    grads["lstm.W_h"] = cache["h_prev"].reshape(B * T, H).T @ da_flat
    grads["lstm.b"] = da_flat.sum(axis=0)
    grads["lstm.w_ci"], grads["lstm.w_cf"], grads["lstm.w_co"] = dw_ci, dw_cf, dw_co

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


def _live_cells(steps):
    """(order, step_rows): the rows longest first (a stable sort), and for
    each step the rows still live at it."""
    order = np.argsort(-steps, kind="stable")
    return order, [order[steps[order] > t] for t in range(steps.max(initial=0))]


def live_sequence_forward(params, cfg, feats, ids, steps, rng=None):
    """Teacher-forced forward pass on live cells, packed step-major:
    step t runs the rows live at t, longest first."""
    B = len(steps)
    H = cfg.hidden_size
    dt = cfg.np_dtype
    order, step_rows = _live_cells(steps)
    rows = np.concatenate([np.zeros(0, dtype=np.int64)] + step_rows)
    cell_steps = np.concatenate([np.zeros(0, dtype=np.int64)]
                                + [np.full(len(r), t) for t, r in enumerate(step_rows)])
    X = nn._step_inputs(params, cfg, feats[rows], ids[rows, cell_steps])
    AX = X @ params["lstm.W_x"] + params["lstm.b"]

    h, c = nn.sequence_initial_state(params, cfg, feats[order])
    h_prev, c_prev, gates_i, gates_f, gates_g, gates_o = [], [], [], [], [], []
    cells, tanh_c, hidden = [], [], []
    lo = 0
    for r in step_rows:
        n = len(r)
        h_prev.append(h[:n])
        c_prev.append(c[:n])
        h, c, (i, f, g, o, tc) = lstm_step_full(params, None, h[:n], c[:n],
                                                 a=AX[lo : lo + n])
        gates_i.append(i)
        gates_f.append(f)
        gates_g.append(g)
        gates_o.append(o)
        cells.append(c)
        tanh_c.append(tc)
        hidden.append(h)
        lo += n

    def packed(blocks):
        return np.concatenate([np.zeros((0, H), dtype=dt)] + blocks)

    hidden = packed(hidden)
    drop_mask = nn.dropout_mask(rng, (B, len(step_rows), H), cfg.dropout, dt)[rows, cell_steps]
    dropped = hidden * drop_mask
    logits = dropped @ params["out.W"] + params["out.b"]
    logp = nn.log_softmax(logits, axis=1)
    exps = np.exp(logits - logits.max(axis=1, keepdims=True))
    targets = ids[rows, cell_steps + 1]
    nll = -logp[np.arange(len(logp)), targets]
    loss = float(nll.sum(dtype=np.float64) / B)
    if not np.isfinite(loss):
        raise TrainingDivergence("non-finite loss in sequence forward pass")

    cache = {
        "cfg": cfg, "params": params, "feats": feats, "X": X, "order": order,
        "rows": rows, "step_rows": step_rows, "ids": ids[rows, cell_steps],
        "targets": targets, "h_prev": packed(h_prev),
        "c_prev": packed(c_prev), "i": packed(gates_i), "f": packed(gates_f),
        "g": packed(gates_g), "o": packed(gates_o), "c": packed(cells),
        "tanh_c": packed(tanh_c), "dropped": dropped, "drop_mask": drop_mask,
        "probs": exps / exps.sum(axis=1, keepdims=True),
    }
    return loss, cache


def live_sequence_backward(cache):
    """Exact gradients of ``live_sequence_forward``'s loss, with key
    "feats" in input row order."""
    cfg = cache["cfg"]
    params = cache["params"]
    feats = cache["feats"]
    B, F = feats.shape
    H = cfg.hidden_size
    dt = cfg.np_dtype
    N = len(cache["X"])

    dlogits = cache["probs"].copy()
    dlogits[np.arange(len(dlogits)), cache["targets"]] -= 1.0
    dlogits *= np.asarray(1.0 / B, dtype=dt)

    grads = {}
    grads["out.W"] = cache["dropped"].T @ dlogits
    grads["out.b"] = dlogits.sum(axis=0)
    dH_out = (dlogits @ params["out.W"].T) * cache["drop_mask"]

    w_ci, w_cf, w_co = params["lstm.w_ci"], params["lstm.w_cf"], params["lstm.w_co"]
    i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
    c, tc, c_prev = cache["c"], cache["tanh_c"], cache["c_prev"]
    # each cell's local derivatives: dao = dh k_o, dc = dh k_dc + dc_next,
    # dai = dc k_i, daf = dc k_f, dag = dc k_g, dc_prev = dc k_next
    k_o = tc * o * (1.0 - o)
    k_dc = o * (1.0 - tc ** 2) + k_o * w_co
    k_i = g * i * (1.0 - i)
    k_f = c_prev * f * (1.0 - f)
    k_g = i * (1.0 - g ** 2)
    k_next = f + k_i * w_ci + k_f * w_cf
    da = np.empty((N, 4 * H), dtype=dt)
    dh_next = np.zeros((B, H), dtype=dt)
    dc_next = np.zeros((B, H), dtype=dt)
    step_rows = cache["step_rows"]
    starts = np.cumsum([0] + [len(r) for r in step_rows])
    for t in range(len(step_rows) - 1, -1, -1):
        n = len(step_rows[t])
        cell = slice(starts[t], starts[t] + n)
        dh = dH_out[cell] + dh_next[:n]
        dao = dh * k_o[cell]
        dc = dh * k_dc[cell] + dc_next[:n]
        dai = dc * k_i[cell]
        daf = dc * k_f[cell]
        dag = dc * k_g[cell]
        da[cell] = np.concatenate([dai, daf, dag, dao], axis=1)
        # a row whose last step is t - 1 gets no gradient from step t
        dh_next = np.zeros((B, H), dtype=dt)
        dh_next[:n] = da[cell] @ params["lstm.W_h"].T
        dc_next = np.zeros((B, H), dtype=dt)
        dc_next[:n] = dc * k_next[cell]

    grads["lstm.W_x"] = cache["X"].T @ da
    grads["lstm.W_h"] = cache["h_prev"].T @ da
    grads["lstm.b"] = da.sum(axis=0)
    grads["lstm.w_ci"] = (da[:, :H] * c_prev).sum(axis=0)
    grads["lstm.w_cf"] = (da[:, H : 2 * H] * c_prev).sum(axis=0)
    grads["lstm.w_co"] = (da[:, 3 * H :] * c).sum(axis=0)

    W_x = params["lstm.W_x"]
    order = cache["order"]
    grads["emb"] = np.zeros_like(params["emb"])
    grads["feats"] = np.zeros((B, F), dtype=dt)
    if cfg.conditioning == "every-step":
        np.add.at(grads["emb"], cache["ids"], da @ W_x[F:].T)
        np.add.at(grads["feats"], cache["rows"], da @ W_x[:F].T)
    else:
        np.add.at(grads["emb"], cache["ids"], da @ W_x.T)
        # gradient reaching h0/c0 closes the recurrences above
        grads["cond.W_h0"] = feats[order].T @ dh_next
        grads["cond.b_h0"] = dh_next.sum(axis=0)
        grads["cond.W_c0"] = feats[order].T @ dc_next
        grads["cond.b_c0"] = dc_next.sum(axis=0)
        grads["feats"][order] = (dh_next @ params["cond.W_h0"].T
                                 + dc_next @ params["cond.W_c0"].T)
    return grads


def padded_atomic_forward(params, cfg, feats, targets, rng=None):
    """Returns (loss, cache); loss is mean cross-entropy over the batch."""
    dt = cfg.np_dtype
    B = feats.shape[0]
    a1 = feats @ params["fc1.W"] + params["fc1.b"]
    h1 = np.maximum(a1, 0.0)
    drop_masks = (
        nn.dropout_mask(rng, h1.shape, cfg.dropout, dt),
        nn.dropout_mask(rng, (B, cfg.atomic_hidden), cfg.dropout, dt),
    )
    d1 = h1 * drop_masks[0]
    h2 = d1 @ params["fc2.W"] + params["fc2.b"]
    d2 = h2 * drop_masks[1]
    logits = d2 @ params["out.W"] + params["out.b"]
    logp = nn.log_softmax(logits, axis=1)
    exps = np.exp(logits - logits.max(axis=1, keepdims=True))
    nll = -logp[np.arange(B), targets]
    loss = float(nll.sum(dtype=np.float64) / B)
    if not np.isfinite(loss):
        raise TrainingDivergence("non-finite loss in atomic forward pass")
    cache = {
        "cfg": cfg, "params": params, "feats": feats, "targets": targets,
        "a1": a1, "d1": d1, "d2": d2, "drop_masks": drop_masks,
        "probs": exps / exps.sum(axis=1, keepdims=True),
    }
    return loss, cache


def padded_atomic_backward(cache):
    params = cache["params"]
    B = cache["feats"].shape[0]
    dlogits = cache["probs"].copy()
    dlogits[np.arange(B), cache["targets"]] -= 1.0
    dlogits /= B
    grads = {}
    grads["out.W"] = cache["d2"].T @ dlogits
    grads["out.b"] = dlogits.sum(axis=0)
    dd2 = dlogits @ params["out.W"].T
    dh2 = dd2 * cache["drop_masks"][1]
    grads["fc2.W"] = cache["d1"].T @ dh2
    grads["fc2.b"] = dh2.sum(axis=0)
    dd1 = dh2 @ params["fc2.W"].T
    dh1 = dd1 * cache["drop_masks"][0]
    da1 = dh1 * (cache["a1"] > 0)
    grads["fc1.W"] = cache["feats"].T @ da1
    grads["fc1.b"] = da1.sum(axis=0)
    grads["feats"] = da1 @ params["fc1.W"].T
    return grads


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _assert_same_grads(got: dict, want: dict):
    assert set(got) == set(want)
    for name in want:
        assert _same_bits(got[name], want[name]), name


def _sequence_setup(seed, B, T, conditioning, dtype, dims, dropout=0.2):
    """A random model and a teacher-forcing batch padded with </s> the way
    ``EncodedDataset.teacher_forcing`` pads it; one row has all T steps."""
    H, E, V, F = dims
    cfg = TrainingConfig(hidden_size=H, embedding_dim=E, dropout=dropout,
                         conditioning=conditioning, dtype=dtype,
                         seed=seed).validate()
    rng = np.random.default_rng(seed)
    params = nn.init_params(nn.sequence_layout(cfg, V, F), rng)
    params["out.W"] *= np.asarray(4.0, dtype=cfg.np_dtype)
    feats = rng.standard_normal((B, F)).astype(cfg.np_dtype)
    steps = rng.integers(1, T + 1, B)
    steps[rng.integers(B)] = T
    seqs = rng.integers(0, V, (B, T + 1))
    ids = np.where(np.arange(T + 1) <= steps[:, None], seqs, END_ID)
    return cfg, params, feats, ids, steps


SEQUENCE_BATCHES = dict(
    B=st.sampled_from([1, 2, 3, 127, 128, 129]),
    T=st.integers(1, 6),
    conditioning=st.sampled_from(["every-step", "init-state"]),
    dtype=st.sampled_from(["float32", "float64"]),
    dims=st.sampled_from([(4, 3, 7, 5), (20, 20, 400, 54), (50, 8, 7, 5)]),
    dropout=st.booleans(),
    seed=st.integers(0, 2**32 - 1))


def _sequence_passes(reference, B, T, conditioning, dtype, dims, dropout, seed):
    """(loss, grads) of ``nn``'s sequence pair and of a reference pair on
    one random batch, each given a fresh generator of the same seed."""
    cfg, params, feats, ids, steps = _sequence_setup(
        seed, B, T, conditioning, dtype, dims, dropout=0.2 if dropout else 0.0)
    args = (params, cfg, feats, ids, steps)
    passes = []
    kernels = (nn.sequence_forward, partial(nn.sequence_backward, input_grad=True))
    for forward, backward in (kernels, reference):
        loss, cache = forward(*args, rng=np.random.default_rng([seed, 1]))
        passes.append((loss, backward(cache)))
    return passes


@settings(max_examples=80, deadline=None)
@given(**SEQUENCE_BATCHES)
def test_sequence_training_pass_equals_live_reference(**batch):
    (got_loss, got), (want_loss, want) = _sequence_passes(
        (live_sequence_forward, live_sequence_backward), **batch)
    assert _same_bits(got_loss, want_loss)
    _assert_same_grads(got, want)


@settings(max_examples=80, deadline=None)
@given(**SEQUENCE_BATCHES)
def test_sequence_training_pass_matches_padded_reference_within_rounding(**batch):
    # live cells sum in another order than the padded pass: each value is
    # within a few units of rounding of the tensor's largest entry
    (got_loss, got), (want_loss, want) = _sequence_passes(
        (padded_sequence_forward, padded_sequence_backward), **batch)
    tol = 1e-12 if batch["dtype"] == "float64" else 1e-5
    assert abs(got_loss - want_loss) <= tol * abs(want_loss)
    assert set(got) == set(want)
    for name in want:
        assert got[name].dtype == want[name].dtype and got[name].shape == want[name].shape
        err = np.abs(got[name].astype(np.float64) - want[name]).max(initial=0.0)
        assert err <= tol * np.abs(want[name]).max(initial=0.0), name


def test_sequence_dropout_draws_the_same_stream():
    cfg, params, feats, ids, steps = _sequence_setup(
        11, 128, 4, "every-step", "float32", (20, 20, 400, 54))
    args = (params, cfg, feats, ids, steps)
    rng_want, rng_got = np.random.default_rng(3), np.random.default_rng(3)
    want_loss, want_cache = live_sequence_forward(*args, rng=rng_want)
    got_loss, got_cache = nn.sequence_forward(*args, rng=rng_got)
    assert _same_bits(got_loss, want_loss)
    _assert_same_grads(nn.sequence_backward(got_cache, input_grad=True),
                       live_sequence_backward(want_cache))
    assert rng_got.random() == rng_want.random()


@settings(max_examples=40, deadline=None)
@given(B=st.sampled_from([1, 2, 3, 127, 128, 129]),
       C=st.sampled_from([5, 400, 4376]),
       dtype=st.sampled_from(["float32", "float64"]),
       dropout=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_atomic_training_pass_equals_padded_reference(B, C, dtype, dropout, seed):
    cfg = TrainingConfig(atomic_hidden=20, dropout=0.2 if dropout else 0.0,
                         dtype=dtype, seed=seed).validate()
    rng = np.random.default_rng(seed)
    F = 54
    params = nn.init_params(nn.atomic_layout(cfg, F, C), rng)
    feats = rng.standard_normal((B, F)).astype(cfg.np_dtype)
    targets = rng.integers(0, C, B)
    want_loss, want_cache = padded_atomic_forward(
        params, cfg, feats, targets, rng=np.random.default_rng([seed, 1]))
    got_loss, got_cache = nn.atomic_forward(params, cfg, feats, targets,
                                            rng=np.random.default_rng([seed, 1]))
    assert _same_bits(got_loss, want_loss)
    _assert_same_grads(nn.atomic_backward(got_cache, input_grad=True),
                       padded_atomic_backward(want_cache))


def _flat_grads(params, cache, backward):
    """The gradients ``backward`` writes into views of one flat buffer."""
    _, grads = nn.flatten({k: np.full_like(v, np.nan) for k, v in params.items()})
    assert backward(cache, grads) is grads
    return grads


@pytest.mark.parametrize("conditioning", ["every-step", "init-state"])
def test_sequence_backward_writes_the_same_bits_into_given_arrays(conditioning):
    # without the input gradient, and into a flat buffer's views, every
    # parameter's gradient keeps its bits
    cfg, params, feats, ids, steps = _sequence_setup(
        12, 129, 5, conditioning, "float32", (20, 20, 400, 54))
    _, cache = nn.sequence_forward(params, cfg, feats, ids, steps,
                                   rng=np.random.default_rng(2))
    want = nn.sequence_backward(cache, input_grad=True)
    assert "feats" in want
    del want["feats"]
    _assert_same_grads(nn.sequence_backward(cache), want)
    _assert_same_grads(_flat_grads(params, cache, nn.sequence_backward), want)


def test_atomic_backward_writes_the_same_bits_into_given_arrays():
    cfg = TrainingConfig(atomic_hidden=20, seed=4).validate()
    rng = np.random.default_rng(4)
    params = nn.init_params(nn.atomic_layout(cfg, 54, 400), rng)
    feats = rng.standard_normal((129, 54)).astype(cfg.np_dtype)
    _, cache = nn.atomic_forward(params, cfg, feats, rng.integers(0, 400, 129),
                                 rng=np.random.default_rng(5))
    want = nn.atomic_backward(cache, input_grad=True)
    del want["feats"]
    _assert_same_grads(nn.atomic_backward(cache), want)
    _assert_same_grads(_flat_grads(params, cache, nn.atomic_backward), want)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 50), n=st.integers(0, 300), E=st.integers(1, 30),
       dtype=st.sampled_from(["float32", "float64"]), seed=st.integers(0, 2**32 - 1))
def test_add_rows_at_equals_add_at_bit_for_bit(m, n, E, dtype, seed):
    rng = np.random.default_rng(seed)
    want = rng.standard_normal((m, E)).astype(dtype)
    got = want.copy()
    ids = rng.integers(0, m, n)
    rows = (rng.standard_normal((n, E)) * 1e3).astype(dtype)
    np.add.at(want, ids, rows)
    nn.add_rows_at(got, ids, rows)
    assert _same_bits(got, want)


@settings(max_examples=30, deadline=None)
@given(B=st.sampled_from([1, 2, 3, 511, 512, 513]),
       C=st.sampled_from([5, 4376]),
       dtype=st.sampled_from(["float32", "float64"]),
       seed=st.integers(0, 2**32 - 1))
def test_atomic_target_logprobs_equal_full_log_softmax(B, C, dtype, seed):
    cfg = TrainingConfig(atomic_hidden=20, dtype=dtype, seed=seed).validate()
    rng = np.random.default_rng(seed)
    params = nn.init_params(nn.atomic_layout(cfg, 54, C), rng)
    params["out.W"] *= np.asarray(4.0, dtype=cfg.np_dtype)
    feats = rng.standard_normal((B, 54)).astype(cfg.np_dtype)
    targets = rng.integers(0, C, B)
    full = nn.atomic_logprobs(params, cfg, feats)
    got = nn.atomic_target_logprobs(params, cfg, feats, targets)
    assert _same_bits(got, full[np.arange(B), targets])


def _adagrad_reference(param, grad, accum, lr, eps):
    accum += grad * grad
    param -= lr * grad / (np.sqrt(accum) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adagrad_in_place_matches_the_expression(dtype):
    rng = np.random.default_rng(5)
    want_p = rng.standard_normal((7, 9)).astype(dtype)
    got_p = want_p.copy()
    want_acc = np.zeros_like(want_p)
    # two tensors in one flat buffer; the gradient covers the first
    flat, params = nn.flatten({"w": want_p, "rest": np.ones(4, dtype=dtype)})
    opt = nn.Adagrad(params, lr=0.1)
    for _ in range(5):
        g = (rng.standard_normal((7, 9)) * 3).astype(dtype)
        g[0, 0] = 0.0
        _adagrad_reference(want_p, g, want_acc, 0.1, nn.ADAGRAD_EPS)
        opt.update(flat, g.reshape(-1))
        assert _same_bits(params["w"], want_p) and _same_bits(opt.accum["w"], want_acc)
        assert (params["rest"] == 1.0).all() and not opt.accum["rest"].any()


def test_divergence_names_epoch_batch_and_parameter(monkeypatch):
    ds = _golden_corpus(40, seed=2)
    cfg = TrainingConfig(batch_size=8, max_epochs=2, seed=0)
    real_update = nn.Adagrad.update
    calls = []

    def poisoning_update(self, params, grads):
        real_update(self, params, grads)
        calls.append(1)
        if len(calls) == 7:  # after the 2nd batch of epoch 2
            # the first entry of lstm.W_h in the flat buffer laid out as accum
            names = list(self.accum)
            params[sum(self.accum[k].size for k in names[:names.index("lstm.W_h")])] = np.nan

    monkeypatch.setattr(nn.Adagrad, "update", poisoning_update)
    with pytest.raises(TrainingDivergence,
                       match=r"at epoch 2, batch 2 of 5; first non-finite "
                             r"parameter: lstm\.W_h"):
        train_model("sequence", ds, cfg, scheme="fourier")


# -- whole seeded trainings: the checkpoint bytes must not depend on the
# kernels. The reference run puts the live sequence pair, the padded
# atomic pair, the parent's scorers and the Adagrad expression above into
# ``nn`` for the training and its dev monitoring.

WORDS = ["red", "green", "blue", "teal", "mauve", "olive", "gray", "pink"]
MODIFIERS = ["light", "dark", "pale", "deep"]


def _golden_corpus(n: int, seed: int) -> Dataset:
    """n colors with 1-3 token descriptions tied to hue and lightness."""
    rng = np.random.default_rng(seed)
    colors = np.column_stack([rng.uniform(0, 360, n), rng.uniform(0, 100, n),
                              rng.uniform(0, 100, n)])
    descs = []
    for h, _, v in colors:
        tokens = [WORDS[int(h // 45)]]
        if rng.random() < 0.4:
            tokens.insert(0, MODIFIERS[int(v // 25)])
        if rng.random() < 0.2:
            tokens.append("ish")
        descs.append(Description.from_text(" ".join(tokens)))
    return Dataset(colors=colors, descriptions=descs, split="train")


def _reference_atomic_target_logprobs(params, cfg, feats, targets):
    return nn.atomic_logprobs(params, cfg, feats)[np.arange(len(targets)), targets]


def _reference_log_softmax_at(logits, targets):
    z = logits.astype(np.float64)
    z -= logits.max(axis=1, keepdims=True).astype(np.float64)
    z_target = z[np.arange(len(z)), targets]
    return z_target - np.log(np.sum(np.exp(z, out=z), axis=1))


@settings(max_examples=40, deadline=None)
@given(rows=st.one_of(st.integers(1, 129), st.just(513)),
       C=st.sampled_from([5, 400, 4376, 28235]),
       dtype=st.sampled_from(["float32", "float64"]),
       seed=st.integers(0, 2**32 - 1))
def test_log_softmax_at_equals_the_reference_bit_for_bit(rows, C, dtype, seed):
    # 513 rows span several blocks at C = 4,376 (59 rows a block) and 28,235 (9)
    rng = np.random.default_rng(seed)
    logits = (rng.standard_normal((rows, C)) * 8).astype(dtype)
    targets = rng.integers(0, C, rows)
    assert _same_bits(nn._log_softmax_at(logits, targets),
                      _reference_log_softmax_at(logits, targets))


def _into_grads(backward):
    """A reference backward pass under the kernels' signature: its new
    arrays copied into those of ``grads``, with "feats" only when
    ``input_grad`` asks for it."""
    def run(cache, grads=None, input_grad=False):
        got = backward(cache)
        dfeats = got.pop("feats")
        if grads is None:
            grads = got
        for name, g in got.items():
            grads[name][...] = g
        if input_grad:
            grads["feats"] = dfeats
        return grads
    return run


REFERENCE_KERNELS = {
    "sequence_forward": live_sequence_forward,
    "sequence_backward": _into_grads(live_sequence_backward),
    "atomic_forward": padded_atomic_forward,
    "atomic_backward": _into_grads(padded_atomic_backward),
    "atomic_target_logprobs": _reference_atomic_target_logprobs,
    "_log_softmax_at": _reference_log_softmax_at,
    "adagrad_update": _adagrad_reference,
    "add_rows_at": np.add.at,
}

# sha256 of the six checkpoints with numpy 2.4.6 and its bundled
# OpenBLAS 0.3.31 on an AVX-512 (Sapphire Rapids) Xeon, taken with the
# kernels that exponentiate each logit once, take the input gradient by
# column blocks and update one flat parameter buffer; another BLAS build
# or CPU may round a GEMM differently, so the test compares against the
# reference run, not these.
RECORDED_DIGESTS = {
    ("sequence", "fourier", "every-step", 0.2):
        "a49397e627c10de3573d9d6ff57851fd2b549d876695080acf8d98c43d4bdbab",
    ("sequence", "fourier", "every-step", 0.0):
        "25e9013e21fd06e5de81025dbd146ddee146354decb89bcca6c51de3ea364900",
    ("sequence", "buckets", "init-state", 0.2):
        "33f6312880c79f5bcbadfff938fcd56a48a9c2d95b320f34ebade83b4805094f",
    ("sequence", "raw", "init-state", 0.0):
        "7a09e128729c929c07746a31c7efa158d91e3a1dc0d1e0e961e8d22f28c3d582",
    ("atomic", "buckets", "every-step", 0.2):
        "65bc94036f7502e965a47d84c06405a43111f280dfd587d27fa86e2787bcbe1a",
    ("atomic", "fourier", "every-step", 0.0):
        "9c2f91b06076930498bad5dfc87a453473046160276f23f2500f1bab7e953e8d",
}


def _seeded_checkpoint(path, family, scheme, conditioning, dropout) -> bytes:
    train = _golden_corpus(300, seed=21)
    dev = _golden_corpus(60, seed=22)
    cfg = TrainingConfig(batch_size=32, max_epochs=2, seed=13,
                         conditioning=conditioning, dropout=dropout)
    model, _ = train_model(family, train, cfg, scheme=scheme, dev=dev)
    save_checkpoint(model, path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "family,scheme,conditioning,dropout", sorted(RECORDED_DIGESTS),
    ids=["-".join(case[:3]) + ("" if case[3] else "-no-dropout")
         for case in sorted(RECORDED_DIGESTS)])
def test_seeded_training_checkpoint_equals_reference_kernels(
        tmp_path, monkeypatch, family, scheme, conditioning, dropout):
    got = _seeded_checkpoint(tmp_path / "got.ckpt", family, scheme, conditioning,
                             dropout)
    with monkeypatch.context() as patch:
        for name, reference in REFERENCE_KERNELS.items():
            assert hasattr(nn, name), name
            patch.setattr(nn, name, reference)
        want = _seeded_checkpoint(tmp_path / "want.ckpt", family, scheme,
                                  conditioning, dropout)
    assert hashlib.sha256(got).hexdigest() == hashlib.sha256(want).hexdigest()


# -- the quality of each recorded training: the per-description perplexity
# of the held-out set (atomic's out-of-inventory items excluded, as ``eval
# --allow-zero`` does) to 6 significant digits, and its beam-10 top-1 hits
# out of 60. A change that moves checkpoint bytes on purpose re-records the
# digests above and leaves these alone. The perplexity may move by
# rounding: the recorded figure's own rounding is under 3e-6 relative, and
# one exp per logit in the softmax moved it by at most 1.3e-6; a halved
# learning rate moves it by 5-100%. The hits must not move.
RECORDED_QUALITY = {
    ("sequence", "fourier", "every-step", 0.2): (18.7140, 17),
    ("sequence", "fourier", "every-step", 0.0): (19.9964, 21),
    ("sequence", "buckets", "init-state", 0.2): (63.7636, 5),
    ("sequence", "raw", "init-state", 0.0): (46.1791, 5),
    ("atomic", "buckets", "every-step", 0.2): (47.0201, 5),
    ("atomic", "fourier", "every-step", 0.0): (19.3748, 17),
}
QUALITY_RTOL = 1e-4


@pytest.mark.parametrize(
    "family,scheme,conditioning,dropout", sorted(RECORDED_QUALITY),
    ids=["-".join(case[:3]) + ("" if case[3] else "-no-dropout")
         for case in sorted(RECORDED_QUALITY)])
def test_seeded_training_quality_equals_the_recorded_one(
        family, scheme, conditioning, dropout):
    assert RECORDED_QUALITY.keys() == RECORDED_DIGESTS.keys()
    train, dev = _golden_corpus(300, seed=21), _golden_corpus(60, seed=22)
    cfg = TrainingConfig(batch_size=32, max_epochs=2, seed=13,
                         conditioning=conditioning, dropout=dropout)
    model, _ = train_model(family, train, cfg, scheme=scheme, dev=dev)
    perplexity = perplexity_from_log2(per_item_log2(model, dev), on_zero="exclude")[0]
    want_perplexity, want_hits = RECORDED_QUALITY[family, scheme, conditioning, dropout]
    assert perplexity == pytest.approx(want_perplexity, rel=QUALITY_RTOL)
    assert int(hit_flags(model, dev).sum()) == want_hits


# -- bucket tables: training updates only the rows a batch looked up.
# The reference is the update it replaced, on the whole table.


def _dense_update_rows(self, params, lo, ids, grads):
    E = grads.shape[1]
    table, accum = params[lo:].reshape(-1, E), self.flat[lo:].reshape(-1, E)
    grad = np.zeros_like(table)
    np.add.at(grad, ids, grads)
    _adagrad_reference(table, grad, accum, self.lr, self.eps)


@pytest.mark.parametrize("family", ["atomic", "sequence"])
def test_bucket_table_row_update_equals_dense_update(monkeypatch, family):
    once = _golden_corpus(100, seed=31)
    # every color three times, so that a batch repeats fine buckets too
    train = Dataset(colors=np.tile(once.colors, (3, 1)),
                    descriptions=once.descriptions * 3, split="train")
    cfg = TrainingConfig(batch_size=32, max_epochs=2, seed=13)
    made, batches = [], []

    class Recorded(nn.Adagrad):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def update_rows(self, params, lo, ids, grads):
            batches.append(ids.copy())
            super().update_rows(params, lo, ids, grads)

    monkeypatch.setattr(nn, "Adagrad", Recorded)
    got, _ = train_model(family, train, cfg, scheme="buckets")
    monkeypatch.setattr(Recorded, "update_rows", _dense_update_rows)
    want, _ = train_model(family, train, cfg, scheme="buckets")

    # 10 batches an epoch, each updating the three tables in one call, over
    # ids offset by the rows of the tables before them
    assert len(batches) == 2 * 10
    ends = np.cumsum([len(got.params[name]) for name in BUCKET_PARAM_NAMES])
    for ids in batches:
        table = np.searchsorted(ends, ids, side="right")
        assert (table.reshape(-1, 3) == np.arange(3)).all()
    for t in range(3):
        assert any(len(np.unique(ids[t::3])) < len(ids[t::3]) for ids in batches)
    sparse, dense = made
    assert not sparse.accum["buckets.fine"].any(axis=1).all()  # untouched rows
    assert not sparse.accum["buckets.mid"].any(axis=1).all()
    assert got.params.keys() == want.params.keys()
    for name in got.params:
        assert _same_bits(got.params[name], want.params[name]), name
        assert _same_bits(sparse.accum[name], dense.accum[name]), name
