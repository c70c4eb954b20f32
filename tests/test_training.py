"""Training kernels against the padded reference they replaced.

``padded_sequence_forward``/``padded_sequence_backward`` and
``padded_atomic_forward``/``padded_atomic_backward`` are the earlier
kernels, kept verbatim apart from their names and annotations and from
taking the current signature, under which dropout is always a mask (all
ones at dropout 0): the sequence pair builds the full (B, T, V)
log-softmax and masks padding, and both keep a ``probs`` copy for the
backward pass. The kernels in ``colordesc.nn`` must match them bit for
bit: the same loss and the same bytes in every gradient. Golden digests
pin whole seeded trainings.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colordesc import (Dataset, Description, TrainingConfig, TrainingDivergence,
                       nn)
from colordesc.corpus import END_ID
from colordesc.models import BUCKET_PARAM_NAMES, save_checkpoint, train_model

from conftest import lstm_step_full


def padded_sequence_forward(params, cfg, feats, in_ids, targets, mask, rng=None):
    """Teacher-forced forward pass.

    feats: (B, F) featurized colors; in_ids/targets/mask: (B, T).
    Returns (loss, cache); loss is the batch-mean summed cross-entropy.
    """
    B, T = in_ids.shape
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
    nll = -logp[np.arange(B), targets]
    loss = float(nll.sum(dtype=np.float64) / B)
    if not np.isfinite(loss):
        raise TrainingDivergence("non-finite loss in atomic forward pass")
    cache = {
        "cfg": cfg, "params": params, "feats": feats, "targets": targets,
        "a1": a1, "d1": d1, "d2": d2, "drop_masks": drop_masks,
        "probs": np.exp(logp),
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


def _sequence_setup(seed, B, T, conditioning, dtype, dims, holes, dropout=0.2):
    """A random model and teacher-forcing tensors padded with </s> the
    way ``EncodedDataset.teacher_forcing`` pads them; one row has all T
    steps. ``holes`` also zeroes interior mask cells."""
    H, E, V, F = dims
    cfg = TrainingConfig(hidden_size=H, embedding_dim=E, dropout=dropout,
                         conditioning=conditioning, dtype=dtype,
                         seed=seed).validate()
    rng = np.random.default_rng(seed)
    params = nn.init_params(nn.sequence_layout(cfg, V, F), rng)
    params["out.W"] *= np.asarray(4.0, dtype=cfg.np_dtype)
    feats = rng.standard_normal((B, F)).astype(cfg.np_dtype)
    lengths = rng.integers(1, T + 1, B)
    lengths[rng.integers(B)] = T
    mask = (np.arange(T) < lengths[:, None]).astype(np.float64)
    if holes:
        mask *= rng.random(mask.shape) < 0.7
    seqs = rng.integers(0, V, (B, T + 1))
    padded = np.arange(T) >= lengths[:, None]
    in_ids = np.where(padded, END_ID, seqs[:, :-1])
    targets = np.where(padded, END_ID, seqs[:, 1:])
    return cfg, params, feats, in_ids, targets, mask


@settings(max_examples=80, deadline=None)
@given(B=st.sampled_from([1, 2, 3, 127, 128, 129]),
       T=st.integers(1, 6),
       conditioning=st.sampled_from(["every-step", "init-state"]),
       dtype=st.sampled_from(["float32", "float64"]),
       dims=st.sampled_from([(4, 3, 7, 5), (20, 20, 400, 54), (50, 8, 7, 5)]),
       dropout=st.booleans(),
       holes=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sequence_training_pass_equals_padded_reference(B, T, conditioning, dtype,
                                                       dims, dropout, holes, seed):
    cfg, params, feats, in_ids, targets, mask = _sequence_setup(
        seed, B, T, conditioning, dtype, dims, holes, dropout=0.2 if dropout else 0.0)
    args = (params, cfg, feats, in_ids, targets, mask)
    want_loss, want_cache = padded_sequence_forward(
        *args, rng=np.random.default_rng([seed, 1]))
    got_loss, got_cache = nn.sequence_forward(*args, rng=np.random.default_rng([seed, 1]))
    assert _same_bits(got_loss, want_loss)
    _assert_same_grads(nn.sequence_backward(got_cache),
                       padded_sequence_backward(want_cache))


def test_sequence_dropout_draws_the_same_stream():
    cfg, params, feats, in_ids, targets, mask = _sequence_setup(
        11, 128, 4, "every-step", "float32", (20, 20, 400, 54), holes=False)
    args = (params, cfg, feats, in_ids, targets, mask)
    rng_want, rng_got = np.random.default_rng(3), np.random.default_rng(3)
    want_loss, want_cache = padded_sequence_forward(*args, rng=rng_want)
    got_loss, got_cache = nn.sequence_forward(*args, rng=rng_got)
    assert _same_bits(got_loss, want_loss)
    _assert_same_grads(nn.sequence_backward(got_cache),
                       padded_sequence_backward(want_cache))
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
    _assert_same_grads(nn.atomic_backward(got_cache),
                       padded_atomic_backward(want_cache))


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
    opt = nn.Adagrad({"w": got_p}, lr=0.1)
    for _ in range(5):
        g = (rng.standard_normal((7, 9)) * 3).astype(dtype)
        g[0, 0] = 0.0
        _adagrad_reference(want_p, g, want_acc, 0.1, nn.ADAGRAD_EPS)
        opt.update({"w": got_p}, {"w": g})
        assert _same_bits(got_p, want_p) and _same_bits(opt.accum["w"], want_acc)


def test_divergence_names_epoch_batch_and_parameter(monkeypatch):
    ds = _golden_corpus(40, seed=2)
    cfg = TrainingConfig(batch_size=8, max_epochs=2, seed=0)
    real_update = nn.Adagrad.update
    calls = []

    def poisoning_update(self, params, grads):
        real_update(self, params, grads)
        calls.append(1)
        if len(calls) == 7:  # after the 2nd batch of epoch 2
            params["lstm.W_h"][0, 0] = np.nan

    monkeypatch.setattr(nn.Adagrad, "update", poisoning_update)
    with pytest.raises(TrainingDivergence,
                       match=r"at epoch 2, batch 2 of 5; first non-finite "
                             r"parameter: lstm\.W_h"):
        train_model("sequence", ds, cfg, scheme="fourier")


# -- whole seeded trainings: the checkpoint bytes must not depend on the
# kernels. The reference run puts the padded kernels, the parent's
# scorers and the Adagrad expression above into ``nn`` for the training
# and its dev monitoring.

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


REFERENCE_KERNELS = {
    "sequence_forward": padded_sequence_forward,
    "sequence_backward": padded_sequence_backward,
    "atomic_forward": padded_atomic_forward,
    "atomic_backward": padded_atomic_backward,
    "atomic_target_logprobs": _reference_atomic_target_logprobs,
    "_log_softmax_at": _reference_log_softmax_at,
    "adagrad_update": _adagrad_reference,
}

# sha256 of the six checkpoints with numpy 2.4.6 and its bundled
# OpenBLAS 0.3.31 on an AVX-512 (Sapphire Rapids) Xeon, taken with the
# padded kernels (the dropout-0 rows with the kernels that skipped the
# mask at dropout 0); another BLAS build or CPU may round a GEMM
# differently, so the test compares against the reference run, not these.
RECORDED_DIGESTS = {
    ("sequence", "fourier", "every-step", 0.2):
        "e11ba65562d60a1771ef8486ef28eeed02867623ca1345aca97975e467586312",
    ("sequence", "fourier", "every-step", 0.0):
        "a3fe108d5d26b6e886d9f75afa5907ec55f8ed4eaf3f01675e456efddaf0216f",
    ("sequence", "buckets", "init-state", 0.2):
        "62b65d0cbdccba89e1b46795bd264eb799fe3af5c97ca5d3bbfb9e04b54f72cf",
    ("sequence", "raw", "init-state", 0.0):
        "fce9b95cf61b617756009ec74a016900c53b4ebf4bbdf37b98f0f855c91fc12d",
    ("atomic", "buckets", "every-step", 0.2):
        "968b8fc1b57a68f0973136a9de4e62040d3b57c61f8dbbf7f89b714e26113f90",
    ("atomic", "fourier", "every-step", 0.0):
        "899369985d291796564feacdcc01bdb6f48b7909f325f19807bb511a3b4b6f3f",
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


# -- bucket tables: training updates only the rows a batch looked up.
# The reference is the update it replaced, on the whole table.


def _dense_update_rows(self, params, name, ids, grads):
    grad = np.zeros_like(params[name])
    np.add.at(grad, ids, grads)
    _adagrad_reference(params[name], grad, self.accum[name], self.lr, self.eps)


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

        def update_rows(self, params, name, ids, grads):
            batches.append((name, ids.copy()))
            super().update_rows(params, name, ids, grads)

    monkeypatch.setattr(nn, "Adagrad", Recorded)
    got, _ = train_model(family, train, cfg, scheme="buckets")
    monkeypatch.setattr(Recorded, "update_rows", _dense_update_rows)
    want, _ = train_model(family, train, cfg, scheme="buckets")

    # 10 batches an epoch, each updating the three tables
    assert len(batches) == 2 * 10 * 3
    for name in BUCKET_PARAM_NAMES:
        assert any(len(np.unique(ids)) < len(ids) for n, ids in batches if n == name)
    sparse, dense = made
    assert not sparse.accum["buckets.fine"].any(axis=1).all()  # untouched rows
    assert not sparse.accum["buckets.mid"].any(axis=1).all()
    assert got.params.keys() == want.params.keys()
    for name in got.params:
        assert _same_bits(got.params[name], want.params[name]), name
        assert _same_bits(sparse.accum[name], dense.accum[name]), name
