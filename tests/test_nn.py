import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colordesc import TrainingConfig, TrainingDivergence
from colordesc.corpus import END_ID
from colordesc.errors import ConfigError
from colordesc import nn

from conftest import (fd_max_relative_error, lstm_step_full, padded_sequence_logprobs,
                      reference_log_softmax_at, tile_matmul)


def test_config_validation():
    TrainingConfig().validate()
    with pytest.raises(ConfigError):
        TrainingConfig(learning_rate=0.0).validate()
    with pytest.raises(ConfigError):
        TrainingConfig(dropout=1.0).validate()
    with pytest.raises(ConfigError):
        TrainingConfig(conditioning="both").validate()
    with pytest.raises(ConfigError):
        TrainingConfig(dtype="float16").validate()
    with pytest.raises(ConfigError):
        TrainingConfig(batch_size=0).validate()
    # an int too large for a float is refused, in a field with a range
    # rule by that rule
    for bad in ({"seed": -1}, {"patience": 0}, {"evals_per_epoch": 0},
                {"adagrad_eps": 0.0}, {"adagrad_eps": -1e-8},
                {"learning_rate": 10**400}, {"embedding_sigma": 10**400},
                {"dropout": 10**400}, {"hidden_size": float("nan")}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainingConfig(**bad).validate()


def test_config_dict_roundtrip():
    cfg = TrainingConfig(seed=9, hidden_size=7, conditioning="init-state")
    back = TrainingConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_softmax_uniform_and_cross_entropy():
    p = nn.softmax(np.array([0.0, 0.0]))
    np.testing.assert_allclose(p, [0.5, 0.5])
    assert -math.log(p[0]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_softmax_shift_invariance_and_simplex():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((20, 7))
    p1 = nn.softmax(z)
    p2 = nn.softmax(z + 123.456)
    np.testing.assert_allclose(p1, p2, atol=1e-7)
    np.testing.assert_allclose(p1.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(p1 > 0.0) and np.all(p1 < 1.0)


def test_softmax_extreme_logits_stay_finite():
    p = nn.softmax(np.array([1e4, 0.0, -1e4]))
    assert np.isfinite(p).all()
    assert p[0] == pytest.approx(1.0)
    lp = nn.log_softmax(np.array([1e4, 0.0, -1e4]))
    assert np.isfinite(lp[1])


def _mixed_dtype_softmax(z, axis=-1):
    """softmax as it subtracted the max in the logits' dtype, cast by a
    float64 ufunc."""
    p = np.subtract(z, z.max(axis=axis, keepdims=True), dtype=np.float64)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p


def _logits(rng, rows, C, dtype, scale, ties):
    """(rows, C) uniform logits in (-scale, scale); ``scale`` "max" is a
    quarter of the dtype's largest magnitude, and ``ties`` leaves a few
    distinct values, so that a row's max appears many times."""
    if scale == "max":
        scale = np.finfo(dtype).max / 4
    logits = rng.uniform(-1.0, 1.0, (rows, C)) * scale
    if ties:
        logits = np.round(logits / scale * 2) * scale / 2
    return logits.astype(dtype)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 130), C=st.sampled_from([5, 400, 4376]),
       dtype=st.sampled_from(["float32", "float64"]),
       scale=st.sampled_from([1.0, 1e4, 1e30, "max"]), ties=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_one_dtype_normalizations_equal_the_mixed_dtype_formulas_bit_for_bit(
        rows, C, dtype, scale, ties, seed):
    rng = np.random.default_rng(seed)
    logits = _logits(rng, rows, C, dtype, scale, ties)
    targets = rng.integers(0, C, rows)
    with np.errstate(over="ignore"):
        assert (nn._log_softmax_at(logits.copy(), targets).tobytes()
                == reference_log_softmax_at(logits, targets).tobytes())
        for axis in (-1, 0):
            assert (nn.softmax(logits, axis=axis).tobytes()
                    == _mixed_dtype_softmax(logits, axis=axis).tobytes())


def _float64_log_softmax_at(logits, targets):
    """_log_softmax_at as it took every exp in float64: z = float64(logits)
    - float64(max), then z[target] - log(sum(exp(z)))."""
    z = logits.astype(np.float64)
    z -= logits.max(axis=1, keepdims=True).astype(np.float64)
    z_target = z[np.arange(len(z)), targets]
    return z_target - np.log(np.sum(np.exp(z, out=z), axis=1))


# A float32 exp is within 2.1e-7 of the exact value, relative (swept over
# [-87, 0] with numpy 2.4.6), and a float32 logit - max rounds by at most
# 6e-8 relative, so a row's log-sum is within 2.7e-7 nats of the float64
# formula's. Measured over 1,500 random setups of these strategies: at
# most 6.2e-8 nats.
FLOAT32_EXP_TOLERANCE = 3e-7


@settings(max_examples=60, deadline=None)
@given(rows=st.one_of(st.integers(1, 130), st.just(513)),
       C=st.sampled_from([5, 400, 4376, 28235]),
       dtype=st.sampled_from(["float32", "float64"]),
       scale=st.sampled_from([1.0, 3.0, 8.0, 1e4, 1e30, "max"]), ties=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_log_softmax_at_agrees_with_the_float64_formula(rows, C, dtype, scale, ties, seed):
    # float64 logits keep every bit; float32 ones differ by the rounding
    # of their float32 exps alone, as the target term is exact in both
    rng = np.random.default_rng(seed)
    logits = _logits(rng, rows, C, dtype, scale, ties)
    targets = rng.integers(0, C, rows)
    with np.errstate(over="ignore"):
        want = _float64_log_softmax_at(logits, targets)
        got = nn._log_softmax_at(logits, targets)
    if dtype == "float64":
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=FLOAT32_EXP_TOLERANCE)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 41), C=st.sampled_from([5, 400, 8193, 28235]),
       dtype=st.sampled_from(["float32", "float64"]), seed=st.integers(0, 2**32 - 1))
def test_a_log_softmax_row_alone_equals_it_at_every_position_of_a_batch(rows, C, dtype,
                                                                        seed):
    # a float32 row of 8,193 entries or more spans two of numpy's
    # 8,192-element cast buffers in the float64 row sum
    rng = np.random.default_rng(seed)
    logits = (rng.standard_normal((rows, C)) * 8).astype(dtype)
    targets = rng.integers(0, C, rows)
    alone = nn._log_softmax_at(logits[:1].copy(), targets[:1])
    for at in range(rows):
        batch = np.roll(logits, at, axis=0)
        got = nn._log_softmax_at(batch, np.roll(targets, at))
        assert got[at : at + 1].tobytes() == alone.tobytes(), at


def test_lstm_step_saturates_gates_without_warnings():
    # every gate pre-activation is -1e4, 0 or 1e4 (c = 0 and W_h = 0), so
    # the sigmoids' exp(1e4) overflows and must saturate silently to 0
    H = 3
    params = {"lstm.w_ci": np.ones(H), "lstm.w_cf": np.ones(H),
              "lstm.w_co": np.zeros(H)}
    ax = np.tile([-1e4, 0.0, 1e4], 4)[None]
    h, c = np.zeros((1, H)), np.zeros((1, H))
    gates = np.empty((4, 1, H))
    with np.errstate(over="raise"):
        a = h @ np.zeros((H, 4 * H))
        a += ax
        h2, c2 = nn._lstm_step(a, nn.negated_peepholes(params, 1), c, gates,
                               np.empty((1, H)), np.empty((1, H)), np.empty((1, H)))
    for gate in gates[[0, 1, 3], 0]:
        np.testing.assert_allclose(gate, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(gates[2, 0], [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(c2[0], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(h2[0], [0.0, 0.0, np.tanh(1.0)])


def test_dropout_identity_cases():
    x = np.ones((4, 5))
    rng = np.random.default_rng(1)
    mask = nn.dropout_mask(rng, x.shape, 0.0, x.dtype)
    np.testing.assert_array_equal(x * mask, x)
    assert mask.dtype == x.dtype


def test_dropout_statistics():
    rng = np.random.default_rng(2)
    x = np.ones(1_000_000)
    out = x * nn.dropout_mask(rng, x.shape, 0.2, x.dtype)
    zero_frac = float((out == 0.0).mean())
    assert abs(zero_frac - 0.2) < 0.002
    assert abs(out.mean() - 1.0) < 0.01
    surviving = out[out != 0.0]
    np.testing.assert_allclose(surviving, 1.0 / 0.8)


def test_adagrad_two_step_arithmetic():
    p = np.array([1.0])
    acc = np.zeros(1)
    nn.adagrad_update(p, np.array([3.0]), acc, lr=0.1)
    assert acc[0] == pytest.approx(9.0)
    assert p[0] == pytest.approx(1.0 - 0.1 * 3.0 / (3.0 + 1e-8), abs=1e-12)

    p2 = np.array([0.0])
    acc2 = np.zeros(1)
    nn.adagrad_update(p2, np.array([1.0]), acc2, lr=0.1)
    nn.adagrad_update(p2, np.array([1.0]), acc2, lr=0.1)
    step2 = -0.1 / math.sqrt(2.0)
    assert p2[0] == pytest.approx(-0.1 + step2, rel=1e-6)


def test_adagrad_zero_gradient_is_noop():
    p = np.array([1.5])
    acc = np.array([4.0])
    nn.adagrad_update(p, np.array([0.0]), acc, lr=0.1)
    assert p[0] == 1.5 and acc[0] == 4.0


def test_adagrad_first_step_magnitude_bounded_by_lr():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = np.array([float(rng.standard_normal()) * 100.0])
        p = np.zeros(1)
        acc = np.zeros(1)
        nn.adagrad_update(p, g, acc, lr=0.1)
        if g[0] != 0.0:
            assert abs(p[0]) <= 0.1 + 1e-12


def test_glorot_bounds_and_determinism():
    limit = math.sqrt(6.0 / (30 + 40))
    w1 = nn.glorot(np.random.default_rng(7), (30, 40), np.float32)
    w2 = nn.glorot(np.random.default_rng(7), (30, 40), np.float32)
    assert w1.shape == (30, 40)
    assert np.abs(w1).max() <= limit
    np.testing.assert_array_equal(w1, w2)


def test_lstm_init_shapes_and_forget_bias():
    # every-step input width: 3 feature columns + 1 embedding column = 4
    cfg = TrainingConfig(hidden_size=2, embedding_dim=1).validate()
    layout = nn.sequence_layout(cfg, 5, 3)
    params = nn.init_params(layout, np.random.default_rng(0))
    assert {name: (shape, dtype) for name, shape, dtype, _ in layout} == {
        name: (p.shape, p.dtype) for name, p in params.items()}
    assert params["lstm.W_x"].shape == (4, 8)
    assert params["lstm.W_h"].shape == (2, 8)
    np.testing.assert_array_equal(params["lstm.b"][2:4], [5.0, 5.0])
    np.testing.assert_array_equal(params["lstm.b"][:2], [0.0, 0.0])
    np.testing.assert_array_equal(params["lstm.b"][4:], np.zeros(4))
    total = sum(v.size for k, v in params.items() if k.startswith("lstm."))
    assert total == 4 * 8 + 2 * 8 + 3 * 2 + 8  # == 62


def test_sequence_init_determinism():
    cfg = TrainingConfig(seed=5).validate()
    a = nn.init_params(nn.sequence_layout(cfg, 11, 54), np.random.default_rng(5))
    b = nn.init_params(nn.sequence_layout(cfg, 11, 54), np.random.default_rng(5))
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def _random_sequence_setup(seed, conditioning, dropout=0.2, V=5, F=6, B=3, T=4):
    """A random model, (B, T + 1) random ids and step counts in 1..T."""
    cfg = TrainingConfig(hidden_size=4, embedding_dim=3, dropout=dropout,
                         conditioning=conditioning, dtype="float64",
                         seed=seed).validate()
    rng = np.random.default_rng(seed)
    params = nn.init_params(nn.sequence_layout(cfg, V, F), rng)
    feats = rng.standard_normal((B, F))
    ids = rng.integers(0, V, (B, T + 1))
    steps = rng.integers(1, T + 1, B)
    return cfg, params, feats, ids, steps


def _mask_rng(seed):
    """A fresh generator: each training pass given one of the same seed
    draws the same dropout masks."""
    return np.random.default_rng([seed, 1])


@pytest.mark.parametrize("conditioning", ["every-step", "init-state"])
@pytest.mark.parametrize("seed", [0, 1])
def test_sequence_gradients_match_finite_differences(conditioning, seed):
    cfg, params, feats, ids, steps = _random_sequence_setup(seed, conditioning)

    def loss_fn():
        loss, _ = nn.sequence_forward(params, cfg, feats, ids, steps, rng=_mask_rng(seed))
        return loss

    _, cache = nn.sequence_forward(params, cfg, feats, ids, steps, rng=_mask_rng(seed))
    grads = nn.sequence_backward(cache, input_grad=True)
    dfeats = grads.pop("feats")
    assert fd_max_relative_error(params, loss_fn, grads) <= 1e-4

    # input-feature gradient feeds the bucket embeddings; check it too
    worst = 0.0
    delta = 1e-4
    for b in range(feats.shape[0]):
        for j in range(feats.shape[1]):
            orig = feats[b, j]
            feats[b, j] = orig + delta
            lp = loss_fn()
            feats[b, j] = orig - delta
            lm = loss_fn()
            feats[b, j] = orig
            fd = (lp - lm) / (2 * delta)
            worst = max(worst, abs(dfeats[b, j] - fd) /
                        max(abs(dfeats[b, j]) + abs(fd), 1e-3))
    assert worst <= 1e-4


def test_zero_weight_model_gradients_match_finite_differences():
    cfg, params, feats, ids, steps = _random_sequence_setup(3, "every-step", dropout=0.0)
    for v in params.values():
        v[...] = 0.0

    def loss_fn():
        loss, _ = nn.sequence_forward(params, cfg, feats, ids, steps)
        return loss

    _, cache = nn.sequence_forward(params, cfg, feats, ids, steps)
    grads = nn.sequence_backward(cache)
    assert fd_max_relative_error(params, loss_fn, grads) <= 1e-4


def test_padded_positions_get_exactly_zero_gradient(monkeypatch):
    # the recurrence advances a row up to its length and no further: on
    # rows of lengths 1..T it advances 1 + ... + T rows, not B x T
    advanced = []

    def recorded_step(a, neg_w, c, *out):
        advanced.append(len(c))
        return real_step(a, neg_w, c, *out)

    real_step = nn._lstm_step
    monkeypatch.setattr(nn, "_lstm_step", recorded_step)
    T = 4
    cfg, params, feats, ids, _ = _random_sequence_setup(4, "every-step", B=T, T=T)
    nn.sequence_backward(nn.sequence_forward(params, cfg, feats, ids, np.arange(1, T + 1),
                                             rng=_mask_rng(4))[1])
    assert advanced == [4, 3, 2, 1]

    cfg, params, feats, ids, _ = _random_sequence_setup(4, "every-step", B=4)
    steps = np.array([2, 3, 1, 0])  # a row of no steps takes no loss

    def run(ids):
        loss, cache = nn.sequence_forward(params, cfg, feats, ids, steps, rng=_mask_rng(4))
        return loss, cache, nn.sequence_backward(cache, input_grad=True)

    loss_a, _, grads_a = run(ids)
    assert loss_a > 0.0 and not grads_a["feats"][3].any()
    # perturbing an id past a row's steps + 1 (the input after its last
    # step, or a target after its last one) leaves the loss and every
    # gradient bit-equal
    past = np.arange(ids.shape[1]) > steps[:, None]
    rng = np.random.default_rng(14)
    for _ in range(3):
        alt = ids.copy()
        alt[past] = (alt[past] + rng.integers(1, 5, past.sum())) % 5
        loss_b, _, grads_b = run(alt)
        assert loss_a == loss_b
        for k in grads_a:
            assert grads_a[k].tobytes() == grads_b[k].tobytes(), k


def test_sequence_forward_raises_on_divergence():
    cfg, params, feats, ids, steps = _random_sequence_setup(5, "every-step", dropout=0.0)
    params["out.b"][...] = np.nan
    with pytest.raises(TrainingDivergence):
        nn.sequence_forward(params, cfg, feats, ids, steps)


def test_sequence_logprobs_agrees_with_loss():
    cfg, params, feats, ids, steps = _random_sequence_setup(6, "every-step", dropout=0.0)
    loss, _ = nn.sequence_forward(params, cfg, feats, ids, steps)
    logs = nn.sequence_logprobs(params, cfg, feats, ids, steps)
    assert loss == pytest.approx(float(-logs.sum() / len(logs)), rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_atomic_gradients_match_finite_differences(seed):
    cfg = TrainingConfig(atomic_hidden=4, dropout=0.2, dtype="float64",
                         seed=seed).validate()
    rng = np.random.default_rng(seed)
    F, C, B = 6, 5, 3
    params = nn.init_params(nn.atomic_layout(cfg, F, C), rng)
    feats = rng.standard_normal((B, F))
    targets = rng.integers(0, C, B)

    def loss_fn():
        loss, _ = nn.atomic_forward(params, cfg, feats, targets, rng=_mask_rng(seed))
        return loss

    _, cache = nn.atomic_forward(params, cfg, feats, targets, rng=_mask_rng(seed))
    grads = nn.atomic_backward(cache)
    assert fd_max_relative_error(params, loss_fn, grads) <= 1e-4


def test_update_determinism_over_many_steps():
    def run():
        cfg, params, feats, ids, steps = _random_sequence_setup(8, "every-step", dropout=0.0)
        flat, params = nn.flatten(params)
        grad_flat, grads = nn.flatten({k: np.zeros_like(v) for k, v in params.items()})
        opt = nn.Adagrad(params, 0.1)
        for _ in range(25):
            _, cache = nn.sequence_forward(params, cfg, feats, ids, steps)
            nn.sequence_backward(cache, grads)
            opt.update(flat, grad_flat)
        return params

    a = run()
    b = run()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


# -- live-row scoring against the padded scorer


def _scoring_setup(seed, B, conditioning, dtype, dims, steps):
    """A random model and a teacher-forcing batch of rows of the given
    step counts, padded with </s> to the longest as the models pad them."""
    H, E, V, F = dims
    cfg = TrainingConfig(hidden_size=H, embedding_dim=E, dropout=0.0,
                         conditioning=conditioning, dtype=dtype,
                         seed=seed).validate()
    rng = np.random.default_rng(seed)
    params = nn.init_params(nn.sequence_layout(cfg, V, F), rng)
    params["out.W"] *= np.asarray(4.0, dtype=cfg.np_dtype)
    feats = rng.standard_normal((B, F)).astype(cfg.np_dtype)
    seqs = rng.integers(0, V, (B, int(steps.max()) + 1))
    ids = np.where(np.arange(seqs.shape[1]) <= steps[:, None], seqs, END_ID)
    return params, cfg, feats, ids, steps


@settings(max_examples=90, deadline=None)
@given(B=st.sampled_from([1, 2, 3, 511, 512, 513]),
       conditioning=st.sampled_from(["every-step", "init-state"]),
       dtype=st.sampled_from(["float32", "float64"]),
       dims=st.sampled_from([(4, 3, 7, 5), (20, 20, 400, 54), (50, 20, 400, 54)]),
       layout=st.sampled_from(["random", "one-longest"]),
       seed=st.integers(0, 2**32 - 1))
def test_sequence_logprobs_equals_padded_scorer(B, conditioning, dtype, dims,
                                                layout, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 7, B)
    if layout == "one-longest":
        # the last step has one live row, which still runs in a whole tile
        lengths = rng.integers(1, 6, B)
        lengths[rng.integers(B)] = 6
    setup = _scoring_setup(seed, B, conditioning, dtype, dims, lengths)
    got = nn.sequence_logprobs(*setup)
    want = padded_sequence_logprobs(*setup)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)


def test_sequence_logprobs_advances_only_live_rows(monkeypatch):
    # 130 rows live at step 0, 65 at steps 1 and 2, 64 at step 3, 1 at step 4
    lengths = np.repeat([1, 5, 4, 3], [65, 1, 63, 1])
    np.random.default_rng(0).shuffle(lengths)
    setup = _scoring_setup(0, len(lengths), "every-step", "float32",
                           (4, 3, 7, 5), lengths)
    step_rows, softmax_rows = [], []
    real_step, real_log_softmax_at = nn._lstm_step, nn._log_softmax_at

    def counting_step(a, *rest):
        step_rows.append(a.shape[:-1])
        return real_step(a, *rest)

    def counting_log_softmax_at(logits, targets):
        softmax_rows.append(len(logits))
        return real_log_softmax_at(logits, targets)

    monkeypatch.setattr(nn, "_lstm_step", counting_step)
    monkeypatch.setattr(nn, "_log_softmax_at", counting_log_softmax_at)
    got = nn.sequence_logprobs(*setup)
    # each step advances its live rows rounded up to whole tiles, and
    # takes the log-softmax of the live rows only
    assert step_rows == [(k, nn.TILE) for k in (3, 2, 2, 1, 1)]
    assert softmax_rows == [130, 65, 65, 64, 1]
    monkeypatch.undo()
    np.testing.assert_array_equal(got, padded_sequence_logprobs(*setup))


# Inference forms a color's part of the gate input once per call, C =
# feats W_x[:F] + b, and adds emb W_x[F:] at each step; the formula it
# replaced multiplied [feats ; emb] by all of W_x at every step. The two
# differ only by float rounding in every-step mode (the sums are taken in
# another order): measured over 360 random setups, at most 7.0e-7 nats
# (3.4e-8 relative) in float32 and 1.4e-14 nats in float64. The bounds
# below leave a margin of ~10x. In init-state mode C is b and every bit
# is kept.
HOIST_TOLERANCE = {"float32": dict(rtol=1e-6, atol=1e-5),
                   "float64": dict(rtol=1e-13, atol=1e-12)}


@settings(max_examples=60, deadline=None)
@given(B=st.sampled_from([1, 3, 65, 300]),
       conditioning=st.sampled_from(["every-step", "init-state"]),
       dtype=st.sampled_from(["float32", "float64"]),
       dims=st.sampled_from([(4, 3, 7, 5), (20, 20, 400, 54), (50, 20, 400, 54)]),
       seed=st.integers(0, 2**32 - 1))
def test_hoisted_scores_agree_with_the_concat_formula(B, conditioning, dtype, dims, seed):
    lengths = np.random.default_rng(seed).integers(1, 7, B)
    setup = _scoring_setup(seed, B, conditioning, dtype, dims, lengths)
    got = nn.sequence_logprobs(*setup)
    want = padded_sequence_logprobs(*setup, concat=True)
    if conditioning == "init-state":
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, **HOIST_TOLERANCE[dtype])


def _concat_step_probs(params, cfg, feats, prev_ids, h, c):
    """The decode step that projected [feats ; emb] by W_x at every step."""
    x = params["emb"][prev_ids]
    if cfg.conditioning == "every-step":
        x = np.concatenate([feats, x], axis=1)
    a = tile_matmul(x, params["lstm.W_x"]) + params["lstm.b"]
    h, c, _ = lstm_step_full(params, None, h, c, a=a, matmul=tile_matmul)
    logits = tile_matmul(h, params["out.W"]) + params["out.b"]
    return nn.softmax(logits, axis=1), h, c


@pytest.mark.parametrize("conditioning", ["every-step", "init-state"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("B", [1, 70])
def test_hoisted_decode_steps_agree_with_the_concat_formula(conditioning, dtype, B):
    params, cfg, feats, ids, _ = _scoring_setup(B, B, conditioning, dtype,
                                                (20, 20, 400, 54), np.full(B, 5))
    color_in, h, c = nn.sequence_start_state(params, cfg, feats)
    h_ref, c_ref = h, c
    for t in range(5):
        probs, h, c = nn.sequence_step_probs(params, cfg, color_in, ids[:, t], h, c)
        want, h_ref, c_ref = _concat_step_probs(params, cfg, feats, ids[:, t], h_ref, c_ref)
        if conditioning == "init-state":
            assert probs.tobytes() == want.tobytes() and h.tobytes() == h_ref.tobytes()
        else:
            np.testing.assert_allclose(np.log(probs), np.log(want), **HOIST_TOLERANCE[dtype])
            np.testing.assert_allclose(h, h_ref, **HOIST_TOLERANCE[dtype])


def test_scoring_working_set_does_not_grow_with_steps():
    # 512 rows live at every step: at T = 20 the peak stays within 1 MB of
    # the peak at T = 2 (numpy 2.4.6: 3.30 and 3.53 MB; 3.80 and 10.24 MB
    # when every step's inputs were projected up front)
    peaks = {}
    for T in (2, 20):
        setup = _scoring_setup(0, 512, "every-step", "float32", (20, 20, 400, 54),
                               np.full(512, T))
        tracemalloc.start()
        try:
            nn.sequence_logprobs(*setup)
            peaks[T] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[20] - peaks[2] < 1e6, peaks


def test_sequence_logprobs_single_row_and_all_masked():
    # a lone row scores as its row of a larger batch does
    lengths = np.array([4, 2, 5, 1, 3])
    params, cfg, feats, ids, steps = _scoring_setup(
        2, len(lengths), "init-state", "float32", (50, 20, 400, 54), lengths)
    batch = nn.sequence_logprobs(params, cfg, feats, ids, steps)
    for i in range(len(lengths)):
        alone = nn.sequence_logprobs(params, cfg, feats[i : i + 1], ids[i : i + 1],
                                     steps[i : i + 1])
        assert alone.tobytes() == batch[i : i + 1].tobytes(), i
    for lengths in (np.array([4]), np.array([1, 1])):
        setup = _scoring_setup(3, len(lengths), "init-state", "float32",
                               (20, 20, 400, 54), lengths)
        np.testing.assert_array_equal(nn.sequence_logprobs(*setup),
                                      padded_sequence_logprobs(*setup))
    # one row that ends early, at one step of the ids' four: steps 1-3
    # have no live row
    params, cfg, feats, ids, steps = _scoring_setup(
        5, 1, "every-step", "float32", (20, 20, 400, 54), np.array([4]))
    setup = (params, cfg, feats, ids, np.array([1]))
    np.testing.assert_array_equal(nn.sequence_logprobs(*setup),
                                  padded_sequence_logprobs(*setup))
    # rows of no steps score log 1 = 0
    params, cfg, feats, ids, steps = _scoring_setup(
        4, 3, "every-step", "float64", (4, 3, 7, 5), np.array([2, 1, 2]))
    got = nn.sequence_logprobs(params, cfg, feats, ids, steps * 0)
    np.testing.assert_array_equal(got, np.zeros(3))


@pytest.mark.parametrize("B", [1, 63, 64, 65, 513])
@pytest.mark.parametrize("conditioning", ["every-step", "init-state"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_sequence_logprobs_never_reads_past_a_rows_length(B, conditioning, dtype):
    # ids past a row's steps + 1 hold random in-vocabulary ids instead of
    # </s>: the scores keep every bit
    rng = np.random.default_rng(B)
    lengths = rng.integers(1, 7, B)
    lengths[0] = 6
    params, cfg, feats, ids, steps = _scoring_setup(
        B, B, conditioning, dtype, (20, 20, 400, 54), lengths)
    want = nn.sequence_logprobs(params, cfg, feats, ids, steps)
    past = np.arange(ids.shape[1]) > steps[:, None]
    assert past.any() or B == 1
    alt = ids.copy()
    alt[past] = rng.integers(0, 400, past.sum())
    assert nn.sequence_logprobs(params, cfg, feats, alt, steps).tobytes() == want.tobytes()
