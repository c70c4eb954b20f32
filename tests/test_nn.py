import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colordesc import TrainingConfig, TrainingDivergence
from colordesc.corpus import END_ID
from colordesc.errors import ConfigError
from colordesc import nn

from conftest import fd_max_relative_error, padded_sequence_logprobs


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


def _mixed_dtype_log_softmax_at(logits, targets):
    """_log_softmax_at as it subtracted a row max of the logits' own dtype
    from its float64 buffer, numpy casting the max per element."""
    N, C = logits.shape
    step = nn._block_rows(N, C)
    out = np.empty(N, dtype=np.float64)
    buf = np.empty((step, C), dtype=np.float64)
    for lo in range(0, N, step):
        block = logits[lo : lo + step]
        z = buf[: len(block)]
        np.copyto(z, block)
        z -= block.max(axis=1, keepdims=True)
        z_target = z[np.arange(len(z)), targets[lo : lo + len(z)]]
        log_sum = np.log(np.sum(np.exp(z, out=z), axis=1))
        np.subtract(z_target, log_sum, out=out[lo : lo + len(z)])
    return out


def _mixed_dtype_softmax(z, axis=-1):
    """softmax as it subtracted the max in the logits' dtype, cast by a
    float64 ufunc."""
    p = np.subtract(z, z.max(axis=axis, keepdims=True), dtype=np.float64)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 130), C=st.sampled_from([5, 400, 4376]),
       dtype=st.sampled_from(["float32", "float64"]),
       scale=st.sampled_from([1.0, 1e4, 1e30, "max"]), ties=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_one_dtype_normalizations_equal_the_mixed_dtype_formulas_bit_for_bit(
        rows, C, dtype, scale, ties, seed):
    # up to 130 rows span three blocks at C = 4,376 (59 rows a block)
    rng = np.random.default_rng(seed)
    if scale == "max":  # the dtype's largest magnitudes, both signs
        scale = np.finfo(dtype).max / 4
    logits = rng.uniform(-1.0, 1.0, (rows, C)) * scale
    if ties:  # few distinct values, so a row's max appears many times
        logits = np.round(logits / scale * 2) * scale / 2
    logits = logits.astype(dtype)
    targets = rng.integers(0, C, rows)
    with np.errstate(over="ignore"):
        assert (nn._log_softmax_at(logits, targets).tobytes()
                == _mixed_dtype_log_softmax_at(logits, targets).tobytes())
        for axis in (-1, 0):
            assert (nn.softmax(logits, axis=axis).tobytes()
                    == _mixed_dtype_softmax(logits, axis=axis).tobytes())


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
    cfg = TrainingConfig(hidden_size=4, embedding_dim=3, dropout=dropout,
                         conditioning=conditioning, dtype="float64",
                         seed=seed).validate()
    rng = np.random.default_rng(seed)
    params = nn.init_params(nn.sequence_layout(cfg, V, F), rng)
    feats = rng.standard_normal((B, F))
    in_ids = rng.integers(0, V, (B, T))
    targets = rng.integers(0, V, (B, T))
    mask = (rng.random((B, T)) < 0.8).astype(np.float64)
    mask[:, 0] = 1.0
    return cfg, params, feats, in_ids, targets, mask


def _mask_rng(seed):
    """A fresh generator: each training pass given one of the same seed
    draws the same dropout masks."""
    return np.random.default_rng([seed, 1])


@pytest.mark.parametrize("conditioning", ["every-step", "init-state"])
@pytest.mark.parametrize("seed", [0, 1])
def test_sequence_gradients_match_finite_differences(conditioning, seed):
    cfg, params, feats, in_ids, targets, mask = _random_sequence_setup(
        seed, conditioning)

    def loss_fn():
        loss, _ = nn.sequence_forward(params, cfg, feats, in_ids, targets,
                                      mask, rng=_mask_rng(seed))
        return loss

    _, cache = nn.sequence_forward(params, cfg, feats, in_ids, targets, mask,
                                   rng=_mask_rng(seed))
    grads = nn.sequence_backward(cache)
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
    cfg, params, feats, in_ids, targets, mask = _random_sequence_setup(
        3, "every-step", dropout=0.0)
    for v in params.values():
        v[...] = 0.0

    def loss_fn():
        loss, _ = nn.sequence_forward(params, cfg, feats, in_ids, targets, mask)
        return loss

    _, cache = nn.sequence_forward(params, cfg, feats, in_ids, targets, mask)
    grads = nn.sequence_backward(cache)
    grads.pop("feats")
    assert fd_max_relative_error(params, loss_fn, grads) <= 1e-4


def test_padded_positions_get_exactly_zero_gradient():
    cfg, params, feats, in_ids, targets, mask = _random_sequence_setup(
        4, "every-step")
    mask[:, -1] = 0.0
    mask[0, -2] = 0.0
    mask[1, 1] = 0.0  # an interior zero: its input still feeds later steps

    def run(in_ids, targets):
        loss, cache = nn.sequence_forward(params, cfg, feats, in_ids, targets,
                                          mask, rng=_mask_rng(4))
        return loss, cache, nn.sequence_backward(cache)

    loss_a, cache, grads_a = run(in_ids, targets)
    # the logit gradient is exactly zero at every padded cell
    assert np.all(cache["dflat"][mask.ravel() == 0.0] == 0.0)
    # perturbing a padded target, or an input after a row's last live
    # cell, leaves the loss and every gradient bit-equal
    alt_targets = targets.copy()
    alt_targets[mask == 0.0] = (alt_targets[mask == 0.0] + 1) % 5
    alt_in = in_ids.copy()
    alt_in[0, -2] = (alt_in[0, -2] + 1) % 5
    alt_in[:, -1] = (alt_in[:, -1] + 2) % 5
    for ids, tgt in ((in_ids, alt_targets), (alt_in, targets), (alt_in, alt_targets)):
        loss_b, _, grads_b = run(ids, tgt)
        assert loss_a == loss_b
        for k in grads_a:
            assert grads_a[k].tobytes() == grads_b[k].tobytes(), k


def test_sequence_forward_raises_on_divergence():
    cfg, params, feats, in_ids, targets, mask = _random_sequence_setup(
        5, "every-step", dropout=0.0)
    params["out.b"][...] = np.nan
    with pytest.raises(TrainingDivergence):
        nn.sequence_forward(params, cfg, feats, in_ids, targets, mask)


def test_sequence_logprobs_agrees_with_loss():
    cfg, params, feats, in_ids, targets, mask = _random_sequence_setup(
        6, "every-step", dropout=0.0)
    loss, _ = nn.sequence_forward(params, cfg, feats, in_ids, targets, mask)
    logs = nn.sequence_logprobs(params, cfg, feats, in_ids, targets, mask)
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
    grads.pop("feats")
    assert fd_max_relative_error(params, loss_fn, grads) <= 1e-4


def test_update_determinism_over_many_steps():
    def run():
        cfg, params, feats, in_ids, targets, mask = _random_sequence_setup(
            8, "every-step", dropout=0.0)
        opt = nn.Adagrad(params, 0.1)
        for _ in range(25):
            _, cache = nn.sequence_forward(params, cfg, feats, in_ids,
                                           targets, mask)
            grads = nn.sequence_backward(cache)
            grads.pop("feats")
            opt.update(params, grads)
        return params

    a = run()
    b = run()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


# -- live-row scoring against the padded scorer


def _scoring_setup(seed, B, conditioning, dtype, dims, lengths, holes=False):
    """A random model and teacher-forcing tensors for rows of the given
    lengths, padded with </s> to the longest as the models pad them."""
    H, E, V, F = dims
    cfg = TrainingConfig(hidden_size=H, embedding_dim=E, dropout=0.0,
                         conditioning=conditioning, dtype=dtype,
                         seed=seed).validate()
    rng = np.random.default_rng(seed)
    params = nn.init_params(nn.sequence_layout(cfg, V, F), rng)
    params["out.W"] *= np.asarray(4.0, dtype=cfg.np_dtype)
    feats = rng.standard_normal((B, F)).astype(cfg.np_dtype)
    T = int(lengths.max())
    mask = (np.arange(T) < lengths[:, None]).astype(np.float64)
    if holes:
        # interior zeros: a row's length is one past its last nonzero entry
        mask *= rng.random(mask.shape) < 0.7
    seqs = rng.integers(0, V, (B, T + 1))
    in_ids = np.where(mask > 0, seqs[:, :-1], END_ID)
    targets = np.where(mask > 0, seqs[:, 1:], END_ID)
    return params, cfg, feats, in_ids, targets, mask


@settings(max_examples=90, deadline=None)
@given(B=st.sampled_from([1, 2, 3, 511, 512, 513]),
       conditioning=st.sampled_from(["every-step", "init-state"]),
       dtype=st.sampled_from(["float32", "float64"]),
       dims=st.sampled_from([(4, 3, 7, 5), (20, 20, 400, 54), (50, 20, 400, 54)]),
       layout=st.sampled_from(["random", "one-longest", "holes"]),
       seed=st.integers(0, 2**32 - 1))
def test_sequence_logprobs_equals_padded_scorer(B, conditioning, dtype, dims,
                                                layout, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 7, B)
    if layout == "one-longest":
        # the last step has one live row, which still runs in a whole tile
        lengths = rng.integers(1, 6, B)
        lengths[rng.integers(B)] = 6
    setup = _scoring_setup(seed, B, conditioning, dtype, dims, lengths,
                           holes=layout == "holes")
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
    params, cfg, feats, in_ids, targets, mask = _scoring_setup(
        2, len(lengths), "init-state", "float32", (50, 20, 400, 54), lengths)
    batch = nn.sequence_logprobs(params, cfg, feats, in_ids, targets, mask)
    for i in range(len(lengths)):
        alone = nn.sequence_logprobs(params, cfg, feats[i : i + 1], in_ids[i : i + 1],
                                     targets[i : i + 1], mask[i : i + 1])
        assert alone.tobytes() == batch[i : i + 1].tobytes(), i
    for lengths in (np.array([4]), np.array([1, 1])):
        setup = _scoring_setup(3, len(lengths), "init-state", "float32",
                               (20, 20, 400, 54), lengths)
        np.testing.assert_array_equal(nn.sequence_logprobs(*setup),
                                      padded_sequence_logprobs(*setup))
    # one row whose mask ends early: steps 1-3 have no live row
    params, cfg, feats, in_ids, targets, mask = _scoring_setup(
        5, 1, "every-step", "float32", (20, 20, 400, 54), np.array([4]))
    mask[:, 1:] = 0.0
    setup = (params, cfg, feats, in_ids, targets, mask)
    np.testing.assert_array_equal(nn.sequence_logprobs(*setup),
                                  padded_sequence_logprobs(*setup))
    params, cfg, feats, in_ids, targets, mask = _scoring_setup(
        4, 3, "every-step", "float64", (4, 3, 7, 5), np.array([2, 1, 2]))
    got = nn.sequence_logprobs(params, cfg, feats, in_ids, targets, mask * 0.0)
    np.testing.assert_array_equal(got, np.zeros(3))
