"""Beam search: a differential test of ``SequenceDecoderModel._beam``
against a reference beam that sorts every candidate as one Python tuple,
and a tie-rule regression test on models where every content token ties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colordesc import ColorHSV, nn
from colordesc.corpus import END_ID, RESERVED_TOKENS, START_ID, UNK_ID
from colordesc.models import _as_color_array

from conftest import random_tiny_model

FIRST_CONTENT = len(RESERVED_TOKENS)


def reference_beam(model, c, width: int, max_len: int):
    """(logp, ids) of the best completion: every (row, token) candidate
    becomes a (-score, ids) tuple and the first ``width`` in sorted order
    are kept."""
    feats1, _ = model.featurize(_as_color_array(c))
    h_arr, c_arr = nn.sequence_initial_state(model.params, model.config, feats1)
    V = len(model.vocab)
    live_ids = [()]
    live_logp = np.zeros(1, dtype=np.float64)
    prev = np.array([START_ID], dtype=np.int64)
    completed = []
    for depth in range(max_len + 1):
        n = len(live_ids)
        probs, h_new, c_new = nn.sequence_step_probs(
            model.params, model.config, np.repeat(feats1, n, axis=0), prev,
            h_arr, c_arr)
        with np.errstate(divide="ignore"):
            step_logp = np.log(probs)
        for i in range(n):
            completed.append((live_logp[i] + step_logp[i, END_ID], live_ids[i]))
        if depth == max_len:
            break
        scores = live_logp[:, None] + step_logp
        scores[:, START_ID] = -np.inf
        scores[:, UNK_ID] = -np.inf
        scores[:, END_ID] = -np.inf
        flat = scores.ravel()
        cands = []
        for j in range(flat.size):
            if not np.isfinite(flat[j]):
                continue
            i, v = divmod(j, V)
            cands.append((-flat[j], live_ids[i] + (v,), i, v))
        cands.sort(key=lambda t: (t[0], t[1]))
        cands = cands[:width]
        if not cands:
            break
        if max(completed)[0] > -cands[0][0]:
            break
        sel = np.array([t[2] for t in cands])
        live_ids = [t[1] for t in cands]
        live_logp = np.array([-t[0] for t in cands])
        prev = np.array([t[3] for t in cands], dtype=np.int64)
        h_arr, c_arr = h_new[sel], c_new[sel]
    return min(completed, key=lambda t: (-t[0], t[1]))


def reference_top1(model, c, width: int, max_len: int):
    best = reference_beam(model, c, width, max_len)
    if width > 1:
        greedy = reference_beam(model, c, 1, max_len)
        if (-greedy[0], greedy[1]) < (-best[0], best[1]):
            best = greedy
    return best


def counted(fn):
    """(result, number of nn.sequence_step_probs calls fn made)."""
    calls = []
    real = nn.sequence_step_probs

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    nn.sequence_step_probs = wrapper
    try:
        return fn(), len(calls)
    finally:
        nn.sequence_step_probs = real


def assert_matches_reference(model, color, width: int, max_len: int):
    """Same result, bit-identical logp and the same step calls as the
    reference, for the beam alone and for predict_top1."""
    got, got_calls = counted(lambda: model._beam(color, width, max_len))
    want, want_calls = counted(lambda: reference_beam(model, color, width, max_len))
    assert got[1] == want[1]
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got_calls == want_calls

    pred, pred_calls = counted(
        lambda: model.predict_top1(color, beam_width=width, max_len=max_len))
    best, best_calls = counted(lambda: reference_top1(model, color, width, max_len))
    assert pred.tokens == model.vocab.decode(best[1])
    assert pred_calls == best_calls
    return best


# V = n_content + 3: at width 10, 400 and 420 content tokens put width x V
# on either side of 4096; the small vocabularies run out of candidates
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16),
       n_content=st.sampled_from([2, 5, 400, 420]),
       conditioning=st.sampled_from(["every-step", "init-state"]),
       width=st.integers(1, 12),
       max_len=st.integers(0, 5),
       hsv=st.tuples(st.floats(0.0, 360.0), st.floats(0.0, 100.0),
                     st.floats(0.0, 100.0)))
def test_beam_matches_reference(seed, n_content, conditioning, width, max_len, hsv):
    model = random_tiny_model(seed, n_content=n_content, conditioning=conditioning)
    assert_matches_reference(model, ColorHSV(*hsv), width, max_len)


def all_content_tied_model(seed: int, n_content: int):
    """Every content token has the same output column and bias, so all of
    them tie at every step. The </s> column differs, so hypotheses score
    apart once their states differ, and hidden unit 0 counts steps (its
    gates are held open and its cell input is fixed) while </s> weighs it
    heavily, so the best completions are two or three tokens long."""
    model = random_tiny_model(seed, n_content=n_content)
    p = model.params
    H = model.config.hidden_size
    W, b = p["out.W"], p["out.b"]
    W[:, FIRST_CONTENT:] = W[:, [FIRST_CONTENT]]
    b[FIRST_CONTENT:] = b[FIRST_CONTENT]
    gates = [0, H, 2 * H, 3 * H]
    p["lstm.W_x"][:, gates] = 0.0
    p["lstm.W_h"][:, gates] = 0.0
    for name in ("lstm.w_ci", "lstm.w_cf", "lstm.w_co"):
        p[name][0] = 0.0
    p["lstm.b"][gates] = (20.0, 20.0, np.arctanh(0.3), 20.0)
    W[0, END_ID] = 60.0
    b[END_ID] = -50.0
    return model


@pytest.mark.parametrize("n_content", [397, 417])  # V x 10 = 4000 and 4200
def test_ties_go_to_the_smaller_id_tuple(n_content):
    model = all_content_tied_model(0, n_content)
    first = FIRST_CONTENT
    for color in (ColorHSV(0.0, 0.0, 50.0), ColorHSV(200.0, 70.0, 30.0),
                  ColorHSV(90.0, 40.0, 80.0)):
        probs, _ = model.step(model.initial_state(color), START_ID)
        assert len(set(probs[first:].tolist())) == 1
        _, ids = assert_matches_reference(model, color, 10, 6)
        assert len(ids) >= 2
        # each depth keeps the 10 smallest tokens of its best parent
        assert all(first <= t < first + 10 for t in ids)
