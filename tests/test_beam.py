"""Beam search: a differential test of the batched beam behind
``SequenceDecoderModel.predict_top1_batch`` against a reference beam that
decodes one color at a time and sorts every candidate as one Python tuple,
and a tie-rule regression test on models where every content token ties.
Both beams take their decode steps from the model's ``initial_state`` and
``nn.sequence_step_probs``, so they differ only in the search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colordesc import nn
from colordesc.corpus import END_ID, RESERVED_TOKENS, START_ID, UNK_ID
from colordesc.models import _as_color_array

from conftest import constant_step_model, random_tiny_model

FIRST_CONTENT = len(RESERVED_TOKENS)

def reference_beam(model, c, width: int, max_len: int):
    """(logp, ids) of the best completion: every (row, token) candidate
    becomes a (-score, ids) tuple and the first ``width`` in sorted order
    are kept."""
    color_in, h_arr, c_arr = model.initial_state(c)
    V = len(model.vocab)
    live_ids = [()]
    live_logp = np.zeros(1, dtype=np.float64)
    prev = np.array([START_ID], dtype=np.int64)
    completed = []
    for depth in range(max_len + 1):
        n = len(live_ids)
        probs, h_new, c_new = nn.sequence_step_probs(
            model.params, model.config, np.repeat(color_in, n, axis=0), prev, h_arr, c_arr)
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
    """((logp, ids) of the better of the beam and the greedy beam, decode
    steps of the beam, decode steps of the greedy beam, hypotheses the two
    advanced)."""
    best, calls, rows = counted(model, lambda: reference_beam(model, c, width, max_len))
    greedy_calls = 0
    if width > 1:
        greedy, greedy_calls, greedy_rows = counted(
            model, lambda: reference_beam(model, c, 1, max_len))
        rows += greedy_rows
        if (-greedy[0], greedy[1]) < (-best[0], best[1]):
            best = greedy
    return best, calls, greedy_calls, rows


def counted(model, fn):
    """(result, number of nn.sequence_step_probs calls fn made, number of
    hypotheses they advanced)."""
    rows = []
    real = nn.sequence_step_probs

    def step(params, cfg, color_in, prev, h, c, **kwargs):
        rows.append(len(prev))
        return real(params, cfg, color_in, prev, h, c, **kwargs)

    nn.sequence_step_probs = step
    try:
        return fn(), len(rows), sum(rows)
    finally:
        nn.sequence_step_probs = real


def assert_matches_reference(model, colors, width: int, max_len: int):
    """The batch finds each color's reference ids, with a bit-identical
    logp, in one decode step per depth of the longest beam and one per
    depth of the longest greedy beam, advancing the hypotheses the
    references advance;
    predict_top1_batch and predict_top1 give the same descriptions.
    Returns the reference results."""
    arr = np.array([_as_color_array(c)[0] for c in colors])
    (logp, ids), calls, rows = counted(model, lambda: model._top1_ids(arr, width, max_len))
    want = [reference_top1(model, c, width, max_len) for c in colors]
    assert ids == [w[0][1] for w in want]
    got_logp = np.asarray(logp, dtype=np.float64)
    want_logp = np.array([w[0][0] for w in want], dtype=np.float64)
    assert got_logp.tobytes() == want_logp.tobytes()
    assert calls == max(w[1] for w in want) + max(w[2] for w in want)
    assert rows == sum(w[3] for w in want)

    texts = [tuple(model.vocab.decode(w[0][1])) for w in want]
    assert model.predict_top1_batch(arr, beam_width=width, max_len=max_len) == texts
    assert [model.predict_top1(c, beam_width=width, max_len=max_len).key()
            for c in colors] == texts
    return [w[0] for w in want]


hsv = st.tuples(st.floats(0.0, 360.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0))


# V = n_content + 3: at width 10, 400 and 420 content tokens put width x V
# on either side of 4096; the small vocabularies run out of candidates
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16),
       n_content=st.sampled_from([2, 5, 400, 420]),
       conditioning=st.sampled_from(["every-step", "init-state"]),
       hidden=st.sampled_from([4, 20, 50]),
       width=st.integers(1, 12),
       max_len=st.integers(0, 5),
       colors=st.lists(hsv, min_size=1, max_size=4))
def test_beam_matches_reference(seed, n_content, conditioning, hidden, width,
                                max_len, colors):
    model = random_tiny_model(seed, n_content=n_content, conditioning=conditioning,
                              hidden=hidden)
    assert_matches_reference(model, colors, width, max_len)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("conditioning", ["every-step", "init-state"])
def test_beam_at_hidden_size_50_matches_reference_within_rounding(seed, conditioning):
    model = random_tiny_model(seed, n_content=400, conditioning=conditioning,
                              hidden=50)
    rng = np.random.default_rng(seed)
    colors = [(float(rng.uniform(0, 360)), float(rng.uniform(0, 100)),
               float(rng.uniform(0, 100))) for _ in range(6)]
    assert_matches_reference(model, colors, 10, 4)


def test_a_completion_tied_with_the_best_extension_does_not_stop_the_search():
    # every step: </s> and "a" each 0.5, so the empty completion ties the
    # best extension at depth 0 and only the depth-1 step shows it lost
    model = constant_step_model(["a", "b"], np.log([1e-12, 0.4, 1e-12, 0.4, 0.2]))
    for width in (1, 3):
        (_, ids), = assert_matches_reference(model, [(0.0, 0.0, 50.0)], width, 4)
        assert ids == ()


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
    colors = [(0.0, 0.0, 50.0), (200.0, 70.0, 30.0), (90.0, 40.0, 80.0)]
    for color in colors:
        probs, _ = model.step(model.initial_state(color), START_ID)
        assert len(set(probs[first:].tolist())) == 1
    for _, ids in assert_matches_reference(model, colors, 10, 6):
        assert len(ids) >= 2
        # each depth keeps the 10 smallest tokens of its best parent
        assert all(first <= t < first + 10 for t in ids)
