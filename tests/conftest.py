"""Shared builders for the test suite: tiny datasets, hand-set models,
and the finite-difference gradient oracle."""

import numpy as np
import pytest

from colordesc import Dataset, Description, TrainingConfig, Vocabulary, nn
from colordesc.corpus import END_ID, RESERVED_TOKENS, START_ID, UNK_ID, tokens_of
from colordesc.models import SequenceDecoderModel


def disjoint_pairs(n: int, seed: int = 0) -> Dataset:
    """n distinct colors, each with its own single-token description."""
    rng = np.random.default_rng(seed)
    colors = np.column_stack([
        rng.uniform(0.0, 360.0, n),
        rng.uniform(0.0, 100.0, n),
        rng.uniform(0.0, 100.0, n),
    ])
    descs = [Description.from_text(f"color{i}") for i in range(n)]
    return Dataset(colors=colors, descriptions=descs, split="train")


def make_vocab(content_tokens) -> Vocabulary:
    return Vocabulary(list(RESERVED_TOKENS) + list(content_tokens))


def encode_one(vocab: Vocabulary, text_or_tokens) -> list:
    """The ids of one description (a text, token list or Description)
    between <s> and </s>, OOV tokens as <unk>: the per-item oracle of
    ``Vocabulary.encode_batch``."""
    ids = [vocab.token_to_id.get(t, UNK_ID) for t in tokens_of(text_or_tokens)]
    return [START_ID] + ids + [END_ID]


def constant_step_model(content_tokens, logits, hidden: int = 4) -> SequenceDecoderModel:
    """A sequence model whose per-step distribution is softmax(logits)
    at every step, independent of color and history: all weights zero,
    output bias carries the logits."""
    vocab = make_vocab(content_tokens)
    cfg = TrainingConfig(hidden_size=hidden, embedding_dim=3, dropout=0.0,
                         seed=0).validate()
    model = SequenceDecoderModel.build(cfg, vocab, "raw")
    for name, p in model.params.items():
        p[...] = 0.0
    model.params["out.b"][...] = np.asarray(logits, dtype=np.float32)
    return model


def random_tiny_model(seed: int, n_content: int = 3, scheme: str = "fourier",
                      conditioning: str = "every-step",
                      hidden: int = 6) -> SequenceDecoderModel:
    """A small untrained model with random weights, for enumeration and
    search tests. Weights are scaled up so step distributions are not
    near-uniform."""
    vocab = make_vocab([f"w{i}" for i in range(n_content)])
    cfg = TrainingConfig(hidden_size=hidden, embedding_dim=4, dropout=0.0,
                         seed=seed, conditioning=conditioning).validate()
    model = SequenceDecoderModel.build(cfg, vocab, scheme)
    rng = np.random.default_rng(seed + 1000)
    model.params["out.W"][...] = rng.standard_normal(
        model.params["out.W"].shape).astype(np.float32) * 1.5
    model.params["out.b"][...] = rng.standard_normal(
        model.params["out.b"].shape).astype(np.float32)
    return model


def enumerate_sequences(model, color, max_len: int):
    """Brute-force (logp, ids) for every complete description of up to
    max_len content tokens, via the incremental step API."""
    from colordesc.corpus import END_ID, START_ID, UNK_ID

    V = len(model.vocab)
    content = [i for i in range(V) if i not in (START_ID, END_ID, UNK_ID)]
    results = []

    def walk(state, prev, ids, logp):
        probs, nxt = model.step(state, prev)
        results.append((logp + float(np.log(probs[END_ID])), ids))
        if len(ids) == max_len:
            return
        for tok in content:
            walk(nxt, tok, ids + (tok,), logp + float(np.log(probs[tok])))

    walk(model.initial_state(color), START_ID, (), 0.0)
    return results


# The allocating peephole LSTM step that ``nn._lstm_step`` replaced, and
# its sigmoid, verbatim apart from the step's name: the padded reference
# kernels below and in test_training.py run on it.

def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflow for very negative inputs saturates to the correct 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def lstm_step_full(params, x, h_prev, c_prev, a=None, matmul=np.matmul):
    """Step returning the intermediate values backprop needs.

    ``a`` may carry the precomputed x W_x contribution (plus bias);
    ``matmul`` computes the products."""
    H = h_prev.shape[-1]
    if a is None:
        a = matmul(x, params["lstm.W_x"]) + params["lstm.b"]
    a = a + matmul(h_prev, params["lstm.W_h"])
    i = sigmoid(a[..., :H] + c_prev * params["lstm.w_ci"])
    f = sigmoid(a[..., H : 2 * H] + c_prev * params["lstm.w_cf"])
    g = np.tanh(a[..., 2 * H : 3 * H])
    c = f * c_prev + i * g
    o = sigmoid(a[..., 3 * H :] + c * params["lstm.w_co"])
    tc = np.tanh(c)
    h = o * tc
    return h, c, (i, f, g, o, tc)


def tile_matmul(x, W):
    """x @ W for the rows of x, run as one product per ``nn.TILE``-row
    tile of x's rows zero-padded to whole tiles."""
    n, k = len(x), -(-len(x) // nn.TILE)
    tiles = np.zeros((k * nn.TILE, x.shape[1]), dtype=x.dtype)
    tiles[:n] = x
    return np.concatenate([tile @ W for tile in np.split(tiles, k)])[:n]


def padded_sequence_logprobs(params, cfg, feats, in_ids, targets, mask):
    """The padded scorer: every row runs all T steps, the full (B, V)
    log-softmax is built at each step and the mask zeroes padding. Every
    product runs on whole tiles (``tile_matmul``)."""
    B, T = in_ids.shape
    H = cfg.hidden_size
    X = params["emb"][in_ids]
    if cfg.conditioning == "every-step":
        tiled = np.broadcast_to(feats[:, None, :], (B, T, feats.shape[1]))
        X = np.concatenate([tiled, X], axis=2)
    AX = tile_matmul(X.reshape(B * T, -1), params["lstm.W_x"]) + params["lstm.b"]
    AX = AX.reshape(B, T, 4 * H)
    if cfg.conditioning == "init-state":
        h = tile_matmul(feats, params["cond.W_h0"]) + params["cond.b_h0"]
        c = tile_matmul(feats, params["cond.W_c0"]) + params["cond.b_c0"]
    else:
        h = c = np.zeros((B, H), dtype=params["lstm.b"].dtype)
    total = np.zeros(B, dtype=np.float64)
    rows = np.arange(B)
    for t in range(T):
        h, c, _ = lstm_step_full(params, None, h, c, a=AX[:, t], matmul=tile_matmul)
        logits = (tile_matmul(h, params["out.W"]) + params["out.b"]).astype(np.float64)
        logp = nn.log_softmax(logits, axis=1)
        total += logp[rows, targets[:, t]] * mask[:, t]
    return total


def fd_max_relative_error(params, loss_fn, grads, delta: float = 1e-4) -> float:
    """Max relative disagreement between analytic grads and central
    finite differences over every parameter component."""
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        gflat = grads[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + delta
            lp = loss_fn()
            flat[j] = orig - delta
            lm = loss_fn()
            flat[j] = orig
            fd = (lp - lm) / (2.0 * delta)
            rel = abs(gflat[j] - fd) / max(abs(gflat[j]) + abs(fd), 1e-3)
            worst = max(worst, rel)
    return worst


@pytest.fixture
def tmp_corpus(tmp_path):
    """A small on-disk corpus + manifest: 8 train pairs, 4 dev pairs."""
    train_lines = ["h,s,v,description"]
    dev_lines = ["h,s,v,description"]
    rng = np.random.default_rng(5)
    words = ["red", "green", "blue", "dark red", "light green", "teal",
             "olive", "mauve"]
    for i, w in enumerate(words):
        h = float(rng.uniform(0, 360))
        s = float(rng.uniform(20, 100))
        v = float(rng.uniform(20, 100))
        train_lines.append(f"{h:.2f},{s:.2f},{v:.2f},{w}")
        if i < 4:
            dev_lines.append(f"{h:.2f},{s:.2f},{v:.2f},{w}")
    train_path = tmp_path / "train.csv"
    dev_path = tmp_path / "dev.csv"
    train_path.write_text("\n".join(train_lines) + "\n", encoding="utf-8")
    dev_path.write_text("\n".join(dev_lines) + "\n", encoding="utf-8")
    manifest = tmp_path / "splits.manifest"
    manifest.write_text(
        f"train={train_path.name}\ndev={dev_path.name}\nspace=hsv\n",
        encoding="utf-8")
    return manifest
