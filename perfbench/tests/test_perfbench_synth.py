"""The synthetic corpus generator: determinism and its closed-form truth."""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import synth  # noqa: E402
from colordesc import load_manifest  # noqa: E402
from colordesc.models import DEFAULT_BEAM_WIDTH  # noqa: E402


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a = synth.generate(5, tmp_path / "a", n_train=3000, n_dev=500)
    b = synth.generate(5, tmp_path / "b", n_train=3000, n_dev=500)
    c = synth.generate(6, tmp_path / "c", n_train=3000, n_dev=500)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a == b
    for name in ("train.csv", "dev.csv", "dev_true_log2.npy"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


def test_meta_records_sizes_digests_and_truth(tmp_path):
    meta = synth.generate(3, tmp_path, n_train=4000, n_dev=700)
    assert json.loads((tmp_path / "meta.json").read_text()) == meta
    for name, digest in meta["sha256"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    splits = load_manifest(tmp_path / "manifest.txt")
    assert len(splits["train"]) == meta["train_items"] == 4000
    assert len(splits["dev"]) == meta["dev_items"] == 700
    train_tokens = {t for d in splits["train"].descriptions for t in d.tokens}
    assert meta["vocab_size"] == synth.N_RESERVED + len(train_tokens)
    assert meta["inventory_size"] == len({d.key() for d in splits["train"].descriptions})
    true_log2 = np.load(tmp_path / "dev_true_log2.npy")
    assert math.isclose(meta["true_dev_perplexity"], 2.0 ** -true_log2.mean())


def test_vocabulary_stays_below_the_beam_candidate_branch():
    # width x V must stay under 4096 so beam search keeps its
    # per-candidate path
    lang = synth.Language()
    assert len(lang.tokens) == len(set(lang.tokens))
    assert lang.vocab_size * DEFAULT_BEAM_WIDTH <= 4096
    assert 390 <= lang.vocab_size


def test_recorded_truth_matches_the_closed_form_of_the_written_file(tmp_path):
    synth.generate(9, tmp_path, n_train=500, n_dev=400)
    rows = (tmp_path / "dev.csv").read_text().splitlines()[1:]
    hsl = np.array([[float(x) for x in r.split(",")[:3]] for r in rows])
    descriptions = [r.split(",")[3] for r in rows]
    expected = synth.Language().log2_prob(hsl, descriptions)
    np.testing.assert_allclose(np.load(tmp_path / "dev_true_log2.npy"), expected,
                               rtol=0, atol=1e-9)


def test_each_factor_of_the_truth_is_a_distribution():
    lang = synth.Language()
    rng = np.random.default_rng(0)
    hsl = np.column_stack([rng.uniform(0, 360, 50), rng.uniform(0, 100, 50),
                           rng.uniform(0, 100, 50)])
    hsl[:3] = [[0, 0, 0], [120, 100, 50], [359.99, 100, 100]]
    z = lang.head_logits(hsl)
    heads = np.exp(synth._log_softmax(z))
    np.testing.assert_allclose(heads.sum(axis=1), 1.0, atol=1e-12)
    mods = np.exp(lang.modifier_logp(hsl))
    np.testing.assert_allclose(mods.sum(axis=1), 1.0, atol=1e-12)
    for head in (0, synth.N_ISH - 1, synth.N_ISH, synth.N_HEADS - 1):
        ish = np.exp(lang.ish_logp(z, np.full(len(hsl), head)))
        np.testing.assert_allclose(ish.sum(axis=1), synth.P_ISH, atol=1e-12)
        if head < synth.N_ISH:
            assert (ish[:, head] == 0).all()


def test_parse_inverts_render():
    lang = synth.Language()
    head = np.array([0, 5, 300, 7])
    ish = np.array([-1, 3, 0, 59])
    mod = np.array([0, 1, 27, 0])
    for d, slots in zip(lang.render(head, ish, mod), zip(head, ish, mod)):
        assert lang.parse(d) == tuple(int(x) for x in slots)
