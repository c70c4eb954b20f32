"""Every output check passes on the library's own answers and fails on an
injected fault."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import synth  # noqa: E402
from colordesc import Description, TrainingConfig, load_manifest  # noqa: E402
from colordesc.models import train_model  # noqa: E402
from colordesc.viz import CrossSection, GridSpec, cross_sections, probability_field, render  # noqa: E402


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    synth.generate(4, d, n_train=1500, n_dev=300)
    return load_manifest(d / "manifest.txt")


@pytest.fixture(scope="module")
def models(corpus):
    cfg = TrainingConfig(hidden_size=8, embedding_dim=6, max_epochs=1, seed=1)
    train, dev = corpus["train"], corpus["dev"]
    return {
        "sequence": train_model("sequence", train, cfg, scheme="fourier", dev=dev)[0],
        "atomic": train_model("atomic", train, cfg, scheme="buckets", dev=dev)[0],
        "histogram": train_model("histogram", train, cfg, scheme="buckets", dev=dev)[0],
    }


class Perturbed:
    """A model whose batch score of the first finitely scored item is off
    by ``delta``, or whose score_color_array is off by ``delta`` for one
    description."""

    def __init__(self, model, delta=0.01, key=None):
        self._m = model
        self._delta = delta
        self._key = key

    def __getattr__(self, name):
        return getattr(self._m, name)

    def score_dataset(self, ds):
        out = self._m.score_dataset(ds).copy()
        out[np.nonzero(np.isfinite(out))[0][0]] += self._delta
        return out

    def score_color_array(self, colors, tokens):
        out = self._m.score_color_array(colors, tokens)
        return out + self._delta if tuple(tokens) == self._key else out


@pytest.mark.parametrize("family", ["sequence", "atomic", "histogram"])
def test_score_agreement(models, corpus, family):
    dev = corpus["dev"].subsample(20, 0)
    assert checks.score_agreement(models[family], dev) == []
    assert len(checks.score_agreement(Perturbed(models[family]), dev)) == 1


def test_beam_not_worse(models, corpus):
    model = models["sequence"]
    colors = [corpus["dev"].color(i) for i in range(8)]
    wide = [model.predict_top1(c, beam_width=10) for c in colors]
    assert checks.beam_not_worse(model, colors, wide) == []
    # a wide result replaced by a long, unlikely description
    worse = list(wide)
    tokens = [model.vocab.id_to_token[-1]] * 6
    worse[2] = Description(raw=" ".join(tokens), tokens=tokens)
    fails = checks.beam_not_worse(model, colors, worse)
    assert len(fails) == 1 and fails[0].startswith("color 2")


def test_histogram_mass(models, corpus):
    model = models["histogram"]
    colors = corpus["dev"].colors[:4]
    assert checks.histogram_mass(model, colors) == []
    faulty = Perturbed(model, delta=0.01, key=model.inventory[5])
    assert len(checks.histogram_mass(faulty, colors)) == 4


def test_perplexity_bounds():
    assert checks.perplexity_bounds(50.0, 40.0, 400.0, "x") == []
    assert checks.perplexity_bounds(39.9, 40.0, 400.0, "x")
    assert checks.perplexity_bounds(400.1, 40.0, 400.0, "x")
    assert checks.perplexity_bounds(float("nan"), 40.0, 400.0, "x")


def test_uniform_sequence_ceiling_is_an_untrained_decoder():
    # two tokens plus </s> at V=400 cost 3 * log2(400) bits
    assert checks.uniform_sequence_perplexity(np.array([2, 2]), 400) == pytest.approx(400.0 ** 3)


def test_denotation(models, tmp_path):
    model = models["sequence"]
    grid = GridSpec(12, 5, 4)
    field = probability_field(model, "blue", grid)
    sec_l, sec_r = cross_sections(field)
    path_l, path_r = tmp_path / "L.pgm", tmp_path / "R.pgm"
    render(sec_l, path_l)
    render(sec_r, path_r)
    assert checks.denotation(field, path_l, path_r) == []

    render(CrossSection("L", sec_l.values.T), path_l)  # transposed image
    assert len(checks.denotation(field, path_l, path_r)) == 1
    render(sec_l, path_l)
    path_r.write_bytes(path_r.read_bytes()[:-1])  # truncated payload
    assert len(checks.denotation(field, path_l, path_r)) == 1
    render(sec_r, path_r)

    field.values[0, 0, 0] = np.nan
    assert "field has non-finite values" in checks.denotation(field, path_l, path_r)
    field.values[...] = 0.0
    assert checks.denotation(field, path_l, path_r) == ["field has no positive mass"]
