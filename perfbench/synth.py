"""Seeded synthetic color-description corpus with a closed-form truth.

The language is fixed (it does not depend on the seed): head color terms
with hue-centred regions and Zipf weights, "-ish" forms of the most
frequent heads, and modifiers ("light", "dark", "pale", ...) whose
preference depends on saturation and lightness. A description is
``[modifier] [X-ish] head``, and its true probability given an HSL color
(h in degrees, s and l in [0, 1]) factorizes as

    S(d | c) = P(head | c) * P(ish | c, head) * P(modifier | c)

    P(head = k | c)     = softmax_k(z_k(c))
    z_k(c)              = log w_k + kappa_k * chroma(c) * (cos(h - mu_k) - 1)
                          + a_k * chroma(c) + g_k + q_k * (l - l0_k)^2
    P(no ish | c, k)    = 1 - P_ISH
    P(ish = j | c, k)   = P_ISH * softmax over ish-capable j != k of z_j(c)
    P(modifier = m | c) = softmax_m(log u_m + d_m * (s - 1/2) + e_m * (l - 1/2))

with chroma(c) = s * (1 - |2l - 1|), so hue matters less near gray. The
three token sets are disjoint and each slot has a fixed position, so the
token string determines (modifier, ish, head) and the probability above
is exact.

Colors are drawn first, uniformly in HSL and rounded to the two decimals
written to the file; the truth is evaluated at the rounded values, which
are what a model reads. Then head, ish form and modifier are drawn.

Run as a script to write a corpus directory:

    python3 perfbench/synth.py --seed 7 --out DIR

It writes ``train.csv`` and ``dev.csv`` (header ``h,s,l,description``),
``manifest.txt`` (``space=hsl``), ``dev_true_log2.npy`` (true log2
S(d|c) of every dev item) and ``meta.json`` (sizes, V, inventory size,
sha256 of each file, true dev perplexity).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 2
DEV_ITEMS = 108_545  # the survey's dev split size
TRAIN_ITEMS = 40_000
N_RESERVED = 3  # <s>, </s>, <unk> in every colordesc vocabulary

N_HEADS = 310
N_ISH = 60  # the most frequent heads also occur as "<head>ish"
N_MODIFIERS = 27
# The description-length mix (1 to 3 tokens, mean about 1.33) is not
# derived from the survey: no published length statistics are at hand.
# Sequence training, scoring and beam depth grow with length, so sequence
# timings hold for this mix only, until the real corpus can be measured.
P_ISH = 0.08
P_NO_MODIFIER = 0.85
HEAD_ZIPF = 1.0
MODIFIER_ZIPF = 1.0
LANGUAGE_SEED = 20160611  # fixes the language; the corpus seed never does
_CHUNK = 8192

# (name, hue centre in degrees), most frequent first
CHROMATIC = [
    ("blue", 225), ("green", 120), ("purple", 280), ("red", 0), ("pink", 330),
    ("yellow", 58), ("orange", 30), ("teal", 175), ("brown", 25),
    ("violet", 270), ("lime", 90), ("magenta", 305), ("cyan", 185),
    ("turquoise", 170), ("lavender", 265), ("maroon", 350), ("navy", 235),
    ("olive", 65), ("aqua", 180), ("salmon", 8), ("indigo", 250),
    ("gold", 48), ("mauve", 300), ("coral", 12), ("peach", 25),
    ("mint", 145), ("tan", 35), ("beige", 40), ("khaki", 55), ("mustard", 50),
    ("fuchsia", 315), ("lilac", 285), ("plum", 295), ("rose", 340),
    ("crimson", 348), ("scarlet", 5), ("burgundy", 345), ("emerald", 135),
    ("jade", 150), ("forest", 115), ("sky", 200), ("cobalt", 220),
    ("azure", 210), ("cerulean", 205), ("sapphire", 230), ("periwinkle", 240),
    ("ochre", 40), ("rust", 18), ("sienna", 20), ("umber", 28), ("copper", 22),
    ("bronze", 35), ("amber", 42), ("lemon", 56), ("chartreuse", 80),
    ("seafoam", 155), ("orchid", 290), ("ruby", 352), ("cherry", 355),
    ("brick", 10), ("apricot", 28), ("tangerine", 26), ("pumpkin", 24),
    ("sand", 42), ("denim", 215), ("royal", 228), ("grape", 275),
    ("eggplant", 285), ("wine", 342), ("berry", 325),
]
# (name, preferred lightness in [0, 1])
ACHROMATIC = [
    ("gray", 0.5), ("white", 0.97), ("black", 0.04), ("silver", 0.75),
    ("charcoal", 0.22), ("cream", 0.9), ("ivory", 0.94), ("slate", 0.4),
]
# (name, saturation slope, lightness slope)
MODIFIERS = [
    ("light", 0.0, 5.0), ("dark", 0.0, -5.0), ("pale", -3.0, 3.0),
    ("bright", 4.0, 1.0), ("deep", 3.0, -3.0), ("dull", -4.0, 0.0),
    ("pastel", -2.0, 4.0), ("neon", 5.0, 1.5), ("dusty", -3.0, 0.5),
    ("vivid", 4.5, 0.0), ("soft", -2.0, 2.0), ("rich", 3.0, -2.0),
    ("muted", -4.0, 0.5), ("faded", -3.5, 2.5), ("hot", 4.0, 0.5),
    ("electric", 5.0, 0.5), ("baby", -1.0, 4.0), ("dirty", -2.5, -1.5),
    ("medium", 0.0, 0.0), ("very", 1.0, -1.0),
]
_SYLLABLES = ("ba", "ce", "di", "fo", "gu", "ka", "le", "mi", "no", "pu",
              "ra", "se", "ti", "vo", "za", "ru", "mo", "ne", "li", "te")


def _pseudo_words(rng, n: int, taken: set) -> list:
    words = []
    while len(words) < n:
        w = "".join(rng.choice(_SYLLABLES, size=3)) + "n"
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


class Language:
    """The fixed vocabulary and parameters of the true S(d|c)."""

    def __init__(self):
        rng = np.random.default_rng(LANGUAGE_SEED)
        taken = {n for n, _ in CHROMATIC} | {n for n, *_ in ACHROMATIC}
        taken |= {n for n, *_ in MODIFIERS}
        n_fill = N_HEADS - len(CHROMATIC) - len(ACHROMATIC)
        fill = _pseudo_words(rng, n_fill, taken)
        # frequency rank: the first basic terms, the three commonest
        # achromatic terms, the other named terms, then the fill words
        chrom = [(n, h, rng.uniform(0.25, 0.75)) for n, h in CHROMATIC]
        achrom = [(n, None, l0) for n, l0 in ACHROMATIC]
        fill_terms = [(n, rng.uniform(0.0, 360.0), rng.uniform(0.2, 0.8))
                      for n in fill]
        terms = chrom[:8] + achrom[:3] + chrom[8:] + achrom[3:] + fill_terms
        self.heads = [t[0] for t in terms]
        chromatic = np.array([t[1] is not None for t in terms])
        self.log_w = -HEAD_ZIPF * np.log(np.arange(1, N_HEADS + 1, dtype=np.float64))
        self.mu = np.deg2rad([t[1] or 0.0 for t in terms])
        self.kappa = np.where(chromatic, rng.uniform(20.0, 50.0, N_HEADS), 0.0)
        # chromatic terms gain with chroma; achromatic terms win near
        # gray and lose fast as chroma grows
        self.a = np.where(chromatic, rng.uniform(2.0, 6.0, N_HEADS), -20.0)
        self.bonus = np.where(chromatic, 0.0, 4.0)
        self.l0 = np.array([t[2] for t in terms])
        self.q = np.where(chromatic, rng.uniform(-6.0, -1.0, N_HEADS), -25.0)
        self._head_weights = np.stack([
            self.kappa * np.cos(self.mu),
            self.kappa * np.sin(self.mu),
            self.a - self.kappa,
            self.q,
            -2.0 * self.q * self.l0,
            self.q * self.l0 ** 2 + self.log_w + self.bonus,
        ])

        n_mfill = N_MODIFIERS - len(MODIFIERS)
        mfill = _pseudo_words(rng, n_mfill, taken)
        self.modifiers = [n for n, *_ in MODIFIERS] + mfill
        self.mod_d = np.concatenate([np.array([d for _, d, _ in MODIFIERS]),
                                     rng.uniform(-3.0, 3.0, n_mfill)])
        self.mod_e = np.concatenate([np.array([e for *_, e in MODIFIERS]),
                                     rng.uniform(-3.0, 3.0, n_mfill)])
        mod_rank = np.arange(1, N_MODIFIERS + 1, dtype=np.float64)
        mod_share = mod_rank ** -MODIFIER_ZIPF
        mod_share = (1.0 - P_NO_MODIFIER) * mod_share / mod_share.sum()
        # slot 0 is "no modifier"; the slopes act on s and l centred at
        # 1/2, so these are the shares at mid saturation and lightness
        self.mod_log_u = np.log(np.concatenate([[P_NO_MODIFIER], mod_share]))
        self.ish = [h + "ish" for h in self.heads[:N_ISH]]

        tokens = self.heads + self.ish + self.modifiers
        if len(set(tokens)) != len(tokens):
            raise ValueError("language token sets overlap")
        self.tokens = tokens

    @property
    def vocab_size(self) -> int:
        """Size of a colordesc vocabulary that has seen every token."""
        return N_RESERVED + len(self.tokens)

    # -- closed-form log probabilities, (N, options) arrays in nats

    def head_logits(self, hsl: np.ndarray) -> np.ndarray:
        """(N, N_HEADS) z_k(c). z is linear in six color features, with
        cos(h - mu) = cos h cos mu + sin h sin mu, so one GEMM gives it."""
        h = np.deg2rad(hsl[:, 0])
        s = hsl[:, 1] / 100.0
        l = hsl[:, 2] / 100.0
        chroma = s * (1.0 - np.abs(2.0 * l - 1.0))
        feats = np.column_stack([chroma * np.cos(h), chroma * np.sin(h), chroma,
                                 l * l, l, np.ones_like(l)])
        return feats @ self._head_weights

    def modifier_logp(self, hsl: np.ndarray) -> np.ndarray:
        s = (hsl[:, 1] / 100.0)[:, None] - 0.5
        l = (hsl[:, 2] / 100.0)[:, None] - 0.5
        slopes = np.concatenate([[0.0], self.mod_d]) * s + np.concatenate(
            [[0.0], self.mod_e]) * l
        return _log_softmax(self.mod_log_u + slopes)

    def ish_logp(self, head_logits: np.ndarray, head: np.ndarray) -> np.ndarray:
        """(N, N_ISH) log P(ish = j | c, head) for the drawn heads; the
        entry j == head is -inf."""
        z = head_logits[:, :N_ISH].copy()
        rows = np.nonzero(head < N_ISH)[0]
        z[rows, head[rows]] = -np.inf
        return math.log(P_ISH) + _log_softmax(z)

    def log2_slots(self, hsl: np.ndarray, head, ish, mod) -> np.ndarray:
        """True log2 S(d|c) of descriptions given by slot indices: head,
        ish (-1 for none) and modifier (0 for none)."""
        rows = np.arange(len(hsl))
        z = self.head_logits(hsl)
        has_ish = ish >= 0
        lp = (_log_softmax(z)[rows, head] + self.modifier_logp(hsl)[rows, mod]
              + np.where(has_ish, self.ish_logp(z, head)[rows, np.maximum(ish, 0)],
                         math.log1p(-P_ISH)))
        return lp / math.log(2.0)

    def parse(self, description: str) -> tuple:
        """(head, ish, modifier) slots of a description of this language."""
        words = description.split()
        head = self.heads.index(words[-1])
        rest = words[:-1]
        ish = -1
        if rest and rest[-1] in self.ish:
            ish = self.ish.index(rest.pop())
        mod = self.modifiers.index(rest.pop()) + 1 if rest else 0
        if rest:
            raise ValueError(f"not a description of this language: {description!r}")
        return head, ish, mod

    def log2_prob(self, hsl: np.ndarray, descriptions: list) -> np.ndarray:
        slots = np.array([self.parse(d) for d in descriptions], dtype=np.int64)
        return self.log2_slots(hsl, slots[:, 0], slots[:, 1], slots[:, 2])

    def render(self, head, ish, mod) -> list:
        out = []
        for k, j, m in zip(head.tolist(), ish.tolist(), mod.tolist()):
            words = []
            if m:
                words.append(self.modifiers[m - 1])
            if j >= 0:
                words.append(self.ish[j])
            words.append(self.heads[k])
            out.append(" ".join(words))
        return out


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _draw(rng, logp: np.ndarray) -> np.ndarray:
    """One categorical draw per row by inverse CDF."""
    cdf = np.cumsum(np.exp(logp), axis=1)
    u = rng.random(len(logp))[:, None] * cdf[:, -1:]
    return np.minimum((cdf <= u).sum(axis=1), logp.shape[1] - 1)


def _draw_items(lang: Language, rng, hsl: np.ndarray):
    """Draw head, ish (-1 for none) and modifier (0 for none) for each
    color, and return them with the true log2 S(d|c) of the result."""
    z = lang.head_logits(hsl)
    head = _draw(rng, _log_softmax(z))
    with_ish = rng.random(len(hsl)) < P_ISH
    ish = np.where(with_ish, _draw(rng, lang.ish_logp(z, head)), -1)
    mod = _draw(rng, lang.modifier_logp(hsl))
    return head, ish, mod, lang.log2_slots(hsl, head, ish, mod)


def sample_split(lang: Language, rng, n: int):
    """(hsl, descriptions, true log2 S(d|c)) for n items, drawn in chunks
    of _CHUNK colors to keep the (chunk, N_HEADS) arrays small."""
    hsl = np.column_stack([
        rng.uniform(0.0, 360.0, n),
        rng.uniform(0.0, 100.0, n),
        rng.uniform(0.0, 100.0, n),
    ])
    hsl = np.round(hsl, 2)
    hsl[:, 0] = np.where(hsl[:, 0] >= 360.0, 0.0, hsl[:, 0])
    descriptions = []
    log2p = np.empty(n)
    for lo in range(0, n, _CHUNK):
        head, ish, mod, log2p[lo:lo + _CHUNK] = _draw_items(lang, rng, hsl[lo:lo + _CHUNK])
        descriptions += lang.render(head, ish, mod)
    return hsl, descriptions, log2p


def _write_split(path: Path, hsl: np.ndarray, descriptions: list) -> None:
    lines = ["h,s,l,description"]
    lines += [f"{h:.2f},{s:.2f},{l:.2f},{d}"
              for (h, s, l), d in zip(hsl.tolist(), descriptions)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(seed: int, out, n_train: int = TRAIN_ITEMS,
             n_dev: int = DEV_ITEMS) -> dict:
    """Write a corpus directory for ``seed`` and return its meta record."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    lang = Language()
    rng = np.random.default_rng([seed, GENERATOR_VERSION])
    tr_hsl, tr_desc, _ = sample_split(lang, rng, n_train)
    dv_hsl, dv_desc, true_log2 = sample_split(lang, rng, n_dev)
    _write_split(out / "train.csv", tr_hsl, tr_desc)
    _write_split(out / "dev.csv", dv_hsl, dv_desc)
    (out / "manifest.txt").write_text(
        "space=hsl\ntrain=train.csv\ndev=dev.csv\n", encoding="utf-8")
    np.save(out / "dev_true_log2.npy", true_log2)

    train_tokens = {t for d in tr_desc for t in d.split()}
    meta = {
        "generator_version": GENERATOR_VERSION,
        "seed": seed,
        "train_items": n_train,
        "dev_items": n_dev,
        "language_tokens": len(lang.tokens),
        "vocab_size": N_RESERVED + len(train_tokens),
        "language_vocab_size": lang.vocab_size,
        "inventory_size": len(set(tr_desc)),
        "true_dev_perplexity": float(2.0 ** -true_log2.mean()),
        "sha256": {name: _sha256(out / name) for name in
                   ("train.csv", "dev.csv", "manifest.txt", "dev_true_log2.npy")},
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    tmp = Path(f"{args.out}.tmp{os.getpid()}")
    meta = generate(args.seed, tmp)
    os.replace(tmp, args.out)
    print(json.dumps(meta, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
