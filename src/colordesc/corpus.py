"""Corpus ingestion: parsing color/description files, tokenization,
vocabulary construction, and id encoding.

File format: UTF-8 delimited text, one record per line, columns
``h,s,v,description`` or ``h,s,l,description``. The delimiter (comma or
tab) is auto-detected from the first line. A header row naming the
columns is optional; when present it also determines the color space.
The corpus is expected to be pre-normalized (spelling, spam filtering),
so tokenization is plain lowercasing plus whitespace splitting.
"""

from __future__ import annotations

import logging
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .colors import (
    ColorHSV,
    canonical_hue_array,
    hsl_to_hsv,  # unused; perfbench/tracing.py counts calls at corpus.hsl_to_hsv
    hsl_to_hsv_array,
    percent_ok_array,
)
from .errors import CorpusError

log = logging.getLogger(__name__)

START_TOKEN = "<s>"
END_TOKEN = "</s>"
UNK_TOKEN = "<unk>"
RESERVED_TOKENS = (START_TOKEN, END_TOKEN, UNK_TOKEN)

START_ID = 0
END_ID = 1
UNK_ID = 2


def tokenize(raw: str) -> list[str]:
    """Lowercase and split on runs of whitespace. Never yields empty tokens."""
    return raw.lower().split()


@dataclass(frozen=True)
class Description:
    """A color description: raw text and its tokens. Frozen, because a
    loaded corpus shares one Description among the rows with equal text."""

    raw: str
    tokens: list[str]

    @classmethod
    def from_text(cls, raw: str) -> "Description":
        return cls(raw=raw, tokens=tokenize(raw))

    def key(self) -> tuple[str, ...]:
        """Normalized identity used for exact-match metrics and inventories."""
        return tuple(self.tokens)


class Vocabulary:
    """Bijective token/id mapping with reserved sentinel ids.

    Content tokens are assigned ids by descending training count with
    lexicographic tie-breaking, so construction is deterministic.
    """

    def __init__(self, id_to_token: list[str]):
        if list(id_to_token[: len(RESERVED_TOKENS)]) != list(RESERVED_TOKENS):
            raise CorpusError(
                f"vocabulary must start with reserved tokens {RESERVED_TOKENS}"
            )
        if len(set(id_to_token)) != len(id_to_token):
            raise CorpusError("vocabulary contains duplicate tokens")
        self.id_to_token: list[str] = list(id_to_token)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(id_to_token)}

    @classmethod
    def build(cls, train: "Dataset") -> "Vocabulary":
        """Build from a training split: reserved tokens plus every training
        token, ordered by (count desc, token asc)."""
        if len(train) == 0:
            raise CorpusError("cannot build a vocabulary from an empty dataset")
        counts = Counter(chain.from_iterable(d.tokens for d in train.descriptions))
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls(list(RESERVED_TOKENS) + [tok for tok, _ in ordered])

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.id_to_token == other.id_to_token

    def encode(self, text_or_tokens) -> list[int]:
        """Token ids with start/end sentinels; OOV tokens map to <unk>."""
        tokens = (
            tokenize(text_or_tokens)
            if isinstance(text_or_tokens, str)
            else list(text_or_tokens)
        )
        unk = UNK_ID
        return [START_ID] + [self.token_to_id.get(t, unk) for t in tokens] + [END_ID]

    def encode_batch(self, token_seqs) -> tuple[np.ndarray, np.ndarray]:
        """(flat_ids, offsets) of many token lists, each encoded as
        ``encode`` does: int32 ids of every sequence, sentinels included,
        back to back; ``offsets[i]:offsets[i+1]`` delimits sequence i."""
        n = len(token_seqs)
        lengths = np.fromiter(map(len, token_seqs), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths + 2, out=offsets[1:])
        flat = np.full(offsets[-1], END_ID, dtype=np.int32)
        content = np.ones(offsets[-1], dtype=bool)
        content[offsets[:-1]] = False
        content[offsets[1:] - 1] = False
        flat[offsets[:-1]] = START_ID
        flat[content] = np.fromiter(
            map(self.token_to_id.get, chain.from_iterable(token_seqs), repeat(UNK_ID)),
            dtype=np.int32, count=int(lengths.sum()))
        return flat, offsets

    def decode(self, ids) -> list[str]:
        """Tokens for an id sequence, with sentinels stripped."""
        return [
            self.id_to_token[i] for i in ids if i not in (START_ID, END_ID)
        ]


@dataclass
class Dataset:
    """A split of (color, description) pairs.

    Colors are stored as an (N, 3) float64 HSV array; descriptions as a
    parallel list. ``skipped`` counts records dropped at load time.
    """

    colors: np.ndarray
    descriptions: list[Description]
    split: str = ""
    skipped: int = 0

    def __post_init__(self):
        if len(self.colors) != len(self.descriptions):
            raise CorpusError("colors and descriptions length mismatch")
        for d in self.descriptions:
            if not d.tokens:
                raise CorpusError("dataset contains an empty description")

    def __len__(self) -> int:
        return len(self.descriptions)

    def color(self, i: int) -> ColorHSV:
        h, s, v = self.colors[i]
        return ColorHSV(float(h), float(s), float(v))

    def subsample(self, n: int, seed: int) -> "Dataset":
        """A reproducible random subsample without replacement."""
        if n >= len(self):
            return self
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(len(self), size=n, replace=False))
        return Dataset(
            colors=self.colors[idx].copy(),
            descriptions=[self.descriptions[i] for i in idx],
            split=f"{self.split}[{n}]",
        )


_HEADER_SETS = {
    ("h", "s", "v", "description"): "hsv",
    ("h", "s", "l", "description"): "hsl",
}


def _detect_delimiter(line: str) -> str:
    return "\t" if "\t" in line else ","


def load_corpus(path, space: str = "auto", split: str = "") -> Dataset:
    """Load a corpus file into a Dataset of canonical HSV colors.

    ``space`` is one of 'hsv', 'hsl', or 'auto'. 'auto' requires a header
    row; headerless files default to HSV unless ``space`` says otherwise.
    A header that contradicts an explicit ``space`` is an error. Records
    with unparseable fields are skipped and counted. A leading byte order
    mark is ignored. Rows with the same description field share one
    (frozen) Description.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")
    if space not in ("auto", "hsv", "hsl"):
        raise CorpusError(f"unknown color space {space!r}")

    numbers: list[tuple[float, float, float]] = []
    texts: list[str] = []
    skipped = 0

    with open(path, encoding="utf-8-sig") as f:
        first = f.readline()
        if first == "":
            raise CorpusError(f"corpus file is empty: {path}")
        delim = _detect_delimiter(first)
        header_cols = tuple(c.strip().lower() for c in first.rstrip("\n").split(delim))
        header_space = _HEADER_SETS.get(header_cols)
        if header_space is not None:
            if space != "auto" and space != header_space:
                raise CorpusError(
                    f"header declares {header_space} but space={space!r} was requested"
                )
            space = header_space
            data_lines = f
        else:
            # no header: first line is data; need an explicit or default space
            if header_cols and header_cols[0] in ("h", "hue"):
                raise CorpusError(
                    f"unrecognized header columns {header_cols}; expected "
                    "h,s,v,description or h,s,l,description"
                )
            if space == "auto":
                space = "hsv"
            data_lines = _chain_first(first, f)

        # per line only the split and the float() calls; Python's float
        # syntax (whitespace, "1_0", "nan", "inf") is the accepted input
        for line in data_lines:
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(delim)
            if len(parts) != 4:
                skipped += 1
                continue
            try:
                numbers.append((float(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError:
                skipped += 1
                continue
            texts.append(parts[3])

    valid, hsv = _checked_hsv(np.array(numbers, dtype=np.float64).reshape(-1, 3),
                              space == "hsl")
    # one Description per distinct text, shared by every row that has it
    code_of = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    codes = np.fromiter(map(code_of.__getitem__, texts), dtype=np.int64,
                        count=len(texts))[valid]
    distinct = [_description(text) for text in code_of]
    keep = np.array([d is not None for d in distinct], dtype=bool)[codes]
    descriptions = list(map(distinct.__getitem__, codes[keep].tolist()))
    skipped += len(texts) - len(descriptions)

    if not descriptions:
        raise CorpusError(f"no valid records in {path} ({skipped} skipped)")
    if skipped:
        log.info("load_corpus(%s): skipped %d unparseable records", path, skipped)
    return Dataset(colors=hsv[keep], descriptions=descriptions, split=split,
                   skipped=skipped)


def _checked_hsv(rows: np.ndarray, is_hsl: bool):
    """Indices of the (h, s, v) or (h, s, l) rows that ``ColorHSV`` (after
    ``hsl_to_hsv`` for HSL) accepts, and their canonical HSV colors."""
    ok = np.isfinite(rows[:, 0]) & percent_ok_array(rows[:, 1]) & percent_ok_array(rows[:, 2])
    idx = np.flatnonzero(ok)
    if is_hsl:
        hsv = hsl_to_hsv_array(rows[idx])
        ok = percent_ok_array(hsv[:, 1]) & percent_ok_array(hsv[:, 2])
        return idx[ok], hsv[ok]
    hsv = rows[idx]
    hsv[:, 0] = canonical_hue_array(hsv[:, 0])
    return idx, hsv


def _description(text: str) -> Description | None:
    """The Description of a description field, None if it has no tokens."""
    tokens = tokenize(text)
    if not tokens:
        return None
    return Description(raw=text.strip(), tokens=[sys.intern(t) for t in tokens])


def _chain_first(first_line: str, rest):
    yield first_line
    yield from rest


def read_key_values(path, what: str = "manifest") -> dict:
    """The key=value lines of a manifest or config file (``what`` names
    it in errors), keys and values stripped; blank lines and lines
    starting with # are skipped and a byte order mark is ignored."""
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"{what} not found: {path}")
    entries: dict[str, str] = {}
    for ln, line in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorpusError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def load_manifest(path) -> dict:
    """Read a split manifest (key=value lines, keys train/dev/test plus an
    optional space=hsv|hsl) and load each listed split.

    Relative paths are resolved against the manifest's directory.
    """
    path = Path(path)
    entries = read_key_values(path)
    space = entries.pop("space", "auto")
    splits = {}
    for name in ("train", "dev", "test"):
        if name in entries:
            file_path = Path(entries[name])
            if not file_path.is_absolute():
                file_path = path.parent / file_path
            splits[name] = load_corpus(file_path, space=space, split=name)
    unknown = set(entries) - {"train", "dev", "test"}
    if unknown:
        raise CorpusError(f"unknown manifest keys: {sorted(unknown)}")
    if not splits:
        raise CorpusError(f"manifest {path} lists no train/dev/test files")
    return splits


@dataclass
class EncodedDataset:
    """Color rows and their encoded descriptions.

    ``flat_ids`` concatenates every encoded sequence (with sentinels);
    ``offsets[i]:offsets[i+1]`` delimits item i.
    """

    colors: np.ndarray
    flat_ids: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def teacher_forcing(self, rows: np.ndarray):
        """(in_ids, targets, mask) for items ``rows``: inputs ids[:-1] and
        targets ids[1:], both int64 and padded with </s> to the longest
        item's T steps, and a float64 mask that is 1.0 over real target
        positions."""
        start = self.offsets[rows]
        steps = self.offsets[rows + 1] - start - 1
        mask = np.arange(steps.max()) < steps[:, None]
        src = (start[:, None] + np.arange(mask.shape[1]))[mask]
        in_ids = np.full(mask.shape, END_ID, dtype=np.int64)
        targets = in_ids.copy()
        in_ids[mask] = self.flat_ids[src]
        targets[mask] = self.flat_ids[src + 1]
        return in_ids, targets, mask.astype(np.float64)


def encode_dataset(ds: Dataset, vocab: Vocabulary) -> EncodedDataset:
    flat, offsets = vocab.encode_batch([d.tokens for d in ds.descriptions])
    return EncodedDataset(colors=ds.colors, flat_ids=flat, offsets=offsets)
