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
from itertools import chain, compress, repeat
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


def tokens_of(d) -> list[str]:
    """The tokens of a Description, of a text, or of a token sequence."""
    if isinstance(d, Description):
        return list(d.tokens)
    if isinstance(d, str):
        return tokenize(d)
    return list(d)


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
        ids = [self.token_to_id.get(t, UNK_ID) for t in tokens_of(text_or_tokens)]
        return [START_ID] + ids + [END_ID]

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


# characters of text per block: the size hint of ``readlines``. A block's
# field strings (~4,800 rows of 27 characters) fit in a few pymalloc
# arenas, which the next block reuses. With 1 MiB blocks the long-lived
# description strings pinned more arenas: loading the benchmark corpus
# peaked at 59 MB RSS, against 45 MB with these blocks.
BLOCK_CHARS = 1 << 17


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

    The file is read in blocks of about ``BLOCK_CHARS`` characters, each
    parsed with array operations (``_parse_block``), so no per-row Python
    object outlives its block.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")
    if space not in ("auto", "hsv", "hsl"):
        raise CorpusError(f"unknown color space {space!r}")

    # (hsv, codes, skipped) per block, after an empty one
    parsed = [(np.empty((0, 3)), np.empty(0, dtype=np.intp), 0)]
    code_of = _Codes()  # distinct description field -> code

    try:
        with open(path, encoding="utf-8-sig") as f:
            first = f.readline()
            if first == "":
                raise CorpusError(f"corpus file is empty: {path}")
            delim = _detect_delimiter(first)
            header_cols = tuple(c.strip().lower() for c in first.rstrip("\n").split(delim))
            header_space = _HEADER_SETS.get(header_cols)
            blocks = iter(lambda: f.readlines(BLOCK_CHARS), [])
            if header_space is not None:
                if space != "auto" and space != header_space:
                    raise CorpusError(
                        f"header declares {header_space} but space={space!r} was requested"
                    )
                space = header_space
            else:
                # no header: first line is data; need an explicit or default space
                if header_cols and header_cols[0] in ("h", "hue"):
                    raise CorpusError(
                        f"unrecognized header columns {header_cols}; expected "
                        "h,s,v,description or h,s,l,description"
                    )
                if space == "auto":
                    space = "hsv"
                blocks = chain([[first]], blocks)
            parsed += (_parse_block(lines, delim, space == "hsl", code_of)
                       for lines in blocks)
    except UnicodeDecodeError as exc:
        raise CorpusError(f"corpus file is not valid UTF-8: {path} ({exc.reason})") from exc

    hsv_blocks, code_blocks, skips = zip(*parsed)
    del parsed
    hsv = np.concatenate(hsv_blocks)
    codes = np.concatenate(code_blocks)
    del hsv_blocks, code_blocks
    skipped = sum(skips)
    # one Description per distinct text, shared by every row that has it
    distinct = [_description(text) for text in code_of]
    keep = np.array([d is not None for d in distinct], dtype=bool)[codes]
    # hsv[keep] is a copy even when every row is kept. Freeing the joined
    # array (2.6 MB for the benchmark's dev split) raises glibc's dynamic
    # mmap and trim thresholds above the scorer's 512-row working set
    # (~4 MB); without it, scoring that split re-faulted ~3 MB per chunk
    # and took 20% longer.
    hsv, codes = hsv[keep], codes[keep]
    skipped += len(keep) - len(codes)
    table = np.empty(len(distinct), dtype=object)
    table[:] = distinct
    descriptions = table[codes].tolist()

    if not descriptions:
        raise CorpusError(f"no valid records in {path} ({skipped} skipped)")
    if skipped:
        log.info("load_corpus(%s): skipped %d unparseable records", path, skipped)
    return Dataset(colors=hsv, descriptions=descriptions, split=split, skipped=skipped)


def _parse_block(lines: list[str], delim: str, is_hsl: bool, code_of: _Codes):
    """(hsv, codes, skipped) of a block of lines: the canonical HSV colors
    of its valid records, their description codes (texts new to
    ``code_of`` get the next codes) and the count of skipped records.

    Blank lines are ignored; a line is a record if it has four fields.
    Numbers are parsed by ``float()``, which numpy calls on each field, so
    Python's float syntax (whitespace, "1_0", "nan", "inf") is the
    accepted input.
    """
    records = list(filter(str.strip, lines))
    four = np.fromiter(map(str.count, records, repeat(delim)), dtype=np.intp,
                       count=len(records)) == 3
    good = records if four.all() else list(compress(records, four))
    n = len(good)
    # every record has three delimiters and ends its line, so one split
    # yields its four fields in order (and a trailing "" after the last)
    fields = "".join(good).replace("\n", delim).split(delim)
    cols = [fields[k:4 * n:4] for k in range(4)]
    del fields
    try:
        numbers = np.array(cols[:3], dtype=np.float64)
    except ValueError:
        # some field is not a number: find its rows one field at a time
        keep = [all(map(_is_number, row)) for row in zip(*cols[:3])]
        cols = [list(compress(col, keep)) for col in cols]
        numbers = np.array(cols[:3], dtype=np.float64)
    valid, hsv = _checked_hsv(numbers.T, is_hsl)
    codes = np.fromiter(map(code_of.__getitem__, cols[3]), dtype=np.intp,
                        count=len(cols[3]))[valid]
    return hsv, codes, len(records) - len(valid)


class _Codes(dict):
    """Codes of distinct texts: a text new to the dict gets the next code."""

    def __missing__(self, text: str) -> int:
        self[text] = code = len(self)
        return code


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


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


def read_key_values(path, what: str = "manifest") -> dict:
    """The key=value lines of a manifest or config file (``what`` names
    it in errors), keys and values stripped; blank lines and lines
    starting with # are skipped and a byte order mark is ignored."""
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"{what} not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{what} is not valid UTF-8: {path} ({exc.reason})") from exc
    entries: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
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
    # the keys are checked before any split is read
    unknown = set(entries) - {"train", "dev", "test"}
    if unknown:
        raise CorpusError(f"unknown manifest keys: {sorted(unknown)}")
    if not entries:
        raise CorpusError(f"manifest {path} lists no train/dev/test files")
    splits = {}
    for name in ("train", "dev", "test"):
        if name in entries:
            file_path = Path(entries[name])
            if not file_path.is_absolute():
                file_path = path.parent / file_path
            splits[name] = load_corpus(file_path, space=space, split=name)
    return splits


@dataclass
class EncodedDataset:
    """Encoded descriptions.

    ``flat_ids`` concatenates every encoded sequence (with sentinels);
    ``offsets[i]:offsets[i+1]`` delimits item i.
    """

    flat_ids: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

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
    return EncodedDataset(flat_ids=flat, offsets=offsets)
