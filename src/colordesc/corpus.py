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

import codecs
import functools
import hashlib
import io
import logging
import os
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from pathlib import Path

import numpy as np

from .colors import checked_hsv
from .colors import hsl_to_hsv  # unused; perfbench/tracing.py counts calls here
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
        if not (isinstance(id_to_token, list)
                and all(isinstance(t, str) for t in id_to_token)):
            raise CorpusError("vocabulary is not a list of strings")
        if id_to_token[: len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
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
        counts = Counter()
        for d, n in zip(train.table, np.bincount(train.codes).tolist()):
            for t in d.tokens:
                counts[t] += n
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls(list(RESERVED_TOKENS) + [tok for tok, _ in ordered])

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode_batch(self, token_seqs) -> tuple[np.ndarray, np.ndarray]:
        """(flat_ids, offsets) of many token lists: the int32 ids of every
        sequence between <s> and </s>, OOV tokens as <unk>, back to back;
        ``offsets[i]:offsets[i+1]`` delimits sequence i."""
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


class _Codes(dict):
    """Codes of distinct keys: a key new to the dict gets the next code."""

    def __missing__(self, key) -> int:
        self[key] = code = len(self)
        return code


@dataclass
class Dataset:
    """A split of (color, description) pairs.

    Colors are stored as an (N, 3) float64 HSV array; descriptions as a
    parallel list and as ``codes`` into ``table``, each distinct object once
    in order of first use. ``skipped`` counts records dropped at load time.
    """

    colors: np.ndarray
    descriptions: list[Description]
    split: str = ""
    skipped: int = 0

    def __post_init__(self):
        if len(self.colors) != len(self.descriptions):
            raise CorpusError("colors and descriptions length mismatch")
        code_of = _Codes()  # id of a distinct Description -> code
        self.codes = np.fromiter(map(code_of.__getitem__, map(id, self.descriptions)),
                                 dtype=np.int32, count=len(self.descriptions))
        # the running maximum of the codes steps up at each code's first row
        first = np.flatnonzero(np.diff(np.maximum.accumulate(self.codes), prepend=-1))
        self.table = [self.descriptions[i] for i in first.tolist()]
        if not all(d.tokens for d in self.table):
            raise CorpusError("dataset contains an empty description")

    def __len__(self) -> int:
        return len(self.descriptions)

    def color(self, i: int) -> np.ndarray:
        """A copy of HSV row i."""
        return self.colors[i].copy()

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


# bytes of the file per block (characters, for ASCII text). A block's
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

    The file is read in blocks of ``BLOCK_CHARS`` bytes, each parsed with
    array operations (``_parse_block``), so no per-row Python object
    outlives its block. The result of a parse is kept in one cache entry
    per file and ``space`` (``_cache_entry``), with the digest of the
    bytes parsed and the parse rules; a later load of the same bytes
    under the same rules reads the entry instead, and gives the same
    Dataset.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")
    if space not in ("auto", "hsv", "hsl"):
        raise CorpusError(f"unknown color space {space!r}")

    entry = _cache_entry(path, space)
    try:
        loaded = _read_entry(entry, _file_sha256(path))
        hit = loaded is not None
        if not hit:
            # the entry records the bytes parsed, which may differ from those
            # looked up
            *loaded, sha256 = _parse(path, space)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    hsv, codes, fields, skipped = loaded
    del loaded  # the row filter below then frees what it copies: ~45 MB at 1.5M rows
    # one Description per distinct text, shared by every row that has it
    distinct = [_description(text) for text in fields]
    keep = np.array([d is not None for d in distinct], dtype=bool)[codes]
    if not keep.any():
        raise CorpusError(f"no valid records in {path} ({skipped + len(keep)} skipped)")
    hsv, codes = hsv[keep], codes[keep]
    skipped += len(keep) - len(codes)
    if not hit:
        _write_entry(entry, path, sha256, hsv, codes, fields, skipped)
    table = np.empty(len(distinct), dtype=object)
    table[:] = distinct
    descriptions = table[codes].tolist()

    log.info("load_corpus(%s): %d rows, %s", path, len(descriptions),
             f"read from cache entry {entry}" if hit else "parsed")
    if skipped:
        log.info("load_corpus(%s): skipped %d unparseable records", path, skipped)
    return Dataset(colors=hsv, descriptions=descriptions, split=split, skipped=skipped)


def _parse(path: Path, space: str):
    """(hsv, codes, fields, skipped, sha256) of a corpus file: the colors
    of its records with valid numbers, their codes into ``fields`` (each
    distinct description field as read, in order of first use), the count
    of records skipped so far and the hex sha256 of the bytes parsed.
    Rows whose description has no tokens are still in."""
    # (hsv, codes, skipped) per block, after an empty one
    parsed = [(np.empty((0, 3)), np.empty(0, dtype=np.intp), 0)]
    code_of = _Codes()  # distinct description field -> code
    sha256 = hashlib.sha256()

    try:
        with open(path, "rb") as f:
            blocks = _line_blocks(f, sha256)
            lines = next(blocks, [])
            if not lines:
                raise CorpusError(f"corpus file is empty: {path}")
            delim = _detect_delimiter(lines[0])
            header_cols = tuple(c.strip().lower() for c in lines[0].split(delim))
            header_space = _HEADER_SETS.get(header_cols)
            if header_space is not None:
                if space != "auto" and space != header_space:
                    raise CorpusError(
                        f"header declares {header_space} but space={space!r} was requested"
                    )
                space = header_space
                del lines[0]
            else:
                # no header: first line is data; need an explicit or default space
                if header_cols and header_cols[0] in ("h", "hue"):
                    raise CorpusError(
                        f"unrecognized header columns {header_cols}; expected "
                        "h,s,v,description or h,s,l,description"
                    )
                if space == "auto":
                    space = "hsv"
            parsed += (_parse_block(block, delim, space == "hsl", code_of)
                       for block in chain([lines], blocks))
    except UnicodeDecodeError as exc:
        raise CorpusError(f"corpus file is not valid UTF-8: {path} ({exc.reason})") from exc

    hsv_blocks, code_blocks, skips = zip(*parsed)
    del parsed
    hsv = np.concatenate(hsv_blocks)
    codes = np.concatenate(code_blocks)
    return hsv, codes, list(code_of), sum(skips), sha256.hexdigest()


def _line_blocks(f, sha256):
    """The lines of binary file ``f`` as UTF-8 text with universal
    newlines (as ``open`` reads them), without their ends, one nonempty
    list per read of ``BLOCK_CHARS`` bytes that ends a line; every byte
    read goes into ``sha256``. A leading byte order mark is dropped."""
    decode = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder("utf-8-sig")(), translate=True).decode
    tail = ""  # the text read after the last line end
    for data in chain(iter(lambda: f.read(BLOCK_CHARS), b""), [b""]):
        sha256.update(data)
        lines = (tail + decode(data, final=not data)).split("\n")
        tail = lines.pop()
        if not data and tail:
            lines.append(tail)
        if lines:
            yield lines


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
    # every record has three delimiters, so one split yields its four
    # fields in order
    fields = delim.join(good).split(delim)
    cols = [fields[k:4 * n:4] for k in range(4)]
    del fields
    try:
        numbers = np.array(cols[:3], dtype=np.float64)
    except ValueError:
        # some field is not a number: find its rows one field at a time
        keep = [all(map(_is_number, row)) for row in zip(*cols[:3])]
        cols = [list(compress(col, keep)) for col in cols]
        numbers = np.array(cols[:3], dtype=np.float64)
    valid, hsv = checked_hsv(numbers.T, is_hsl)
    codes = np.fromiter(map(code_of.__getitem__, cols[3]), dtype=np.intp,
                        count=len(cols[3]))[valid]
    return hsv, codes, len(records) - len(valid)


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _description(text: str) -> Description | None:
    """The Description of a description field, None if it has no tokens."""
    tokens = tokenize(text)
    if not tokens:
        return None
    return Description(raw=text.strip(), tokens=[sys.intern(t) for t in tokens])


# -- the cache of parsed files
#
# An entry is an uncompressed .npz of a loaded split: ``hsv`` (N, 3)
# float64 and ``codes`` (N,) int32 of its rows, the distinct description
# fields of the file as one UTF-8 blob ``text`` (uint8) with the end of
# each field in characters, ``ends`` (int64), and ``skipped``; ``sha256``
# and ``stamp`` are the digest of the bytes parsed and the parse rules
# (``_rules_stamp``), and ``source`` the resolved path of the file. Only
# a successful load writes one, through a temporary file and
# ``os.replace``, over the file's last entry, and then removes every
# other entry whose source is gone or unrecorded (``_sweep``). An entry
# of other bytes or rules, one that cannot be read, or one that does not
# hold such arrays, is a miss, and a cache that cannot be written is no
# cache: neither changes a result.

@functools.cache
def _rules_stamp() -> str:
    """The sha256 of what decides a parse besides the file: the source of
    this module and of ``colors``, and the numpy and Python versions."""
    h = hashlib.sha256(f"numpy {np.__version__} python {sys.version}".encode())
    for module in ("corpus.py", "colors.py"):
        h.update(Path(__file__).with_name(module).read_bytes())
    return h.hexdigest()


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/colordesc``, or ``~/.cache/colordesc`` when that
    variable is unset or not an absolute path."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    # the XDG rule: a relative path is ignored
    return (Path(root) if os.path.isabs(root) else Path.home() / ".cache") / "colordesc"


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cache_entry(path: Path, space: str) -> Path | None:
    """The entry of a parse of the file at ``path`` under ``space``;
    None where there is no cache."""
    try:
        key = f"{path.resolve()} {space}"
        return _cache_dir() / f"{hashlib.sha256(key.encode()).hexdigest()}.npz"
    except (OSError, RuntimeError):  # no such directory, no home directory
        return None


def _read_entry(entry: Path | None, sha256: str):
    """(hsv, codes, fields, skipped) of a cache entry of the bytes with
    that sha256 under the current parse rules; None if it is missing, is
    of other bytes or rules, or is not a whole, consistent entry."""
    if entry is None:
        return None
    try:
        with np.load(entry) as z:
            if (str(z["sha256"]), str(z["stamp"])) != (sha256, _rules_stamp()):
                return None
            hsv, codes, blob, ends, skipped = (
                z[name] for name in ("hsv", "codes", "text", "ends", "skipped"))
        n = len(codes)
        text = blob.tobytes().decode("utf-8")
        if not (hsv.dtype == np.float64 and hsv.shape == (n, 3)
                and codes.dtype == np.int32 and codes.shape == (n,)
                and blob.dtype == np.uint8 and ends.dtype == np.int64 and ends.ndim == 1
                and np.all(np.diff(ends, prepend=0) >= 0)
                and (ends[-1] if len(ends) else 0) == len(text)
                and (n == 0 or 0 <= codes.min() <= codes.max() < len(ends))
                and skipped.dtype == np.int64 and skipped.shape == () and skipped >= 0):
            raise ValueError("arrays of the wrong kind")
    except FileNotFoundError:
        return None
    except Exception as exc:  # whatever an entry holds, it is only a miss
        log.info("load_corpus: cache entry %s is unusable (%s); parsing", entry, exc)
        return None
    fields = [text[a:b] for a, b in zip([0, *ends[:-1].tolist()], ends.tolist())]
    return hsv, codes, fields, int(skipped)


def _write_entry(entry: Path | None, path: Path, sha256: str, hsv, codes, fields,
                 skipped: int) -> None:
    """Store a loaded split of the bytes with that sha256 at ``path`` as
    ``entry``, atomically, then ``_sweep`` the cache; a cache that cannot
    be written is skipped."""
    if entry is None:
        return
    ends = np.cumsum([len(field) for field in fields], dtype=np.int64)
    text = np.frombuffer("".join(fields).encode("utf-8"), dtype=np.uint8)
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.parent, prefix=f".{entry.stem}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(f, hsv=hsv, codes=codes.astype(np.int32), text=text, ends=ends,
                         skipped=np.int64(skipped), sha256=sha256, stamp=_rules_stamp(),
                         source=str(path.resolve()))
            os.replace(tmp, entry)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        log.info("load_corpus: cannot write cache entry %s (%s)", entry, exc)
        return
    _sweep(entry)


def _sweep(entry: Path) -> None:
    """Remove every entry but ``entry`` from its directory whose
    ``source`` no longer exists or that records none (those written
    before entries named their source). A later load of a removed
    entry's file parses it again."""
    for other in entry.parent.glob("*.npz"):
        if other == entry:
            continue
        try:
            with np.load(other) as z:
                source = str(z["source"]) if "source" in z.files else None
        except FileNotFoundError:  # removed by another process meanwhile
            continue
        except Exception:  # whatever an entry holds, it records no source
            source = None
        if source is None or not os.path.exists(source):
            try:
                other.unlink()
            except OSError as exc:
                log.info("load_corpus: cannot remove cache entry %s (%s)", other, exc)


def read_key_values(path, what: str = "manifest") -> dict:
    """The key=value lines of a manifest or config file (``what`` names
    it in errors), keys and values stripped; blank lines and lines
    starting with # are skipped, a byte order mark is ignored and a key
    set twice is an error."""
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"{what} not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{what} is not valid UTF-8: {path} ({exc.reason})") from exc
    except OSError as exc:
        raise CorpusError(f"cannot read {what} {path}: {exc}") from exc
    entries: dict[str, str] = {}
    set_on: dict[str, int] = {}  # key -> number of the line that set it
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorpusError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in set_on:
            raise CorpusError(f"{path}:{ln}: {key!r} is already set on line {set_on[key]}")
        entries[key], set_on[key] = value, ln
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

    ``flat_ids`` concatenates a table's encoded entries (with sentinels);
    ``offsets[k]:offsets[k+1]`` delimits entry k, the one of each row with code k.
    """

    flat_ids: np.ndarray
    offsets: np.ndarray
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def steps(self, rows=slice(None)) -> np.ndarray:
        """The step count of each row of ``rows`` (all rows by default):
        its tokens and </s>, the targets its <s> ... </s> entry gives."""
        entries = self.codes[rows]
        return self.offsets[entries + 1] - self.offsets[entries] - 1

    def teacher_forcing(self, rows: np.ndarray):
        """(ids, steps) for rows ``rows``: ``steps`` as ``steps(rows)``
        gives it, and ``ids`` one (B, T + 1) int64 array of each row's
        <s> ... </s>, padded with </s>, where T is the longest row's step
        count. Step t reads input ids[:, t] and target ids[:, t + 1]."""
        steps = self.steps(rows)
        start = self.offsets[self.codes[rows]]
        live = np.arange(steps.max() + 1) <= steps[:, None]
        ids = np.full(live.shape, END_ID, dtype=np.int64)
        ids[live] = self.flat_ids[(start[:, None] + np.arange(live.shape[1]))[live]]
        return ids, steps


def encode_dataset(ds: Dataset, vocab: Vocabulary) -> EncodedDataset:
    return EncodedDataset(*vocab.encode_batch([d.tokens for d in ds.table]), ds.codes)
