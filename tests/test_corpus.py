import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colordesc import (
    ConfigError,
    CorpusError,
    Dataset,
    Description,
    Vocabulary,
    encode_dataset,
    load_corpus,
    load_manifest,
    tokenize,
)
from colordesc import cli, corpus
from colordesc.colors import hsl_to_hsv
from colordesc.corpus import (
    _HEADER_SETS,
    EncodedDataset,
    END_ID,
    RESERVED_TOKENS,
    START_ID,
    UNK_ID,
    _detect_delimiter,
    read_key_values,
    tokens_of,
)
from colordesc.models import _inventory

from conftest import encode_one


def test_tokenize_lowercases_and_splits():
    assert tokenize("Light  Greenish Blue") == ["light", "greenish", "blue"]
    assert tokenize("  teal\t") == ["teal"]
    assert tokenize("") == []


def test_vocabulary_reserved_prefix_and_ordering():
    ds = Dataset(
        colors=np.zeros((4, 3)),
        descriptions=[Description.from_text(t) for t in
                      ["blue", "blue green", "green", "green"]],
    )
    vocab = Vocabulary.build(ds)
    assert vocab.id_to_token[:3] == list(RESERVED_TOKENS)
    # green appears 3 times, blue 2: counts descend, ties alphabetical
    assert vocab.id_to_token[3:] == ["green", "blue"]
    assert len(vocab) == 5


def test_vocabulary_rejects_bad_construction():
    with pytest.raises(CorpusError):
        Vocabulary(["<s>", "</s>", "x"])
    with pytest.raises(CorpusError):
        Vocabulary(list(RESERVED_TOKENS) + ["a", "a"])


def test_encode_decode_roundtrip_and_unk():
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["deep", "teal"])
    ids = encode_one(vocab, "deep teal")
    assert ids[0] == START_ID and ids[-1] == END_ID
    assert vocab.decode(ids) == ["deep", "teal"]
    ids2 = encode_one(vocab, "deep magenta")
    assert ids2[2] == UNK_ID
    assert encode_one(vocab, "teal") == [START_ID, vocab.token_to_id["teal"], END_ID]
    # the batch encoder agrees with the oracle on text, tokens and Descriptions
    for d in ("Deep  TEAL", ["deep", "magenta"], Description.from_text("teal deep")):
        flat, offsets = vocab.encode_batch([tokens_of(d)])
        assert flat.tolist() == encode_one(vocab, d)
        assert offsets.tolist() == [0, len(flat)]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_corpus_comma_with_header(tmp_path):
    p = _write(tmp_path / "c.csv",
               "h,s,v,description\n10,20,30,dusty rose\n350,5,99,off white\n")
    ds = load_corpus(p)
    assert len(ds) == 2
    assert ds.descriptions[0].tokens == ["dusty", "rose"]
    np.testing.assert_allclose(ds.colors[1], [350.0, 5.0, 99.0])


def test_load_corpus_tab_delimited_headerless(tmp_path):
    p = _write(tmp_path / "c.tsv", "10\t20\t30\tdeep red\n")
    ds = load_corpus(p)
    assert len(ds) == 1
    assert ds.descriptions[0].tokens == ["deep", "red"]


def test_load_corpus_hsl_header_converts(tmp_path):
    p = _write(tmp_path / "c.csv", "h,s,l,description\n120,100,50,green\n")
    ds = load_corpus(p)
    np.testing.assert_allclose(ds.colors[0], [120.0, 100.0, 100.0])


def test_load_corpus_header_conflicts_with_explicit_space(tmp_path):
    p = _write(tmp_path / "c.csv", "h,s,l,description\n120,100,50,green\n")
    with pytest.raises(CorpusError):
        load_corpus(p, space="hsv")


def test_load_corpus_skips_and_counts_bad_records(tmp_path):
    p = _write(tmp_path / "c.csv",
               "10,20,30,ok\nnot,a,number,bad\n10,20,30\n"
               "10,200,30,out of range\n10,20,30,   \n20,30,40,also ok\n")
    ds = load_corpus(p)
    assert len(ds) == 2
    assert ds.skipped == 4


def test_load_corpus_errors(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "missing.csv")
    empty = _write(tmp_path / "empty.csv", "")
    with pytest.raises(CorpusError):
        load_corpus(empty)
    allbad = _write(tmp_path / "bad.csv", "x,y,z,w\n")
    with pytest.raises(CorpusError):
        load_corpus(allbad)
    ok = _write(tmp_path / "ok.csv", "1,2,3,fine\n")
    with pytest.raises(CorpusError):
        load_corpus(ok, space="rgb")


def test_load_corpus_strips_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes("\ufeffh,s,l,description\n120,100,50,green\n".encode("utf-8"))
    ds = load_corpus(p)
    assert ds.skipped == 0
    np.testing.assert_array_equal(ds.colors, [[120.0, 100.0, 100.0]])
    headerless = tmp_path / "bom-headerless.csv"
    headerless.write_bytes("\ufeff10,20,30,teal\n".encode("utf-8"))
    ds = load_corpus(headerless)
    assert ds.skipped == 0
    np.testing.assert_array_equal(ds.colors, [[10.0, 20.0, 30.0]])


def test_loaded_rows_share_one_frozen_description_per_text(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    caplog.set_level(logging.INFO, logger="colordesc.corpus")
    p = _write(tmp_path / "c.csv",
               "h,s,v,description\n1,2,3,red\n4,5,6, red\n7,8,9,red\n1,1,1,blue\n")
    # a parse, then a read of the cache entry it wrote
    for source in ("parsed", "read from cache entry"):
        caplog.clear()
        d = load_corpus(p).descriptions
        assert source in caplog.text
        assert d[0] is d[2]
        # equal after stripping, but a different field: its own object
        assert d[1] is not d[0] and d[1] == d[0]
        for field, value in (("raw", "x"), ("tokens", ["x"])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(d[0], field, value)
        assert d[0].raw == "red" and d[2].tokens == ["red"]


def test_load_manifest_resolves_relative_paths(tmp_path):
    _write(tmp_path / "train.csv", "1,2,3,red\n2,3,4,blue\n")
    _write(tmp_path / "dev.csv", "3,4,5,red\n")
    m = _write(tmp_path / "splits.manifest",
               "# comment\ntrain=train.csv\ndev=dev.csv\n")
    splits = load_manifest(m)
    assert set(splits) == {"train", "dev"}
    assert len(splits["train"]) == 2
    assert splits["train"].split == "train"


def test_load_manifest_may_start_with_a_byte_order_mark(tmp_path):
    _write(tmp_path / "train.csv", "1,2,3,red\n")
    m = tmp_path / "bom.manifest"
    m.write_text("\ufefftrain=train.csv\nspace=hsv\n", encoding="utf-8")
    assert len(load_manifest(m)["train"]) == 1


def test_load_manifest_rejects_unknown_keys(tmp_path):
    _write(tmp_path / "train.csv", "1,2,3,red\n")
    m = _write(tmp_path / "m.manifest", "train=train.csv\nbogus=x\n")
    with pytest.raises(CorpusError):
        load_manifest(m)
    m2 = _write(tmp_path / "m2.manifest", "space=hsv\n")
    with pytest.raises(CorpusError):
        load_manifest(m2)


def test_load_manifest_checks_keys_before_reading_any_split(tmp_path):
    (tmp_path / "dev.csv").write_bytes(b"1,2,3,red\xff\n")
    m = _write(tmp_path / "m.manifest", "dev=dev.csv\ntset=train.csv\n")
    with pytest.raises(CorpusError, match="unknown manifest keys"):
        load_manifest(m)
    # so does a key set twice, before dev.csv is read
    m2 = _write(tmp_path / "m2.manifest", "dev=dev.csv\n# again\n\n dev = other.csv\n")
    with pytest.raises(CorpusError,
                       match=re.escape(f"{m2}:4: 'dev' is already set on line 1")):
        load_manifest(m2)


def test_non_utf8_files_are_corpus_errors_naming_the_file(tmp_path):
    bad = tmp_path / "bad.csv"
    # the bad byte lies beyond the first block
    bad.write_bytes(b"1,2,3,red\n" * 20 + b"4,5,6,bl\xffue\n")
    with mock.patch.object(corpus, "BLOCK_CHARS", 16):
        with pytest.raises(CorpusError, match=re.escape(f"not valid UTF-8: {bad}")):
            load_corpus(bad)
    m = tmp_path / "m.manifest"
    m.write_bytes(b"train=\xff.csv\n")
    with pytest.raises(CorpusError, match=re.escape(f"manifest is not valid UTF-8: {m}")):
        load_manifest(m)
    with pytest.raises(CorpusError, match=re.escape(f"config file is not valid UTF-8: {m}")):
        read_key_values(m, "config file")


def test_dataset_subsample_reproducible():
    rng = np.random.default_rng(0)
    shared = [Description.from_text(f"t{i}") for i in range(12)]
    ds = Dataset(
        colors=rng.uniform(0, 100, (30, 3)),
        descriptions=[shared[k] for k in rng.integers(0, 12, 30)],
        split="train",
    )
    a = ds.subsample(10, seed=4)
    b = ds.subsample(10, seed=4)
    assert len(a) == 10
    np.testing.assert_array_equal(a.colors, b.colors)
    assert [d.raw for d in a.descriptions] == [d.raw for d in b.descriptions]
    assert ds.subsample(100, seed=1) is ds
    # the rows of the per-row reference, which --subsample-train trains on
    idx = np.sort(np.random.default_rng(4).choice(30, 10, replace=False))
    assert a.colors.tobytes() == ds.colors[idx].tobytes()
    assert len(a.descriptions) == 10
    assert all(got is ds.descriptions[i] for got, i in zip(a.descriptions, idx.tolist()))
    assert_first_use_table(a)
    assert len(a.table) == len({id(d) for d in a.descriptions}) < len(ds.table)
    assert a.split == "train[10]"


def test_encode_dataset_layout():
    ds = Dataset(
        colors=np.zeros((2, 3)),
        descriptions=[Description.from_text("a b"), Description.from_text("c")],
    )
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["a", "b", "c"])
    enc = encode_dataset(ds, vocab)
    assert len(enc) == 2
    assert list(enc.flat_ids) == [START_ID, 3, 4, END_ID, START_ID, 5, END_ID]
    assert list(enc.offsets) == [0, 4, 7]
    assert list(np.diff(enc.offsets)) == [4, 3]


def padded_batch(id_seqs):
    """Per-item padding of encoded sequences (with sentinels): the ids
    padded with </s> to the longest, and each sequence's step count."""
    B = len(id_seqs)
    ids = np.full((B, max(map(len, id_seqs))), END_ID, dtype=np.int64)
    steps = np.zeros(B, dtype=np.int64)
    for b, seq in enumerate(id_seqs):
        ids[b, : len(seq)] = seq
        steps[b] = len(seq) - 1
    return ids, steps


WORDS = ["red", "blue", "light", "dark", "ish", "zzz", "qq"]


@settings(max_examples=80, deadline=None)
@given(seqs=st.lists(st.lists(st.sampled_from(WORDS), max_size=5), min_size=1,
                     max_size=40),
       known=st.sets(st.sampled_from(WORDS)),
       data=st.data())
def test_vectorized_encode_and_pad_equal_per_item(seqs, known, data):
    # words outside ``known`` are out of vocabulary and encode as <unk>
    vocab = Vocabulary(list(RESERVED_TOKENS) + sorted(known))
    flat, offsets = vocab.encode_batch(seqs)
    per_item = [encode_one(vocab, t) for t in seqs]
    assert flat.dtype == np.int32 and offsets.dtype == np.int64
    assert flat.tolist() == [i for ids in per_item for i in ids]
    assert offsets.tolist() == np.cumsum([0] + [len(ids) for ids in per_item]).tolist()

    enc = EncodedDataset(flat, offsets, np.arange(len(seqs)))
    rows = np.array(data.draw(st.lists(st.integers(0, len(seqs) - 1), min_size=1,
                                       max_size=20)))
    got = enc.teacher_forcing(rows)
    want = padded_batch([per_item[i] for i in rows])
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def test_encode_batch_maps_oov_to_unk_and_keeps_empty_items():
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["a"])
    flat, offsets = vocab.encode_batch([["a", "nope"], [], ["nope"]])
    assert flat.tolist() == [START_ID, 3, UNK_ID, END_ID, START_ID, END_ID,
                             START_ID, UNK_ID, END_ID]
    assert offsets.tolist() == [0, 4, 6, 9]


def scalar_hsv(a: float, b: float, c: float, is_hsl: bool):
    """The per-row color rule that the array rule replaced: the HSV triple
    of a finite hue and two percentages in [0, 100] (for HSL, also after
    conversion to HSV), with the hue wrapped into [0, 360); None if the
    triple is not a color."""
    def percents(*xs):
        return all(0.0 <= x <= 100.0 for x in xs)

    if not (math.isfinite(a) and percents(b, c)):
        return None
    if is_hsl:
        a, b, c = hsl_to_hsv((a, b, c)).tolist()
        return (a, b, c) if percents(b, c) else None
    h = a % 360.0
    # float mod can round up to the modulus itself for tiny negative inputs
    return (0.0 if h >= 360.0 else h, b, c)


def per_row_load_corpus(path, space: str = "auto", split: str = "") -> Dataset:
    """The per-row loader that the array loader replaced, kept as the
    reference: one ``scalar_hsv`` and one Description per row."""
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")
    if space not in ("auto", "hsv", "hsl"):
        raise CorpusError(f"unknown color space {space!r}")

    hsv_rows: list[tuple[float, float, float]] = []
    descriptions: list[Description] = []
    skipped = 0

    with open(path, encoding="utf-8") as f:
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
            data_lines = chain([first], f)

        is_hsl = space == "hsl"
        for line in data_lines:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(delim)
            if len(parts) != 4:
                skipped += 1
                continue
            try:
                color = scalar_hsv(*map(float, parts[:3]), is_hsl)
            except ValueError:
                color = None
            if color is None:
                skipped += 1
                continue
            tokens = tokenize(parts[3])
            if not tokens:
                skipped += 1
                continue
            hsv_rows.append(color)
            descriptions.append(
                Description(raw=parts[3].strip(), tokens=[sys.intern(t) for t in tokens])
            )

    if not descriptions:
        raise CorpusError(f"no valid records in {path} ({skipped} skipped)")
    if skipped:
        logging.getLogger(__name__).info(
            "load_corpus(%s): skipped %d unparseable records", path, skipped)
    colors = np.array(hsv_rows, dtype=np.float64)
    return Dataset(colors=colors, descriptions=descriptions, split=split, skipped=skipped)


NUMBER_FIELDS = [" 12 ", "1_0", "nan", "inf", "-inf", "1e400", "-0.0", "360", "-1e-20",
                 "-1e-13", "720.5", "-30", "0", "50", "100", "100.0", "99.99",
                 "100.00000000000001", "-0.001", "1e-320", "abc", "", "0x10", "1,5"]
DESCRIPTION_FIELDS = ["red", "Red", " red", "red  ", "RED", "dark red", "Dark  Red",
                      "  ", "", "\t", "blue\x85", "\x85", "green\u2028blue",
                      "\u2028", "l\u00e9ger bleu", "a b c"]
HEADERS = [None, None, ("h", "s", "v", "description"), ("h", "s", "l", "description"),
           ("h", "s", "l", "description"), (" H", "S ", "L", "Description"),
           ("h", "s", "x", "description"), ("hue", "s", "v", "description")]
BLANK_LINES = ["", " ", "\t ", "\x85", "\u2028"]

hue_field = st.one_of(st.sampled_from(NUMBER_FIELDS), st.floats(-400.0, 800.0).map(repr),
                      st.floats(0.0, 360.0).map(lambda x: f"{x:.2f}"))
percent_field = st.one_of(
    st.sampled_from(NUMBER_FIELDS),
    st.floats(-1.0, 101.0).map(repr),
    st.floats(0.0, 100.0).map(repr),
    st.floats(0.0, 100.0).map(lambda x: f"{x:.2f}"),
)


@st.composite
def data_row(draw, delim):
    fields = [draw(hue_field), draw(percent_field), draw(percent_field),
              draw(st.sampled_from(DESCRIPTION_FIELDS))]
    arity = draw(st.sampled_from([4] * 8 + [3, 5]))
    if arity == 3:
        del fields[1]
    elif arity == 5:
        fields.insert(1, draw(percent_field))
    return delim.join(fields)


@settings(max_examples=150, deadline=None)
@given(delim=st.sampled_from([",", "\t"]),
       header=st.sampled_from(HEADERS),
       space=st.sampled_from(["auto", "auto", "hsv", "hsl"]),
       data=st.data(),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=30),
       last_end=st.booleans(),
       block_chars=st.one_of(st.none(), st.integers(1, 60)))
def test_array_loader_equals_per_row_loader(tmp_path_factory, delim, header, space,
                                           data, ends, last_end, block_chars):
    lines = data.draw(st.lists(st.one_of(data_row(delim), data_row(delim),
                                         st.sampled_from(BLANK_LINES)),
                               min_size=1, max_size=40))
    text_lines = ([] if header is None else [delim.join(header)]) + lines
    text = "".join(ln + ends[i % len(ends)] for i, ln in enumerate(text_lines))
    if not last_end:  # the file ends inside its last line
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("diff") / "c.csv"
    path.write_bytes(text.encode("utf-8"))

    def load(fn):
        try:
            return fn(path, space=space, split="dev")
        except CorpusError as exc:
            return str(exc)

    cache = tmp_path_factory.mktemp("cache")
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(cache)}):
        # small blocks (a few bytes) put every kind of line, and every byte
        # of a multibyte character, on a block edge
        with mock.patch.object(corpus, "BLOCK_CHARS", block_chars or corpus.BLOCK_CHARS):
            miss = load(load_corpus)
        want = load(per_row_load_corpus)
        if isinstance(want, str):
            assert miss == want == load(load_corpus)
            assert not list(cache.rglob("*.npz"))
            return
        # the second load reads the entry the first one wrote
        with mock.patch.object(corpus, "_parse", side_effect=AssertionError("parsed again")):
            hit = load(load_corpus)
    for got in (miss, hit):
        assert_same_split(got, want)
    # rows share a Description on a hit as after the parse
    np.testing.assert_array_equal(hit.codes, miss.codes)


def assert_same_split(got: Dataset, want: Dataset) -> None:
    """Equal colors (bit for bit), texts, tokens, skipped count and name;
    ``got`` holds only the table entries its rows use, in order of first
    use, and gives ``want``'s vocabulary, inventory and class ids."""
    assert got.colors.dtype == want.colors.dtype == np.float64
    assert got.colors.shape == want.colors.shape
    assert got.colors.tobytes() == want.colors.tobytes()
    assert [d.raw for d in got.descriptions] == [d.raw for d in want.descriptions]
    assert [d.tokens for d in got.descriptions] == [d.tokens for d in want.descriptions]
    assert (got.skipped, got.split) == (want.skipped, want.split)
    assert_first_use_table(got)
    assert Vocabulary.build(got).id_to_token == Vocabulary.build(want).id_to_token
    (inventory, ids), (want_inventory, want_ids) = _inventory(got), _inventory(want)
    assert inventory == want_inventory
    assert ids.dtype == want_ids.dtype
    np.testing.assert_array_equal(ids, want_ids)


def assert_first_use_table(ds: Dataset) -> None:
    """Row i's description is table entry codes[i], and the table holds
    each entry some row uses, in order of first use."""
    assert ds.codes.dtype == np.int32
    assert all(ds.table[k] is d for k, d in zip(ds.codes.tolist(), ds.descriptions))
    assert np.bincount(ds.codes, minlength=len(ds.table)).min() > 0
    running = np.maximum.accumulate(ds.codes)
    assert ds.codes[0] == 0
    assert np.diff(running).max(initial=0) <= 1
    assert running[-1] == len(ds.table) - 1


CACHED_CORPUS = "h,s,l,description\n120,100,50,green\n10,20,30, green\n1,2,300,bad\n"


def _entry(cache: Path) -> Path:
    (entry,) = cache.glob("colordesc/*.npz")
    return entry


def _inconsistent(cache: Path) -> None:
    with np.load(_entry(cache)) as z:
        arrays = dict(z)
    arrays["codes"] = arrays["codes"] + 7  # past the table's end
    np.savez(_entry(cache), **arrays)


def _refuse_writes(cache: Path, monkeypatch) -> None:
    # what a read-only directory gives a user who is not root
    (cache / "colordesc").mkdir(parents=True)
    (cache / "colordesc").chmod(0o555)
    monkeypatch.setattr(corpus.tempfile, "mkstemp",
                        mock.Mock(side_effect=PermissionError("read-only")))


def _edited_after_lookup(cache: Path, monkeypatch) -> None:
    # the first lookup sees other bytes than the parse that follows it
    real, looked_up = corpus._file_sha256, []

    def sha256(path):
        looked_up.append(path)
        return real(path) if len(looked_up) > 1 else hashlib.sha256(b"other").hexdigest()

    monkeypatch.setattr(corpus, "_file_sha256", sha256)


# case: (the bytes of a file that fails to load, else None for
# CACHED_CORPUS; set-up before the first load; fault before the second;
# whether the second load parses)
CACHE_CASES = {
    "no valid records": (b"x,y,z,w\n", None, None, True),
    "not UTF-8": (b"1,2,3,r\xffed\n", None, None, True),
    "garbage entry": (None, None, lambda c, p, m: _entry(c).write_bytes(b"garbage"), True),
    "truncated entry": (None, None,
                        lambda c, p, m: _entry(c).write_bytes(_entry(c).read_bytes()[:-99]),
                        True),
    "inconsistent entry": (None, None, lambda c, p, m: _inconsistent(c), True),
    "same path, new bytes": (None, None,
                             lambda c, p, m: p.write_text(CACHED_CORPUS + "1,2,3,blue\n"),
                             True),
    "new parse rules": (None, None,
                        lambda c, p, m: m.setattr(corpus, "_rules_stamp", lambda: "new"), True),
    # the entry is keyed by the bytes parsed, so the next load finds it
    "edited between lookup and parse": (None, _edited_after_lookup, None, False),
    "cache dir is a file": (None, lambda c, m: c.write_text(""), None, True),
    "read-only cache dir": (None, _refuse_writes, None, True),
    "no fault": (None, None, None, False),
}


@pytest.mark.parametrize("case", CACHE_CASES)
def test_cache_faults_never_change_a_load(tmp_path, monkeypatch, caplog, case):
    bad, before, fault, parses = CACHE_CASES[case]
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    caplog.set_level(logging.INFO, logger="colordesc.corpus")
    path = tmp_path / "c.csv"
    path.write_bytes(CACHED_CORPUS.encode() if bad is None else bad)
    if before:
        before(cache, monkeypatch)

    def load(fn):
        try:
            return fn(path, split="dev")
        except CorpusError as exc:
            return str(exc)

    first = load(load_corpus)
    if fault:
        fault(cache, path, monkeypatch)
    caplog.clear()
    second = load(load_corpus)
    if bad is not None:
        # a file that fails leaves no entry, and fails alike every time
        assert isinstance(first, str) and first == second
        assert not list(tmp_path.rglob("*.npz"))
        return
    assert_same_split(second, load(per_row_load_corpus))
    assert ("parsed" in caplog.text) == parses
    assert ("read from cache entry" in caplog.text) == (not parses)
    if cache.is_dir() and not case.startswith("read-only"):
        # a bad or stale entry is replaced by a whole one: a file has one
        entries = list(cache.glob("colordesc/*.npz"))
        assert len(entries) == 1
        assert all(corpus._read_entry(e, corpus._file_sha256(path)) is not None
                   for e in entries)


def test_a_cache_write_removes_entries_of_gone_or_unnamed_sources(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    kept, gone, new = (tmp_path / f"{name}.csv" for name in ("kept", "gone", "new"))
    for path in (kept, gone, new):
        path.write_text(CACHED_CORPUS)
    entries = {path: corpus._cache_entry(path, "auto") for path in (kept, gone, new)}

    def load(path):
        got = load_corpus(path, split="dev")
        assert_same_split(got, per_row_load_corpus(path, split="dev"))

    def listed():
        return sorted(cache.glob("colordesc/*.npz"))

    load(kept)
    load(gone)
    gone.unlink()
    # an entry written before entries recorded their source
    unnamed = cache / "colordesc" / "unnamed.npz"
    with np.load(entries[kept]) as z:
        assert str(z["source"]) == str(kept.resolve())
        np.savez(unnamed, **{name: z[name] for name in z.files if name != "source"})
    # a hit writes nothing, so it removes nothing
    load(kept)
    assert listed() == sorted([entries[kept], entries[gone], unnamed])
    # a write removes exactly the entries of gone or unrecorded sources
    load(new)
    assert listed() == sorted([entries[kept], entries[new]])
    with mock.patch.object(corpus, "_parse", side_effect=AssertionError("parsed again")):
        load(kept)
        load(new)


@settings(max_examples=300, deadline=None)
@given(space=st.sampled_from(["hsv", "hsl"]), h=hue_field, s=percent_field,
       x=percent_field)
def test_cli_color_follows_the_loader_rule(tmp_path_factory, space, h, s, x):
    # --hsv/--hsl take a triple exactly when a one-row corpus holding it
    # loads with nothing skipped, and give the loader's HSV row, bit for bit
    text = f"{h},{s},{x}"
    path = tmp_path_factory.mktemp("rule") / "c.csv"
    path.write_text(f"h,s,{space[2]},description\n{text},red\n", encoding="utf-8")
    try:
        ds = load_corpus(path)
        loaded = ds.colors[0] if ds.skipped == 0 else None
    except CorpusError:
        loaded = None
    args = argparse.Namespace(**{"hsv": "", "hsl": "", space: text})
    try:
        got = cli._color_from_args(args)
    except ConfigError:
        got = None
    assert (got is None) == (loaded is None), text
    if got is not None:
        assert got.dtype == loaded.dtype and got.tobytes() == loaded.tobytes()


REPO = Path(__file__).resolve().parents[1]
# VmHWM is the peak RSS of this process's own address space; ru_maxrss
# would also count the pytest process that spawned it, as Linux carries
# the old peak across exec
LOAD_AND_DIGEST = """
import hashlib, json, logging, re, sys
from pathlib import Path
from colordesc import load_manifest
logging.basicConfig(level=logging.INFO)
train = load_manifest(sys.argv[1])["train"]
status = Path("/proc/self/status").read_text()
print(json.dumps({
    "peak_mb": int(re.search(r"VmHWM:\\s*(\\d+) kB", status).group(1)) / 1024,
    "rows": len(train), "skipped": train.skipped,
    "colors": hashlib.sha256(train.colors.tobytes()).hexdigest(),
    "raw": hashlib.sha256("\\n".join(d.raw for d in train.descriptions).encode()).hexdigest(),
}))
"""


@pytest.mark.skipif(os.environ.get("COLORDESC_FULL") != "1"
                    or not Path("/proc/self/status").is_file(),
                    reason="paper-scale loader run; set COLORDESC_FULL=1 (Linux)")
def test_paper_scale_split_loads_in_bounded_memory(tmp_path):
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import synth
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    synth.generate(7, tmp_path, n_train=1_500_000)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), XDG_CACHE_HOME=str(tmp_path / "cache"))
    want = per_row_load_corpus(tmp_path / "train.csv", space="hsl")
    # a parse, then a read of the cache entries it wrote
    for source in ("parsed", "read from cache entry"):
        proc = subprocess.run([sys.executable, "-c", LOAD_AND_DIGEST,
                               str(tmp_path / "manifest.txt")],
                              env=env, check=True, capture_output=True, text=True)
        assert f"1500000 rows, {source}" in proc.stderr
        got = json.loads(proc.stdout)
        assert got["peak_mb"] < 250
        assert (got["rows"], got["skipped"]) == (1_500_000, 0)
        assert got["colors"] == hashlib.sha256(want.colors.tobytes()).hexdigest()
        assert got["raw"] == hashlib.sha256(
            "\n".join(d.raw for d in want.descriptions).encode()).hexdigest()
