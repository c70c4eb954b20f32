"""Malformed checkpoint files: truncations, bit flips and crafted
headers under a valid checksum must all fail with CheckpointError."""

import functools
import json
import re
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from colordesc import (CheckpointError, Dataset, Description, TrainingConfig,
                       models)
from colordesc.checkpoint import FORMAT_VERSION, MAGIC, read_checkpoint, write_checkpoint
from colordesc.cli import main
from colordesc.models import (HISTOGRAM_LEVELS, AtomicModel, HistogramModel,
                              load_checkpoint, save_checkpoint)

from conftest import random_tiny_model


@functools.cache
def _base_files() -> dict:
    """name -> (file bytes, header dict, payload bytes) of three small
    valid checkpoints, one per family."""
    hist = HistogramModel.build(TrainingConfig(), Dataset(
        colors=np.array([[0.0, 0.0, 0.0], [200.0, 50.0, 50.0], [90.0, 99.0, 10.0]]),
        descriptions=[Description.from_text(t) for t in ("red", "blue", "dark green")]))
    atomic = AtomicModel.build(TrainingConfig(hidden_size=4), hist.inventory, "raw")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, model in (("sequence", random_tiny_model(6)), ("histogram", hist),
                            ("atomic", atomic)):
            path = Path(tmp) / f"{name}.ckpt"
            save_checkpoint(model, path)
            blob = path.read_bytes()
            (head_len,) = struct.unpack("<Q", blob[12:20])
            header = json.loads(blob[20 : 20 + head_len])
            out[name] = (blob, header, blob[20 + head_len : -4])
    return out


def _pack(header: dict, payload: bytes) -> bytes:
    """A checkpoint file with a valid checksum around any header."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(head))
    body += head + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _load_all(blob: bytes) -> None:
    """read_checkpoint and load_checkpoint on blob: either may succeed;
    any failure must be a CheckpointError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ckpt"
        path.write_bytes(blob)
        for reader in (read_checkpoint, load_checkpoint):
            try:
                reader(path)
            except CheckpointError:
                pass


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.just(10**400)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)
SHAPES = st.sampled_from([[-1], [True], [1.5], ["3"], [2**40, 2**40], None, 7,
                          [3, -2], [], [0], [2**63]])


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(["sequence", "histogram", "atomic"]), data=st.data())
def test_truncated_or_bit_flipped_files_raise_checkpoint_error(base, data):
    blob = bytearray(_base_files()[base][0])
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(CheckpointError):
        _load_all(bytes(blob))
        raise CheckpointError("the damaged file loaded")


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(["sequence", "histogram", "atomic"]), data=st.data())
def test_crafted_headers_with_a_valid_checksum_raise_checkpoint_error(base, data):
    _, header, payload = _base_files()[base]
    header = json.loads(json.dumps(header))
    target = data.draw(st.sampled_from(
        ["entry", "shape", "tensors", "top", "config"]), label="target")
    if target in ("entry", "shape"):
        entry = header["tensors"][data.draw(
            st.integers(0, len(header["tensors"]) - 1), label="entry")]
        key = "shape" if target == "shape" else data.draw(
            st.sampled_from(["name", "dtype", "shape"]), label="key")
        if data.draw(st.booleans(), label="delete"):
            entry.pop(key)
        else:
            entry[key] = data.draw(SHAPES if key == "shape" else JSON, label="value")
    elif target == "tensors":
        header["tensors"] = data.draw(JSON | st.lists(JSON, max_size=3), label="tensors")
    else:
        holder = header if target == "top" else header["config"]
        key = data.draw(st.sampled_from(sorted(holder)), label="key")
        if data.draw(st.booleans(), label="delete"):
            holder.pop(key)
        else:
            holder[key] = data.draw(JSON, label="value")
    _load_all(_pack(header, payload))


def test_flipped_manifest_key_is_a_checkpoint_error(tmp_path):
    blob, header, payload = _base_files()["sequence"]
    # the damage a bit flip in the key "shape" does, under a valid checksum
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    crafted = _pack(json.loads(text.replace('"shape"', '"shaqe"', 1)), payload)
    path = tmp_path / "m.ckpt"
    path.write_bytes(crafted)
    with pytest.raises(CheckpointError, match="shape"):
        read_checkpoint(path)
    # and the same flip in the original file fails its checksum
    flipped = bytearray(blob)
    flipped[blob.index(b'"shape"') + 4] ^= 0x01
    path.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointError, match="checksum"):
        read_checkpoint(path)


def test_repacked_base_files_still_load():
    for blob, header, payload in _base_files().values():
        assert _pack(header, payload) == blob


@pytest.mark.parametrize("field,change,message", [
    ("hidden_size", float, "config field 'hidden_size'"),
    ("dropout", lambda _: 10**400, "dropout must be in"),
    ("epochs_trained", lambda _: 10**400, "bad epochs_trained"),
    ("vocab", lambda v: v[::-1], "vocabulary must start with"),
    ("scheme", lambda v: [v], "unknown feature scheme"),
    # shapes are checked without allocating tensors of the header's size
    ("hidden_size", lambda _: 10**9, "tensor 'lstm.W_x'"),
    ("dtype", lambda _: "float64", "dtype"),
    ("learning_rate", lambda _: 10**400, "learning_rate must be finite"),
    ("adagrad_eps", lambda _: 0, "adagrad_eps must be positive"),
])
def test_bad_header_field_names_the_field(tmp_path, field, change, message):
    _, header, payload = _base_files()["sequence"]
    header = json.loads(json.dumps(header))
    holder = (header["config"] if field in header["config"]
              else header["meta"] if field in header["meta"] else header)
    holder[field] = change(holder[field])
    path = tmp_path / "m.ckpt"
    path.write_bytes(_pack(header, payload))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def _inventory_model(family: str, words: list):
    """An atomic or histogram model whose inventory strings are ``words``,
    with tensors or counts of the matching size, as a checkpoint stores it."""
    keys = [w.split(" ") for w in words]
    if family == "atomic":
        cfg = TrainingConfig(hidden_size=4)
        return AtomicModel(cfg, keys, "raw", AtomicModel._init_params(cfg, "raw", len(keys)))
    counts = [np.array([(0, k, 1) for k in range(len(keys))], dtype=np.int32).reshape(-1, 3)
              for _ in HISTOGRAM_LEVELS]
    return HistogramModel(TrainingConfig(), keys, counts)


@pytest.mark.parametrize("family", ["atomic", "histogram"])
@pytest.mark.parametrize("words,message", [
    ([], "inventory is empty"),
    (["a", "a"], "duplicate descriptions"),
    (["a", ""], "empty token"),
    (["a", "a  b"], "empty token"),
    ([" a", "b"], "empty token"),
    (["A", "b"], "empty token"),
    (["a\tb", "c"], "empty token"),
])
def test_a_bad_inventory_is_refused(tmp_path, family, words, message):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_inventory_model(family, words), path)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
    # the same file with a good inventory loads
    save_checkpoint(_inventory_model(family, ["a", "b c"]), path)
    assert load_checkpoint(path).inventory == [("a",), ("b", "c")]


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(st.text(max_size=12), min_size=1, max_size=5))
def test_the_inventory_of_any_texts_saves_and_loads(texts):
    # every key a text can have is an inventory entry a checkpoint accepts
    keys = sorted({Description.from_text(t).key() for t in texts} - {()})
    assume(keys)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        for family in ("atomic", "histogram"):
            save_checkpoint(_inventory_model(family, [" ".join(k) for k in keys]), path)
            assert load_checkpoint(path).inventory == keys


@pytest.mark.parametrize("scheme,message", [
    ("fourier", "buckets only"),
    ("raw", "buckets only"),
    (7, "unknown feature scheme 7"),
])
def test_a_histogram_file_of_another_scheme_is_refused(tmp_path, scheme, message):
    path = tmp_path / "h.ckpt"
    save_checkpoint(_inventory_model("histogram", ["a", "b c"]), path)
    header, tensors = read_checkpoint(path)
    header["scheme"] = scheme
    write_checkpoint(path, header, tensors)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_an_empty_inventory_is_a_usage_error_in_the_cli(tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_inventory_model("atomic", []), path)
    for command in ("top1", "sample"):
        assert main([command, "--ckpt", str(path), "--hsv", "10,50,50"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "inventory is empty" in err[0]


def test_model_constructor_errors_are_not_reported_as_damage(tmp_path,
                                                             monkeypatch):
    blob, _, _ = _base_files()["sequence"]
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob)

    def broken_init(self, *args, **kwargs):
        raise ValueError("constructor bug")

    monkeypatch.setattr(models.SequenceDecoderModel, "__init__", broken_init)
    with pytest.raises(ValueError, match="constructor bug"):
        load_checkpoint(path)


@pytest.mark.parametrize("dtype", ["int64", "float64"])
def test_a_tensor_of_another_dtype_is_refused_by_name(tmp_path, dtype):
    # tensors are stored as float32 or int32 only; nothing is narrowed
    path = tmp_path / "m.ckpt"
    with pytest.raises(CheckpointError, match=dtype):
        write_checkpoint(path, {}, {"t": np.arange(3, dtype=dtype)})
    assert not path.exists()


@pytest.mark.parametrize("family", ["sequence", "atomic"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_tensor_is_refused_by_name(tmp_path, family, value):
    # the rewritten file has a valid checksum; training never writes one
    blob, _, _ = _base_files()[family]
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob)
    header, tensors = read_checkpoint(path)
    for name in tensors:
        bad = dict(tensors, **{name: tensors[name].copy()})
        bad[name].flat[-1] = value
        write_checkpoint(path, header, bad)
        with pytest.raises(CheckpointError, match=f"tensor '{re.escape(name)}' has a NaN"):
            load_checkpoint(path)
