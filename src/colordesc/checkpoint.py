"""Binary model container.

Layout (all integers little-endian):

    8 bytes   magic ``COLORDSC``
    4 bytes   format version (uint32)
    8 bytes   header length L (uint64)
    L bytes   UTF-8 JSON header, canonical form (sorted keys, no spaces)
    ...       tensor payloads, raw values in header-manifest order
    4 bytes   CRC32 of everything above (uint32)

The header carries the model family tag, featurizer scheme and its
constants, training config, vocabulary or description inventory, the
tensor manifest (name, dtype, shape), and run metadata. It deliberately
contains no timestamp: two runs with the same seed must produce
byte-identical files.

Tensor values are 32-bit (``f4`` or ``i4``); scoring after a roundtrip
is bit-identical because models already hold float32 parameters.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .errors import CheckpointError

MAGIC = b"COLORDSC"
FORMAT_VERSION = 1

_DTYPES = {"f4": np.dtype("<f4"), "i4": np.dtype("<i4")}


def _storage_dtype(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "f4"
    if arr.dtype == np.int32:
        return "i4"
    if np.issubdtype(arr.dtype, np.floating):
        raise CheckpointError(
            f"refusing to narrow {arr.dtype} tensor to float32 implicitly")
    raise CheckpointError(f"unsupported tensor dtype {arr.dtype}")


def write_checkpoint(path, header: dict, tensors: dict) -> None:
    """Serialize header + tensors. ``header`` must be JSON-ready except
    for the tensor manifest, which is generated here."""
    manifest = []
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        code = _storage_dtype(arr)
        manifest.append({"name": name, "dtype": code, "shape": list(arr.shape)})
        blobs.append(arr.astype(_DTYPES[code], copy=False).tobytes())
    full = dict(header)
    full["tensors"] = manifest
    head = json.dumps(full, sort_keys=True, separators=(",", ":")).encode("utf-8")

    body = bytearray()
    body += MAGIC
    body += struct.pack("<I", FORMAT_VERSION)
    body += struct.pack("<Q", len(head))
    body += head
    for blob in blobs:
        body += blob
    crc = _crc(bytes(body))
    body += struct.pack("<I", crc)
    with open(path, "wb") as fh:
        fh.write(bytes(body))


def read_checkpoint(path):
    """Returns (header dict, {name: array}). Tensors come back in their
    declared shapes with dtype float32 or int32."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    def need(offset, n, what):
        if offset + n > len(raw):
            raise CheckpointError(
                f"truncated checkpoint: need {n} bytes for {what} at offset "
                f"{offset}, file has {len(raw)}")
        return raw[offset : offset + n]

    pos = 0
    magic = need(pos, len(MAGIC), "magic")
    pos += len(MAGIC)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}: not a model checkpoint")
    (version,) = struct.unpack("<I", need(pos, 4, "version"))
    pos += 4
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version} "
            f"(this build reads version {FORMAT_VERSION})")
    (head_len,) = struct.unpack("<Q", need(pos, 8, "header length"))
    pos += 8
    head_raw = need(pos, head_len, "header")
    pos += head_len
    try:
        header = _parse_header(head_raw)
        entries = _manifest(header)
    except CheckpointError as exc:
        # a damaged file reports its checksum; a malformed header under a
        # valid checksum reports itself
        if len(raw) >= pos + 4 and _crc(raw[:-4]) == struct.unpack("<I", raw[-4:])[0]:
            raise
        raise CheckpointError("checksum mismatch: corrupt checkpoint header") from exc

    # tensor extents first, so that a cut file names the offset it needs;
    # nothing is interpreted before the checksum passes
    blobs = []
    for name, code, shape in entries:
        nbytes = math.prod(shape) * _DTYPES[code].itemsize
        blobs.append(need(pos, nbytes, f"tensor {name!r}"))
        pos += nbytes
    (stored_crc,) = struct.unpack("<I", need(pos, 4, "checksum"))
    actual_crc = _crc(raw[:pos])
    if stored_crc != actual_crc:
        raise CheckpointError(
            f"checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}")
    if pos + 4 != len(raw):
        raise CheckpointError(
            f"{len(raw) - pos - 4} trailing bytes after checksum")
    tensors = {name: np.frombuffer(blob, dtype=_DTYPES[code]).reshape(shape).copy()
               for (name, code, shape), blob in zip(entries, blobs)}
    return header, tensors


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _parse_header(head_raw: bytes) -> dict:
    try:
        header = json.loads(head_raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8, int-digit limit
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    return header


def _manifest(header: dict) -> list:
    """(name, dtype code, shape) of each tensor-manifest entry, checked:
    an object with a unique str name, a known dtype and a list of
    non-negative ints for the shape."""
    manifest = header.get("tensors")
    if not isinstance(manifest, list):
        raise CheckpointError("checkpoint header missing tensor manifest")
    entries = []
    for k, entry in enumerate(manifest):
        if not isinstance(entry, dict):
            raise CheckpointError(f"tensor manifest entry {k} is not an object")
        name, code, shape = entry.get("name"), entry.get("dtype"), entry.get("shape")
        if not isinstance(name, str):
            raise CheckpointError(f"tensor manifest entry {k} has no str name")
        if not isinstance(code, str) or code not in _DTYPES:
            raise CheckpointError(f"tensor {name!r} has unknown dtype {code!r}")
        if not isinstance(shape, list) or not all(
                type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(f"tensor {name!r} has a malformed shape {shape!r}")
        entries.append((name, code, tuple(shape)))
    if len({name for name, _, _ in entries}) != len(entries):
        raise CheckpointError("tensor manifest repeats a tensor name")
    return entries
