"""Versioned binary container shared by the model and dataset file formats.

Layout:  magic string | u32 format version | u64 header length | JSON header
(with an array manifest) | raw little-endian array payloads in manifest
order | sha256 digest of everything before it.

The header JSON is dumped with sorted keys so that identical content always
produces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "ContainerFormatError",
    "VersionMismatchError",
    "ChecksumError",
    "write_container",
    "read_container",
    "atomic_writer",
    "atomic_write_bytes",
    "atomic_write_text",
]

_DIGEST_LEN = 32


class ContainerFormatError(ValueError):
    """File is not a container of the expected kind."""


class VersionMismatchError(ValueError):
    """Container format version is not the one this build reads."""


class ChecksumError(ValueError):
    """Container bytes fail their integrity check (truncated or corrupt)."""


def write_container(
    magic: bytes,
    version: int,
    header: dict,
    arrays: list[tuple[str, np.ndarray]],
) -> bytes:
    """Serialize ``header`` plus named arrays into one checksummed blob."""
    manifest = []
    payload = bytearray()
    for name, array in arrays:
        array = np.ascontiguousarray(array)
        manifest.append({"name": name, "dtype": array.dtype.str, "shape": list(array.shape)})
        payload.extend(array.astype(array.dtype.newbyteorder("<")).tobytes())
    full_header = dict(header)
    full_header["arrays"] = manifest
    header_bytes = json.dumps(full_header, sort_keys=True).encode("utf-8")
    body = bytearray()
    body.extend(magic)
    body.extend(struct.pack("<I", version))
    body.extend(struct.pack("<Q", len(header_bytes)))
    body.extend(header_bytes)
    body.extend(payload)
    body.extend(hashlib.sha256(bytes(body)).digest())
    return bytes(body)


def read_container(
    data: bytes, magic: bytes, version: int
) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse and verify a container; returns (header, arrays by name).
    Raises only ContainerFormatError, ChecksumError or VersionMismatchError."""
    if not data.startswith(magic):
        raise ContainerFormatError("bad magic string")
    if len(data) < len(magic) + 12 + _DIGEST_LEN:
        raise ChecksumError("container truncated")
    digest = data[-_DIGEST_LEN:]
    body = data[:-_DIGEST_LEN]
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumError("container checksum mismatch")
    offset = len(magic)
    (found_version,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if found_version != version:
        raise VersionMismatchError(f"format version {found_version}, expected {version}")
    (header_len,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    if header_len > len(body) - offset:
        raise ContainerFormatError(f"header length {header_len} runs past the payload")
    try:
        header = json.loads(body[offset : offset + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as err:
        raise ContainerFormatError(f"header is not JSON: {err}") from err
    offset += header_len
    if not isinstance(header, dict) or not isinstance(header.get("arrays", []), list):
        raise ContainerFormatError("header is not a JSON object with an array list")

    arrays: dict[str, np.ndarray] = {}
    for entry in header.pop("arrays", []):
        # name, shape and a numeric dtype are checked before any size is computed
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ContainerFormatError(f"array entry {entry!r} has no name")
        name, shape, code = entry["name"], entry.get("shape"), entry.get("dtype")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ContainerFormatError(f"array {name!r}: shape {shape!r} is not a list of non-negative ints")
        try:
            dtype = np.dtype(code) if isinstance(code, str) else None
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.kind not in "biufc":
            raise ContainerFormatError(f"array {name!r}: dtype {code!r} is not numeric")
        nbytes = dtype.itemsize * math.prod(shape)
        if nbytes > len(body) - offset:
            raise ChecksumError(f"array {name!r} truncated")
        try:
            arrays[name] = np.frombuffer(body, dtype, nbytes // dtype.itemsize, offset).reshape(shape).copy()
        except ValueError as err:  # a zero-size shape numpy cannot hold
            raise ContainerFormatError(f"array {name!r}: {err}") from err
        offset += nbytes
    if offset != len(body):
        raise ContainerFormatError("trailing bytes after declared arrays")
    return header, arrays


@contextmanager
def atomic_writer(path: str | Path, mode: str = "wb", **options):
    """A temp file in the target directory, opened with ``mode`` and
    ``options`` as ``open`` takes them, that is renamed to ``path`` when the
    block ends and removed if it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **options) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the target directory plus rename."""
    with atomic_writer(path) as handle:
        handle.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
