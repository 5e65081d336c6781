"""The container reader, and the dataset and model loaders after it, on
checksummed input whose header is malformed."""

import hashlib
import json
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficflow import core, ingestion, models
from trafficflow.serialization import (
    ChecksumError,
    ContainerFormatError,
    VersionMismatchError,
    atomic_write_bytes,
    read_container,
    write_container,
)

DOCUMENTED = (ContainerFormatError, ChecksumError, VersionMismatchError)
VERSIONS = {models.MODEL_MAGIC: models.MODEL_FORMAT_VERSION, ingestion.DATASET_MAGIC: ingestion.DATASET_FORMAT_VERSION}


def _sealed(magic: bytes, version: int, header: bytes, payload: bytes = b"", header_len: int | None = None) -> bytes:
    """A container with a valid checksum around whatever header bytes."""
    body = magic + struct.pack("<IQ", version, len(header) if header_len is None else header_len) + header + payload
    return body + hashlib.sha256(body).digest()


def _with_arrays(*entries) -> bytes:
    return json.dumps({"arrays": list(entries)}).encode()


@pytest.mark.parametrize("header,header_len,message", [
    (b"[1, 2]", None, "not a JSON object"),
    (b"not json", None, "not JSON"),
    (b"\xff\xfe{}", None, "not JSON"),
    (b"{}", 10_000, "header length"),
    (json.dumps({"arrays": None}).encode(), None, "array list"),
    (_with_arrays({"name": ["a"], "dtype": "<f8", "shape": [1]}), None, "has no name"),
    (_with_arrays({"name": "a", "dtype": "zz", "shape": [1]}), None, "dtype"),
    (_with_arrays({"name": "a", "dtype": "|O", "shape": [1]}), None, "dtype"),
    (_with_arrays({"name": "a", "dtype": "V0", "shape": [1]}), None, "dtype"),
    (_with_arrays({"name": "a", "dtype": None, "shape": [1]}), None, "dtype"),
    (_with_arrays({"name": "a", "dtype": "<f8"}), None, "shape"),
    (_with_arrays({"name": "a", "dtype": "<f8", "shape": "ab"}), None, "shape"),
    (_with_arrays({"name": "a", "dtype": "<f8", "shape": [-1]}), None, "shape"),
    (_with_arrays({"name": "a", "dtype": "<f8", "shape": [True]}), None, "shape"),
    (_with_arrays({"name": "a", "dtype": "<f8", "shape": [0, 2**70]}), None, "dimension"),
    (_with_arrays({"name": "a", "dtype": "<f8", "shape": [0] * 70}), None, "dimension"),
])
def test_malformed_header_is_a_format_error(header, header_len, message):
    blob = _sealed(models.MODEL_MAGIC, models.MODEL_FORMAT_VERSION, header, b"\0" * 8, header_len)
    with pytest.raises(ContainerFormatError, match=message):
        read_container(blob, models.MODEL_MAGIC, models.MODEL_FORMAT_VERSION)


def test_claimed_shape_past_the_payload_is_truncation():
    header = _with_arrays({"name": "a", "dtype": "<f8", "shape": [2**40, 2**40]})
    blob = _sealed(models.MODEL_MAGIC, models.MODEL_FORMAT_VERSION, header, b"\0" * 8)
    with pytest.raises(ChecksumError, match="truncated"):
        read_container(blob, models.MODEL_MAGIC, models.MODEL_FORMAT_VERSION)


_DATASET_HEADER = {
    "config": {"delta": 1, "n_in": 0, "m_out": 0},
    "network": {"points": [{"id": "a", "order_index": 0}], "speed_limits": [60.0], "n_in": 0, "m_out": 0},
    "start": "2024-01-01T00:00:00",
}
_DATASET_ARRAYS = [("grid", np.full((1, 3), 0.5)), ("centre", np.array([0])), ("column", np.array([1]))]


def _dataset_blob(header: dict) -> bytes:
    return write_container(ingestion.DATASET_MAGIC, ingestion.DATASET_FORMAT_VERSION, header, _DATASET_ARRAYS)


def test_dataset_header_fixture_loads():
    dataset = ingestion.dataset_from_bytes(_dataset_blob(_DATASET_HEADER))
    assert dataset.z == 1 and dataset.config.delta == 1
    assert dataset.spec == core.NetworkSpec((core.PointId("a", 0),), (60.0,), n_in=0, m_out=0)


_NO_VALUE = object()


def _network(**change):
    return {**_DATASET_HEADER["network"], **change}


# each case: the header key, its value, the fault and the whole message
@pytest.mark.parametrize("key,value,fault,message", [
    ("config", 5, "config must be a JSON object", "dataset header config must be a JSON object, got 5"),
    ("config", [1], "config must be a JSON object", "dataset header config must be a JSON object, got [1]"),
    ("config", None, "config must be a JSON object", "dataset header config must be a JSON object, got None"),
    ("config", {"delta": 1, "deltas": 2}, "config has an unknown key", "dataset header config has no field 'deltas'"),
    ("config", {"delta": "1"}, "delta is not an int", "SnapshotConfig.delta must be of type int, got '1'"),
    ("start", 5, "start is not a string", "dataset header start must be of type str, got 5"),
    ("start", None, "start is not a string", "dataset header start must be of type str, got None"),
    ("start", "Monday", "Invalid ISO timestamp", "Invalid isoformat string: 'Monday'"),
    ("network", _NO_VALUE, "network is missing", "dataset header network must be a JSON object, got None"),
    ("network", 5, "network must be a JSON object", "dataset header network must be a JSON object, got 5"),
    ("network", [1], "network must be a JSON object", "dataset header network must be a JSON object, got [1]"),
    ("network", _network(points="x"), "points must be a list", "dataset header network.points must be a list, got 'x'"),
    ("network", {"speed_limits": [60.0]}, "points are missing",
     "dataset header network lacks the required field 'points'"),
    ("network", _network(points=[{"id": "a"}]), "point lacks its order_index",
     "dataset header network.points[0] lacks the required field 'order_index'"),
    ("network", _network(points=["a"]), "point entry is not an object",
     "dataset header network.points[0] must be a JSON object, got 'a'"),
    ("network", _network(points=[{"id": 5, "order_index": 0}]), "PointId.id is not a str",
     "PointId.id must be of type str, got 5"),
    ("network", _network(points=[{"id": "a", "order_index": "0"}]), "PointId.order_index is not an int",
     "PointId.order_index must be of type int, got '0'"),
    ("network", _network(speed_limits=[None]), "speed limit is not a number",
     "NetworkSpec.speed_limits[0] must be of type float, got None"),
    ("network", _network(m_out="0"), "NetworkSpec.m_out is not an int", "NetworkSpec.m_out must be of type int, got '0'"),
    ("network", {"points": [{"id": "a", "order_index": 0}]}, "speed_limits are missing",
     "dataset header network lacks the required field 'speed_limits'"),
    ("config", {"delta": 10**30}, "delta is out of range", f"delta must be in [1, 1048576], got {10**30}"),
    ("kind", "dataset", "a version 2 key is left over", "dataset header has no field 'kind'"),
])
def test_malformed_dataset_header_field_is_a_format_error(key, value, fault, message):
    header = {**_DATASET_HEADER, key: value}
    if value is _NO_VALUE:
        del header[key]
    with pytest.raises(ContainerFormatError) as err:
        ingestion.dataset_from_bytes(_dataset_blob(header))
    assert str(err.value) == message


@pytest.mark.parametrize("config", [5, [1], "concat", None])
def test_model_header_config_of_another_type_is_a_format_error(config):
    arrays = list(models.CnnPredictor.initialize(0).params.items())
    blob = write_container(models.MODEL_MAGIC, models.MODEL_FORMAT_VERSION, {"kind": "cnn", "config": config}, arrays)
    with pytest.raises(ContainerFormatError) as err:
        models.load(blob)
    assert str(err.value) == f"ModelParams.config must be of type dict, got {config!r}"


@pytest.mark.parametrize("change,message", [
    ({"seed": True}, "ModelParams.seed must be of type int | None, got True"),
    ({"seed": "1"}, "ModelParams.seed must be of type int | None, got '1'"),
    ({"seed": 1.5}, "ModelParams.seed must be of type int | None, got 1.5"),
    ({"epochs": 1}, "model header has no field 'epochs'"),
])
def test_model_header_field_of_another_type_or_unknown_is_a_format_error(change, message):
    arrays = list(models.CnnPredictor.initialize(0).params.items())
    header = {"kind": "cnn", "seed": 1, "config": {}, **change}
    with pytest.raises(ContainerFormatError) as err:
        models.load(write_container(models.MODEL_MAGIC, models.MODEL_FORMAT_VERSION, header, arrays))
    assert str(err.value) == message


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_entries = st.tuples(
    st.fixed_dictionaries({
        "name": st.sampled_from(["a", "b"]) | _json,
        "dtype": st.sampled_from(["<f8", "|u1", "|b1", "<c16", "zz", "|O", "V0", "<U3", "<M8[D]", "<f8,<i4"])
        | st.text(max_size=6)
        | _json,
        "shape": st.lists(st.integers(0, 4), max_size=3)
        | st.lists(st.integers(-(2**70), 2**70), max_size=4)
        | _json,
    }),
    st.sampled_from([None, None, None, "name", "dtype", "shape"]),
).map(lambda drawn: {key: value for key, value in drawn[0].items() if key != drawn[1]})
_headers = (
    st.fixed_dictionaries({"kind": _json, "arrays": st.lists(_entries, min_size=1, max_size=3) | _json}).map(
        lambda h: json.dumps(h).encode()
    )
    | _json.map(lambda h: json.dumps(h).encode())
    | st.binary(max_size=24)
)


@given(
    magic=st.sampled_from(sorted(VERSIONS)),
    header=_headers,
    payload=st.binary(max_size=40),
    header_len=st.sampled_from([None, None, None]) | st.integers(0, 2**64 - 1),
    version_shift=st.sampled_from([0, 0, 0, 1]),
)
@settings(max_examples=400, deadline=None)
def test_checksummed_mutations_raise_only_documented_errors(magic, header, payload, header_len, version_shift):
    blob = _sealed(magic, VERSIONS[magic] + version_shift, header, payload, header_len)
    try:
        parsed, arrays = read_container(blob, magic, VERSIONS[magic])
    except DOCUMENTED:
        return
    assert isinstance(parsed, dict) and "arrays" not in parsed
    assert sum(a.nbytes for a in arrays.values()) <= len(payload)


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_atomic_write_gives_the_mode_open_gives_under_the_umask(tmp_path, umask, mode):
    data = bytes(range(256)) * 3
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "out.bin", data)
        atomic_write_bytes(tmp_path / "again.bin", b"old")
        atomic_write_bytes(tmp_path / "again.bin", data)  # a rewrite takes the new file's mode
    finally:
        os.umask(old)
    for name in ("out.bin", "again.bin"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
        assert (tmp_path / name).read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.bin", "out.bin"]
