"""Every JSON input, one field at a time replaced by a value of the wrong
kind or size: each loads or raises a documented error, within a second, and
the commands that read them exit 0, 1 or 2 with at most one error line."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import tempfile
import time
import types
import typing
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficflow import cli, core, evaluation, experiments, ingestion, models, simulation, training
from trafficflow.serialization import ContainerFormatError, read_container, write_container

# the values each field is replaced by, one at a time
VALUES = [None, "x", True, -1, 0, float("nan"), 1e30, -1e30, 10**30, [1], {"a": 1}]

PROFILE = {
    "snapshot": {"delta": 4, "n_in": 4, "m_out": 4, "step_minutes": 30, "horizon_steps": 1},
    "network": {"points": 12, "speed_limit": 60.0},
    "days": 2,
    "start": "2024-01-01T00:00:00",
    "base_speed_ratio": 0.9,
    "noise_std": 0.02,
    "propagation_lag_steps": 1,
    "dips": [{"start_slot": 10, "end_slot": 13, "depth": 0.5, "days": [1, 2, 3, 4, 5], "ramp_slots": 1}],
}
SNAPSHOT = {"snapshot": {"delta": 4, "n_in": 4, "m_out": 4, "step_minutes": 30, "horizon_steps": 1}}
TRAIN = {
    "model": "cnn", "epochs": 1, "batch_size": 32, "lr": 0.1, "seed": 1,
    "split_axis": "point", "train_units": 2, "test_units": 2,
}


def _paths(doc, prefix=()):
    """Every key path into ``doc``: each object key and each list's first item."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:1])
    else:
        return
    for key, value in items:
        yield (*prefix, key)
        yield from _paths(value, (*prefix, key))


def _edits(doc):
    return list(itertools.product(_paths(doc), VALUES))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _outcome(load, documented):
    """What ``load()`` returned, or the documented error it raised; fails on
    any other error and on a call that takes a second or more."""
    started = time.perf_counter()
    try:
        result = load()
    except documented as err:
        result = err
        assert type(err) in documented, f"{type(err).__name__}: {err}"
    assert time.perf_counter() - started < 1.0
    return result


def _write(directory: Path, doc) -> Path:
    path = directory / "input.json"
    path.write_text(json.dumps(doc))
    return path


def _synthesized(path: Path) -> ingestion.Dataset:
    job = ingestion.load_profile(path)
    series = ingestion.synth(job.profile, job.spec, job.days, 5, cfg=job.cfg, start=job.start)
    return ingestion.window(series, job.spec, job.cfg)


# ---------------------------------------------------------------------------
# the declarations


def _checked_dataclasses():
    """Every dataclass in the package whose ``__post_init__`` checks its
    fields against their annotations."""
    found = {}
    for module in (core, ingestion, training, models, evaluation, simulation, experiments):
        for value in vars(module).values():
            post_init = getattr(value, "__post_init__", None)
            if dataclasses.is_dataclass(value) and post_init and "check_field_types" in post_init.__code__.co_names:
                found[value.__name__] = value
    return found


def _supported(kind) -> bool:
    if typing.get_origin(kind) is tuple:
        item, *rest = typing.get_args(kind)
        return rest == [Ellipsis] and _supported(item)
    if typing.get_origin(kind) in (types.UnionType, typing.Union):
        return all(map(_supported, typing.get_args(kind)))
    return isinstance(kind, type) and typing.get_origin(kind) is None


def test_every_checked_field_has_an_annotation_check_type_supports():
    # a field of a kind check_type cannot check (list[int], a dict, Any, a
    # fixed-length tuple) would go unchecked, so it fails here
    found = _checked_dataclasses()
    assert set(found) >= {
        "PointId", "SnapshotConfig", "NetworkSpec", "RushHourDip", "SyntheticProfile",
        "ProfileNetwork", "SynthJob", "SplitSpec", "TrainConfig", "ModelParams",
    }
    for name, cls in found.items():
        kinds = core._field_kinds(cls)
        assert list(kinds) == [f.name for f in dataclasses.fields(cls)]
        for field, kind in kinds.items():
            assert _supported(kind), f"{name}.{field}: {kind}"
            with pytest.raises(ValueError, match=r"^x must be of type "):
                core.check_type(object(), kind, "x")


def test_annotations_are_resolved_once_per_class():
    @dataclasses.dataclass(frozen=True)
    class Pair:
        name: str
        sizes: "tuple[int, ...]" = ()

        def __post_init__(self):
            core.check_field_types(self)

    core.PointId("a", 0)
    resolved = core._field_kinds.cache_info().misses
    for _ in range(3):
        Pair("a", (1, 2))
    core.PointId("b", 1)
    assert core._field_kinds.cache_info().misses == resolved + 1
    with pytest.raises(ValueError, match=r"^Pair.sizes\[1\] must be of type int, got '2'$"):
        Pair("a", (1, "2"))


@pytest.mark.parametrize("kind,value,checked", [
    (int, np.int64(3), 3),
    (float, 2, 2),
    (str, np.str_("a"), "a"),
    (tuple[float, ...], (1, np.float64(0.5)), (1, 0.5)),
    (tuple[core.PointId, ...], (core.PointId("a", 0),), (core.PointId("a", 0),)),
    (str | Path | None, None, None),
    (str | Path | None, Path("p"), Path("p")),
    # a union's member checks the value as it checks it alone
    (int | None, np.int64(3), 3),
    (tuple[float, ...] | None, (1, np.float64(0.5)), (1, 0.5)),
])
def test_check_type_returns_what_the_annotation_admits(kind, value, checked):
    result = core.check_type(value, kind, "x")
    assert result == checked and type(result) is type(checked)


@pytest.mark.parametrize("kind,value,message", [
    (int, True, "x must be of type int, got True"),
    (float, "1", "x must be of type float, got '1'"),
    (tuple[int, ...], [1], "x must be of type tuple, got [1]"),
    (tuple[int, ...], (1, 2.0), "x[1] must be of type int, got 2.0"),
    (tuple[core.PointId, ...], ("a",), "x[0] must be of type PointId, got 'a'"),
    (str | Path | None, 5, "x must be of type str | pathlib.Path | None, got 5"),
    (training.SplitSpec, {"axis": "point"}, "x must be of type SplitSpec, got {'axis': 'point'}"),
    (int | None, True, "x must be of type int | None, got True"),
    (int | None, 1.0, "x must be of type int | None, got 1.0"),
    (tuple[int, ...] | None, (1, "2"), "x must be of type tuple[int, ...] | None, got (1, '2')"),
])
def test_check_type_names_the_annotation_and_the_item(kind, value, message):
    with pytest.raises(ValueError) as err:
        core.check_type(value, kind, "x")
    assert str(err.value) == message


def test_from_json_reads_nested_dataclasses_and_lists_as_tuples():
    doc = {"base_speed_ratio": 0.5, "dips": [{"start_slot": 1, "end_slot": 2, "depth": 0.5, "days": [0, 6]}]}
    profile = core.from_json(ingestion.SyntheticProfile, doc, "profile")
    assert profile == ingestion.SyntheticProfile(0.5, (ingestion.RushHourDip(1, 2, 0.5, days=(0, 6)),))
    for dips, message in [
        ({"start_slot": 1}, "profile.dips must be a list, got {'start_slot': 1}"),
        (["x"], "profile.dips[0] must be a JSON object, got 'x'"),
        ([{"start_slot": 1, "depth": 0.5}], "profile.dips[0] lacks the required field 'end_slot'"),
        ([{"start_slot": 1, "end_slot": 2, "depth": 0.5, "day": [1]}], "profile.dips[0] has no field 'day'"),
        ([{"start_slot": 1, "end_slot": 2, "depth": 0.5, "days": 5}], "profile.dips[0].days must be a list, got 5"),
        ([{"start_slot": 1, "end_slot": 2, "depth": 0.5, "days": [1.0]}],
         "RushHourDip.days[0] must be of type int, got 1.0"),
    ]:
        with pytest.raises(ValueError) as err:
            core.from_json(ingestion.SyntheticProfile, {"dips": dips}, "profile")
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# one field at a time, through each loader


@settings(max_examples=400)
@given(edit=st.sampled_from(_edits(PROFILE)))
def test_profile_edit_loads_or_raises_a_value_error(edit):
    # a profile that loads is synthesized and windowed too: the sizes it
    # gives must be bounded when it loads
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), _replaced(PROFILE, *edit))
        _outcome(lambda: _synthesized(path), (ValueError, ingestion.MisalignedSeriesError))


def _settings_loaded(command, argv: list[str], missing: Path) -> bool:
    """Whether ``command`` accepted its settings: it got as far as opening
    the data file ``missing``, which does not exist, rather than raising a
    ValueError."""
    args = cli.build_parser().parse_args([*argv, "--out", str(missing.parent / "out")])
    error = _outcome(lambda: command(args), (ValueError, FileNotFoundError))
    assert not isinstance(error, FileNotFoundError) or error.filename == str(missing)
    return isinstance(error, FileNotFoundError)


@settings(max_examples=200)
@given(edit=st.sampled_from(_edits(SNAPSHOT)), as_flag=st.booleans())
def test_snapshot_section_or_config_pair_edit_loads_or_raises_a_value_error(edit, as_flag):
    path, value = edit
    with tempfile.TemporaryDirectory() as tmp:
        missing = Path(tmp) / "raw.csv"
        argv = ["ingest", "--input", str(missing), "--config-file"]
        if as_flag and len(path) == 2:
            argv += [str(_write(Path(tmp), SNAPSHOT)), "--config", f"{path[1]}={value}"]
        else:
            argv += [str(_write(Path(tmp), _replaced(SNAPSHOT, path, value)))]
        _settings_loaded(cli._cmd_ingest, argv, missing)


@settings(max_examples=200)
@given(edit=st.sampled_from(_edits(TRAIN)))
def test_train_config_file_edit_loads_or_raises_a_value_error(edit):
    with tempfile.TemporaryDirectory() as tmp:
        missing = Path(tmp) / "data.tfds"
        path = _write(Path(tmp), _replaced(TRAIN, *edit))
        _settings_loaded(cli._cmd_train, ["train", "--dataset", str(missing), "--config-file", str(path)], missing)


def test_unedited_settings_load():
    with tempfile.TemporaryDirectory() as tmp:
        missing = Path(tmp) / "missing"
        argv = ["--config-file", str(_write(Path(tmp), SNAPSHOT)), "--config", "delta=3"]
        assert _settings_loaded(cli._cmd_ingest, ["ingest", "--input", str(missing), *argv], missing)
        argv = ["--config-file", str(_write(Path(tmp), TRAIN))]
        assert _settings_loaded(cli._cmd_train, ["train", "--dataset", str(missing), *argv], missing)


with tempfile.TemporaryDirectory() as _tmp:
    _DATASET = ingestion.dataset_to_bytes(_synthesized(_write(Path(_tmp), PROFILE)))
_DATASET_HEADER, _DATASET_ARRAYS = read_container(_DATASET, ingestion.DATASET_MAGIC, ingestion.DATASET_FORMAT_VERSION)


def _loaded_and_read(blob: bytes) -> ingestion.Dataset:
    dataset = ingestion.dataset_from_bytes(blob)
    dataset.times(), dataset.matrices(), dataset.targets(), dataset.series
    if dataset.z:
        dataset.snapshots[-1]
    return dataset


@settings(max_examples=300)
@given(edit=st.sampled_from(_edits(_DATASET_HEADER)))
def test_dataset_header_edit_loads_or_raises_a_documented_error(edit):
    header = _replaced(_DATASET_HEADER, *edit)
    arrays = list(_DATASET_ARRAYS.items())
    blob = write_container(ingestion.DATASET_MAGIC, ingestion.DATASET_FORMAT_VERSION, header, arrays)
    # a bad value is a ContainerFormatError; a good one that breaks a Dataset
    # check against the arrays is a ValueError.  A dataset that loads is read.
    _outcome(lambda: _loaded_and_read(blob), (ContainerFormatError, ValueError))


_MODEL = models.save(models.CnnPredictor.initialize(0).to_params(config={"epochs": 1}))
_MODEL_HEADER, _MODEL_ARRAYS = read_container(_MODEL, models.MODEL_MAGIC, models.MODEL_FORMAT_VERSION)


@settings(max_examples=100)
@given(edit=st.sampled_from(_edits(_MODEL_HEADER)))
def test_model_header_edit_loads_or_raises_a_documented_error(edit):
    header = _replaced(_MODEL_HEADER, *edit)
    blob = write_container(models.MODEL_MAGIC, models.MODEL_FORMAT_VERSION, header, list(_MODEL_ARRAYS.items()))
    params = _outcome(lambda: models.load(blob), (ContainerFormatError, models.ManifestMismatchError))
    if isinstance(params, models.ModelParams):
        assert type(params.seed) in (int, type(None)) and type(params.config) is dict


# ---------------------------------------------------------------------------
# one field at a time, through the command line


@pytest.fixture(scope="module")
def raw_file(tmp_path_factory) -> Path:
    """A detector file of the tiny profile's series, at 30-minute steps."""
    job = ingestion.load_profile(_write(tmp_path_factory.mktemp("profile"), PROFILE))
    series = ingestion.synth(job.profile, job.spec, job.days, 5, cfg=job.cfg, start=job.start)
    stamps = [job.start + timedelta(minutes=30 * i) for i in range(len(series[0]))]
    path = tmp_path_factory.mktemp("raw") / "raw.csv"
    raw = [ingestion.RawSeries(s.point, tuple(zip(stamps, s.values * 60)), 60.0) for s in series]
    ingestion.write_raw_file(path, raw)
    return path


def _run(argv: list[str], out_dir: Path) -> int:
    """Exit status of the command; an exit 1 printed one error line and left
    no file in ``out_dir``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main([*argv, "--out", str(out_dir / "out")])
        except SystemExit as exit_:
            code = exit_.code
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert list(out_dir.iterdir()) == []
    return code


@settings(max_examples=300)
@given(edit=st.sampled_from(_edits(PROFILE)))
def test_synth_on_a_profile_edit_exits_cleanly(edit):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), _replaced(PROFILE, *edit))
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        if _run(["synth", "--profile", str(path)], out_dir) == 0:
            assert sorted(p.name for p in out_dir.iterdir()) == ["out", "out.config.json"]


@settings(max_examples=200)
@given(edit=st.sampled_from(_edits(SNAPSHOT)), as_flag=st.booleans())
def test_ingest_on_a_snapshot_edit_exits_cleanly(raw_file, edit, as_flag):
    path, value = edit
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["ingest", "--input", str(raw_file), "--config-file"]
        if as_flag and len(path) == 2:
            argv += [str(_write(Path(tmp), SNAPSHOT)), "--config", f"{path[1]}={value}"]
        else:
            argv += [str(_write(Path(tmp), _replaced(SNAPSHOT, path, value)))]
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        if _run(argv, out_dir) == 0:
            assert sorted(p.name for p in out_dir.iterdir()) == ["out", "out.config.json"]


@settings(max_examples=100)
@given(edit=st.sampled_from(_edits(TRAIN)))
def test_train_on_a_config_file_edit_exits_cleanly(edit):
    # the dataset is missing, so every run ends at the latest when train
    # opens it: an accepted epoch count of 10**30 would otherwise train on
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), _replaced(TRAIN, *edit))
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        argv = ["train", "--dataset", str(Path(tmp) / "missing.tfds"), "--config-file", str(path)]
        assert _run(argv, out_dir) == 1
