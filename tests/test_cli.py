"""End-to-end command-line pipeline on a tiny synthetic world."""

import json
import time
from datetime import timedelta

import numpy as np
import pytest

from trafficflow import cli, ingestion, models, training

TINY_PROFILE = {
    "snapshot": {"delta": 4, "n_in": 4, "m_out": 4, "step_minutes": 30, "horizon_steps": 1},
    "network": {"points": 12, "speed_limit": 60.0},
    "days": 2,
    "start": "2024-01-01T00:00:00",
    "base_speed_ratio": 0.9,
    "noise_std": 0.02,
    "propagation_lag_steps": 1,
    "dips": [{"start_slot": 10, "end_slot": 13, "depth": 0.5, "days": [1, 2, 3, 4, 5], "ramp_slots": 1}],
}


@pytest.fixture
def profile_path(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(TINY_PROFILE))
    return path


def test_version_prints_format_versions(capsys):
    assert cli.main(["version"]) == 0
    out = capsys.readouterr().out
    assert "trafficflow" in out
    assert "model-format" in out
    assert "dataset-format 3" in out


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["synth", "--does-not-exist"])
    assert err.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_missing_input_file_is_data_error(tmp_path, capsys):
    code = cli.main(["synth", "--profile", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_full_pipeline(tmp_path, profile_path):
    data = tmp_path / "data.tfds"
    model = tmp_path / "model.tfmodel"
    eval_dir = tmp_path / "eval"
    sim_log = tmp_path / "sim.log"

    assert cli.main(["synth", "--profile", str(profile_path), "--seed", "5", "--out", str(data)]) == 0
    assert data.exists() and (tmp_path / "data.tfds.config.json").exists()

    assert cli.main([
        "train", "--dataset", str(data), "--model", "cnn", "--epochs", "2",
        "--lr", "0.2", "--seed", "1", "--train-units", "2", "--test-units", "2",
        "--out", str(model),
    ]) == 0
    assert model.exists()
    report = json.loads((tmp_path / "model.tfmodel.report.json").read_text())
    assert len(report["epoch_losses"]) == 2
    assert "wall_time_s" not in report
    meta = json.loads((tmp_path / "model.tfmodel.meta.json").read_text())
    assert "wall_time_s" in meta

    assert cli.main([
        "evaluate", "--model", str(model), "--dataset", str(data),
        "--baseline", "--out-dir", str(eval_dir),
    ]) == 0
    names = {p.name for p in eval_dir.iterdir()}
    assert {"daily_rmse.csv", "boxplot.csv", "day_curve.csv", "slot_07:30.csv", "slot_12:00.csv", "config.json"} <= names

    assert cli.main([
        "simulate", "--dataset", str(data), "--model", str(model),
        "--ticks", "12", "--out", str(sim_log),
    ]) == 0
    lines = sim_log.read_text().splitlines()
    assert lines and all(line.count(",") >= 2 for line in lines)
    assert any(",SKIP,warmup" in line for line in lines)


def test_synth_is_byte_deterministic(tmp_path, profile_path):
    out_a = tmp_path / "a.tfds"
    out_b = tmp_path / "b.tfds"
    assert cli.main(["synth", "--profile", str(profile_path), "--seed", "9", "--out", str(out_a)]) == 0
    assert cli.main(["synth", "--profile", str(profile_path), "--seed", "9", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_is_byte_deterministic(tmp_path, profile_path):
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "2", "--out", str(data)])
    out = tmp_path / "m.tfmodel"
    args = [
        "train", "--dataset", str(data), "--model", "lstm", "--epochs", "2",
        "--lr", "0.2", "--seed", "4", "--train-units", "2", "--test-units", "2",
        "--out", str(out),
    ]
    assert cli.main(args) == 0
    first_model = out.read_bytes()
    first_report = (tmp_path / "m.tfmodel.report.json").read_bytes()
    assert cli.main(args) == 0
    assert out.read_bytes() == first_model
    assert (tmp_path / "m.tfmodel.report.json").read_bytes() == first_report


def test_ingest_round_trips_synthetic_series(tmp_path, profile_path):
    # write the synthetic series in the raw detector format (unit speed
    # limits keep conditions exact), ingest it, and compare datasets
    job = ingestion.load_profile(profile_path)
    series = ingestion.synth(job.profile, job.spec, job.days, 5, cfg=job.cfg, start=job.start)
    raw_path = tmp_path / "raw.csv"
    stamps = [job.start + timedelta(minutes=job.cfg.step_minutes * i) for i in range(len(series[0]))]
    raw = [ingestion.RawSeries(s.point, tuple(zip(stamps, s.values.tolist())), 1.0) for s in series]
    ingestion.write_raw_file(raw_path, raw)

    data = tmp_path / "ingested.tfds"
    assert cli.main([
        "ingest", "--input", str(raw_path),
        "--config", "delta=4", "n_in=4", "m_out=4", "step_minutes=30",
        "--out", str(data),
    ]) == 0
    via_file = ingestion.load_dataset(data)
    direct = ingestion.window(series, job.spec, job.cfg)
    assert via_file.z == direct.z
    for a, b in zip(via_file.snapshots, direct.snapshots):
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.target == b.target


def test_ingest_reports_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("#point,a,0,60\na,2024-01-01T00:00:00\n")
    code = cli.main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o.tfds")])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("rows,message", [
    # b starts a slot after the file's span does
    (["a,2024-01-01T00:00:00,50", "a,2024-01-01T00:05:00,50", "b,2024-01-01T00:05:00,50"],
     "b: first sample 2024-01-01 00:05:00 after span start 2024-01-01 00:00:00"),
    (["a,2024-01-01T00:00:00,50", "a,2024-01-01T00:05:00,50", "b,2024-01-01T00:00:00,50"],
     "b: last sample 2024-01-01 00:00:00 before span end 2024-01-01 00:05:00"),
    (["a,2024-01-01T00:00:00,50", "a,2024-01-01T00:07:30,50", "a,2024-01-01T00:10:00,50"],
     "a: sample at 2024-01-01 00:07:30 off the slot grid"),
    (["a,2024-01-01T00:05:00,50", "a,2024-01-01 00:05:00,51"],
     "line 4: duplicate timestamp 2024-01-01 00:05:00 for 'a'"),
])
def test_ingest_error_line_prints_timestamps_as_datetimes(tmp_path, capsys, rows, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(["#point,a,0,60", "#point,b,1,60", *rows]) + "\n")
    argv = ["ingest", "--input", str(bad), "--config", "step_minutes=5", "--out", str(tmp_path / "o.tfds")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_train_config_file_precedence(tmp_path, profile_path):
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "3", "--out", str(data)])
    cfg_file = tmp_path / "train.json"
    cfg_file.write_text(json.dumps({"epochs": 2, "lr": 0.1, "split": {"train": 2, "test": 2}, "model": "lstm"}))
    out = tmp_path / "m.tfmodel"
    # flag --model overrides the file; file supplies the rest
    assert cli.main([
        "train", "--dataset", str(data), "--config-file", str(cfg_file),
        "--model", "cnn", "--out", str(out),
    ]) == 0
    params = models.load_file(out)
    assert params.kind == "cnn"
    report = json.loads((tmp_path / "m.tfmodel.report.json").read_text())
    assert report["config"]["epochs"] == 2
    assert report["config"]["lr"] == 0.1


def test_train_writes_the_model_and_three_json_files_only(tmp_path, profile_path):
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "3", "--out", str(data)])
    cfg_file = tmp_path / "train.json"
    cfg_file.write_text(json.dumps({"epochs": 2, "split": {"train": 2, "test": 2}}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["train", "--dataset", str(data), "--config-file", str(cfg_file), "--out", str(out_dir / "m.tfmodel")]
    assert cli.main(argv) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "m.tfmodel", "m.tfmodel.config.json", "m.tfmodel.meta.json", "m.tfmodel.report.json",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.tfds", "data.tfds.config.json", "out", "profile.json", "train.json",
    ]
    report = json.loads((out_dir / "m.tfmodel.report.json").read_text())
    assert sorted(report) == [
        "config", "epoch_losses", "final_test_rmse", "skipped_zero_loss_batches",
        "test_size", "test_units", "train_size", "train_units",
    ]


@pytest.mark.parametrize("flag,value", [("--checkpoint-dir", "c"), ("--loss", "strict"), ("--context-mode", "none")])
def test_train_refuses_removed_flags(tmp_path, monkeypatch, capsys, flag, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(["train", "--dataset", "d.tfds", flag, value, "--out", "m.tfmodel"])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


INGEST = ["ingest", "--input", "{missing}", "--config-file", "{doc}"]
TRAIN = ["train", "--dataset", "{missing}", "--config-file", "{doc}"]
SYNTH = ["synth", "--profile", "{doc}"]


@pytest.mark.parametrize("doc,argv,message", [
    ({"epochs": "2"}, TRAIN, "TrainConfig.epochs must be of type"),
    ({"epochs": None}, TRAIN, "TrainConfig.epochs must be of type"),
    ({"epochs": 10**30}, TRAIN, f"epochs must be in [1, 1048576], got {10**30}"),
    ({}, [*TRAIN, "--epochs", str(10**30)], f"epochs must be in [1, 1048576], got {10**30}"),
    ({"epoch": 1}, TRAIN, "has no field 'epoch'"),
    ({"context_mode": "none"}, TRAIN, "has no field 'context_mode'"),
    ({"loss": "rmse"}, TRAIN, "unknown loss kind 'rmse'; only 'strict' is defined"),
    # the split is one nested object; its old flat keys are no fields
    ({"split_axis": "time"}, TRAIN, "has no field 'split_axis'"),
    ({"train_units": 2}, TRAIN, "has no field 'train_units'"),
    ({"split": {"axis": "time", "units": 2}}, TRAIN, "split has no field 'units'"),
    ({"split": 2}, [*TRAIN, "--train-units", "2"], "split must be a JSON object, got 2"),
    ({"epochs": 1, "checkpoint_dir": "ckpt"}, TRAIN, "has no field 'checkpoint_dir'"),
    ({**TINY_PROFILE, "dips": [{"start_slot": 10, "end_slot": 13, "depth": "0.5"}]}, SYNTH,
     "RushHourDip.depth must be of type"),
    ({"snapshot": {"delta": "4"}}, INGEST, "SnapshotConfig.delta must be of type"),
    ({"snapshot": {"deltas": 4}}, INGEST, "snapshot has no field 'deltas'"),
    ({}, [*INGEST, "--config", "foo=1"], "snapshot has no field 'foo'"),
    ({"snapshot": 4}, INGEST, "snapshot must be a JSON object"),
    (["snapshot"], INGEST, "settings.json must be a JSON object"),
    ("model", TRAIN, "settings.json must be a JSON object"),
    ([TINY_PROFILE], SYNTH, "settings.json must be a JSON object"),
    ({**TINY_PROFILE, "dips": ["x"]}, SYNTH, "dips[0] must be a JSON object"),
    ({**TINY_PROFILE, "dips": {"start_slot": 1}}, SYNTH, "dips must be a list"),
    ({**TINY_PROFILE, "dips": [{"start_slot": 10, "depth": 0.5}]}, SYNTH, "dips[0] lacks the required field 'end_slot'"),
    ({**TINY_PROFILE, "snapshot": [1]}, SYNTH, "snapshot must be a JSON object"),
    ({**TINY_PROFILE, "noise_sd": 0.1}, SYNTH, "profile has no field 'noise_sd'"),
    ({**TINY_PROFILE, "days": "2"}, SYNTH, "SynthJob.days must be of type"),
    ({**TINY_PROFILE, "start": 5}, SYNTH, "start must be an ISO timestamp string"),
    ({**TINY_PROFILE, "start": "not-a-date"}, SYNTH, "start must be an ISO timestamp string, got 'not-a-date'"),
    ({key: v for key, v in TINY_PROFILE.items() if key != "days"}, SYNTH, "lacks the required field 'days'"),
    ({**TINY_PROFILE, "network": [1]}, SYNTH, "network must be a JSON object"),
    ({**TINY_PROFILE, "network": 5}, SYNTH, "network must be a JSON object"),
    ({key: v for key, v in TINY_PROFILE.items() if key != "network"}, SYNTH, "network must be a JSON object"),
    ({**TINY_PROFILE, "network": {"points": "x"}}, SYNTH, "ProfileNetwork.points must be of type int, got 'x'"),
    ({**TINY_PROFILE, "network": {"points": True}}, SYNTH, "ProfileNetwork.points must be of type int, got True"),
    ({**TINY_PROFILE, "network": {"points": 12, "speed_limit": "60"}}, SYNTH,
     "ProfileNetwork.speed_limit must be of type float, got '60'"),
    # a network is a point count: the list of point objects is not a form
    ({**TINY_PROFILE, "network": {"points": ["x"]}}, SYNTH, "ProfileNetwork.points must be of type int, got ['x']"),
    ({**TINY_PROFILE, "network": {"points": 0}}, SYNTH, "the network has no points"),
    ({**TINY_PROFILE, "network": {"points": -10**30}}, SYNTH, f"point count >= 0, got {-10**30}"),
    ({**TINY_PROFILE, "network": {"points": []}}, SYNTH, "ProfileNetwork.points must be of type int, got []"),
    ({**TINY_PROFILE, "network": {"points": 12, "speed_limits": [60.0]}}, SYNTH, "network has no field 'speed_limits'"),
    ({**TINY_PROFILE, "network": {"points": 12.0}}, SYNTH, "ProfileNetwork.points must be of type int, got 12.0"),
    ({"epochs": 1, "split": {"train": [4, 5]}}, TRAIN, "SplitSpec.train must be of type int | None, got [4, 5]"),
    # the grid is bounded before any point or condition is built
    ({**TINY_PROFILE, "network": {"points": 10**30}}, SYNTH,
     f"a grid of {10**30 * 2 * 48} cells (points x days x slots a day) exceeds {2**26}"),
    ({**TINY_PROFILE, "days": 10**9}, SYNTH, f"a grid of {12 * 10**9 * 48} cells"),
    # so is every other array that synth sizes from the profile
    ({**TINY_PROFILE, "propagation_lag_steps": 10**30}, SYNTH,
     f"a lead of {11 * 10**30} slots (propagation_lag_steps x (points - 1)) exceeds {2**26}"),
    ({**TINY_PROFILE, "propagation_lag_steps": 10**9}, SYNTH, f"a lead of {11 * 10**9} slots"),
    ({**TINY_PROFILE, "dips": [{**TINY_PROFILE["dips"][0], "ramp_slots": 10**30}]}, SYNTH,
     f"dips[0] over {2 * (4 + 2 * 10**30)} slots (days x (end_slot - start_slot + 1 + 2 x ramp_slots)) "
     f"exceeds {2**26}"),
    ({**TINY_PROFILE, "dips": [{**TINY_PROFILE["dips"][0], "ramp_slots": 10**9}]}, SYNTH,
     f"dips[0] over {2 * (4 + 2 * 10**9)} slots"),
    ({**TINY_PROFILE, "dips": [{**TINY_PROFILE["dips"][0], "end_slot": 10**30}]}, SYNTH,
     f"dips[0] over {2 * (10**30 - 7)} slots"),
    ({**TINY_PROFILE, "start": "9999-12-31T00:00:00"}, SYNTH,
     "2 days from start 9999-12-31 00:00:00 run past 9999-12-31 23:59:59.999999"),
    ({"snapshot": {"step_minutes": 10**30}}, INGEST, f"step_minutes must be in [1, 1440], got {10**30}"),
    ({"split": {"axis": []}}, TRAIN, "SplitSpec.axis must be of type str, got []"),
    ({"split": {"axis": "rows"}}, TRAIN, "unknown split axis 'rows'"),
    ({"split": {"test": 0}}, TRAIN, "test count must be >= 1, got 0"),
    ({}, [*TRAIN, "--train-units", "-1"], "train count must be >= 1, got -1"),
    # a snapshot geometry is bounded wherever it is read
    ({"snapshot": {"delta": 10**30}}, INGEST, f"delta must be in [1, 1048576], got {10**30}"),
    ({"snapshot": {"n_in": 10**30}}, INGEST, f"n_in must be in [0, 1048576], got {10**30}"),
    ({}, [*INGEST, "--config", f"m_out={10**30}"], f"m_out must be in [0, 1048576], got {10**30}"),
    ({"snapshot": {"horizon_steps": 10**30}}, INGEST, f"horizon_steps must be in [1, 1048576], got {10**30}"),
    ({**TINY_PROFILE, "snapshot": {"delta": 10**30}}, SYNTH, f"delta must be in [1, 1048576], got {10**30}"),
    ({**TINY_PROFILE, "snapshot": {"m_out": 10**30}}, SYNTH, f"m_out must be in [0, 1048576], got {10**30}"),
])
def test_mistyped_config_value_exits_1_naming_the_field(tmp_path, capsys, doc, argv, message):
    # every command checks its settings before it opens its data file
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(doc))
    argv = [arg.format(doc=path, missing=tmp_path / "missing") for arg in argv]
    started = time.perf_counter()
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1


_DIP = TINY_PROFILE["dips"][0]


@pytest.mark.parametrize("change,message", [
    ({"network": {"points": "x"}}, "ProfileNetwork.points must be of type int, got 'x'"),
    ({"network": {"points": 12, "speed_limit": "60"}}, "ProfileNetwork.speed_limit must be of type float, got '60'"),
    ({"network": {"points": 12, "speed_limit": float("nan")}}, "speed limits must be strictly positive"),
    ({"network": {"points": 12, "speed_limits": [60.0]}}, "network has no field 'speed_limits'"),
    ({"dips": {"start_slot": 1}}, "profile.dips must be a list, got {'start_slot': 1}"),
    ({"dips": ["x"]}, "profile.dips[0] must be a JSON object, got 'x'"),
    ({"dips": [{"start_slot": 10, "depth": 0.5}]}, "profile.dips[0] lacks the required field 'end_slot'"),
    ({"dips": [{**_DIP, "days": 5}]}, "profile.dips[0].days must be a list, got 5"),
    ({"dips": [{**_DIP, "days": [True]}]}, "RushHourDip.days[0] must be of type int, got True"),
    ({"noise_std": float("nan")}, "noise_std must be >= 0"),
    ({"snapshot": {**TINY_PROFILE["snapshot"], "step_minutes": 0}}, "step_minutes must be in [1, 1440], got 0"),
    ({"network": {"points": 0}, "days": 10**9},
     "profile {path}: a grid of 48000000000 cells (points x days x slots a day) exceeds 67108864"),
    ({"propagation_lag_steps": 10**30},
     "profile {path}: a lead of 11000000000000000000000000000000 slots (propagation_lag_steps x (points - 1)) "
     "exceeds 67108864"),
    ({"dips": [{**_DIP, "ramp_slots": 10**9}]},
     "profile {path}: dips[0] over 4000000008 slots (days x (end_slot - start_slot + 1 + 2 x ramp_slots)) "
     "exceeds 67108864"),
    ({"start": "9999-12-31T00:00:00"},
     "profile {path}: 2 days from start 9999-12-31 00:00:00 run past 9999-12-31 23:59:59.999999"),
])
def test_refused_profile_prints_its_whole_message_and_writes_nothing(tmp_path, capsys, change, message):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({**TINY_PROFILE, **change}))
    assert cli.main(["synth", "--profile", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message.replace('{path}', str(path))}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["profile.json"]


def test_ingest_config_file_refuses_an_unknown_top_level_key(tmp_path, capsys):
    # a misspelt section would otherwise be ignored, its settings with it
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({"snapshot": {"step_minutes": 30}, "snapshots": {"delta": 2}}))
    argv = ["ingest", "--input", str(tmp_path / "missing"), "--config-file", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: config file {path} has no field 'snapshots'\n"


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "-0.5"])
def test_train_refuses_a_non_finite_or_negative_lr(tmp_path, capsys, lr):
    # a NaN rate would make no update and write NaN, which is not JSON, into
    # the report and the config echo
    argv = ["train", "--dataset", str(tmp_path / "missing"), f"--lr={lr}", "--out", str(tmp_path / "m.tfmodel")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: lr must be a finite number >= 0, got {float(lr)}\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_replays_a_split_dataset(tmp_path, profile_path):
    # every dataset keeps the whole condition grid, so a split replays the
    # same series as the dataset it came from
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "5", "--out", str(data)])
    _, test_ds = training.split(ingestion.load_dataset(data), training.TrainConfig(split=training.by_point(2, 2)))
    part = tmp_path / "part.tfds"
    ingestion.save_dataset(test_ds, part)
    model = tmp_path / "m.tfmodel"
    cli.main(["train", "--dataset", str(data), "--model", "cnn", "--epochs", "1",
              "--train-units", "2", "--test-units", "2", "--out", str(model)])
    for name, dataset in (("full.log", data), ("part.log", part)):
        assert cli.main(["simulate", "--dataset", str(dataset), "--model", str(model), "--ticks", "30",
                         "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "part.log").read_bytes() == (tmp_path / "full.log").read_bytes()


def test_simulate_refuses_a_negative_tick_count(tmp_path, profile_path, capsys):
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "5", "--out", str(data)])
    model = tmp_path / "m.tfmodel"
    models.save_file(models.CnnPredictor.initialize(0).to_params(), model)
    capsys.readouterr()
    log = tmp_path / "sim.log"
    argv = ["simulate", "--dataset", str(data), "--model", str(model), "--out", str(log)]
    assert cli.main([*argv, "--ticks", "-5"]) == 1
    assert capsys.readouterr().err == "error: ticks must not be negative, got -5\n"
    assert not log.exists() and not (tmp_path / "sim.log.config.json").exists()
    assert cli.main([*argv, "--ticks", "0"]) == 0
    assert log.read_text() == "\n"
    assert json.loads((tmp_path / "sim.log.config.json").read_text())["ticks"] == 0


def test_evaluate_names_an_unknown_point(tmp_path, profile_path, capsys):
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "5", "--out", str(data)])
    model = tmp_path / "m.tfmodel"
    models.save_file(models.CnnPredictor.initialize(0).to_params(), model)
    capsys.readouterr()
    argv = ["evaluate", "--model", str(model), "--dataset", str(data), "--point", "nope",
            "--out-dir", str(tmp_path / "e")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: point 'nope' is not in the dataset\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--date", "1999-01-01", "point d006 has no snapshot on 1999-01-01"),
    ("--slot", "03:17", "point d006 has no snapshot at 03:17"),
])
def test_evaluate_refuses_a_day_or_slot_that_selects_no_snapshot(tmp_path, profile_path, capsys, flag, value, message):
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "5", "--out", str(data)])
    model = tmp_path / "m.tfmodel"
    models.save_file(models.CnnPredictor.initialize(0).to_params(), model)
    capsys.readouterr()
    out_dir = tmp_path / "e"
    argv = ["evaluate", "--model", str(model), "--dataset", str(data), "--out-dir", str(out_dir)]
    assert cli.main([*argv, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()
    # the same flag with a value the point's snapshots do meet
    assert cli.main([*argv, flag, {"--date": "2024-01-02", "--slot": "03:30"}[flag]]) == 0


def test_ingest_names_a_config_override_that_is_not_an_integer(tmp_path, capsys):
    argv = ["ingest", "--input", str(tmp_path / "missing.csv"), "--config", "delta=x", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: config override 'delta=x' is not an integer\n"


def test_simulate_refuses_a_model_with_a_widened_first_dense_layer(tmp_path, profile_path, capsys):
    # a CNN file whose fc1 reads 322 inputs, 320 conv2 cells plus the day and
    # time scalars, matches no architecture this package builds
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "5", "--out", str(data)])
    params = models.CnnPredictor.initialize(0).to_params(config={"context_mode": "concat"})
    params.arrays["fc1_w"] = np.zeros((322, 32))
    model = tmp_path / "wide.tfmodel"
    models.save_file(params, model)
    capsys.readouterr()
    argv = ["simulate", "--dataset", str(data), "--model", str(model), "--out", str(tmp_path / "sim.log")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and "(322, 32)" in err and err.count("\n") == 1
    assert not (tmp_path / "sim.log").exists()


# ---------------------------------------------------------------------------
# every echo reads back as input


@pytest.mark.parametrize("flags", [
    ["--model", "cnn", "--split-axis", "point", "--train-units", "2", "--test-units", "2"],
    ["--model", "lstm", "--split-axis", "time", "--train-units", "1", "--test-units", "1"],
])
def test_train_config_echo_given_back_reproduces_the_run(tmp_path, profile_path, flags):
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "3", "--out", str(data)])
    out = tmp_path / "m.tfmodel"
    argv = ["train", "--dataset", str(data), "--epochs", "1", "--lr", "0.2", "--seed", "4", "--out", str(out)]
    assert cli.main([*argv, *flags]) == 0
    names = ("m.tfmodel", "m.tfmodel.report.json", "m.tfmodel.config.json")
    first = [(tmp_path / name).read_bytes() for name in names]
    echo = json.loads(first[2])
    assert echo["split"] == {"axis": flags[3], "train": int(flags[5]), "test": int(flags[7])}
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps({k: v for k, v in echo.items() if k not in ("command", "dataset", "out")}))
    assert cli.main(["train", "--dataset", str(data), "--config-file", str(settings), "--out", str(out)]) == 0
    assert [(tmp_path / name).read_bytes() for name in names] == first
    # the model header and the report carry the same settings document
    assert models.load_file(out).config == json.loads(first[1])["config"] == json.loads(settings.read_text())


def test_ingest_config_echo_given_back_reproduces_the_run(tmp_path, profile_path):
    job = ingestion.load_profile(profile_path)
    series = ingestion.synth(job.profile, job.spec, job.days, 5, cfg=job.cfg, start=job.start)
    stamps = [job.start + timedelta(minutes=job.cfg.step_minutes * i) for i in range(len(series[0]))]
    raw_path = tmp_path / "raw.csv"
    ingestion.write_raw_file(raw_path, [ingestion.RawSeries(s.point, tuple(zip(stamps, s.values * 60)), 60.0)
                                        for s in series])
    out = tmp_path / "data.tfds"
    assert cli.main(["ingest", "--input", str(raw_path), "--config", "step_minutes=30", "delta=3",
                     "--out", str(out)]) == 0
    first = out.read_bytes(), (tmp_path / "data.tfds.config.json").read_bytes()
    echo = json.loads(first[1])
    # the resolved geometry, not only the overrides that were given
    assert echo["snapshot"] == {"delta": 3, "n_in": 4, "m_out": 4, "step_minutes": 30, "horizon_steps": 1}
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps({"snapshot": echo["snapshot"]}))
    assert cli.main(["ingest", "--input", str(raw_path), "--config-file", str(settings), "--out", str(out)]) == 0
    assert (out.read_bytes(), (tmp_path / "data.tfds.config.json").read_bytes()) == first


@pytest.mark.parametrize("doc,flags,message", [
    # a split flag alone takes its axis's default counts, not another axis's
    ({}, ["--split-axis", "time"], "the split takes 48 train and 12 test units, the dataset has 2"),
    ({}, [], "the split takes 20 train and 30 test units, the dataset has 4"),
    # flags override the file's split field by field
    ({"split": {"axis": "point", "train": 3}}, ["--split-axis", "time"],
     "the split takes 3 train and 12 test units, the dataset has 2"),
    ({"split": {"axis": "time", "train": 1, "test": None}}, ["--train-units", "2"],
     "the split takes 2 train and 12 test units, the dataset has 2"),
])
def test_split_flags_and_file_resolve_field_by_field(tmp_path, profile_path, capsys, doc, flags, message):
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "3", "--out", str(data)])
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["train", "--dataset", str(data), "--config-file", str(settings), *flags, "--out", str(tmp_path / "m")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# evaluate removes the files a previous evaluate wrote and it does not


def _evaluate_argv(tmp_path, profile_path) -> list[str]:
    data = tmp_path / "data.tfds"
    cli.main(["synth", "--profile", str(profile_path), "--seed", "5", "--out", str(data)])
    model = tmp_path / "m.tfmodel"
    models.save_file(models.CnnPredictor.initialize(0).to_params(), model)
    return ["evaluate", "--model", str(model), "--dataset", str(data), "--out-dir", str(tmp_path / "e")]


def test_evaluate_removes_the_previous_runs_stale_files(tmp_path, profile_path):
    argv = _evaluate_argv(tmp_path, profile_path)
    out_dir = tmp_path / "e"
    assert cli.main([*argv, "--slot", "07:30", "--slot", "12:00"]) == 0
    assert json.loads((out_dir / "config.json").read_text())["files"] == [
        "daily_rmse.csv", "boxplot.csv", "day_curve.csv", "slot_07:30.csv", "slot_12:00.csv",
    ]
    assert cli.main([*argv, "--slot", "08:00"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "boxplot.csv", "config.json", "daily_rmse.csv", "day_curve.csv", "slot_08:00.csv",
    ]
    assert json.loads((out_dir / "config.json").read_text())["files"][-1] == "slot_08:00.csv"


def test_evaluate_removes_only_names_it_writes(tmp_path, profile_path):
    argv = _evaluate_argv(tmp_path, profile_path)
    out_dir = tmp_path / "e"
    out_dir.mkdir()
    kept = [tmp_path / "outside.txt", out_dir / "notes.txt", out_dir / "slot_09:00.csv"]
    for path in kept:
        path.write_text("keep\n")
    (out_dir / "config.json").write_text(json.dumps({"files": ["../outside.txt", "notes.txt", "slot_9:00.csv"]}))
    assert cli.main(argv) == 0
    assert all(path.read_text() == "keep\n" for path in kept)
    # a config.json without a files list removes nothing
    (out_dir / "config.json").write_text(json.dumps({"command": "evaluate"}))
    assert cli.main([*argv, "--slot", "12:00"]) == 0
    assert (out_dir / "slot_07:30.csv").exists() and (out_dir / "slot_09:00.csv").exists()


@pytest.mark.parametrize("text,message", [
    ("[1]", "config.json must be a JSON object, got [1]"),
    ('{"files": "slot_07:30.csv"}', "config.json: files must be a list of strings, got 'slot_07:30.csv'"),
    ('{"files": [1]}', "config.json: files must be a list of strings, got [1]"),
    ("{", "config.json is not JSON: "),
])
def test_evaluate_refuses_a_previous_config_it_cannot_read(tmp_path, profile_path, capsys, text, message):
    argv = _evaluate_argv(tmp_path, profile_path)
    out_dir = tmp_path / "e"
    out_dir.mkdir()
    (out_dir / "config.json").write_text(text)
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out_dir / message}") and err.count("\n") == 1
    assert [p.name for p in out_dir.iterdir()] == ["config.json"]
