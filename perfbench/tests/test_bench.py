"""Tests of the benchmark itself, on a tiny 13-point, 2-day world.

Run from the repository root:  python -m pytest perfbench/tests -q

Runs happen in-process with ``run.PROFILE`` pointed at the tiny world and
``run.OUT`` at a temporary directory, so results in ``perfbench/out/`` are
left alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = BENCH / "tests" / "tiny.json"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from trafficflow import ingestion, models, simulation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _out_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "PROFILE", TINY)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = summary["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0

    full = json.loads((tmp_path / f"{workload}-trace{trace}.json").read_text())
    assert full["profile"] == "perfbench/tests/tiny.json" and full["seconds"] == 0.2
    for group in ("end_to_end", "stages"):
        for name, entry in full[group].items():
            assert entry["unit"] and entry["better"] in ("lower", "higher") and entry["n"] >= 1, name
    env = full["environment"]
    assert env["blas_threads"] == "1" and env["seed"] == 5 and env["nproc"] >= 1
    assert {"numpy", "python", "cpu_model", "git_sha", "source_digest", "uncontrolled"} <= set(env)


def test_overhead_needs_a_comparable_untraced_run(tmp_path):
    base = run.run("simulate", 5, 0.0, False, TINY)
    traced = run.run("simulate", 6, 0.0, True, TINY)
    path = tmp_path / "simulate-trace0.json"
    path.write_text(json.dumps(base))
    figures = run.overhead(traced, path)
    assert figures["untraced_seed"] == 5 and "note" not in figures
    assert set(figures) >= {"setup_s", "op_s", "sim_cnn_node_ticks_per_s"}

    for key, value in (("seconds", 20.0), ("profile", "src/trafficflow/profiles/benchmark.json")):
        path.write_text(json.dumps(base | {key: value}))
        assert set(run.overhead(traced, path)) == {"note"} and key in run.overhead(traced, path)["note"]
    env = base["environment"] | {"source_digest": "0" * 64}
    path.write_text(json.dumps(base | {"environment": env}))
    assert "source_digest" in run.overhead(traced, path)["note"]


def test_traced_counts_follow_the_world_geometry():
    world = workloads.World.load(TINY)
    expect = {
        "ingest": {"core.point_snapshots_built": 2 * world.z},
        "train-eval": {
            "training.steps_per_epoch": math.ceil(world.train_points * world.per_point / 32),
            "evaluation.predict_dataset_calls_per_model": 4,
            "evaluation.useful_prediction_ratio": 0.25,
        },
        "simulate": {
            "simulation.skips_warmup": world.eligible * world.cfg.delta,
            "simulation.node_ticks": world.eligible * world.sim_ticks,
        },
    }
    for workload, counts in expect.items():
        result = run.run(workload, 5, 0.0, True, TINY)
        assert result["failed"] == 0, result["failures"]
        for name, value in counts.items():
            assert result["per_layer"][name]["value"] == value, (workload, name)


def test_bundled_world_has_the_paper_sizes():
    world = workloads.World.load(run.PROFILE)
    assert (world.points, world.eligible, world.z) == (58, 50, 114_950)
    assert (world.train_points * world.per_point, world.test_points * world.per_point) == (45_980, 68_970)
    assert math.ceil(45_980 / 32) == 1_437 and world.test_points * world.job.days == 1_440


def test_tracer_restores_every_original():
    before = (ingestion.load_dataset, models.CnnPredictor.__dict__["predict"], simulation.run)
    with layers.installed(Tracer()):
        assert ingestion.load_dataset is not before[0]
    assert (ingestion.load_dataset, models.CnnPredictor.__dict__["predict"], simulation.run) == before


def test_fault_in_a_loaded_value_fails_the_operation(monkeypatch):
    original = ingestion.load_dataset

    def perturbed(path):
        dataset = original(path)
        snap = dataset.snapshots[7]
        dataset.snapshots[7] = dataclasses.replace(snap, target=snap.target / 2)
        return dataset

    monkeypatch.setattr(ingestion, "load_dataset", perturbed)
    result = run.run("ingest", 5, 0.0, False, TINY)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert [f.split(":")[0] for f in result["failures"]] == ["ingest.load"]


def test_fault_in_one_prediction_fails_the_operation(monkeypatch):
    original = simulation.run

    def perturbed(*args, **kwargs):
        log = original(*args, **kwargs)
        if args[3].kind == "lstm":
            i = next(i for i, r in enumerate(log.records) if r.prediction is not None)
            log.records[i] = dataclasses.replace(log.records[i], prediction=log.records[i].prediction + 1e-9)
        return log

    monkeypatch.setattr(simulation, "run", perturbed)
    result = run.run("simulate", 5, 0.0, False, TINY)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["failures"] and all(f.startswith("simulate.lstm.") for f in result["failures"])


def test_run_without_program_sources_fails(tmp_path):
    bare = tmp_path / "bare-checkout"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
