"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Each workload is a closed loop: the next operation starts when the previous
one has returned.  ``setup`` builds the inputs from the seed; ``op`` runs the
timed calls into the program and returns their wall times plus the outputs;
``check`` verifies those outputs outside the timed region, before the next
operation starts, so no output outlives its check.

The world is a synthesis profile (the bundled ``benchmark.json`` by
default).  Every expected size is derived from its geometry, so the same
code checks the full world and the tiny one the tests use.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Iterator

import numpy as np

from trafficflow import core, evaluation, ingestion, models, simulation, training

GAP_SHARE = 0.02  # interior raw rows removed so that cleaning interpolates
DROP_SHARE = 0.001  # simulated message deliveries dropped
SIM_TICKS = 100  # replayed ticks per simulation run
SAMPLE = 32  # predictions compared one by one against single-sample predict
CHECK_BLOCK = 4096  # snapshots per block when a check stacks arrays
TOL = 1e-12


@dataclass(frozen=True)
class World:
    """A synthesis job plus the sizes every check derives from it."""

    job: ingestion.SynthJob

    @classmethod
    def load(cls, path: str | Path) -> "World":
        return cls(ingestion.load_profile(path))

    @property
    def cfg(self) -> core.SnapshotConfig:
        return self.job.cfg

    @property
    def points(self) -> int:
        return len(self.job.spec.points)

    @property
    def ticks(self) -> int:
        return self.job.days * (24 * 60 // self.cfg.step_minutes)

    @property
    def eligible(self) -> int:
        return self.points - self.cfg.n_in - self.cfg.m_out

    @property
    def per_point(self) -> int:
        return self.ticks - self.cfg.delta - self.cfg.horizon_steps

    @property
    def z(self) -> int:
        return self.eligible * self.per_point

    @property
    def train_points(self) -> int:
        """The paper's split: the first 40% of eligible points train (20 of 50)."""
        return round(0.4 * self.eligible)

    @property
    def test_points(self) -> int:
        return self.eligible - self.train_points

    @property
    def sim_ticks(self) -> int:
        return min(SIM_TICKS, self.ticks - self.cfg.horizon_steps)

    def synth(self, seed: int) -> list[ingestion.CleanSeries]:
        job = self.job
        return ingestion.synth(job.profile, job.spec, job.days, seed, cfg=job.cfg, start=job.start)


class Checks:
    """Counts operations; an operation fails when any of its checks fails.

    ``failures`` keeps the name of every failed check, so one faulty output
    may name several checks but counts as one failed operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def operation(self) -> Iterator[None]:
        """Scope of one operation: its run and every check of its outputs."""
        before = len(self.failures)
        self.attempted += 1
        try:
            yield
        finally:
            self.failed += len(self.failures) > before

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _median(samples: list[dict], key: str) -> float:
    return float(np.median([s[key] for s in samples]))


class Workload:
    name = ""

    def __init__(self, world: World, seed: int, workdir: Path) -> None:
        self.world = world
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 7])

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> tuple[dict[str, float], object]:
        raise NotImplementedError

    def check(self, outputs, checks: Checks) -> None:
        raise NotImplementedError

    def stages(self, samples: list[dict]) -> list[tuple[str, float, str, str]]:
        """The workload's own end-to-end figures: (name, value, unit, better)."""
        raise NotImplementedError

    def quality(self) -> dict:
        return {}


class Ingest(Workload):
    name = "ingest"

    def setup(self) -> None:
        world = self.world
        spec, cfg = world.job.spec, world.cfg
        grid = np.stack([s.values for s in world.synth(self.seed)])
        rng = np.random.default_rng([self.seed, 1])
        keep = rng.random(grid.shape) >= GAP_SHARE
        keep[:, 0] = keep[:, -1] = True  # gaps stay interior: no extrapolation
        limits = np.asarray(spec.speed_limits)
        speeds = grid * limits[:, None]
        step = timedelta(minutes=cfg.step_minutes)
        stamps = [(world.job.start + step * t).isoformat() for t in range(world.ticks)]
        lines = [f"#point,{p.id},{p.order_index},{limit!r}\n" for p, limit in zip(spec.points, spec.speed_limits)]
        for k, point in enumerate(spec.points):
            row = speeds[k]
            lines.extend(f"{point.id},{stamps[t]},{float(row[t])!r}\n" for t in np.flatnonzero(keep[k]))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv_path = self.workdir / "detectors.csv"
        self.csv_path.write_text("".join(lines), encoding="utf-8")
        self.tfds_path = self.workdir / "ingested.tfds"
        self.present = np.nonzero(keep)
        self.expected_condition = np.minimum(1.0, speeds[keep] / limits[self.present[0]])
        self.rows = int(keep.sum())

    def op(self):
        cfg = self.world.cfg
        t0 = time.perf_counter()
        spec, raw = ingestion.read_detector_file(self.csv_path, cfg.n_in, cfg.m_out)
        t1 = time.perf_counter()
        cleaned = [ingestion.clean(series, cfg) for series in raw]
        t2 = time.perf_counter()
        dataset = ingestion.window(cleaned, spec, cfg)
        t3 = time.perf_counter()
        ingestion.save_dataset(dataset, self.tfds_path)
        t4 = time.perf_counter()
        loaded = ingestion.load_dataset(self.tfds_path)
        t5 = time.perf_counter()
        times = {"op_s": t5 - t0, "read_s": t1 - t0, "clean_s": t2 - t1, "window_s": t3 - t2,
                 "save_s": t4 - t3, "load_s": t5 - t4}
        return times, (raw, cleaned, dataset, loaded)

    def check(self, outputs, checks: Checks) -> None:
        raw, cleaned, dataset, loaded = outputs
        world = self.world
        rows = sum(len(s.samples) for s in raw)
        checks.expect("ingest.parse", len(raw) == world.points and rows == self.rows,
                      f"{len(raw)} series, {rows} rows")
        grid = np.stack([c.values for c in cleaned])
        ok = grid.shape == (world.points, world.ticks) and bool(
            np.array_equal(grid[self.present], self.expected_condition)
        )
        checks.expect("ingest.clean", ok, "present rows differ from min(1, speed/limit)")
        checks.expect("ingest.window", dataset.z == world.z, f"z={dataset.z}, expected {world.z}")
        ok = loaded.z == dataset.z and np.array_equal(
            np.stack([s.values for s in dataset.series]), np.stack([s.values for s in loaded.series])
        )
        want = dataset.arrays()  # cached by save_dataset
        for lo in range(0, loaded.z if ok else 0, CHECK_BLOCK):
            # block by block, so that the check does not raise the peak RSS
            block = ingestion.Dataset(loaded.snapshots[lo : lo + CHECK_BLOCK], loaded.config, loaded.spec)
            got = block.arrays()
            ok = ok and all(np.array_equal(want[key][lo : lo + CHECK_BLOCK], got[key]) for key in want)
        checks.expect("ingest.load", ok, "loaded dataset differs from the windowed one")

    def stages(self, samples):
        out = [("ingest_s", _median(samples, "op_s"), "s", "lower")]
        for key in ("read_s", "clean_s", "window_s", "save_s", "load_s"):
            out.append((f"ingest.{key}", _median(samples, key), "s", "lower"))
        return out


class TrainEval(Workload):
    name = "train-eval"

    def setup(self) -> None:
        world = self.world
        self.dataset = ingestion.window(world.synth(self.seed), world.job.spec, world.cfg)
        self.split = training.by_point(world.train_points, world.test_points)
        self.reports: dict[str, training.TrainReport] = {}
        self.mean_rmse: dict[str, float] = {}

    def _config(self, kind: str) -> training.TrainConfig:
        return training.TrainConfig(
            model=kind, epochs=1, batch_size=32, seed=self.seed, split=self.split,
            loss="strict", checkpoint_dir=self.workdir / f"checkpoints-{kind}",
        )

    def op(self):
        times: dict[str, float] = {}
        params = {}
        reports = {}
        for kind in ("cnn", "lstm"):
            cfg = self._config(kind)
            t0 = time.perf_counter()
            params[kind], reports[kind] = training.train(self.dataset, cfg)
            times[f"train_{kind}_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        _, test = training.split(self.dataset, training.TrainConfig(split=self.split))
        predictors = {
            "cnn": models.build_predictor(params["cnn"]),
            "lstm": models.build_predictor(params["lstm"]),
            "persistence": evaluation.PersistencePredictor(self.dataset.config),
        }
        report = evaluation.evaluate_models(predictors, test)
        paths = evaluation.write_report(report, self.workdir / "eval")
        times["evaluate_s"] = time.perf_counter() - t0
        times["op_s"] = times["train_cnn_s"] + times["train_lstm_s"] + times["evaluate_s"]
        return times, (reports, predictors, test, report, paths)

    def check(self, outputs, checks: Checks) -> None:
        reports, predictors, test, report, paths = outputs
        world = self.world
        arrays = test.arrays()
        for kind, rep in reports.items():
            checks.expect(f"train.{kind}.losses_finite", all(math.isfinite(v) for v in rep.epoch_losses)
                          and len(rep.epoch_losses) == 1, str(rep.epoch_losses))
            sizes = (rep.train_size, rep.test_size)
            want = (world.train_points * world.per_point, world.test_points * world.per_point)
            checks.expect(f"train.{kind}.sizes", sizes == want, f"{sizes} != {want}")
            preds = predictors[kind].predict_dataset(test)
            rmse = float(np.sqrt(np.mean((preds - arrays["target"]) ** 2)))
            checks.expect(f"train.{kind}.final_test_rmse", abs(rmse - rep.final_test_rmse) <= TOL,
                          f"{rep.final_test_rmse!r} vs recomputed {rmse!r}")
            sample = self.rng.choice(test.z, size=min(SAMPLE, test.z), replace=False)
            worst = max(abs(predictors[kind].predict_snapshot(test.snapshots[i]) - preds[i]) for i in sample)
            checks.expect(f"evaluate.{kind}.predict_vs_predict_dataset", worst <= TOL, f"max diff {worst!r}")
        checks.expect("evaluate.split_size", test.z == world.test_points * world.per_point, f"z={test.z}")

        cells = world.test_points * world.job.days
        by_model: dict[str, list[float]] = {}
        for rec in report.records:
            by_model.setdefault(rec.model, []).append(rec.rmse)
        counts = {name: len(v) for name, v in by_model.items()}
        checks.expect("evaluate.daily_rmse_records", counts == {n: cells for n in predictors},
                      f"{counts}, expected {cells} each")
        # persistence daily RMSE recomputed straight from the test arrays
        center = arrays["matrix"][:, self.dataset.config.n_in, -1]
        key = arrays["point_order"] * 1_000_000 + arrays["timestamp"] // 86_400
        _, cell = np.unique(key, return_inverse=True)
        sq = np.bincount(cell, weights=(center - arrays["target"]) ** 2)
        direct = np.sqrt(sq / np.bincount(cell))
        got = np.array(by_model.get("persistence", []))
        checks.expect("evaluate.persistence_rmse", got.shape == direct.shape
                      and bool(np.all(np.abs(got - direct) <= TOL)), "persistence RMSE differs")
        checks.expect("evaluate.report_files", len(paths) == 5, f"{len(paths)} files")

        self.reports = reports
        self.mean_rmse = {name: float(np.mean(v)) for name, v in by_model.items()}

    def stages(self, samples):
        train_z = self.world.train_points * self.world.per_point
        return [
            ("train_cnn_samples_per_s", train_z / _median(samples, "train_cnn_s"), "snapshots/s", "higher"),
            ("train_lstm_samples_per_s", train_z / _median(samples, "train_lstm_s"), "snapshots/s", "higher"),
            ("evaluate_s", _median(samples, "evaluate_s"), "s", "lower"),
        ]

    def quality(self) -> dict:
        persistence = self.mean_rmse.get("persistence", float("nan"))
        return {
            kind: {
                "epoch_losses": rep.epoch_losses,
                "final_test_rmse": rep.final_test_rmse,
                "mean_daily_rmse": self.mean_rmse.get(kind),
                "mean_daily_rmse_vs_persistence": self.mean_rmse.get(kind, math.nan) / persistence,
            }
            for kind, rep in self.reports.items()
        } | {"persistence": {"mean_daily_rmse": persistence}}


class Simulate(Workload):
    name = "simulate"

    def setup(self) -> None:
        world = self.world
        spec, cfg = world.job.spec, world.cfg
        self.series = world.synth(self.seed)
        self.models = {
            "cnn": models.CnnPredictor.initialize(self.seed),
            "lstm": models.LstmPredictor.initialize(self.seed),
        }
        ticks = world.sim_ticks
        nodes = core.eligible_points(spec, cfg)
        senders = [[p.id for p in core.neighbor_rows(spec, node, cfg) if p != node] for node in nodes]
        per_node = len(senders[0]) * ticks
        total = len(nodes) * per_node
        rng = np.random.default_rng([self.seed, 2])
        picks = rng.choice(total, size=max(1, round(DROP_SHARE * total)), replace=False)
        self.dropped = frozenset(
            (senders[j][r // ticks], nodes[j].id, r % ticks) for j, r in (divmod(int(i), per_node) for i in picks)
        )
        dropped = self.dropped
        self.drop = lambda sender, receiver, tick: (sender, receiver, tick) in dropped
        self.deliveries = total
        self.stale = {
            (t, receiver)
            for _, receiver, k in dropped
            for t in range(max(k, cfg.delta), min(k + cfg.delta, ticks - 1) + 1)
        }
        self.predicted = [
            (t, node.id) for node in nodes for t in range(cfg.delta, ticks) if (t, node.id) not in self.stale
        ]
        self.reference: dict[str, np.ndarray] | None = None

    def _central(self) -> None:
        """Predictions of the central pipeline for every predicted node-tick.

        Windowing the first ``sim_ticks + horizon`` slots yields exactly the
        snapshots of the replayed ticks, at a fraction of the full window's
        cost and memory.
        """
        world = self.world
        cfg = world.cfg
        length = world.sim_ticks + cfg.horizon_steps
        prefix = [
            ingestion.CleanSeries(s.point, s.values[:length], s.start, s.step_minutes) for s in self.series
        ]
        central = ingestion.window(prefix, world.job.spec, cfg)
        per_point = length - cfg.delta - cfg.horizon_steps
        position = {p.id: k for k, p in enumerate(world.job.spec.points)}
        subset = central.subset(
            [(position[pid] - cfg.n_in) * per_point + t - cfg.delta for t, pid in self.predicted]
        )
        self.reference = {
            kind: model.predict_dataset(subset, chunk=64) for kind, model in self.models.items()
        }
        self.snapshots = subset.snapshots

    def op(self):
        world = self.world
        times = {}
        logs = {}
        for kind, model in self.models.items():
            t0 = time.perf_counter()
            logs[kind] = simulation.run(
                self.series, world.job.spec, world.cfg, model, ticks=world.sim_ticks, drop=self.drop
            )
            times[f"sim_{kind}_s"] = time.perf_counter() - t0
        times["op_s"] = sum(times.values())
        return times, logs

    def check(self, logs, checks: Checks) -> None:
        world = self.world
        for kind, log in logs.items():
            records = log.records
            checks.expect(f"simulate.{kind}.node_ticks", len(records) == world.eligible * world.sim_ticks,
                          f"{len(records)} records")
            warmup = sum(r.skip_reason == simulation.SKIP_WARMUP for r in records)
            checks.expect(f"simulate.{kind}.warmup", warmup == world.eligible * world.cfg.delta, f"{warmup}")
            stale = {(r.tick, r.point_id) for r in records if (r.skip_reason or "").startswith(simulation.SKIP_STALE)}
            checks.expect(f"simulate.{kind}.stale", stale == self.stale,
                          f"{len(stale ^ self.stale)} node-ticks differ from the drop schedule")
            checks.expect(
                f"simulate.{kind}.messages",
                log.messages_dropped == len(self.dropped)
                and log.messages_delivered + log.messages_dropped == self.deliveries,
                f"{log.messages_delivered} delivered, {log.messages_dropped} dropped",
            )
            self._check_predictions(kind, log.predictions(), checks)

    def _check_predictions(self, kind: str, predictions: dict, checks: Checks) -> None:
        """Node predictions against the centrally windowed pipeline."""
        if self.reference is None:
            self._central()
        ok = set(predictions) == set(self.predicted)
        if ok:
            got = np.array([predictions[key] for key in self.predicted])
            ok = bool(np.all(np.abs(got - self.reference[kind]) <= TOL))
        checks.expect(f"simulate.{kind}.central", ok, "node predictions differ from the central pipeline")
        model = self.models[kind]
        sample = self.rng.choice(len(self.predicted), size=min(SAMPLE, len(self.predicted)), replace=False)
        same = ok and all(
            predictions[self.predicted[i]] == model.predict_snapshot(self.snapshots[i]) for i in sample
        )
        checks.expect(f"simulate.{kind}.bit_identical", same, "node prediction != single-sample predict")

    def stages(self, samples):
        node_ticks = self.world.eligible * self.world.sim_ticks
        return [
            (f"sim_{kind}_node_ticks_per_s", node_ticks / _median(samples, f"sim_{kind}_s"), "node-ticks/s", "higher")
            for kind in ("cnn", "lstm")
        ]


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Ingest, TrainEval, Simulate)}
