"""The paper's two headline experiments, each implemented once: the
acceptance suite gates on their results and the scripts in ``scripts/``
print them.  Neither experiment writes checkpoints.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import time
from importlib import resources
from typing import Sequence
from unittest import mock

import numpy as np

from . import core, evaluation, ingestion, models, training

__all__ = [
    "PersistenceContrast",
    "Generalization",
    "RushHourSeed",
    "persistence_contrast",
    "generalization",
    "rush_hour",
]


@dataclass(frozen=True)
class PersistenceContrast:
    """One model's daily RMSE cells against the persistence forecast's."""

    mean_rmse: float
    persistence_mean: float
    wins: int  # cells where the model's RMSE is strictly lower
    cells: int


def persistence_contrast(records: Sequence[evaluation.DailyRmseRecord], model: str) -> PersistenceContrast:
    """Contrast ``model``'s records with the "persistence" records among
    ``records``, cell by (point, day) cell."""
    base = {(r.point.order_index, r.date): r.rmse for r in records if r.model == "persistence"}
    mine = [r for r in records if r.model == model]
    return PersistenceContrast(
        mean_rmse=float(np.mean([r.rmse for r in mine])),
        persistence_mean=float(np.mean(list(base.values()))),
        wins=sum(r.rmse < base[(r.point.order_index, r.date)] for r in mine),
        cells=len(mine),
    )


@dataclass
class Generalization:
    """What one generalization run produced."""

    job: ingestion.SynthJob
    dataset: ingestion.Dataset
    test_ds: ingestion.Dataset
    params: dict[str, models.ModelParams]
    reports: dict[str, training.TrainReport]
    evaluation: evaluation.EvalReport
    contrasts: dict[str, PersistenceContrast]


def generalization(data_seed: int = 42, train_seed: int = 123, lr: float = 0.3, epochs: int = 30) -> Generalization:
    """Synthesize the bundled benchmark, train both models on 20 points and
    evaluate them with the persistence forecast on the next 30."""
    job = ingestion.load_profile(str(resources.files("trafficflow") / "profiles" / "benchmark.json"))
    series = ingestion.synth(job.profile, job.spec, job.days, data_seed, cfg=job.cfg, start=job.start)
    dataset = ingestion.window(series, job.spec, job.cfg)
    configs = {
        kind: training.TrainConfig(model=kind, epochs=epochs, lr=lr, seed=train_seed, split=training.by_point(20, 30))
        for kind in ("cnn", "lstm")
    }
    # The two trainings are independent: one worker process each, with BLAS
    # pinned to one thread so that the workers do not contend for cores.
    # Spawned workers read the thread count from the environment at import.
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    with mock.patch.dict(os.environ, one_thread), ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        futures = {kind: pool.submit(training.train, dataset, cfg) for kind, cfg in configs.items()}
        results = {kind: future.result() for kind, future in futures.items()}
    _, test_ds = training.split(dataset, configs["cnn"])
    params = {kind: trained for kind, (trained, _) in results.items()}
    predictors = {
        "persistence": evaluation.PersistencePredictor(dataset.config),
        **{kind: models.build_predictor(trained) for kind, trained in params.items()},
    }
    report = evaluation.evaluate_models(predictors, test_ds)
    return Generalization(
        job=job,
        dataset=dataset,
        test_ds=test_ds,
        params=params,
        reports={kind: train_report for kind, (_, train_report) in results.items()},
        evaluation=report,
        contrasts={kind: persistence_contrast(report.records, kind) for kind in configs},
    )


@dataclass(frozen=True)
class RushHourSeed:
    """One seed's dip vs flat error contrast and fixed-slot series."""

    seed: int
    dip_mae: float
    flat_mae: float
    n_dip: int
    n_flat: int
    point: core.PointId
    rush: list[tuple]  # (date, predicted, actual) at 07:30
    light: list[tuple]  # the same at 12:00


def rush_hour(seeds: int = 5, epochs: int = 6, days: int = 6, lr: float = 0.5) -> list[RushHourSeed]:
    """Per seed: synthesize a 14-point world with two weekday dips, train a
    CNN on 3 points and contrast its error on the next 3."""
    spec = core.chain_network(14, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    profile = ingestion.SyntheticProfile(
        base_speed_ratio=0.93,
        dips=(
            ingestion.RushHourDip(14, 17, 0.5, days=(1, 2, 3, 4, 5), ramp_slots=2),
            ingestion.RushHourDip(33, 36, 0.4, days=(1, 2, 3, 4, 5), ramp_slots=2),
        ),
        noise_std=0.02,
        propagation_lag_steps=1,
    )
    mask = ingestion.dip_mask(profile, spec, days, cfg)
    point = spec.points[8]
    out = []
    for seed in range(seeds):
        dataset = ingestion.window(ingestion.synth(profile, spec, days, seed=100 + seed, cfg=cfg), spec, cfg)
        train_cfg = training.TrainConfig(model="cnn", epochs=epochs, lr=lr, seed=seed, split=training.by_point(3, 3))
        model = models.build_predictor(training.train(dataset, train_cfg)[0])
        _, test_ds = training.split(dataset, train_cfg)
        preds = model.predict_dataset(test_ds)
        out.append(
            RushHourSeed(
                seed,
                *evaluation.mae_contrast(preds, test_ds, mask),
                point=point,
                rush=evaluation.slot_series(preds, test_ds, point, time(7, 30)),
                light=evaluation.slot_series(preds, test_ds, point, time(12, 0)),
            )
        )
    return out
