#!/usr/bin/env python3
"""Run the bundled generalization benchmark end to end.

Synthesizes the 58-point / 48-day benchmark traffic, trains the CNN and the
stacked LSTM for 30 epochs on the first 20 eligible points, evaluates daily
RMSE on the remaining 30 points against the persistence baseline, and writes
the evaluation CSVs.

Usage:
    python scripts/run_benchmark.py [--data-seed 42] [--train-seed 123]
                                    [--lr 0.3] [--out-dir benchmark-out]
"""

import argparse
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from trafficflow import evaluation, ingestion, models, training


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-seed", type=int, default=42)
    parser.add_argument("--train-seed", type=int, default=123)
    parser.add_argument("--lr", type=float, default=0.3)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--out-dir", default="benchmark-out")
    args = parser.parse_args()

    profile_path = resources.files("trafficflow") / "profiles" / "benchmark.json"
    job = ingestion.load_profile(str(profile_path))
    print(f"synthesizing {len(job.spec)} points x {job.days} days (seed {args.data_seed})")
    series = ingestion.synth(job.profile, job.spec, job.days, args.data_seed, cfg=job.cfg, start=job.start)
    dataset = ingestion.window(series, job.spec, job.cfg)
    print(f"dataset: {dataset.z} snapshots")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    split_cfg = training.TrainConfig(split=training.by_point(20, 30))
    _, test_ds = training.split(dataset, split_cfg)
    predictors = {"persistence": evaluation.PersistencePredictor(dataset.config)}
    trained = {}
    for kind in ("cnn", "lstm"):
        cfg = training.TrainConfig(
            model=kind,
            epochs=args.epochs,
            lr=args.lr,
            seed=args.train_seed,
            split=training.by_point(20, 30),
            checkpoint_dir=out_dir / f"{kind}-checkpoints",
        )
        started = time.perf_counter()
        params, report = training.train(dataset, cfg)
        trained[kind] = (time.perf_counter() - started, report)
        models.save_file(params, out_dir / f"{kind}.tfmodel")
        predictors[kind] = models.build_predictor(params)

    # one evaluation gives every model's daily RMSE cells, persistence included
    report = evaluation.evaluate_models(predictors, test_ds)
    by_model: dict[str, list] = {}
    for rec in report.records:
        by_model.setdefault(rec.model, []).append(rec)
    base_by_cell = {(r.point.order_index, r.date): r.rmse for r in by_model["persistence"]}
    base_mean = float(np.mean(list(base_by_cell.values())))
    for kind, (took, train_report) in trained.items():
        records = by_model[kind]
        mean_rmse = float(np.mean([r.rmse for r in records]))
        wins = sum(1 for r in records if r.rmse < base_by_cell[(r.point.order_index, r.date)])
        print(
            f"[{kind}] {args.epochs} epochs in {took:.0f}s | final train loss "
            f"{train_report.epoch_losses[-1]:.5f} | test RMSE {train_report.final_test_rmse:.5f} | "
            f"mean daily RMSE {mean_rmse:.5f} vs persistence {base_mean:.5f} "
            f"(ratio {mean_rmse / base_mean:.3f}) | cell wins {wins}/{len(records)}"
        )

    for path in evaluation.write_report(report, out_dir):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
