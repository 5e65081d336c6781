#!/usr/bin/env python3
"""Run the bundled generalization benchmark end to end.

Synthesizes the 58-point / 48-day benchmark traffic, trains the CNN and the
stacked LSTM for 30 epochs on the first 20 eligible points (one worker
process each), evaluates daily RMSE on the remaining 30 points against the
persistence baseline, and writes both model files and the evaluation CSVs.

Usage:
    python scripts/run_benchmark.py [--data-seed 42] [--train-seed 123]
                                    [--lr 0.3] [--epochs 30] [--out-dir benchmark-out]
"""

import argparse
import sys
from pathlib import Path

from trafficflow import evaluation, experiments, models


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-seed", type=int, default=42)
    parser.add_argument("--train-seed", type=int, default=123)
    parser.add_argument("--lr", type=float, default=0.3)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--out-dir", default="benchmark-out")
    args = parser.parse_args()

    run = experiments.generalization(args.data_seed, args.train_seed, args.lr, args.epochs)
    print(f"synthesized {len(run.job.spec)} points x {run.job.days} days (seed {args.data_seed})")
    print(f"dataset: {run.dataset.z} snapshots")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind, report in run.reports.items():
        models.save_file(run.params[kind], out_dir / f"{kind}.tfmodel")
        c = run.contrasts[kind]
        print(
            f"[{kind}] {args.epochs} epochs in {report.wall_time_s:.0f}s | final train loss "
            f"{report.epoch_losses[-1]:.5f} | test RMSE {report.final_test_rmse:.5f} | "
            f"mean daily RMSE {c.mean_rmse:.5f} vs persistence {c.persistence_mean:.5f} "
            f"(ratio {c.mean_rmse / c.persistence_mean:.3f}) | cell wins {c.wins}/{c.cells}"
        )
    for path in evaluation.write_report(run.evaluation, out_dir):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
