#!/usr/bin/env python3
"""Rush-hour error contrast across seeds.

Generates small synthetic worlds with weekday rush-hour dips, trains a CNN
per seed, and reports mean absolute error on dip slots vs flat slots of the
held-out points, plus the fixed-slot series used for the rush-hour and
light-traffic figures.

Usage:
    python scripts/run_rush_hour_report.py [--seeds 5] [--epochs 6]
"""

import argparse
import sys
from datetime import time

from trafficflow import core, evaluation, ingestion, models, training


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--days", type=int, default=6)
    parser.add_argument("--lr", type=float, default=0.5)
    args = parser.parse_args()

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
    mask = ingestion.dip_mask(profile, spec, args.days, cfg)
    position = {p.order_index: k for k, p in enumerate(spec.points)}

    trend_hits = 0
    for seed in range(args.seeds):
        series = ingestion.synth(profile, spec, args.days, seed=100 + seed, cfg=cfg)
        dataset = ingestion.window(series, spec, cfg)
        train_cfg = training.TrainConfig(
            model="cnn", epochs=args.epochs, lr=args.lr, seed=seed,
            split=training.by_point(3, 3),
        )
        params, _ = training.train(dataset, train_cfg)
        model = models.build_predictor(params)
        _, test_ds = training.split(dataset, train_cfg)

        def is_dip(i, test_ds=test_ds, start=series[0].start):
            snap = test_ds.snapshots[i]
            tick = int((snap.timestamp - start).total_seconds() // 1800)
            return bool(mask[position[snap.point.order_index], tick + cfg.horizon_steps])

        dip_mae, flat_mae, n_dip, n_flat = evaluation.mae_contrast(model, test_ds, is_dip)
        trend = "dip >= flat" if dip_mae >= flat_mae else "dip < flat"
        trend_hits += dip_mae >= flat_mae
        print(
            f"seed {seed}: dip MAE {dip_mae:.4f} ({n_dip} snaps) vs "
            f"flat MAE {flat_mae:.4f} ({n_flat} snaps)  [{trend}]"
        )

        point = next(p for p in test_ds.spec.points if p.order_index == 8)
        rush = evaluation.slot_series(model, test_ds, point, time(7, 30))
        light = evaluation.slot_series(model, test_ds, point, time(12, 0))
        if seed == 0:
            print(f"  07:30 series ({point.id}): " + ", ".join(
                f"{d.isoformat()} pred {p:.3f} actual {a:.3f}" for d, p, a in rush[:3]) + ", ...")
            print(f"  12:00 series ({point.id}): " + ", ".join(
                f"{d.isoformat()} pred {p:.3f} actual {a:.3f}" for d, p, a in light[:3]) + ", ...")

    print(f"trend dip >= flat held on {trend_hits} of {args.seeds} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
