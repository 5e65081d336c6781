#!/usr/bin/env python3
"""Rush-hour error contrast across seeds.

Generates small synthetic worlds with weekday rush-hour dips, trains a CNN
per seed, and reports mean absolute error on dip slots vs flat slots of the
held-out points, plus the fixed-slot series used for the rush-hour and
light-traffic figures.

Usage:
    python scripts/run_rush_hour_report.py [--seeds 5] [--epochs 6] [--days 6] [--lr 0.5]
"""

import argparse
import sys

from trafficflow import experiments


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--days", type=int, default=6)
    parser.add_argument("--lr", type=float, default=0.5)
    args = parser.parse_args()

    results = experiments.rush_hour(args.seeds, args.epochs, args.days, args.lr)
    for r in results:
        trend = "dip >= flat" if r.dip_mae >= r.flat_mae else "dip < flat"
        print(
            f"seed {r.seed}: dip MAE {r.dip_mae:.4f} ({r.n_dip} snaps) vs "
            f"flat MAE {r.flat_mae:.4f} ({r.n_flat} snaps)  [{trend}]"
        )
        if r.seed == 0:
            for label, series in (("07:30", r.rush), ("12:00", r.light)):
                print(f"  {label} series ({r.point.id}): " + ", ".join(
                    f"{d.isoformat()} pred {p:.3f} actual {a:.3f}" for d, p, a in series[:3]) + ", ...")

    hits = sum(r.dip_mae >= r.flat_mae for r in results)
    print(f"trend dip >= flat held on {hits} of {args.seeds} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
