"""Evaluation artifacts: daily RMSE tables, box-plot summaries, series extracts.

The evaluation metric is plain RMSE per (point, calendar day), independent
of which loss trained the model.  Quartiles use linear interpolation (the
numpy/"type 7" convention), fixed here and noted in the emitted files.
Reports are plot-ready delimited text; nothing here renders images.

Every figure reads ``preds``, one prediction per snapshot in dataset order;
a column of any shape but ``(dataset.z,)`` raises ValueError.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date as date_type
from datetime import datetime
from datetime import time as time_type
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import PointId, SnapshotConfig
from .ingestion import Dataset

__all__ = [
    "UnknownPointError",
    "DailyRmseRecord",
    "BoxplotSummary",
    "EvalReport",
    "PersistencePredictor",
    "daily_rmse",
    "boxplot_summary",
    "slot_series",
    "day_curve",
    "mae_contrast",
    "evaluate_models",
    "write_report",
]


class UnknownPointError(KeyError):
    """Requested point does not occur in the dataset."""

    def __str__(self) -> str:  # the message itself, not KeyError's repr of it
        return Exception.__str__(self)


@dataclass(frozen=True)
class DailyRmseRecord:
    point: PointId
    date: date_type
    rmse: float
    model: str


@dataclass(frozen=True)
class BoxplotSummary:
    point: PointId
    model: str
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    n_days: int


@dataclass
class EvalReport:
    """Everything the evaluate step emits, before formatting."""

    records: list[DailyRmseRecord]
    summaries: list[BoxplotSummary]
    curves: dict[str, list[tuple]]  # model -> day_curve rows
    slots: dict[str, dict[str, list[tuple]]]  # "HH:MM" -> model -> slot_series rows
    notes: dict = field(default_factory=dict)


class PersistencePredictor:
    """Trivial baseline: forecast the centre point's current condition."""

    kind = "persistence"

    def __init__(self, cfg: SnapshotConfig):
        self.center_row = cfg.n_in

    def predict(self, matrix: np.ndarray) -> float:
        return float(np.asarray(matrix)[self.center_row, -1])

    def predict_snapshot(self, snap) -> float:
        return self.predict(snap.matrix)

    def predict_dataset(self, dataset: Dataset) -> np.ndarray:
        w = dataset.windows
        return w.grid[w.centre, w.column]


def _column(preds, dataset: Dataset) -> np.ndarray:
    """``preds`` as an array, if it holds one prediction per snapshot."""
    preds = np.asarray(preds)
    if preds.shape != (dataset.z,):
        raise ValueError(f"predictions of shape {preds.shape}, expected ({dataset.z},)")
    return preds


def daily_rmse(preds: np.ndarray, dataset: Dataset, name: str) -> list[DailyRmseRecord]:
    """One RMSE record per (point, calendar day) present in the dataset."""
    sq_err = (_column(preds, dataset) - dataset.targets()) ** 2
    orders, days = dataset.point_order(), dataset.times().astype("datetime64[D]")

    # cells in (point, day) order, each cell's errors ascending: summing in
    # sorted order makes the statistic exactly independent of snapshot order
    rows = np.lexsort((sq_err, days, orders))
    orders, days, sq_err = orders[rows], days[rows], sq_err[rows]
    _, starts = np.unique(np.stack([orders, days.astype(np.int64)]), axis=1, return_index=True)
    ends = np.append(starts[1:], len(rows))
    by_point = {p.order_index: p for p in dataset.spec.points}
    return [
        DailyRmseRecord(
            point=by_point[int(orders[lo])],
            date=days[lo].item(),
            rmse=float(np.sqrt(np.mean(sq_err[lo:hi]))),
            model=name,
        )
        for lo, hi in zip(starts, ends)
    ]


def boxplot_summary(records: Sequence[DailyRmseRecord]) -> list[BoxplotSummary]:
    """Five-number summary of daily RMSE per (point, model).

    Quartiles use linear interpolation between order statistics.
    """
    groups: dict[tuple[int, str], list[DailyRmseRecord]] = {}
    for rec in records:
        groups.setdefault((rec.point.order_index, rec.model), []).append(rec)
    out = []
    for (order, model), recs in sorted(groups.items()):
        values = np.array([r.rmse for r in recs])
        q = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0], method="linear")
        out.append(
            BoxplotSummary(
                point=recs[0].point,
                model=model,
                minimum=float(q[0]),
                q1=float(q[1]),
                median=float(q[2]),
                q3=float(q[3]),
                maximum=float(q[4]),
                n_days=len(values),
            )
        )
    return out


def _point_rows(preds, dataset: Dataset, point: PointId, keep) -> list[tuple[datetime, float, float]]:
    """(timestamp, predicted, actual) of the point's snapshots whose
    timestamps pass ``keep`` (datetime64 array to mask), chronological."""
    preds = _column(preds, dataset)
    rows = np.flatnonzero(dataset.point_order() == point.order_index)
    if not rows.size:
        raise UnknownPointError(f"point {point.id!r} has no snapshots in this dataset")
    times = dataset.times()[rows]
    chosen = np.flatnonzero(keep(times))
    chosen = chosen[np.argsort(times[chosen], kind="stable")]
    targets = dataset.targets()
    return [(times[j].item(), float(preds[rows[j]]), float(targets[rows[j]])) for j in chosen]


def slot_series(
    preds: np.ndarray, dataset: Dataset, point: PointId, slot: time_type
) -> list[tuple[date_type, float, float]]:
    """(date, predicted, actual) at one fixed time of day, chronological."""
    offset = np.timedelta64(datetime.combine(date_type.min, slot) - datetime.min)
    rows = _point_rows(preds, dataset, point, lambda t: t - t.astype("datetime64[D]") == offset)
    return [(ts.date(), pred, actual) for ts, pred, actual in rows]


def day_curve(
    preds: np.ndarray, dataset: Dataset, point: PointId, day: date_type
) -> list[tuple[time_type, float, float]]:
    """(time, predicted, actual) across one calendar day for one point."""
    rows = _point_rows(preds, dataset, point, lambda t: t.astype("datetime64[D]") == np.datetime64(day))
    return [(ts.time(), pred, actual) for ts, pred, actual in rows]


def mae_contrast(preds: np.ndarray, dataset: Dataset, dip_mask: np.ndarray) -> tuple[float, float, int, int]:
    """Mean absolute error split into dip vs flat snapshots.

    ``dip_mask`` is a boolean (P, T) mask over the dataset's condition grid;
    a snapshot is a dip snapshot when its target's cell is set.  Returns
    (dip_mae, flat_mae, n_dip, n_flat) with NaN for an empty group.  Raises
    ValueError if the mask's shape is not the grid's.
    """
    w = dataset.windows
    if np.shape(dip_mask) != w.grid.shape:
        raise ValueError(f"dip mask shape {np.shape(dip_mask)} is not the grid's {w.grid.shape}")
    mask = np.asarray(dip_mask, dtype=bool)[w.centre, w.column + dataset.config.horizon_steps]
    abs_err = np.abs(_column(preds, dataset) - dataset.targets())
    dip = abs_err[mask]
    flat = abs_err[~mask]
    dip_mae = float(np.mean(dip)) if dip.size else float("nan")
    flat_mae = float(np.mean(flat)) if flat.size else float("nan")
    return dip_mae, flat_mae, int(dip.size), int(flat.size)


def _default_point(dataset: Dataset) -> PointId:
    orders = np.unique(dataset.point_order())
    if not orders.size:
        raise UnknownPointError("dataset has no snapshots")
    middle = int(orders[len(orders) // 2])
    return next(p for p in dataset.spec.points if p.order_index == middle)


def evaluate_models(
    predictors: dict[str, object],
    dataset: Dataset,
    slots: Sequence[time_type] = (time_type(7, 30), time_type(12, 0)),
    point: PointId | None = None,
    curve_day: date_type | None = None,
) -> EvalReport:
    """Full evaluation for one or more predictors over one test dataset.

    Each predictor predicts the dataset once; the records and every series
    are read from that one column.
    """
    point = point or _default_point(dataset)
    curve_day = curve_day or dataset.times().min().item().date()

    records: list[DailyRmseRecord] = []
    curves: dict[str, list[tuple]] = {}
    slot_rows: dict[str, dict[str, list[tuple]]] = {}
    for name, predictor in predictors.items():
        preds = predictor.predict_dataset(dataset)
        records.extend(daily_rmse(preds, dataset, name))
        curves[name] = day_curve(preds, dataset, point, curve_day)
        for slot in slots:
            slot_rows.setdefault(slot.strftime("%H:%M"), {})[name] = slot_series(preds, dataset, point, slot)
    return EvalReport(
        records=records,
        summaries=boxplot_summary(records),
        curves=curves,
        slots=slot_rows,
        notes={
            "point": point.id,
            "point_order": point.order_index,
            "curve_date": curve_day.isoformat(),
            "quartile_method": "linear interpolation between order statistics",
        },
    )


def _write_csv(path: Path, header: list[str], rows: Iterable[list], comment: str = "") -> Path:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(comment)
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _series_rows(by_model: dict[str, list[tuple]], *lead) -> Iterable[list]:
    """CSV rows of a series per model, models in sorted order."""
    return (
        [*lead, key.isoformat(), model, repr(pred), repr(actual)]
        for model in sorted(by_model)
        for key, pred, actual in by_model[model]
    )


def write_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Emit the report as one CSV per figure analogue; returns written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    point = report.notes["point"]
    written = [
        _write_csv(
            out_dir / "daily_rmse.csv",
            ["point_id", "order_index", "date", "model", "rmse"],
            ([r.point.id, r.point.order_index, r.date.isoformat(), r.model, repr(r.rmse)] for r in report.records),
        ),
        _write_csv(
            out_dir / "boxplot.csv",
            ["point_id", "order_index", "model", "min", "q1", "median", "q3", "max", "n_days"],
            (
                [s.point.id, s.point.order_index, s.model, *map(repr, (s.minimum, s.q1, s.median, s.q3, s.maximum)),
                 s.n_days]
                for s in report.summaries
            ),
            comment=f"# quartiles: {report.notes.get('quartile_method', 'linear')}\n",
        ),
        _write_csv(
            out_dir / "day_curve.csv",
            ["point_id", "date", "time", "model", "predicted", "actual"],
            _series_rows(report.curves, point, report.notes["curve_date"]),
        ),
    ]
    return written + [
        _write_csv(out_dir / f"slot_{label}.csv", ["point_id", "date", "model", "predicted", "actual"],
                   _series_rows(by_model, point))
        for label, by_model in sorted(report.slots.items())
    ]
