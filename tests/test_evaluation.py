"""Daily RMSE records, box-plot summaries, series extracts, report files."""

import os
import random
from datetime import date, time

import numpy as np
import pytest

from trafficflow import core, evaluation, ingestion
from trafficflow.models import PREDICT_CHUNK

from conftest import make_network_series


class StubPredictor:
    """Evaluation-side test double with a fixed prediction rule."""

    def __init__(self, fn):
        self._fn = fn

    def predict_dataset(self, dataset, chunk=PREDICT_CHUNK):
        return np.array([self._fn(s) for s in dataset.snapshots])


def _dataset(values=None, n_points=7, slots=None, seed=0):
    spec = core.chain_network(n_points, 60.0, n_in=2, m_out=2)
    cfg = core.SnapshotConfig(delta=2, n_in=2, m_out=2, step_minutes=240, horizon_steps=1)
    if values is None:
        slots = slots or 24  # four days at 240-minute steps
        values = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n_points, slots))
    series = make_network_series(values, spec, step_minutes=240)
    return ingestion.window(series, spec, cfg), cfg


def test_perfect_predictor_has_zero_rmse():
    ds, _ = _dataset()
    perfect = StubPredictor(lambda snap: snap.target)
    records = evaluation.daily_rmse(perfect.predict_dataset(ds), ds, "perfect")
    assert records and all(rec.rmse == 0.0 for rec in records)


def test_constant_half_on_alternating_targets_gives_point_one():
    # targets alternate 0.4 / 0.6, so every squared error is exactly 0.01
    n_points, slots = 5, 24
    values = np.zeros((n_points, slots))
    for t in range(slots):
        values[:, t] = 0.4 if t % 2 == 0 else 0.6
    ds, _ = _dataset(values=values, n_points=n_points)
    model = StubPredictor(lambda snap: 0.5)
    records = evaluation.daily_rmse(model.predict_dataset(ds), ds, "const")
    assert records and all(rec.rmse == pytest.approx(0.1, abs=1e-15) for rec in records)


def test_record_count_is_points_times_days():
    ds, _ = _dataset()
    records = evaluation.daily_rmse(StubPredictor(lambda s: 0.5).predict_dataset(ds), ds, "stub")
    points = {s.point.order_index for s in ds.snapshots}
    days = {s.timestamp.date() for s in ds.snapshots}
    assert len(records) == len(points) * len(days)


def test_rmse_invariant_under_snapshot_reordering():
    ds, _ = _dataset()
    shuffled = ds.subset(np.random.default_rng(3).permutation(ds.z))
    model = StubPredictor(lambda snap: float(snap.matrix[2, -1]))
    a = evaluation.daily_rmse(model.predict_dataset(ds), ds, "m")
    b = evaluation.daily_rmse(model.predict_dataset(shuffled), shuffled, "m")
    assert a == b


def test_boxplot_single_record_collapses():
    point = core.PointId("p", 0)
    rec = evaluation.DailyRmseRecord(point, date(2024, 1, 1), 0.25, "m")
    (summary,) = evaluation.boxplot_summary([rec])
    assert (summary.minimum, summary.q1, summary.median, summary.q3, summary.maximum) == (
        0.25, 0.25, 0.25, 0.25, 0.25,
    )
    assert summary.n_days == 1


def test_boxplot_linear_interpolation_quartiles():
    # hand-computed type-7 quartiles of [1, 2, 3, 4]:
    # h = (n - 1) q -> q1 at h = 0.75 -> 1.75; median 2.5; q3 at 2.25 -> 3.25
    point = core.PointId("p", 0)
    records = [
        evaluation.DailyRmseRecord(point, date(2024, 1, 1 + i), float(v), "m")
        for i, v in enumerate([1, 2, 3, 4])
    ]
    (summary,) = evaluation.boxplot_summary(records)
    assert summary.median == pytest.approx(2.5, abs=1e-15)
    assert summary.q1 == pytest.approx(1.75, abs=1e-15)
    assert summary.q3 == pytest.approx(3.25, abs=1e-15)
    assert summary.minimum == 1.0 and summary.maximum == 4.0


def test_boxplot_invariant_under_shuffling():
    point = core.PointId("p", 0)
    rng = random.Random(5)
    records = [
        evaluation.DailyRmseRecord(point, date(2024, 1, 1 + i), rng.random(), "m")
        for i in range(11)
    ]
    a = evaluation.boxplot_summary(records)
    shuffled = records[:]
    rng.shuffle(shuffled)
    b = evaluation.boxplot_summary(shuffled)
    assert a == b


def test_quartile_ordering_invariant():
    point = core.PointId("p", 0)
    records = [
        evaluation.DailyRmseRecord(point, date(2024, 1, 1 + i), float(v), "m")
        for i, v in enumerate(np.random.default_rng(0).uniform(0, 1, 9))
    ]
    (s,) = evaluation.boxplot_summary(records)
    assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum


def test_slot_series_one_entry_per_day():
    ds, _ = _dataset()
    point = next(p for p in ds.spec.points if p.order_index == 3)
    model = StubPredictor(lambda snap: 0.42)
    rows = evaluation.slot_series(model.predict_dataset(ds), ds, point, time(12, 0))
    days = sorted({s.timestamp.date() for s in ds.snapshots})
    assert [r[0] for r in rows] == days
    assert all(r[1] == 0.42 for r in rows)
    # actual values are the dataset targets verbatim
    targets = {
        s.timestamp.date(): s.target
        for s in ds.snapshots
        if s.point.order_index == 3 and s.timestamp.time() == time(12, 0)
    }
    assert all(r[2] == targets[r[0]] for r in rows)


def test_slot_series_empty_for_absent_slot():
    ds, _ = _dataset()
    point = next(p for p in ds.spec.points if p.order_index == 3)
    rows = evaluation.slot_series(np.full(ds.z, 0.5), ds, point, time(13, 37))
    assert rows == []


def test_slot_series_unknown_point():
    ds, _ = _dataset()
    with pytest.raises(evaluation.UnknownPointError) as err:
        evaluation.slot_series(np.full(ds.z, 0.5), ds, core.PointId("nope", 0), time(12, 0))
    assert str(err.value) == "point 'nope' has no snapshots in this dataset"


def test_persistence_predictor_repeats_center_condition():
    ds, cfg = _dataset()
    baseline = evaluation.PersistencePredictor(cfg)
    preds = baseline.predict_dataset(ds)
    for i, snap in enumerate(ds.snapshots):
        assert preds[i] == snap.matrix[cfg.n_in, -1]
        assert baseline.predict_snapshot(snap) == snap.matrix[cfg.n_in, -1]


def test_mae_contrast_splits_groups():
    ds, _ = _dataset()
    model = StubPredictor(lambda snap: min(snap.target + 0.1, 1.0))
    mask = np.zeros(ds.windows.grid.shape, dtype=bool)
    mask[2, 3:6] = True  # the targets of the first three snapshots: centre row 2, columns 2 to 4
    mask[0, :] = True  # no snapshot is centred on row 0
    mask[3, 2] = True  # the newest column, not the target, of centre row 3's first snapshot
    dip_mae, flat_mae, n_dip, n_flat = evaluation.mae_contrast(model.predict_dataset(ds), ds, mask)
    assert n_dip == 3 and n_flat == ds.z - 3
    errors = np.abs(model.predict_dataset(ds) - ds.targets())
    assert dip_mae == np.mean(errors[:3]) and flat_mae == np.mean(errors[3:])


@pytest.mark.parametrize("shape", [(7, 23), (6, 24), (7 * 24,)])
def test_mae_contrast_rejects_a_mask_of_another_shape(shape):
    ds, _ = _dataset()
    with pytest.raises(ValueError, match="shape"):
        evaluation.mae_contrast(np.full(ds.z, 0.5), ds, np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("figure", [
    lambda preds, ds: evaluation.daily_rmse(preds, ds, "m"),
    lambda preds, ds: evaluation.day_curve(preds, ds, ds.spec.points[3], date(2024, 1, 1)),
    lambda preds, ds: evaluation.slot_series(preds, ds, ds.spec.points[3], time(12, 0)),
    lambda preds, ds: evaluation.mae_contrast(preds, ds, np.zeros(ds.windows.grid.shape, dtype=bool)),
])
@pytest.mark.parametrize("shape_of", [lambda z: (1,), lambda z: (z - 1,), lambda z: (z, 1), lambda z: ()])
def test_figures_reject_a_prediction_column_of_another_shape(figure, shape_of):
    # a length-1 column would broadcast against the targets without the check
    ds, _ = _dataset()
    with pytest.raises(ValueError, match="predictions of shape"):
        figure(np.full(shape_of(ds.z), 0.5), ds)


def test_write_report_emits_documented_files(tmp_path):
    ds, _ = _dataset()
    models_map = {
        "stub_a": StubPredictor(lambda s: 0.5),
        "stub_b": StubPredictor(lambda s: float(s.matrix[2, -1])),
    }
    report = evaluation.evaluate_models(models_map, ds, slots=(time(12, 0),))
    # one prediction per model gives exactly what the public per-figure functions give
    point = next(p for p in ds.spec.points if p.id == report.notes["point"])
    curve_day = date.fromisoformat(report.notes["curve_date"])
    preds = {name: model.predict_dataset(ds) for name, model in models_map.items()}
    assert report.records == [
        rec for name, column in preds.items() for rec in evaluation.daily_rmse(column, ds, name)
    ]
    for name, column in preds.items():
        curve = evaluation.day_curve(column, ds, point, curve_day)
        slot = evaluation.slot_series(column, ds, point, time(12, 0))
        assert curve and slot
        assert report.curves[name] == curve
        assert report.slots["12:00"][name] == slot
    written = evaluation.write_report(report, tmp_path)
    names = {p.name for p in written}
    assert names == {"daily_rmse.csv", "boxplot.csv", "day_curve.csv", "slot_12:00.csv"}
    daily = (tmp_path / "daily_rmse.csv").read_text().splitlines()
    assert daily[0] == "point_id,order_index,date,model,rmse"
    assert len(daily) == 1 + len(report.records)
    box = (tmp_path / "boxplot.csv").read_text().splitlines()
    assert box[0].startswith("# quartiles: linear")
    assert box[1] == "point_id,order_index,model,min,q1,median,q3,max,n_days"
    curve = (tmp_path / "day_curve.csv").read_text().splitlines()
    assert curve[0] == "point_id,date,time,model,predicted,actual"
    slot = (tmp_path / "slot_12:00.csv").read_text().splitlines()
    assert slot[0] == "point_id,date,model,predicted,actual"


def test_write_report_leaves_no_partial_csv_when_a_rename_fails(tmp_path, monkeypatch):
    ds, _ = _dataset()
    report = evaluation.evaluate_models({"stub": StubPredictor(lambda s: 0.5)}, ds, slots=(time(12, 0),))
    evaluation.write_report(report, tmp_path / "whole")
    rows = (tmp_path / "whole" / "daily_rmse.csv").read_bytes()
    assert rows.count(b"\r\n") == rows.count(b"\n") == 1 + len(report.records)  # csv's row ends
    renames = []

    def replace_then_fail(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError("disk full")
        os.rename(src, dst)

    monkeypatch.setattr(os, "replace", replace_then_fail)
    with pytest.raises(OSError, match="disk full"):
        evaluation.write_report(report, tmp_path / "cut")
    # the first CSV is whole, the second is neither written nor left as a temp file
    assert [p.name for p in (tmp_path / "cut").iterdir()] == ["daily_rmse.csv"]
    assert (tmp_path / "cut" / "daily_rmse.csv").read_bytes() == rows


def test_write_report_deterministic(tmp_path):
    ds, _ = _dataset()
    model = {"stub": StubPredictor(lambda s: float(s.matrix[2, -1]))}
    r1 = evaluation.evaluate_models(model, ds, slots=(time(12, 0),))
    evaluation.write_report(r1, tmp_path / "a")
    r2 = evaluation.evaluate_models(model, ds, slots=(time(12, 0),))
    evaluation.write_report(r2, tmp_path / "b")
    for name in ("daily_rmse.csv", "boxplot.csv", "day_curve.csv", "slot_12:00.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
