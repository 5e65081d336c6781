"""Parsing, cleaning, context scalars, windowing, synthesis, dataset files."""

import io
import json
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trafficflow import core, ingestion
from trafficflow.serialization import (
    ChecksumError,
    ContainerFormatError,
    VersionMismatchError,
    read_container,
    write_container,
)

from conftest import START, make_clean, make_network_series


def _raw(point, samples, limit=100.0):
    return ingestion.RawSeries(point=point, samples=tuple(samples), speed_limit=limit)


P0 = core.PointId("d000", 0)


# ---------------------------------------------------------------------------
# parsing


def _assert_same_series(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.point == w.point and g.speed_limit == w.speed_limit
        assert np.array_equal(g.samples, w.samples)


def _file_text(manifest, rows):
    lines = [f"#point,{pid},{order},{limit}" for pid, order, limit in manifest]
    lines += [f"{pid},{ts},{speed}" for pid, ts, speed in rows]
    return "\n".join(lines) + "\n"


def test_parse_full_scale_file():
    # 58 detectors, 60 days of 5-minute slots, with sparse gaps
    stamps = [(START + timedelta(minutes=5 * i)).isoformat() for i in range(60 * 288)]
    lines = [f"#point,d{k:03d},{k},65.0" for k in range(58)]
    for k in range(58):
        det = f"d{k:03d}"
        for i, ts in enumerate(stamps):
            if (i + k) % 997 == 0:  # drop a few slots
                continue
            lines.append(f"{det},{ts},55.5")
    series = ingestion.read_detector_file(io.StringIO("\n".join(lines)))[1]
    assert len(series) == 58
    assert all(len(s.samples) <= 17280 for s in series)
    assert [s.point.order_index for s in series] == list(range(58))


def test_parse_empty_file_with_header():
    text = _file_text([("a", 0, 60.0), ("b", 1, 60.0)], [])
    assert ingestion.read_detector_file(io.StringIO(text))[1] == []


def test_parse_shuffled_rows_equal_sorted_rows():
    rows = [
        ("a", "2024-01-01T00:10:00", 50.0),
        ("a", "2024-01-01T00:00:00", 52.0),
        ("a", "2024-01-01T00:05:00", 48.0),
    ]
    manifest = [("a", 0, 60.0)]
    shuffled = ingestion.read_detector_file(io.StringIO(_file_text(manifest, rows)))[1]
    ordered = ingestion.read_detector_file(io.StringIO(_file_text(manifest, sorted(rows, key=lambda r: r[1]))))[1]
    _assert_same_series(shuffled, ordered)


@pytest.mark.parametrize("bad_line,match", [
    ("#point,a,0", "4 fields"),
    ("#point,a,zero,60", "not numeric"),
    ("#point,a,0,-5", "positive"),
    ("a,2024-01-01T00:00:00", "3 fields"),
    ("a,not-a-time,50", "timestamp"),
    ("a,2024-01-01T00:00:00+02:00,50", "timezone"),
    ("a,2024-01-01T00:00:00,fast", "speed"),
    ("a,2024-01-01T00:00:00,-1", "speed"),
])
def test_parse_format_errors_carry_line_numbers(bad_line, match):
    text = "#point,a,0,60.0\n" + bad_line + "\n"
    with pytest.raises(ingestion.FormatError, match=match) as err:
        ingestion.read_detector_file(io.StringIO(text))[1]
    assert err.value.line == 2


@pytest.mark.parametrize("stamps,line,printed", [
    (["2024-01-01T00:00:00", "2024-01-01T00:00:00"], 3, "2024-01-01 00:00:00"),
    # one instant written two ways; the later line is the repeat, in file order
    (["2024-01-01T00:10:00", "2024-01-01T00:05:00", "20240101T001000"], 4, "2024-01-01 00:10:00"),
    (["2024-01-01T00:00:00.250000", "2024-01-01 00:00:00.25"], 3, "2024-01-01 00:00:00.250000"),
])
def test_parse_duplicate_timestamp(stamps, line, printed):
    text = _file_text([("a", 0, 60.0)], [("a", ts, 50.0) for ts in stamps])
    with pytest.raises(ingestion.FormatError) as err:
        ingestion.read_detector_file(io.StringIO(text))[1]
    assert err.value.line == line
    assert str(err.value) == f"line {line}: duplicate timestamp {printed} for 'a'"


def test_parse_unknown_detector():
    text = _file_text([("a", 0, 60.0)], [("ghost", "2024-01-01T00:00:00", 50.0)])
    with pytest.raises(ingestion.UnknownDetectorError) as err:
        ingestion.read_detector_file(io.StringIO(text))[1]
    assert err.value.detector == "ghost"


@pytest.mark.parametrize("kind", ["path", "stream"])
def test_parse_skips_one_leading_byte_order_mark(tmp_path, kind):
    def read(text):
        if kind == "stream":
            return ingestion.read_detector_file(io.StringIO(text))
        path = tmp_path / "raw.csv"
        path.write_text(text, encoding="utf-8")
        return ingestion.read_detector_file(path)

    text = "\ufeff" + _file_text([("a", 0, 60.0)], [("a", "2024-01-01T00:00:00", 50.0)])
    spec, series = read(text)
    assert spec.points == (core.PointId("a", 0),)
    assert series[0].samples["speed"].tolist() == [50.0]
    # later lines keep their numbers
    with pytest.raises(ingestion.FormatError) as err:
        read(text + "a,not-a-time,50\n")
    assert str(err.value) == "line 3: bad timestamp 'not-a-time'"


def test_read_detector_file_builds_network(tmp_path):
    series_in = [
        _raw(core.PointId("a", 0), [(START, 30.0), (START + timedelta(minutes=5), 40.0)], 60.0),
        _raw(core.PointId("b", 1), [(START, 55.0), (START + timedelta(minutes=5), 45.0)], 50.0),
    ]
    path = tmp_path / "raw.csv"
    ingestion.write_raw_file(path, series_in)
    spec, series_out = ingestion.read_detector_file(path, n_in=1, m_out=0)
    assert spec.speed_limits == (60.0, 50.0)
    _assert_same_series(series_out, series_in)


def test_write_raw_file_reproduces_a_parsed_file(tmp_path):
    # the writer's canonical form: manifest by order, then rows by point and time
    text = (
        "#point,a,0,60.0\n#point,b,1,55.5\n"
        "a,2024-01-01T00:00:00,62.008452077001856\n"
        "a,2024-01-01T00:05:00,0.1\n"
        "a,2024-01-01T00:10:00.250000,1e-05\n"
        "b,2024-01-01T00:00:00,55.5\n"
        "b,2024-01-01T00:15:00,0.0\n"
    )
    source = tmp_path / "in.csv"
    source.write_text(text, encoding="utf-8")
    copy = tmp_path / "out.csv"
    series = ingestion.read_detector_file(source)[1]
    ingestion.write_raw_file(copy, series)
    assert copy.read_bytes() == source.read_bytes()
    # a numpy speed limit is written as a plain number too
    ingestion.write_raw_file(copy, [_raw(s.point, s.samples, np.float64(s.speed_limit)) for s in series])
    assert copy.read_bytes() == source.read_bytes()


def test_raw_series_samples_are_a_read_only_column_pair():
    series = _raw(P0, [(START, 30.0), (START + timedelta(minutes=5), 40.0)])
    assert series.samples.dtype.names == ("time", "speed")
    assert series.samples["time"].tolist() == [START, START + timedelta(minutes=5)]
    assert series.samples["speed"].tolist() == [30.0, 40.0]
    with pytest.raises(ValueError):
        series.samples["speed"][0] = 1.0


@pytest.mark.parametrize("samples,match", [
    ([(START, 30.0), (START, 40.0)], "strictly increasing"),
    ([(START + timedelta(minutes=5), 30.0), (START, 40.0)], "strictly increasing"),
    ([(START, float("nan"))], "finite"),
    ([(START, float("inf"))], "finite"),
    ([(START, -1.0)], ">= 0"),
])
def test_raw_series_rejects_bad_samples(samples, match):
    with pytest.raises(ValueError, match=match):
        _raw(P0, samples)


# ---------------------------------------------------------------------------
# cleaning


def test_clean_single_gap_uses_neighbor_mean():
    base = datetime(2024, 1, 4, 13, 45)
    cfg = core.SnapshotConfig(step_minutes=5)
    series = _raw(P0, [(base, 60.0), (base + timedelta(minutes=10), 70.0)], 100.0)
    out = ingestion.clean(series, cfg)
    assert out.values[1] == pytest.approx(0.65, abs=1e-12)
    assert out.values[0] == pytest.approx(0.60, abs=1e-12)
    assert out.values[2] == pytest.approx(0.70, abs=1e-12)


def test_clean_clamps_over_limit_speeds():
    cfg = core.SnapshotConfig(step_minutes=5)
    series = _raw(P0, [(START, 80.0)], limit=65.0)
    out = ingestion.clean(series, cfg)
    assert out.values[0] == 1.0


def test_clean_multi_slot_gap_linear_interpolation():
    cfg = core.SnapshotConfig(step_minutes=5)
    series = _raw(
        P0,
        [(START, 20.0), (START + timedelta(minutes=20), 60.0)],
        limit=100.0,
    )
    out = ingestion.clean(series, cfg)
    # oracle: straight line between 0.2 and 0.6 over four steps
    expected = np.interp(np.arange(5), [0, 4], [0.2, 0.6])
    np.testing.assert_allclose(out.values, expected, atol=1e-12)
    np.testing.assert_allclose(out.values, [0.2, 0.3, 0.4, 0.5, 0.6], atol=1e-12)


def test_clean_leading_and_trailing_gap_errors():
    cfg = core.SnapshotConfig(step_minutes=5)
    series = _raw(P0, [(START + timedelta(minutes=5), 50.0)], limit=100.0)
    span = (START, START + timedelta(minutes=5))
    with pytest.raises(ingestion.LeadingGapError) as err:
        ingestion.clean(series, cfg, span=span)
    assert str(err.value) == "d000: first sample 2024-01-01 00:05:00 after span start 2024-01-01 00:00:00"
    span = (START + timedelta(minutes=5), START + timedelta(minutes=10))
    with pytest.raises(ingestion.TrailingGapError) as err:
        ingestion.clean(series, cfg, span=span)
    assert str(err.value) == "d000: last sample 2024-01-01 00:05:00 before span end 2024-01-01 00:10:00"


def test_clean_off_grid_sample():
    cfg = core.SnapshotConfig(step_minutes=5)
    stamps = [START, START + timedelta(minutes=7, microseconds=500), START + timedelta(minutes=10)]
    series = _raw(P0, [(ts, 50.0) for ts in stamps], limit=100.0)
    with pytest.raises(ingestion.MisalignedSeriesError) as err:
        ingestion.clean(series, cfg)
    assert str(err.value) == "d000: sample at 2024-01-01 00:07:00.000500 off the slot grid"


def test_clean_is_idempotent_on_its_own_output():
    cfg = core.SnapshotConfig(step_minutes=5)
    rng = np.random.default_rng(0)
    stamps = [START + timedelta(minutes=5 * i) for i in range(20)]
    samples = [(ts, float(v)) for ts, v in zip(stamps, rng.uniform(10, 90, size=20)) if ts.minute != 30]
    first = ingestion.clean(_raw(P0, samples, limit=100.0), cfg)
    # the cleaned conditions as raw speeds against a unit speed limit
    second = ingestion.clean(_raw(P0, zip(stamps, first.values.tolist()), limit=1.0), cfg)
    np.testing.assert_array_equal(first.values, second.values)
    assert first.start == second.start


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.1, 1.1])
def test_clean_series_refuses_a_condition_outside_the_unit_interval(bad):
    # the replay delivers a tick's conditions without a per-message check,
    # so this is the check that keeps them in [0, 1]
    with pytest.raises(ValueError, match=r"^conditions must lie in \[0, 1\]$"):
        make_clean(P0, [0.5, bad, 0.5])


def test_clean_series_accepts_the_unit_interval_bounds():
    assert make_clean(P0, [0.0, 1.0, 0.5]).values.tolist() == [0.0, 1.0, 0.5]


# ---------------------------------------------------------------------------
# differential test against a per-row parser and cleaner


def _reference_parse(text):
    """The parser as one (datetime, speed, line) tuple per row; manifests are well-formed."""
    manifest, rows = {}, {}
    for line_no, raw_line in enumerate(io.StringIO(text), start=1):
        line = raw_line.strip()
        if line.startswith("#point,"):
            _, det_id, order, limit = line.split(",")
            manifest[det_id] = (int(order), float(limit))
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ingestion.FormatError(line_no, f"data row needs 3 fields, got {len(parts)}")
        det_id, ts_text, speed_text = parts
        if det_id not in manifest:
            raise ingestion.UnknownDetectorError(line_no, det_id)
        try:
            ts = datetime.fromisoformat(ts_text)
        except ValueError:
            raise ingestion.FormatError(line_no, f"bad timestamp {ts_text!r}") from None
        if ts.tzinfo is not None:
            raise ingestion.FormatError(line_no, "timestamps must be timezone-naive local time")
        try:
            speed = float(speed_text)
        except ValueError:
            raise ingestion.FormatError(line_no, f"bad speed {speed_text!r}") from None
        if not np.isfinite(speed) or speed < 0:
            raise ingestion.FormatError(line_no, f"speed must be finite and >= 0, got {speed}")
        rows.setdefault(det_id, []).append((ts, speed, line_no))
    series = []
    for det_id, (order, limit) in sorted(manifest.items(), key=lambda e: e[1][0]):
        det_rows = sorted(rows.get(det_id, []), key=lambda r: r[0])
        for (ts_a, _, _), (ts_b, _, line_b) in zip(det_rows, det_rows[1:]):
            if ts_b == ts_a:
                raise ingestion.FormatError(line_b, f"duplicate timestamp {ts_b} for {det_id!r}")
        if det_rows:
            series.append((core.PointId(det_id, order), [(ts, speed) for ts, speed, _ in det_rows], limit))
    return series


def _reference_clean(point, samples, limit, step_minutes, start, end):
    """Cleaning one sample at a time, over the span the CLI gives every series."""
    if samples[0][0] > start:
        raise ingestion.LeadingGapError(f"{point.id}: first sample {samples[0][0]} after span start {start}")
    if samples[-1][0] < end:
        raise ingestion.TrailingGapError(f"{point.id}: last sample {samples[-1][0]} before span end {end}")
    step = timedelta(minutes=step_minutes)
    n_steps, rem = divmod(end - start, step)
    if rem:
        raise ingestion.MisalignedSeriesError(f"span {start}..{end} not a multiple of {step_minutes} min")
    values = np.full(n_steps + 1, np.nan)
    for ts, speed in samples:
        offset, rem = divmod(ts - start, step)
        if rem:
            raise ingestion.MisalignedSeriesError(f"{point.id}: sample at {ts} off the slot grid")
        values[offset] = min(1.0, speed / limit)
    missing = np.isnan(values)
    if missing.any():
        present = np.flatnonzero(~missing)
        values[missing] = np.interp(np.flatnonzero(missing), present, values[present])
    return values


_ERRORS = (
    ingestion.FormatError, ingestion.UnknownDetectorError, ingestion.LeadingGapError,
    ingestion.TrailingGapError, ingestion.MisalignedSeriesError,
)


def _outcome(parse_and_clean, text):
    """The points, samples and grid rows bit for bit, or the error's class, line and text."""
    try:
        return parse_and_clean(text)
    except _ERRORS as err:
        return type(err), getattr(err, "line", None), str(err)


def _reference_outcome(text):
    series = _reference_parse(text)
    if not series:
        return []
    start = min(samples[0][0] for _, samples, _ in series)
    end = max(samples[-1][0] for _, samples, _ in series)
    return [
        (point, [ts for ts, _ in samples], np.array([v for _, v in samples]).tobytes(), limit,
         _reference_clean(point, samples, limit, 5, start, end).tobytes())
        for point, samples, limit in series
    ]


def _columnar_outcome(text):
    series = ingestion.read_detector_file(io.StringIO(text))[1]
    if not series:
        return []
    start = min(s.samples["time"][0] for s in series).item()
    end = max(s.samples["time"][-1] for s in series).item()
    cfg = core.SnapshotConfig(step_minutes=5)
    return [
        (s.point, s.samples["time"].tolist(), s.samples["speed"].tobytes(), s.speed_limit,
         ingestion.clean(s, cfg, span=(start, end)).values.tobytes())
        for s in series
    ]


def _stamp_texts(slot):
    ts = START + timedelta(minutes=5 * slot)
    return (ts.isoformat(), str(ts), ts.strftime("%Y%m%dT%H%M%S"), ts.isoformat(timespec="microseconds"))


_GOOD_SPEEDS = ("55.5", "30", "0", "-0.0", "80.25", "1e2", "12.345678901234567")
_BAD_ROWS = (
    ("x", "2024-01-01T00:00:00", "50"),  # unknown detector
    ("d0", "not-a-time", "50"),
    ("d0", "2024-01-01T00:05:00+01:00", "50"),  # an offset numpy would convert
    ("d0", "2024-01-01T00:07:00", "50"),  # off the 5-minute grid
    ("d0", "2024-01-01T00:05:00,1", "50"),  # a fourth field
    ("d0", "2024-01-01T00:05:00", "nan"),
    ("d0", "2024-01-01T00:05:00", "-1"),
    ("d0", "2024-01-01T00:05:00", "inf"),
    ("d0", "2024-01-01T00:05:00", "fast"),
)


@st.composite
def _raw_files(draw):
    limits = draw(st.lists(st.sampled_from(("60.0", "50.5", "1.0")), min_size=1, max_size=3))
    pad = draw(st.booleans())  # every detector spans slots 0..7, so the file cleans
    rows = []
    for k in range(len(limits)):
        slots = draw(st.sets(st.integers(0, 7), min_size=0 if k else 1)) | ({0, 7} if pad else set())
        rows += [(f"d{k}", draw(st.sampled_from(_stamp_texts(t))), draw(st.sampled_from(_GOOD_SPEEDS)))
                 for t in sorted(slots)]
    rows += draw(st.lists(st.sampled_from(_BAD_ROWS), max_size=1))
    rows += draw(st.lists(st.sampled_from(rows), max_size=1))  # a repeated stamp
    rows = draw(st.permutations(rows))
    lines = [f"#point,d{k},{k},{limit}" for k, limit in enumerate(limits)]
    return "\n".join(lines + [",".join(row) for row in rows]) + "\n"


@given(text=_raw_files())
@settings(max_examples=300, deadline=None)
def test_columnar_ingest_matches_the_per_row_reference(text):
    assert _outcome(_columnar_outcome, text) == _outcome(_reference_outcome, text)


# ---------------------------------------------------------------------------
# context scalars


@pytest.mark.parametrize("ts,expected_day,expected_time", [
    (datetime(2024, 1, 3, 14, 10), 0.5, 28 / 47),     # Wednesday mid-bucket
    (datetime(2024, 1, 7, 0, 0), 0.0, 0.0),           # Sunday midnight
    (datetime(2024, 1, 6, 23, 59), 1.0, 1.0),         # Saturday last bucket
])
def test_context_scalars(ts, expected_day, expected_time):
    day_value, time_value = ingestion.context_scalars(ts)
    assert day_value == pytest.approx(expected_day, abs=1e-15)
    assert time_value == pytest.approx(expected_time, abs=1e-15)


def test_context_scalars_bucket_is_constant_within_half_hour():
    lo = ingestion.context_scalars(datetime(2024, 1, 3, 14, 0))
    hi = ingestion.context_scalars(datetime(2024, 1, 3, 14, 29))
    nxt = ingestion.context_scalars(datetime(2024, 1, 3, 14, 30))
    assert lo == hi == (0.5, 28 / 47)
    assert nxt == (0.5, 29 / 47)


# ---------------------------------------------------------------------------
# windowing


def test_window_count_oracle():
    # sliding-window enumeration: T - delta - horizon snapshots per point
    spec = core.chain_network(17, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    values = np.random.default_rng(1).uniform(0, 1, size=(17, 10))
    ds = ingestion.window(make_network_series(values, spec), spec, cfg)
    eligible = core.eligible_points(spec, cfg)
    assert len(eligible) == 9
    assert ds.z == 9 * (10 - cfg.delta - cfg.horizon_steps) == 45
    per_point = {}
    for snap in ds.snapshots:
        per_point[snap.point.order_index] = per_point.get(snap.point.order_index, 0) + 1
    assert set(per_point.values()) == {5}


def test_window_cell_layout_and_target():
    spec = core.chain_network(9, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    values = np.random.default_rng(2).uniform(0, 1, size=(9, 7))
    ds = ingestion.window(make_network_series(values, spec), spec, cfg)
    center = 4
    for snap in ds.snapshots:
        t = int((snap.timestamp - START).total_seconds() // 1800)
        for r in range(9):
            np.testing.assert_array_equal(snap.matrix[r], values[r, t - 4 : t + 1])
        assert snap.target == values[center, t + 1]


def test_window_reproduces_printed_sample_matrix():
    # the 9x5 sample: rows L4..L1, S, R1..R4 with day 0.5 and time bucket 28
    sample = np.array([
        [0.5, 0.6, 0.4, 0.5, 0.3],
        [0.4, 0.7, 0.4, 0.8, 0.5],
        [0.2, 0.9, 0.3, 0.3, 0.4],
        [0.4, 0.7, 0.5, 0.6, 0.5],
        [0.3, 0.8, 0.1, 0.8, 0.9],
        [0.5, 0.6, 0.5, 0.4, 0.3],
        [0.4, 0.7, 0.3, 0.9, 0.5],
        [0.5, 0.6, 0.5, 0.4, 0.3],
        [0.4, 0.7, 0.3, 0.9, 0.5],
    ])
    spec = core.chain_network(9, 10.0)
    cfg = core.SnapshotConfig(step_minutes=5)
    start = datetime(2024, 1, 3, 13, 40)  # Wednesday; column t lands on 14:00
    target_value = 0.7
    raw_series = []
    for k, point in enumerate(spec.points):
        speeds = [v * 10.0 for v in sample[k]] + [target_value * 10.0]
        samples = [(start + timedelta(minutes=5 * i), s) for i, s in enumerate(speeds)]
        raw_series.append(_raw(point, samples, limit=10.0))
    cleaned = [ingestion.clean(s, cfg) for s in raw_series]
    ds = ingestion.window(cleaned, spec, cfg)
    assert ds.z == 1
    snap = ds.snapshots[0]
    np.testing.assert_array_equal(snap.matrix, sample)
    assert np.shares_memory(snap.matrix, ds.windows.grid)  # a view, not a copy
    assert snap.day_value == 0.5
    assert snap.time_value == 28 / 47
    assert snap.target == target_value
    assert snap.timestamp == datetime(2024, 1, 3, 14, 0)


def test_window_rejects_misaligned_series(small_spec, cfg30):
    values = np.random.default_rng(3).uniform(0, 1, size=(12, 8))
    series = make_network_series(values, small_spec)
    series[3] = make_clean(small_spec.points[3], values[3], start=START + timedelta(minutes=30))
    with pytest.raises(ingestion.MisalignedSeriesError):
        ingestion.window(series, small_spec, cfg30)


def test_window_requires_every_network_point(small_spec, cfg30):
    values = np.random.default_rng(4).uniform(0, 1, size=(12, 8))
    series = make_network_series(values, small_spec)[:-1]
    with pytest.raises(ingestion.MisalignedSeriesError, match="missing"):
        ingestion.window(series, small_spec, cfg30)


def test_window_shift_equivariance(small_spec, cfg30):
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 1, size=(12, 9))
    extended = np.concatenate([values, rng.uniform(0, 1, size=(12, 1))], axis=1)
    base = ingestion.window(make_network_series(values, small_spec), small_spec, cfg30)
    longer = ingestion.window(make_network_series(extended, small_spec), small_spec, cfg30)
    eligible = len(core.eligible_points(small_spec, cfg30))
    assert longer.z == base.z + eligible
    base_keys = {(s.point.order_index, s.timestamp): s for s in base.snapshots}
    for snap in longer.snapshots:
        key = (snap.point.order_index, snap.timestamp)
        if key in base_keys:
            old = base_keys[key]
            np.testing.assert_array_equal(snap.matrix, old.matrix)
            assert snap.target == old.target


def test_window_adjacent_point_rows_overlap(small_spec, cfg30):
    values = np.random.default_rng(6).uniform(0, 1, size=(12, 8))
    ds = ingestion.window(make_network_series(values, small_spec), small_spec, cfg30)
    by_key = {(s.point.order_index, s.timestamp): s for s in ds.snapshots}
    n = cfg30.n_in
    for (order, ts), snap in by_key.items():
        left = by_key.get((order - 1, ts))
        if left is not None:
            np.testing.assert_array_equal(snap.matrix[n - 1], left.matrix[n])


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25)
def test_window_values_stay_on_grids(seed):
    spec = core.chain_network(7, 60.0, n_in=2, m_out=2)
    cfg = core.SnapshotConfig(delta=2, n_in=2, m_out=2, step_minutes=30, horizon_steps=1)
    values = np.random.default_rng(seed).uniform(0, 1, size=(7, 6))
    ds = ingestion.window(make_network_series(values, spec), spec, cfg)
    for snap in ds.snapshots:
        assert snap.matrix.min() >= 0.0 and snap.matrix.max() <= 1.0
        assert 0.0 <= snap.target <= 1.0
        assert abs(snap.day_value * 6 - round(snap.day_value * 6)) < 1e-9
        assert abs(snap.time_value * 47 - round(snap.time_value * 47)) < 1e-9


# ---------------------------------------------------------------------------
# synthesis


def test_synth_constant_profile():
    spec = core.chain_network(5, 60.0, n_in=1, m_out=1)
    profile = ingestion.SyntheticProfile(base_speed_ratio=0.8)
    series = ingestion.synth(profile, spec, days=1, seed=0, cfg=core.SnapshotConfig(step_minutes=30))
    for s in series:
        np.testing.assert_array_equal(s.values, np.full(48, 0.8))


def test_synth_deterministic_for_fixed_seed():
    spec = core.chain_network(6, 60.0)
    profile = ingestion.SyntheticProfile(0.9, (ingestion.RushHourDip(10, 12, 0.3),), 0.05, 1)
    cfg = core.SnapshotConfig(step_minutes=30)
    a = ingestion.synth(profile, spec, days=2, seed=9, cfg=cfg)
    b = ingestion.synth(profile, spec, days=2, seed=9, cfg=cfg)
    for s1, s2 in zip(a, b):
        np.testing.assert_array_equal(s1.values, s2.values)
    c = ingestion.synth(profile, spec, days=2, seed=10, cfg=cfg)
    assert any(not np.array_equal(s1.values, s3.values) for s1, s3 in zip(a, c))


def test_synth_dip_propagates_downstream_by_lag():
    spec = core.chain_network(4, 60.0, n_in=0, m_out=0)
    profile = ingestion.SyntheticProfile(
        base_speed_ratio=0.9,
        dips=(ingestion.RushHourDip(15, 17, 0.4, days=(1,), ramp_slots=0),),  # Monday only
        noise_std=0.0,
        propagation_lag_steps=1,
    )
    cfg = core.SnapshotConfig(step_minutes=30)
    series = ingestion.synth(profile, spec, days=1, seed=0, cfg=cfg)  # starts Monday
    for k, s in enumerate(series):
        dipped = set(np.flatnonzero(s.values < 0.9 - 1e-12))
        assert dipped == {15 + k, 16 + k, 17 + k}
        np.testing.assert_allclose(s.values[15 + k : 18 + k], 0.5, atol=1e-12)


def test_synth_respects_weekday_mask():
    spec = core.chain_network(1, 60.0, n_in=0, m_out=0)
    profile = ingestion.SyntheticProfile(
        base_speed_ratio=0.9,
        dips=(ingestion.RushHourDip(5, 6, 0.2, days=(1, 2, 3, 4, 5)),),
        propagation_lag_steps=0,
    )
    cfg = core.SnapshotConfig(step_minutes=30)
    series = ingestion.synth(profile, spec, days=7, seed=0, cfg=cfg)[0]
    per_day = series.values.reshape(7, 48)
    # start is a Monday: five weekday dips, then a flat weekend
    for d in range(5):
        assert per_day[d, 5] < 0.9
    for d in (5, 6):
        np.testing.assert_array_equal(per_day[d], np.full(48, 0.9))


def test_synth_clamps_to_unit_interval():
    spec = core.chain_network(1, 60.0, n_in=0, m_out=0)
    profile = ingestion.SyntheticProfile(0.3, (ingestion.RushHourDip(0, 47, 0.9, days=tuple(range(7))),), 0.2, 0)
    series = ingestion.synth(profile, spec, days=1, seed=1, cfg=core.SnapshotConfig(step_minutes=30))[0]
    assert series.values.min() >= 0.0 and series.values.max() <= 1.0


def test_dip_mask_matches_dip_slots():
    spec = core.chain_network(3, 60.0, n_in=0, m_out=0)
    profile = ingestion.SyntheticProfile(
        0.9, (ingestion.RushHourDip(10, 11, 0.4, days=(1,), ramp_slots=1),), 0.0, 1
    )
    cfg = core.SnapshotConfig(step_minutes=30)
    mask = ingestion.dip_mask(profile, spec, 1, cfg)
    assert set(np.flatnonzero(mask[0])) == {9, 10, 11, 12}
    assert set(np.flatnonzero(mask[1])) == {10, 11, 12, 13}


def _dip_depths_loop(profile, spec, days, cfg, start):
    """Reference: every point, dip, day and profile slot in turn."""
    per_day = 24 * 60 // cfg.step_minutes
    n_slots = days * per_day
    depths = np.zeros((len(spec.points), n_slots))
    weekday_values = [((start + timedelta(days=d)).weekday() + 1) % 7 for d in range(days)]
    for k in range(len(spec.points)):
        shift = profile.propagation_lag_steps * k
        for dip in profile.dips:
            profile_slots = []
            for j in range(dip.ramp_slots):
                frac = (j + 1) / (dip.ramp_slots + 1)
                profile_slots.append((dip.start_slot - dip.ramp_slots + j, dip.depth * frac))
            for s in range(dip.start_slot, dip.end_slot + 1):
                profile_slots.append((s, dip.depth))
            for j in range(dip.ramp_slots):
                frac = (dip.ramp_slots - j) / (dip.ramp_slots + 1)
                profile_slots.append((dip.end_slot + 1 + j, dip.depth * frac))
            for d in range(days):
                if weekday_values[d] not in dip.days:
                    continue
                base_slot = d * per_day + shift
                for rel, depth in profile_slots:
                    abs_slot = base_slot + rel
                    if 0 <= abs_slot < n_slots:
                        depths[k, abs_slot] = max(depths[k, abs_slot], depth)
    return depths


_dips = st.builds(
    lambda start, length, depth, days, ramp: ingestion.RushHourDip(start, start + length, depth, tuple(days), ramp),
    st.integers(-30, 60), st.integers(0, 12), st.floats(0.01, 1.0), st.sets(st.integers(0, 6)), st.integers(0, 5),
)


@given(
    dips=st.lists(_dips, max_size=3),
    points=st.integers(0, 6),
    lag=st.integers(0, 6),
    step=st.sampled_from([30, 60, 240, 1440]),
    days=st.integers(1, 9),
    first_day=st.integers(0, 6),
)
@settings(max_examples=200, deadline=None)
def test_dip_depths_match_the_per_slot_loop(dips, points, lag, step, days, first_day):
    profile = ingestion.SyntheticProfile(0.9, tuple(dips), 0.0, lag)
    spec = core.chain_network(points, 60.0, n_in=0, m_out=0)
    cfg = core.SnapshotConfig(step_minutes=step)
    start = datetime(2024, 1, 1) + timedelta(days=first_day)
    got = ingestion._dip_depths(profile, spec, days, cfg, start)
    want = _dip_depths_loop(profile, spec, days, cfg, start)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("build", [
    lambda: ingestion.RushHourDip(10, 12, "0.5"),
    lambda: ingestion.RushHourDip("10", 12, 0.5),
    lambda: ingestion.RushHourDip(10, 12, 0.5, days=5),
    lambda: ingestion.RushHourDip(10, 12, 0.5, ramp_slots=True),
    lambda: ingestion.SyntheticProfile(base_speed_ratio="0.9"),
    lambda: ingestion.SyntheticProfile(propagation_lag_steps=1.0),
])
def test_profile_values_of_another_type_are_value_errors(build):
    with pytest.raises(ValueError, match="must be"):
        build()


def test_profile_of_a_point_count_and_days_takes_every_other_default(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"network": {"points": 9}, "days": 1}))
    job = ingestion.load_profile(path)
    assert job.spec == core.chain_network(9, 65.0)
    assert (job.cfg, job.profile, job.days) == (core.SnapshotConfig(), ingestion.SyntheticProfile(), 1)
    assert job.start == datetime(2024, 1, 1)


@pytest.mark.parametrize("change,message", [
    ({"days": None}, r"profile .*profile\.json lacks the required field 'days'"),
    ({"start": "not-a-date"}, "start must be an ISO timestamp string, got 'not-a-date'"),
], ids=["missing-days", "bad-start"])
def test_profile_without_days_or_with_a_bad_start_names_the_field(tmp_path, change, message):
    doc = {"network": {"points": 9}, "days": 1}
    doc = {key: value for key, value in {**doc, **change}.items() if value is not None}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        ingestion.load_profile(path)


# ---------------------------------------------------------------------------
# dataset round trip


def _build_dataset(seed=0):
    spec = core.chain_network(12, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    profile = ingestion.SyntheticProfile(0.9, (ingestion.RushHourDip(10, 13, 0.5, ramp_slots=1),), 0.02, 1)
    series = ingestion.synth(profile, spec, days=2, seed=seed, cfg=cfg)
    return ingestion.window(series, spec, cfg)


def test_dataset_round_trip_bit_exact(tmp_path):
    ds = _build_dataset()
    path = tmp_path / "data.tfds"
    ingestion.save_dataset(ds, path)
    loaded = ingestion.load_dataset(path)
    assert loaded.z == ds.z
    assert loaded.config == ds.config
    assert loaded.spec == ds.spec
    for a, b in zip(ds.snapshots, loaded.snapshots):
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert (a.day_value, a.time_value, a.target) == (b.day_value, b.time_value, b.target)
        assert (a.point, a.timestamp) == (b.point, b.timestamp)
    assert loaded.series is not None
    for s1, s2 in zip(ds.series, loaded.series):
        np.testing.assert_array_equal(s1.values, s2.values)
        assert (s1.start, s1.step_minutes, s1.point) == (s2.start, s2.step_minutes, s2.point)


def test_dataset_save_is_deterministic(tmp_path):
    ds = _build_dataset()
    assert ingestion.dataset_to_bytes(ds) == ingestion.dataset_to_bytes(_build_dataset())


def test_a_dataset_from_fresh_arrays_copies_none_of_them(monkeypatch):
    # a loaded file's arrays and a subset's index arrays belong to the new
    # dataset alone, so it holds them read-only as they are
    blob = ingestion.dataset_to_bytes(_build_dataset())
    copied = []

    def read_only(array):
        held = core.read_only(array)
        if held is not array:
            copied.append(array.shape)
        return held

    monkeypatch.setattr(ingestion, "read_only", read_only)
    loaded = ingestion.dataset_from_bytes(blob)
    subsets = [loaded.subset(rows) for rows in (np.arange(0, loaded.z, 3), [0, 2], slice(1, 9))]
    assert copied == []
    for dataset in (loaded, *subsets):
        grid, _, centre, column = dataset.windows
        assert not (grid.flags.writeable or centre.flags.writeable or column.flags.writeable)
    assert np.array_equal(subsets[1].windows.centre, loaded.windows.centre[[0, 2]])


def test_dataset_truncated_fails_checksum():
    blob = ingestion.dataset_to_bytes(_build_dataset())
    with pytest.raises(ChecksumError):
        ingestion.dataset_from_bytes(blob[:-10])


def test_dataset_bad_magic():
    blob = ingestion.dataset_to_bytes(_build_dataset())
    with pytest.raises(ContainerFormatError):
        ingestion.dataset_from_bytes(b"NOT-A-DATASET" + blob)


def test_dataset_version_mismatch():
    ds = _build_dataset()
    arrays = ds.arrays()
    from trafficflow.serialization import write_container

    blob = write_container(ingestion.DATASET_MAGIC, 99, {"kind": "dataset"}, [("matrix", arrays["matrix"])])
    with pytest.raises(VersionMismatchError):
        ingestion.dataset_from_bytes(blob)


def test_dataset_without_targets_never_emitted():
    # series exactly delta + 1 slots long: no future slot, so no snapshots
    spec = core.chain_network(9, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    values = np.random.default_rng(8).uniform(0, 1, size=(9, 5))
    ds = ingestion.window(make_network_series(values, spec), spec, cfg)
    assert ds.z == 0


@pytest.mark.parametrize("version", [1, 2])
def test_dataset_file_of_an_older_version_rejected(version):
    # version 1 stored one stacked copy of every snapshot field; version 2
    # stored each network point as a list, not as NetworkSpec's fields
    arrays = _build_dataset().arrays()
    blob = write_container(ingestion.DATASET_MAGIC, version, {"kind": "dataset"}, list(arrays.items()))
    with pytest.raises(VersionMismatchError, match=f"^format version {version}, expected 3$"):
        ingestion.dataset_from_bytes(blob)


def _dataset_blob(**arrays):
    """A correctly checksummed dataset file with some arrays replaced."""
    blob = ingestion.dataset_to_bytes(_build_dataset())
    header, stored = read_container(blob, ingestion.DATASET_MAGIC, ingestion.DATASET_FORMAT_VERSION)
    stored.update(arrays)
    return write_container(ingestion.DATASET_MAGIC, ingestion.DATASET_FORMAT_VERSION, header, list(stored.items()))


def _stored_arrays():
    w = _build_dataset().windows
    return w.grid.copy(), w.centre.copy(), w.column.copy()


def _condition_above_one():
    grid, _, _ = _stored_arrays()
    grid[3, 7] = 1.5
    return {"grid": grid}, r"\[0, 1\]"


def _condition_nan():
    grid, _, _ = _stored_arrays()
    grid[0, 0] = np.nan
    return {"grid": grid}, r"\[0, 1\]"


def _grid_row_missing():
    grid, _, _ = _stored_arrays()
    return {"grid": grid[:-1]}, "rows"


def _centre_past_last_eligible():
    _, centre, _ = _stored_arrays()
    centre[-1] = 8  # 12 points, m_out = 4: centres stop at 7
    return {"centre": centre}, "centre indices"


def _negative_column():
    _, _, column = _stored_arrays()
    column[0] = -1
    return {"column": column}, "column indices"


def _column_without_target():
    _, _, column = _stored_arrays()
    column[0] = 95  # 96 slots, horizon 1: the last column has no target
    return {"column": column}, "column indices"


def _float_index():
    _, _, column = _stored_arrays()
    return {"column": column.astype(np.float64)}, "integer"


def _unequal_index_lengths():
    _, centre, _ = _stored_arrays()
    return {"centre": centre[:-1]}, "lengths differ"


@pytest.mark.parametrize("fault", [
    _condition_above_one, _condition_nan, _grid_row_missing, _centre_past_last_eligible,
    _negative_column, _column_without_target, _float_index, _unequal_index_lengths,
])
def test_dataset_file_content_checked_at_load(fault):
    arrays, message = fault()
    with pytest.raises(ValueError, match=message):
        ingestion.dataset_from_bytes(_dataset_blob(**arrays))


def test_dataset_file_is_grid_plus_two_index_arrays():
    ds = _build_dataset()
    header, arrays = read_container(ingestion.dataset_to_bytes(ds), ingestion.DATASET_MAGIC,
                                    ingestion.DATASET_FORMAT_VERSION)
    assert list(arrays) == ["grid", "centre", "column"]
    assert arrays["grid"].shape == (12, 96) and arrays["centre"].shape == arrays["column"].shape == (ds.z,)
    assert header["start"] == "2024-01-01T00:00:00"
    # the header holds the declared types' own fields and nothing else
    assert sorted(header) == ["config", "network", "start"]
    assert header["config"] == {"delta": 4, "n_in": 4, "m_out": 4, "step_minutes": 30, "horizon_steps": 1}
    network = header["network"]
    assert network["points"] == [{"id": f"d{k:03d}", "order_index": k} for k in range(12)]
    assert (network["speed_limits"], network["n_in"], network["m_out"]) == ([60.0] * 12, 4, 4)


def test_benchmark_contract_calls():
    # the Dataset calls that perfbench/workloads.py makes
    ds = _build_dataset()
    want = ds.arrays()
    assert list(want) == ["matrix", "day", "time", "target", "point_order", "timestamp"]
    assert ds.z == len(ds.snapshots) == len(want["target"])
    block = ingestion.Dataset(ds.snapshots[5:40], ds.config, ds.spec)
    assert block.z == 35
    got = block.arrays()
    for key in want:
        assert np.array_equal(want[key][5:40], got[key]), key

    picked = [30, 2, 2, ds.z - 1]
    sub = ds.subset(picked)
    assert sub.z == 4
    for j, i in enumerate(picked):
        a, b = ds.snapshots[i], sub.snapshots[j]
        assert np.array_equal(a.matrix, b.matrix)
        assert (a.day_value, a.time_value, a.target, a.point, a.timestamp) == (
            b.day_value, b.time_value, b.target, b.point, b.timestamp,
        )
    assert np.array_equal(sub.arrays()["matrix"], want["matrix"][picked])
    assert len(sub.series) == len(ds.spec.points)
    for k, s in enumerate(sub.series):
        assert np.array_equal(s.values, ds.series[k].values)


# ---------------------------------------------------------------------------
# the grid-backed dataset against the per-object windowing loop


def _reference_window(series, spec, cfg):
    """One validated PointSnapshot per window, built in a loop."""
    values = np.stack([s.values for s in series])
    step = timedelta(minutes=cfg.step_minutes)
    snapshots = []
    for k, point in enumerate(spec.points):
        if k - cfg.n_in < 0 or k + cfg.m_out > len(spec.points) - 1:
            continue
        block = values[k - cfg.n_in : k + cfg.m_out + 1]
        for t in range(cfg.delta, values.shape[1] - cfg.horizon_steps):
            ts = series[0].start + step * t
            day_value, time_value = ingestion.context_scalars(ts)
            snapshots.append(
                core.PointSnapshot(
                    matrix=block[:, t - cfg.delta : t + 1].copy(),
                    day_value=day_value,
                    time_value=time_value,
                    target=float(values[k, t + cfg.horizon_steps]),
                    point=point,
                    timestamp=ts,
                )
            )
    return snapshots


def _reference_arrays(snapshots, cfg):
    """The snapshot fields stacked from the objects."""
    epoch = datetime(1970, 1, 1)
    return {
        "matrix": np.stack([s.matrix for s in snapshots]) if snapshots else np.zeros((0, cfg.rows, cfg.cols)),
        "day": np.array([s.day_value for s in snapshots], dtype=np.float64),
        "time": np.array([s.time_value for s in snapshots], dtype=np.float64),
        "target": np.array([s.target for s in snapshots], dtype=np.float64),
        "point_order": np.array([s.point.order_index for s in snapshots], dtype=np.int64),
        "timestamp": np.array([int((s.timestamp - epoch).total_seconds()) for s in snapshots], dtype=np.int64),
    }


def _assert_matches_reference(ds, reference, cfg):
    assert ds.z == len(reference)
    for got, want in zip(ds.snapshots, reference):
        assert got.matrix.tobytes() == want.matrix.tobytes() and got.matrix.shape == want.matrix.shape
        assert (got.day_value, got.time_value, got.target, got.point, got.timestamp) == (
            want.day_value, want.time_value, want.target, want.point, want.timestamp,
        )
    got, want = ds.arrays(), _reference_arrays(reference, cfg)
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype and got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


@st.composite
def _worlds(draw):
    n_in = draw(st.integers(0, 3))
    m_out = draw(st.integers(0, 3).filter(lambda m: m != n_in))
    cfg = core.SnapshotConfig(
        delta=draw(st.integers(1, 3)),
        n_in=n_in,
        m_out=m_out,
        step_minutes=draw(st.sampled_from([5, 7, 30, 45, 240, 1440])),
        horizon_steps=draw(st.integers(2, 3)),
    )
    # the smallest draws leave no eligible point or no known target
    n_points = draw(st.integers(n_in + m_out, n_in + m_out + 3))
    n_slots = draw(st.integers(cfg.delta + cfg.horizon_steps, cfg.delta + cfg.horizon_steps + 10))
    grid = draw(hnp.arrays(np.float64, (n_points, n_slots), elements=st.floats(0.0, 1.0)))
    # off midnight, and the series crosses the Saturday -> Sunday boundary
    before = draw(st.integers(1, (n_slots - 1) * cfg.step_minutes))
    start = datetime(2024, 1, 7) - timedelta(minutes=before) + timedelta(seconds=draw(st.integers(1, 59)))
    spec = core.chain_network(n_points, 60.0, n_in=n_in, m_out=m_out)
    series = make_network_series(grid, spec, start=start, step_minutes=cfg.step_minutes)
    rows = draw(st.lists(st.integers(0, 10_000), max_size=12))
    return series, spec, cfg, rows


@given(world=_worlds())
def test_grid_dataset_equals_per_object_windowing(world):
    series, spec, cfg = world[:3]
    ds = ingestion.window(series, spec, cfg)
    reference = _reference_window(series, spec, cfg)
    _assert_matches_reference(ds, reference, cfg)

    rows = [r % ds.z for r in world[3]] if ds.z else []
    sub = ds.subset(rows)
    _assert_matches_reference(sub, [reference[r] for r in rows], cfg)
    for dataset, want in ((ds, reference), (sub, [reference[r] for r in rows])):
        loaded = ingestion.dataset_from_bytes(ingestion.dataset_to_bytes(dataset))
        _assert_matches_reference(loaded, want, cfg)

    # windows are gathered through the grid's own strides, so a column-major
    # grid gives the same matrices
    grid = np.asfortranarray(ds.windows.grid)
    grid.flags.writeable = False
    assert not grid.flags.c_contiguous or grid.shape[0] <= 1 or grid.shape[1] <= 1
    column_major = ingestion.Dataset(ds.windows._replace(grid=grid), cfg, spec)
    assert column_major.windows.grid is grid
    _assert_matches_reference(column_major, reference, cfg)
