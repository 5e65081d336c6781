"""Detector-series ingestion: parse, clean, normalize, and window into snapshots.

Raw input is a plain UTF-8 comma-separated file.  A manifest block declares
the detectors, then one row per measurement:

    #point,<id>,<order_index>,<speed_limit>
    ...
    <id>,<ISO-8601 local timestamp>,<avg_speed>

Missing time slots are simply absent rows.  The parser reads the file line
by line into one column of timestamps and one of speeds per detector; a
timestamp text is parsed once per file, and its repeats on other rows reuse
the result.  Cleaning, array arithmetic over those columns, fills interior
gaps by linear interpolation (a single missing slot gets the mean of its two
neighbours), converts speeds to conditions ``min(1, speed / speed_limit)``,
and refuses to extrapolate over leading or trailing gaps.  Windowing stacks
the aligned series into one condition grid and addresses one snapshot per
eligible point per step that has full history and a future target.

The module also generates synthetic traffic (seeded, with rush-hour dips
that propagate downstream) so the whole pipeline can be exercised without
real detector data.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from .core import (
    NetworkSpec,
    PointId,
    PointSnapshot,
    SnapshotConfig,
    chain_network,
    check_field_types,
    check_type,
    from_json,
    json_object,
    read_only,
)
from .rng import stream
from .serialization import ContainerFormatError, atomic_write_bytes, read_container, write_container

__all__ = [
    "FormatError",
    "UnknownDetectorError",
    "LeadingGapError",
    "TrailingGapError",
    "MisalignedSeriesError",
    "RawSeries",
    "CleanSeries",
    "Windows",
    "Dataset",
    "Snapshots",
    "RushHourDip",
    "SyntheticProfile",
    "ProfileNetwork",
    "SynthJob",
    "read_detector_file",
    "write_raw_file",
    "clean",
    "context_scalars",
    "aligned_grid",
    "window",
    "synth",
    "dip_mask",
    "save_dataset",
    "load_dataset",
    "dataset_to_bytes",
    "dataset_from_bytes",
    "load_profile",
    "MAX_GRID_CELLS",
    "DATASET_FORMAT_VERSION",
]

DATASET_MAGIC = b"TRAFFICFLOW-DATASET\n"
DATASET_FORMAT_VERSION = 3


class FormatError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownDetectorError(ValueError):
    """Data row references a detector absent from the manifest."""

    def __init__(self, line: int, detector: str):
        super().__init__(f"line {line}: unknown detector {detector!r}")
        self.line = line
        self.detector = detector


class LeadingGapError(ValueError):
    """Series starts after the expected span; no extrapolation."""


class TrailingGapError(ValueError):
    """Series ends before the expected span; no extrapolation."""


class MisalignedSeriesError(ValueError):
    """Series do not share one slot grid (or a sample is off-grid)."""


# ---------------------------------------------------------------------------
# series types


# one raw sample: its timestamp (naive local time) and its average speed
_SAMPLE = np.dtype([("time", "datetime64[us]"), ("speed", np.float64)])


@dataclass(frozen=True, eq=False)
class RawSeries:
    """The samples of one detector, in strictly increasing time order.

    ``samples`` is a read-only structured array, one entry per data row,
    with fields ``time`` (datetime64[us]) and ``speed`` (float64, finite and
    >= 0); a sequence of (datetime, speed) pairs is converted to it.  Two
    series compare equal only when they are one object: compare their
    samples with ``np.array_equal``.
    """

    point: PointId
    samples: np.ndarray
    speed_limit: float

    def __post_init__(self) -> None:
        samples = self.samples
        if not isinstance(samples, np.ndarray):
            samples = list(samples)  # numpy would read an outer tuple as one record
        samples = read_only(np.asarray(samples, dtype=_SAMPLE))
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"{self.point.id}: samples must be a sequence of (time, speed) pairs")
        times, speeds = samples["time"], samples["speed"]
        if not np.all(times[1:] > times[:-1]):
            raise ValueError(f"{self.point.id}: timestamps must be strictly increasing")
        if not np.all(np.isfinite(speeds) & (speeds >= 0.0)):
            raise ValueError(f"{self.point.id}: speeds must be finite and >= 0")
        if self.speed_limit <= 0:
            raise ValueError("speed limit must be positive")


@dataclass(frozen=True)
class CleanSeries:
    """Dense conditions of one detector at exact step spacing, no gaps."""

    point: PointId
    values: np.ndarray
    start: datetime
    step_minutes: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)) or values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("conditions must lie in [0, 1]")
        object.__setattr__(self, "values", read_only(values))

    def __len__(self) -> int:
        return self.values.size


# ---------------------------------------------------------------------------
# raw file parsing


_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


def _parse_stream(handle: TextIO) -> tuple[list[tuple[str, int, float]], list[RawSeries]]:
    manifest: dict[str, tuple[int, float]] = {}
    orders_seen: set[int] = set()
    # per declared detector: the microseconds, speeds and line numbers of its rows
    columns: dict[str, tuple[list[int], list[float], list[int]]] = {}
    # stamp text -> microseconds since the epoch.  Only a text that parsed as
    # a naive timestamp enters, so the texts accepted and every error with
    # its line number stay those of fromisoformat on each line.
    stamps: dict[str, int] = {}

    lines = iter(handle)
    # a UTF-8 byte-order mark, as spreadsheet exports write it, is not data
    first = next(lines, "").removeprefix("\ufeff")
    for line_no, raw_line in enumerate(itertools.chain((first,), lines), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#point,"):
            parts = line.split(",")
            if len(parts) != 4:
                raise FormatError(line_no, f"manifest line needs 4 fields, got {len(parts)}")
            _, det_id, order_text, limit_text = parts
            try:
                order = int(order_text)
                limit = float(limit_text)
            except ValueError:
                raise FormatError(line_no, "manifest order/limit not numeric") from None
            if limit <= 0:
                raise FormatError(line_no, f"speed limit must be positive, got {limit}")
            if det_id in manifest:
                raise FormatError(line_no, f"duplicate detector {det_id!r} in manifest")
            if order in orders_seen:
                raise FormatError(line_no, f"duplicate order_index {order} in manifest")
            manifest[det_id] = (order, limit)
            columns[det_id] = ([], [], [])
            orders_seen.add(order)
            continue
        if line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(line_no, f"data row needs 3 fields, got {len(parts)}")
        det_id, ts_text, speed_text = parts
        det = columns.get(det_id)
        if det is None:
            raise UnknownDetectorError(line_no, det_id)
        micros = stamps.get(ts_text)
        if micros is None:
            try:
                ts = datetime.fromisoformat(ts_text)
            except ValueError:
                raise FormatError(line_no, f"bad timestamp {ts_text!r}") from None
            if ts.tzinfo is not None:
                raise FormatError(line_no, "timestamps must be timezone-naive local time")
            micros = stamps[ts_text] = (ts - _EPOCH) // _MICROSECOND
        try:
            speed = float(speed_text)
        except ValueError:
            raise FormatError(line_no, f"bad speed {speed_text!r}") from None
        if not math.isfinite(speed) or speed < 0:
            raise FormatError(line_no, f"speed must be finite and >= 0, got {speed}")
        det[0].append(micros)
        det[1].append(speed)
        det[2].append(line_no)

    entries = sorted(
        ((det_id, order, limit) for det_id, (order, limit) in manifest.items()),
        key=lambda e: e[1],
    )
    series: list[RawSeries] = []
    for det_id, order, limit in entries:
        micros, speeds, lines = columns[det_id]
        if not micros:
            continue
        micros = np.array(micros, dtype=np.int64)
        by_time = np.argsort(micros, kind="stable")  # stable: a repeat reports its later line
        samples = np.empty(len(micros), dtype=_SAMPLE)
        samples["time"] = micros[by_time].view("datetime64[us]")
        samples["speed"] = np.array(speeds)[by_time]
        times = samples["time"]
        repeats = np.flatnonzero(times[1:] == times[:-1]) + 1
        if repeats.size:
            i = repeats[0]
            raise FormatError(lines[by_time[i]], f"duplicate timestamp {times[i].item()} for {det_id!r}")
        samples.flags.writeable = False
        series.append(RawSeries(point=PointId(det_id, order), samples=samples, speed_limit=limit))
    return entries, series


def read_detector_file(
    source: str | Path | TextIO, n_in: int = 4, m_out: int = 4
) -> tuple[NetworkSpec, list[RawSeries]]:
    """Parse a detector file into its NetworkSpec, built from the manifest,
    and one sorted RawSeries per detector.

    Detectors declared in the manifest but carrying no data rows yield no
    series.  Raises FormatError / UnknownDetectorError with line numbers.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            entries, series = _parse_stream(handle)
    else:
        entries, series = _parse_stream(source)
    if not entries:
        raise FormatError(0, "file declares no detectors")
    points = tuple(PointId(det_id, order) for det_id, order, _ in entries)
    limits = tuple(limit for _, _, limit in entries)
    return NetworkSpec(points=points, speed_limits=limits, n_in=n_in, m_out=m_out), series


def write_raw_file(path: str | Path, series: Sequence[RawSeries]) -> None:
    """Emit the documented raw-file format (manifest block, then data rows)."""
    buf = io.StringIO()
    for s in sorted(series, key=lambda s: s.point.order_index):
        buf.write(f"#point,{s.point.id},{s.point.order_index},{float(s.speed_limit)!r}\n")
    for s in sorted(series, key=lambda s: s.point.order_index):
        for ts, speed in zip(s.samples["time"].tolist(), s.samples["speed"].tolist()):
            buf.write(f"{s.point.id},{ts.isoformat()},{speed!r}\n")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


# ---------------------------------------------------------------------------
# cleaning and context


def clean(
    series: RawSeries,
    cfg: SnapshotConfig,
    span: tuple[datetime, datetime] | None = None,
) -> CleanSeries:
    """Densify one raw series onto the step grid and normalize to conditions.

    Interior gaps are filled by linear interpolation between the bounding
    present values (a single missing slot gets their mean).  ``span`` pins
    the expected first/last slot; a series starting late or ending early
    raises LeadingGapError / TrailingGapError rather than extrapolating.
    """
    samples = series.samples
    if not len(samples):
        raise ValueError("cannot clean an empty series")
    times = samples["time"]
    first_ts, last_ts = times[0].item(), times[-1].item()
    start, end = span if span is not None else (first_ts, last_ts)
    if first_ts > start:
        raise LeadingGapError(f"{series.point.id}: first sample {first_ts} after span start {start}")
    if last_ts < end:
        raise TrailingGapError(f"{series.point.id}: last sample {last_ts} before span end {end}")
    if first_ts < start or last_ts > end:
        raise ValueError(f"{series.point.id}: samples outside the requested span")

    n_steps, rem = divmod(end - start, timedelta(minutes=cfg.step_minutes))
    if rem:
        raise MisalignedSeriesError(f"span {start}..{end} not a multiple of {cfg.step_minutes} min")

    offset, rem = np.divmod(times - np.datetime64(start, "us"), np.timedelta64(cfg.step_minutes, "m"))
    off_grid = np.flatnonzero(rem)
    if off_grid.size:
        raise MisalignedSeriesError(f"{series.point.id}: sample at {times[off_grid[0]].item()} off the slot grid")
    conditions = np.minimum(1.0, samples["speed"] / series.speed_limit)
    # the first and last slots hold samples, so every gap is interior; at a
    # slot that holds a sample, np.interp returns that sample's condition
    values = np.interp(np.arange(int(n_steps) + 1), offset, conditions)
    return CleanSeries(point=series.point, values=values, start=start, step_minutes=cfg.step_minutes)


def context_scalars(timestamp: datetime) -> tuple[float, float]:
    """Day and time-of-day context in [0, 1].

    Days index Sunday=0 .. Saturday=6 and divide by 6; time is the
    30-minute bucket index (0..47) divided by 47.
    """
    day_index = (timestamp.weekday() + 1) % 7
    bucket = (timestamp.hour * 60 + timestamp.minute) // 30
    return day_index / 6.0, bucket / 47.0


# ---------------------------------------------------------------------------
# dataset


class Windows(NamedTuple):
    """Snapshots as windows over one (P, T) condition grid.

    Snapshot i is centred on grid row ``centre[i]`` and its newest matrix
    column is grid column ``column[i]``; grid column 0 is at ``start``.
    """

    grid: np.ndarray
    start: datetime
    centre: np.ndarray
    column: np.ndarray


def _check_index(name: str, index: np.ndarray, lo: int, hi: int) -> None:
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValueError(f"{name} must be a 1-D integer array, got {index.dtype} {index.shape}")
    if index.size and (int(index.min()) < lo or int(index.max()) >= hi):
        raise ValueError(f"{name} indices must lie in [{lo}, {hi})")


@dataclass(frozen=True)
class Dataset:
    """Windowed snapshots plus the network and config that produced them.

    The grid is stored once, read-only, and shared by subsets; so every
    dataset, a split included, carries the series the simulation replays.
    Snapshot fields are computed as whole columns; ``snapshots[i]`` builds
    one PointSnapshot on request.  Raises ValueError unless the grid lies in
    [0, 1] with one row per network point and every window fits the grid
    with a known target.
    """

    windows: Windows
    config: SnapshotConfig
    spec: NetworkSpec

    def __post_init__(self) -> None:
        grid, start, centre, column = self.windows
        grid, centre, column = read_only(grid), read_only(centre), read_only(column)
        object.__setattr__(self, "windows", Windows(grid, start, centre, column))
        if grid.ndim != 2 or grid.dtype != np.float64 or grid.shape[0] != len(self.spec.points):
            raise ValueError(
                f"condition grid must be float64 with {len(self.spec.points)} rows, got {grid.dtype} {grid.shape}"
            )
        if not np.all((grid >= 0.0) & (grid <= 1.0)):
            raise ValueError("condition grid values must lie in [0, 1]")
        cfg = self.config
        _check_index("centre", centre, cfg.n_in, grid.shape[0] - cfg.m_out)
        _check_index("column", column, cfg.delta, grid.shape[1] - cfg.horizon_steps)
        if len(centre) != len(column):
            raise ValueError(f"centre and column lengths differ ({len(centre)} vs {len(column)})")

    @property
    def z(self) -> int:
        return len(self.windows.centre)

    @property
    def snapshots(self) -> "Snapshots":
        return Snapshots(self)

    @property
    def series(self) -> tuple[CleanSeries, ...]:
        """The aligned source series, one per network point."""
        grid, start, _, _ = self.windows
        step = self.config.step_minutes
        return tuple(CleanSeries(p, grid[k], start, step) for k, p in enumerate(self.spec.points))

    def subset(self, rows) -> "Dataset":
        """New dataset over the selected snapshots (a slice or indices), sharing the grid."""
        w = self.windows
        centre, column = w.centre[rows], w.column[rows]
        centre.flags.writeable = column.flags.writeable = False  # nothing else holds them: Dataset need not copy
        return Dataset(w._replace(centre=centre, column=column), self.config, self.spec)

    def matrices(self, rows=slice(None)) -> np.ndarray:
        """Condition matrices (n, R, C) of the selected rows, gathered from the grid."""
        cfg, w = self.config, self.windows
        centre, column = w.centre[rows], w.column[rows]
        if not len(centre):
            return np.zeros((0, cfg.rows, cfg.cols))
        # the sliding_window_view of the grid, built without its per-call checks
        grid = w.grid
        (points, ticks), (s_p, s_t) = grid.shape, grid.strides
        shape = (points - cfg.rows + 1, ticks - cfg.cols + 1, cfg.rows, cfg.cols)
        views = np.lib.stride_tricks.as_strided(grid, shape, (s_p, s_t, s_p, s_t), writeable=False)
        return views[centre - cfg.n_in, column - cfg.delta]

    def targets(self) -> np.ndarray:
        """The centre point's condition ``horizon_steps`` after each snapshot."""
        w = self.windows
        return w.grid[w.centre, w.column + self.config.horizon_steps]

    def point_order(self) -> np.ndarray:
        """Order index of each snapshot's centre point."""
        orders = np.array([p.order_index for p in self.spec.points], dtype=np.int64)
        return orders[self.windows.centre]

    def times(self) -> np.ndarray:
        """Time of each snapshot's newest matrix column, as datetime64[us]."""
        w = self.windows
        return np.datetime64(w.start, "us") + w.column * np.timedelta64(self.config.step_minutes, "m")

    def context(self) -> tuple[np.ndarray, np.ndarray]:
        """Day and time scalars of each snapshot, as ``context_scalars`` gives them."""
        times = self.times()
        days = times.astype("datetime64[D]")
        day_index = (days.astype(np.int64) + 4) % 7  # 1970-01-01 was a Thursday; Sunday is 0
        bucket = (times - days) // np.timedelta64(30, "m")
        return day_index / 6.0, bucket / 47.0

    def arrays(self) -> dict[str, np.ndarray]:
        """Every snapshot field as a column: matrix (Z,R,C), day/time/target
        (Z,), point_order (Z,) and timestamp epoch seconds (Z,)."""
        day, time_v = self.context()
        micros = self.times().astype(np.int64)
        return {
            "matrix": self.matrices(),
            "day": day,
            "time": time_v,
            "target": self.targets(),
            "point_order": self.point_order(),
            # truncated toward zero, as int(timedelta.total_seconds()) is
            "timestamp": np.sign(micros) * (np.abs(micros) // 1_000_000),
        }


class Snapshots(Sequence):
    """A dataset's snapshots, built one at a time on request.

    An integer index gives a validated PointSnapshot.  A slice gives the
    Windows of those rows, which the Dataset constructor takes.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return self._dataset.z

    def __getitem__(self, i):
        ds = self._dataset
        if isinstance(i, slice):
            return ds.subset(i).windows
        i = range(ds.z)[i]
        cfg, w = ds.config, ds.windows
        k, t = int(w.centre[i]), int(w.column[i])
        timestamp = w.start + timedelta(minutes=cfg.step_minutes * t)
        day_value, time_value = context_scalars(timestamp)
        return PointSnapshot(
            matrix=w.grid[k - cfg.n_in : k + cfg.m_out + 1, t - cfg.delta : t + 1],
            day_value=day_value,
            time_value=time_value,
            target=float(w.grid[k, t + cfg.horizon_steps]),
            point=ds.spec.points[k],
            timestamp=timestamp,
        )


def aligned_grid(
    clean_series: Sequence[CleanSeries], spec: NetworkSpec, step_minutes: int
) -> tuple[np.ndarray, datetime]:
    """The (P, T) condition grid of one series per network point, in network
    order, and the time of its column 0.  Raises MisalignedSeriesError unless
    the network has a point and the series cover every point once and share
    one start, length and step."""
    by_order = {s.point.order_index: s for s in clean_series}
    if len(by_order) != len(clean_series):
        raise MisalignedSeriesError("duplicate series for one point")
    wanted = {p.order_index for p in spec.points}
    if set(by_order) != wanted:
        missing = sorted(wanted - set(by_order))
        extra = sorted(set(by_order) - wanted)
        raise MisalignedSeriesError(f"series/network mismatch (missing {missing}, extra {extra})")

    if not spec.points:
        raise MisalignedSeriesError("the network has no points")
    ordered = [by_order[p.order_index] for p in spec.points]
    first = ordered[0]
    for s in ordered:
        if s.start != first.start or len(s) != len(first) or s.step_minutes != step_minutes:
            raise MisalignedSeriesError(f"{s.point.id}: series grid differs")
    return np.stack([s.values for s in ordered]), first.start


def window(clean_series: Sequence[CleanSeries], spec: NetworkSpec, cfg: SnapshotConfig) -> Dataset:
    """Window aligned series into every snapshot with a known target.

    Cell (r, j) of a snapshot at time t holds the condition of neighbour row
    r at time ``t - delta + j``; the target is the centre point's condition
    at ``t + horizon_steps``.  Snapshots are ordered by centre point, then
    time.
    """
    grid, start = aligned_grid(clean_series, spec, cfg.step_minutes)
    centres = np.arange(cfg.n_in, len(spec.points) - cfg.m_out)
    columns = np.arange(cfg.delta, grid.shape[1] - cfg.horizon_steps)
    centre = np.repeat(centres, columns.size)
    column = np.tile(columns, centres.size)
    return Dataset(Windows(grid, start, centre, column), cfg, spec)


# ---------------------------------------------------------------------------
# synthetic traffic


@dataclass(frozen=True)
class RushHourDip:
    """One recurring congestion event: full depth on [start_slot, end_slot]
    with optional linear ramps of ``ramp_slots`` on both sides, active on the
    given weekdays (Sunday=0)."""

    start_slot: int
    end_slot: int
    depth: float
    days: tuple[int, ...] = (1, 2, 3, 4, 5)
    ramp_slots: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.end_slot < self.start_slot:
            raise ValueError("end_slot must be >= start_slot")
        if not 0.0 < self.depth <= 1.0:
            raise ValueError("dip depth must be in (0, 1]")
        if self.ramp_slots < 0:
            raise ValueError("ramp_slots must be >= 0")
        if any(d not in range(7) for d in self.days):
            raise ValueError("weekday mask entries must be 0..6")


@dataclass(frozen=True)
class SyntheticProfile:
    """Shape of generated traffic: free-flow base level, recurring dips that
    shift downstream by ``propagation_lag_steps`` per hop, and Gaussian noise."""

    base_speed_ratio: float = 0.95
    dips: tuple[RushHourDip, ...] = ()
    noise_std: float = 0.0
    propagation_lag_steps: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 <= self.base_speed_ratio <= 1.0:
            raise ValueError("base_speed_ratio must be in [0, 1]")
        if not self.noise_std >= 0:  # NaN is not
            raise ValueError("noise_std must be >= 0")
        if self.propagation_lag_steps < 0:
            raise ValueError("propagation_lag_steps must be >= 0")


def _slots_per_day(cfg: SnapshotConfig) -> int:
    per_day, rem = divmod(24 * 60, cfg.step_minutes)
    if rem:
        raise ValueError("step_minutes must divide a day evenly for synthesis")
    return per_day


def _dip_depths(
    profile: SyntheticProfile,
    spec: NetworkSpec,
    days: int,
    cfg: SnapshotConfig,
    start: datetime,
) -> np.ndarray:
    """Per-point, per-slot dip depth (overlapping dips take the max).  Point k's
    row is a window, ``propagation_lag_steps * k`` slots back, into one row."""
    per_day = _slots_per_day(cfg)
    n_slots = days * per_day
    shifts = profile.propagation_lag_steps * np.arange(len(spec.points))
    reach = int(shifts[-1]) if shifts.size else 0  # row[i] is slot i - reach of the first point
    row = np.zeros(reach + n_slots)
    weekdays = np.array([((start + timedelta(days=d)).weekday() + 1) % 7 for d in range(days)])
    for dip in profile.dips:
        r = dip.ramp_slots
        ramp = dip.depth * (np.arange(1, r + 1) / (r + 1))
        depths = np.concatenate([ramp, np.full(dip.end_slot - dip.start_slot + 1, dip.depth), ramp[::-1]])
        active = np.flatnonzero(np.isin(weekdays, dip.days))
        slots = (active[:, None] * per_day + np.arange(dip.start_slot - r, dip.end_slot + r + 1) + reach).ravel()
        keep = (slots >= 0) & (slots < row.size)
        np.maximum.at(row, slots[keep], np.tile(depths, active.size)[keep])
    return np.lib.stride_tricks.sliding_window_view(row, n_slots)[reach - shifts]


def synth(
    profile: SyntheticProfile,
    spec: NetworkSpec,
    days: int,
    seed: int,
    cfg: SnapshotConfig | None = None,
    start: datetime = datetime(2024, 1, 1),
) -> list[CleanSeries]:
    """Generate aligned clean series for every network point.

    Deterministic for a fixed seed; dips appear at downstream points delayed
    by ``propagation_lag_steps`` per hop, so neighbour history genuinely
    predicts the centre point's future.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    cfg = cfg or SnapshotConfig()
    depths = _dip_depths(profile, spec, days, cfg, start)
    values = profile.base_speed_ratio - depths
    if profile.noise_std > 0:
        rng = stream(seed, "synth")
        values = values + rng.normal(0.0, profile.noise_std, size=values.shape)
    values = np.clip(values, 0.0, 1.0)
    return [
        CleanSeries(point=p, values=values[k], start=start, step_minutes=cfg.step_minutes)
        for k, p in enumerate(spec.points)
    ]


def dip_mask(
    profile: SyntheticProfile,
    spec: NetworkSpec,
    days: int,
    cfg: SnapshotConfig,
    start: datetime = datetime(2024, 1, 1),
) -> np.ndarray:
    """Boolean (P, T) mask of slots touched by any dip (ramps included)."""
    return _dip_depths(profile, spec, days, cfg, start) > 0.0


# ---------------------------------------------------------------------------
# dataset file format


def dataset_to_bytes(dataset: Dataset) -> bytes:
    """Format version 3: the header, the condition grid and the two index arrays."""
    w = dataset.windows
    header = {"config": asdict(dataset.config), "network": asdict(dataset.spec), "start": w.start.isoformat()}
    payload = [("grid", w.grid), ("centre", w.centre), ("column", w.column)]
    return write_container(DATASET_MAGIC, DATASET_FORMAT_VERSION, header, payload)


def dataset_from_bytes(data: bytes) -> Dataset:
    """Parse and verify dataset-file bytes, whose header's ``config`` and
    ``network`` are read as SnapshotConfig and NetworkSpec fields and
    ``start`` as an ISO timestamp.  Raises ContainerFormatError, ChecksumError
    or VersionMismatchError for a damaged, foreign or older file or a header
    field that is missing, unknown or of another type, and ValueError when
    the grid or index arrays break a Dataset check."""
    header, arrays = read_container(data, DATASET_MAGIC, DATASET_FORMAT_VERSION)
    missing = {"grid", "centre", "column"} - set(arrays)
    if missing:
        raise ContainerFormatError(f"dataset file lacks arrays {sorted(missing)}")
    try:
        json_object(header, "dataset header", ("config", "network", "start"))
        cfg = from_json(SnapshotConfig, header.get("config"), "dataset header config")
        spec = from_json(NetworkSpec, header.get("network"), "dataset header network")
        start = datetime.fromisoformat(check_type(header.get("start"), str, "dataset header start"))
    except ValueError as err:
        raise ContainerFormatError(str(err)) from None
    for array in arrays.values():  # private copies: read-only, Dataset need not copy them again
        array.flags.writeable = False
    windows = Windows(arrays["grid"], start, arrays["centre"], arrays["column"])
    return Dataset(windows, cfg, spec)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    atomic_write_bytes(path, dataset_to_bytes(dataset))


def load_dataset(path: str | Path) -> Dataset:
    return dataset_from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# profile files


@dataclass(frozen=True)
class ProfileNetwork:
    """A profile's ``network``: a chain of ``points`` detectors with one speed limit."""

    points: int
    speed_limit: float = 65.0

    def __post_init__(self) -> None:
        check_field_types(self)


@dataclass(frozen=True)
class SynthJob:
    """Everything a synthesis run needs, as loaded from a profile file."""

    profile: SyntheticProfile
    spec: NetworkSpec
    cfg: SnapshotConfig
    days: int
    start: datetime

    def __post_init__(self) -> None:
        check_field_types(self)


# profile keys that describe the run; every other key is a SyntheticProfile field
_JOB_KEYS = ("snapshot", "network", "days", "start")

# the most conditions (points x days x slots a day) a profile may ask ``synth``
# for, about 500 times the bundled profile's 133,632, or slots in another array
MAX_GRID_CELLS = 2**26


def load_profile(path: str | Path) -> SynthJob:
    """Read a JSON synthesis profile: ``snapshot`` (SnapshotConfig fields),
    ``network`` (ProfileNetwork fields), ``days``, ``start`` (an ISO
    timestamp) and the SyntheticProfile fields, whose defaults are the
    dataclasses' own.  Raises ValueError naming the field for a value of
    another type, an unknown key, a missing ``days``, a ``start`` that is not
    an ISO timestamp or ``days`` that run past the year 9999.  Before it
    builds anything, it refuses, naming the fields, a size over
    ``MAX_GRID_CELLS``: the grid, the dip row's lead or a dip's slots.
    """
    doc = json_object(json.loads(Path(path).read_text(encoding="utf-8")), f"profile {path}")
    cfg = from_json(SnapshotConfig, doc.get("snapshot", {}), "snapshot")
    net = from_json(ProfileNetwork, doc.get("network"), "network")
    if "days" not in doc:
        raise ValueError(f"profile {path} lacks the required field 'days'")
    days = check_type(doc["days"], int, "SynthJob.days")
    start = doc.get("start", "2024-01-01T00:00:00")
    try:
        start = datetime.fromisoformat(start)
    except (TypeError, ValueError):
        raise ValueError(f"start must be an ISO timestamp string, got {start!r}") from None
    profile = from_json(SyntheticProfile, {key: value for key, value in doc.items() if key not in _JOB_KEYS}, "profile")
    sizes = {
        "a grid of {} cells (points x days x slots a day)": max(net.points, 1) * days * (24 * 60 // cfg.step_minutes),
        "a lead of {} slots (propagation_lag_steps x (points - 1))": profile.propagation_lag_steps * (net.points - 1),
        **{f"dips[{i}] over {{}} slots (days x (end_slot - start_slot + 1 + 2 x ramp_slots))":
           days * (d.end_slot - d.start_slot + 1 + 2 * d.ramp_slots) for i, d in enumerate(profile.dips)},
    }
    for what, size in sizes.items():
        if size > MAX_GRID_CELLS:
            raise ValueError(f"profile {path}: {what.format(size)} exceeds {MAX_GRID_CELLS}")
    if days > datetime.max.toordinal() - start.toordinal():
        raise ValueError(f"profile {path}: {days} days from start {start} run past {datetime.max}")
    return SynthJob(
        profile=profile,
        spec=chain_network(net.points, net.speed_limit, n_in=cfg.n_in, m_out=cfg.m_out),
        cfg=cfg,
        days=days,
        start=start,
    )
