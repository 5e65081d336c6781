"""Value types for the detector network and its spatio-temporal snapshots.

A road is modelled as an ordered chain of detector locations ("network
points").  The traffic condition at a point is the ratio of measured
average speed to the speed limit, clamped to [0, 1]; low values mean heavy
congestion.  A point snapshot stacks the recent conditions of a point and
its upstream/downstream neighbours into a small matrix that forms one model
input, together with day-of-week and time-of-day context scalars.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, is_dataclass
from datetime import datetime
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "BoundaryPointError",
    "PointId",
    "NetworkSpec",
    "SnapshotConfig",
    "PointSnapshot",
    "check_condition",
    "check_type",
    "check_field_types",
    "json_object",
    "from_json",
    "read_only",
    "chain_network",
    "neighbor_rows",
    "eligible_points",
]


class BoundaryPointError(ValueError):
    """A point lacks enough upstream or downstream neighbours for a snapshot."""


def check_condition(value: float) -> float:
    """Validate a single traffic condition (speed ratio in [0, 1])."""
    value = float(value)
    if not 0.0 <= value <= 1.0 or not np.isfinite(value):
        raise ValueError(f"traffic condition {value!r} outside [0, 1]")
    return value


_SCALARS = {int: (int, np.integer), float: (int, float, np.integer, np.floating), str: (str,)}
# each dataclass field's resolved annotation, by class: resolved once per class
_field_kinds = cache(get_type_hints)


def check_type(value, kind, name: str):
    """``value`` if it is of type ``kind``: int, float (an int is one) or str,
    a numpy scalar as a Python one and a bool as none of them; another class;
    a union of classes; or ``tuple[X, ...]``, each item checked as ``name[i]``.
    Raises ValueError naming ``name`` if not."""
    scalar = _SCALARS.get(kind)
    if scalar:
        if isinstance(value, scalar) and not isinstance(value, (bool, np.bool_)):
            return value.item() if isinstance(value, np.generic) else value
    elif isinstance(kind, type) or get_origin(kind) is not tuple:  # a class or a union
        if isinstance(value, kind):
            return value
    elif isinstance(value, tuple):
        return tuple(check_type(v, get_args(kind)[0], f"{name}[{i}]") for i, v in enumerate(value))
    raise ValueError(f"{name} must be of type {getattr(kind, '__name__', kind)}, got {value!r}")


def check_field_types(obj) -> None:
    """``check_type`` on each dataclass field against its annotation, naming
    the first that fails; a numpy scalar or a tuple is stored as checked."""
    cls = type(obj)
    for key, kind in _field_kinds(cls).items():
        value = getattr(obj, key)
        checked = check_type(value, kind, f"{cls.__name__}.{key}")
        if checked is not value:
            object.__setattr__(obj, key, checked)


def json_object(doc, name: str, keys=None) -> dict:
    """``doc`` itself if it is a JSON object with no key outside ``keys``
    (when given); ValueError naming ``name`` or the first unknown key if not."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc).difference(doc if keys is None else keys))
    if unknown:
        raise ValueError(f"{name} has no field {unknown[0]!r}")
    return doc


def from_json(kind, doc, name: str):
    """``doc`` read as ``kind``: a dataclass from a JSON object, each field by
    its annotation as ``name.field`` (a field left out keeps its default), a
    ``tuple[X, ...]`` from a list, and any other value as it is, for the
    dataclass to check.  Raises ValueError naming the field for another JSON
    type, an unknown key or a missing required field."""
    if get_origin(kind) is tuple:
        if not isinstance(doc, list):
            raise ValueError(f"{name} must be a list, got {doc!r}")
        return tuple(from_json(get_args(kind)[0], v, f"{name}[{i}]") for i, v in enumerate(doc))
    if not is_dataclass(kind):
        return doc
    kinds = _field_kinds(kind)
    json_object(doc, name, kinds)
    for f in fields(kind):
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{name} lacks the required field {f.name!r}")
    return kind(**{key: from_json(kinds[key], value, f"{name}.{key}") for key, value in doc.items()})


@dataclass(frozen=True, order=True)
class PointId:
    """One detector location: an opaque id plus its position along the road."""

    id: str
    order_index: int

    def __post_init__(self) -> None:
        check_field_types(self)


@dataclass(frozen=True)
class SnapshotConfig:
    """Geometry of point snapshots.

    ``delta`` past steps give ``delta + 1`` matrix columns; ``n_in`` upstream
    and ``m_out`` downstream neighbours give ``n_in + m_out + 1`` rows.
    ``horizon_steps`` is the prediction offset of the target.
    """

    delta: int = 4
    n_in: int = 4
    m_out: int = 4
    step_minutes: int = 5
    horizon_steps: int = 1

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.n_in < 0 or self.m_out < 0:
            raise ValueError("neighbour counts must be >= 0")
        if not 0 < self.step_minutes <= 24 * 60:
            raise ValueError(f"step_minutes must be in [1, 1440], got {self.step_minutes}")
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")

    @property
    def rows(self) -> int:
        return self.n_in + self.m_out + 1

    @property
    def cols(self) -> int:
        return self.delta + 1


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered detector chain with per-point speed limits.

    ``points`` must be sorted by strictly increasing ``order_index``; traffic
    flows from lower to higher index, so the upstream (in-flow) neighbours of
    the point at position k are positions k-1 .. k-n (closest first) and the
    downstream (out-flow) neighbours are k+1 .. k+m.
    """

    points: tuple[PointId, ...]
    speed_limits: tuple[float, ...]
    n_in: int = 4
    m_out: int = 4

    def __post_init__(self) -> None:
        check_field_types(self)
        object.__setattr__(self, "speed_limits", tuple(float(v) for v in self.speed_limits))
        if len(self.points) != len(self.speed_limits):
            raise ValueError("points and speed_limits must have equal length")
        order = [p.order_index for p in self.points]
        if any(b <= a for a, b in zip(order, order[1:])):
            raise ValueError("points must be sorted by strictly increasing order_index")
        if not all(limit > 0 for limit in self.speed_limits):  # NaN is not
            raise ValueError("speed limits must be strictly positive")

    def __len__(self) -> int:
        return len(self.points)

    def position_of(self, point: PointId) -> int:
        """Position of ``point`` in the ordered chain."""
        for k, candidate in enumerate(self.points):
            if candidate.order_index == point.order_index:
                if candidate.id != point.id:
                    raise KeyError(f"point id mismatch at order {point.order_index}")
                return k
        raise KeyError(f"unknown point {point}")


def chain_network(n_points: int, speed_limit: float = 65.0, n_in: int = 4, m_out: int = 4) -> NetworkSpec:
    """Build a chain of ``n_points`` (>= 0) consecutive detectors ``d000``,
    ``d001``, ... that share one speed limit."""
    if n_points < 0:
        raise ValueError(f"a chain network needs a point count >= 0, got {n_points}")
    points = tuple(PointId(f"d{k:03d}", k) for k in range(n_points))
    return NetworkSpec(points=points, speed_limits=(float(speed_limit),) * n_points, n_in=n_in, m_out=m_out)


def neighbor_rows(spec: NetworkSpec, point: PointId, cfg: SnapshotConfig) -> list[PointId]:
    """Row order of a snapshot for ``point``: upstream (farthest first), the
    point itself, then downstream (closest first).

    Raises BoundaryPointError when the point has fewer than ``cfg.n_in``
    predecessors or ``cfg.m_out`` successors.
    """
    k = spec.position_of(point)
    if k - cfg.n_in < 0:
        raise BoundaryPointError(
            f"{point.id}: needs {cfg.n_in} upstream neighbours, has {k}"
        )
    if k + cfg.m_out > len(spec.points) - 1:
        raise BoundaryPointError(
            f"{point.id}: needs {cfg.m_out} downstream neighbours, has {len(spec.points) - 1 - k}"
        )
    return list(spec.points[k - cfg.n_in : k + cfg.m_out + 1])


def eligible_points(spec: NetworkSpec, cfg: SnapshotConfig) -> list[PointId]:
    """Points with full neighbourhoods, i.e. those snapshots can be built for."""
    lo, hi = cfg.n_in, len(spec.points) - cfg.m_out
    return list(spec.points[lo:hi]) if hi > lo else []


def read_only(array) -> np.ndarray:
    """``array`` itself if it is read-only, else a read-only copy: no caller
    keeps a writeable alias of what the result holds."""
    array = np.asarray(array)
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


def _on_grid(value: float, denominator: int) -> bool:
    scaled = value * denominator
    return 0.0 <= value <= 1.0 and abs(scaled - round(scaled)) < 1e-9


@dataclass(frozen=True)
class PointSnapshot:
    """One supervised example: the condition matrix around a point plus context.

    ``matrix`` has rows ``[L_n .. L_1, S, R_1 .. R_m]`` and columns for times
    ``t - delta .. t`` (oldest first); ``target`` is the centre point's
    condition at ``t + horizon``; ``timestamp`` is the absolute time of the
    last column.
    """

    matrix: np.ndarray
    day_value: float
    time_value: float
    target: float
    point: PointId
    timestamp: datetime

    def __post_init__(self) -> None:
        matrix = read_only(np.asarray(self.matrix, dtype=np.float64))
        if matrix.ndim != 2:
            raise ValueError("snapshot matrix must be 2-D")
        if not np.all(np.isfinite(matrix)) or matrix.min() < 0.0 or matrix.max() > 1.0:
            raise ValueError("snapshot matrix values must lie in [0, 1]")
        object.__setattr__(self, "matrix", matrix)
        if not _on_grid(self.day_value, 6):
            raise ValueError(f"day_value {self.day_value!r} not on the k/6 grid")
        if not _on_grid(self.time_value, 47):
            raise ValueError(f"time_value {self.time_value!r} not on the k/47 grid")
        check_condition(self.target)
