"""Out-of-program span tracer for the traced benchmark run.

The tracer never edits the program.  It replaces public functions and
methods of ``trafficflow`` with timing wrappers for the traced run only
(``Patcher``) and restores the originals afterwards.
A span holds the layer name, its start and end (``time.perf_counter``),
its parent span and the benchmark operation it ran in.  Spans are kept in
memory in flat arrays and summarised once, when the run ends.

Self time of a span is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterator

import numpy as np

PACKAGE = "trafficflow"  # modules whose names are searched for a wrapped function


class Tracer:
    """Span and count store; records only while an operation is open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.ops = 0
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def operation(self) -> Iterator[None]:
        """Mark one closed-loop benchmark operation; spans outside are not kept."""
        self.op = self.ops
        self.ops += 1
        try:
            yield
        finally:
            self.op = -1
            self._stack.clear()

    @property
    def active(self) -> bool:
        return self.op >= 0

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def inside(self, prefix: str) -> bool:
        """True when an open span's name starts with ``prefix``."""
        return any(self.names[self.name_id[i]].startswith(prefix) for i in self._stack)

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the per-operation counter ``name``."""
        if not self.active:
            return
        per_op = self.counts[name]
        while len(per_op) <= self.op:
            per_op.append(0.0)
        per_op[self.op] += value


class SpanSummary:
    """Columnar view of the recorded spans with durations and self times."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.ops = tracer.ops
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        self.dur = end - start
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.op_of = np.frombuffer(tracer.op_of, dtype=np.int32).copy()
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size
        )
        self.self_time = self.dur - child
        self.counts = {
            name: values + [0.0] * (self.ops - len(values)) for name, values in tracer.counts.items()
        }

    def match(self, predicate: Callable[[str], bool]) -> np.ndarray:
        """Boolean mask of the spans whose name satisfies ``predicate``."""
        ids = [i for i, name in enumerate(self.names) if predicate(name)]
        return np.isin(self.name_id, ids)

    def mask(self, name: str) -> np.ndarray:
        return self.match(lambda n: n == name)

    def per_op_calls(self, mask: np.ndarray) -> float:
        """Median over operations of the number of masked spans."""
        if self.ops == 0:
            return 0.0
        return float(np.median(np.bincount(self.op_of[mask], minlength=self.ops)))

    def per_op_total(self, mask: np.ndarray, self_only: bool = False) -> float:
        """Median over operations of the summed (self) time of the masked spans, seconds."""
        if self.ops == 0:
            return 0.0
        values = self.self_time if self_only else self.dur
        totals = np.bincount(self.op_of[mask], weights=values[mask], minlength=self.ops)
        return float(np.median(totals))

    def mean_call(self, mask: np.ndarray, self_only: bool = False) -> float:
        """Mean (self) duration per masked span, seconds; 0 without spans."""
        if not mask.any():
            return 0.0
        values = self.self_time if self_only else self.dur
        return float(values[mask].mean())

    def percentile(self, mask: np.ndarray, q: float) -> float:
        if not mask.any():
            return 0.0
        return float(np.percentile(self.dur[mask], q))

    def count(self, name: str) -> float:
        """Median over operations of a counter (0 when never counted)."""
        values = self.counts.get(name)
        return float(np.median(values)) if values else 0.0

    def total_count(self, name: str) -> float:
        return float(sum(self.counts.get(name, ())))

    def table(self) -> list[dict]:
        """One row per span name: calls, total, self, mean/p50/p99 per call."""
        rows = []
        for nid, name in enumerate(self.names):
            sel = self.name_id == nid
            dur = self.dur[sel]
            rows.append(
                {
                    "name": name,
                    "calls": int(sel.sum()),
                    "total_ms": float(dur.sum() * 1e3),
                    "self_ms": float(self.self_time[sel].sum() * 1e3),
                    "mean_us": float(dur.mean() * 1e6),
                    "p50_us": float(np.percentile(dur, 50) * 1e6),
                    "p99_us": float(np.percentile(dur, 99) * 1e6),
                }
            )
        rows.sort(key=lambda r: -r["self_ms"])
        return rows


# ---------------------------------------------------------------------------
# wrapper installation


Namer = Callable[[tuple, dict], str]
OnResult = Callable[[Tracer, tuple, dict, object], None]


def _wrap(tracer: Tracer, fn: Callable, namer: Namer, on_result: OnResult | None) -> Callable:
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(namer(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, namer: Namer | str, on_result: OnResult | None = None) -> None:
        """Wrap a module-level function in every ``PACKAGE`` module that
        imported it, so calls through any of those names are traced."""
        original = getattr(module, attr)
        wrapped = _wrap(self.tracer, original, _as_namer(namer), on_result)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def method(self, cls: type, attr: str, namer: Namer | str, on_result: OnResult | None = None) -> None:
        original = cls.__dict__[attr]
        self._set(cls, attr, _wrap(self.tracer, original, _as_namer(namer), on_result))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _as_namer(namer: Namer | str) -> Namer:
    if isinstance(namer, str):
        return lambda args, kwargs, _name=namer: _name
    return namer
