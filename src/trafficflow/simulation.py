"""Decentralized prediction as synchronous rounds of isolated nodes.

Every network point publishes its own sensed condition once per tick; each
eligible point runs a Node that hears only its declared upstream/downstream
neighbours plus its own sensor, buffers the last ``delta + 1`` ticks per
source, and predicts its own next-step condition from a locally assembled
snapshot.  The tick barrier delivers all of a tick's messages before any
node computes, which makes node predictions exactly equal to the
centralized windowed pipeline.

A node never imputes: if any (source, tick) cell of its window is missing
(e.g. a dropped message), it skips that tick and reports the gap.  A hole
at tick k therefore silences a subscriber for ticks k .. k + delta, until
the hole leaves its window.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Callable, Sequence

import numpy as np

from .core import NetworkSpec, PointId, SnapshotConfig, eligible_points, neighbor_rows
from .ingestion import CleanSeries, aligned_grid, context_scalars

__all__ = [
    "ConditionMessage",
    "Node",
    "SimRecord",
    "SimLog",
    "run",
    "SKIP_WARMUP",
    "SKIP_STALE",
]

SKIP_WARMUP = "warmup"
SKIP_STALE = "stale_neighbor"


@dataclass(frozen=True)
class ConditionMessage:
    """One point's condition at one tick, as delivered to a subscriber."""

    from_point: PointId
    tick: int
    timestamp: datetime
    condition: float


@dataclass(frozen=True)
class SimRecord:
    """One line of the prediction log."""

    tick: int
    point_id: str
    prediction: float | None
    skip_reason: str | None = None


@dataclass
class SimLog:
    """Replay result: per-tick records plus message accounting."""

    records: list[SimRecord]
    ticks: int
    subscriptions: int
    messages_delivered: int
    messages_dropped: int

    def predictions(self) -> dict[tuple[int, str], float]:
        return {
            (r.tick, r.point_id): r.prediction
            for r in self.records
            if r.prediction is not None
        }


class Node:
    """One eligible point: a model copy, ring buffers, no global state.

    The node sees exactly its own sensor readings and the condition
    messages of its ``n_in + m_out`` declared neighbours; the locality
    property of the whole scheme rests on this constructor signature.
    """

    def __init__(self, point: PointId, rows: Sequence[PointId], model, cfg: SnapshotConfig):
        self.point = point
        self.cfg = cfg
        self.model = model
        self.row_ids = [p.id for p in rows]
        self.neighbor_ids = frozenset(p.id for p in rows if p.id != point.id)
        self._buffers: dict[str, dict[int, float]] = {pid: {} for pid in self.row_ids}

    def observe(self, tick: int, condition: float) -> None:
        """Record the node's own sensor reading for this tick."""
        self._buffers[self.point.id][tick] = condition

    def receive(self, message: ConditionMessage) -> None:
        if message.from_point.id not in self.neighbor_ids:
            raise ValueError(f"{self.point.id}: unexpected sender {message.from_point.id}")
        self._buffers[message.from_point.id][message.tick] = message.condition

    def step(self, tick: int, timestamp: datetime) -> SimRecord:
        """Attempt a prediction for tick + horizon from the buffered window."""
        window = range(tick - self.cfg.delta, tick + 1)
        if tick < self.cfg.delta:
            self._prune(tick)
            return SimRecord(tick, self.point.id, None, SKIP_WARMUP)
        stale = [
            pid
            for pid in self.row_ids
            if any(t not in self._buffers[pid] for t in window)
        ]
        if stale:
            self._prune(tick)
            return SimRecord(tick, self.point.id, None, f"{SKIP_STALE}:{','.join(stale)}")
        matrix = np.array([[self._buffers[pid][t] for t in window] for pid in self.row_ids])
        day_value, time_value = context_scalars(timestamp)
        prediction = self.model.predict(matrix, day_value, time_value)
        self._prune(tick)
        return SimRecord(tick, self.point.id, prediction, None)

    def _prune(self, tick: int) -> None:
        horizon = tick - self.cfg.delta
        for buffer in self._buffers.values():
            for t in [t for t in buffer if t < horizon]:
                del buffer[t]


def run(
    series: Sequence[CleanSeries],
    spec: NetworkSpec,
    cfg: SnapshotConfig,
    model,
    ticks: int | None = None,
    drop: Callable[[str, str, int], bool] | None = None,
) -> SimLog:
    """Replay aligned series through the node network, synchronously.

    ``drop(from_id, to_id, tick)`` injects message loss.  The replay is
    deterministic; message accounting counts per-subscriber deliveries.
    """
    values, start = aligned_grid(series, spec, cfg.step_minutes)
    total_ticks = values.shape[1] if ticks is None else min(ticks, values.shape[1])

    nodes = [
        Node(point, neighbor_rows(spec, point, cfg), model, cfg)
        for point in eligible_points(spec, cfg)
    ]
    # subscriber index: sender id -> nodes listening to it
    listeners: dict[str, list[Node]] = {p.id: [] for p in spec.points}
    for node in nodes:
        for pid in node.neighbor_ids:
            listeners[pid].append(node)

    position = {p.id: k for k, p in enumerate(spec.points)}
    step = timedelta(minutes=cfg.step_minutes)
    delivered = 0
    dropped = 0
    records: list[SimRecord] = []
    for tick in range(total_ticks):
        timestamp = start + step * tick
        for node in nodes:
            node.observe(tick, float(values[position[node.point.id], tick]))
        for sender in spec.points:
            condition = float(values[position[sender.id], tick])
            for node in listeners[sender.id]:
                if drop is not None and drop(sender.id, node.point.id, tick):
                    dropped += 1
                    continue
                node.receive(ConditionMessage(sender, tick, timestamp, condition))
                delivered += 1
        for node in nodes:
            records.append(node.step(tick, timestamp))

    return SimLog(
        records=records,
        ticks=total_ticks,
        subscriptions=sum(len(node.neighbor_ids) for node in nodes),
        messages_delivered=delivered,
        messages_dropped=dropped,
    )
