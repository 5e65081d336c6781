"""Decentralized prediction as synchronous rounds of isolated nodes.

Every network point publishes its own sensed condition once per tick; each
eligible point runs a Node that hears only its declared upstream/downstream
neighbours plus its own sensor, keeps the last ``delta + 1`` ticks per
source in a ring buffer, and predicts its own next-step condition from a
locally assembled snapshot.  The tick barrier delivers all of a tick's
messages before any node computes, which makes node predictions exactly
equal to the centralized windowed pipeline.

Each node assembles its own window; the replay then runs the model once per
tick over the stack of that tick's fresh windows.  Every product of that
pass runs per sample (``predict_each``), so each node's prediction is,
bit for bit, the one its own ``predict`` would give.

Delivery order within a tick does not matter.  Each ring slot keeps the
newest tick written to it: a late message older than its slot's tick is
ignored, and a duplicate (sender, tick) overwrites the earlier copy, the
last one winning.  So any schedule that delivers each (sender, tick) before
that tick's barrier gives the centralized predictions bit for bit.

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
from .ingestion import CleanSeries, aligned_grid

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
    """One eligible point: a model copy, a ring buffer, no global state.

    The node sees exactly its own sensor readings and the condition
    messages of its ``n_in + m_out`` declared neighbours; the locality
    property of the whole scheme rests on this constructor signature.

    Each source row keeps ``delta + 1`` slots; tick t goes to slot
    ``t % (delta + 1)``, stamped with t.  A slot keeps the newest tick it
    was given: a message older than its slot's stamp is ignored, so a late
    copy never overwrites newer data, and a repeat of the same (sender,
    tick) overwrites it, so the last one wins.  A reading of tick t arrives
    no earlier than tick t, when its sender publishes it.

    ``observe`` and ``receive`` raise ValueError, naming the node, the
    sender and the tick, for a condition that is not a number in [0, 1]
    (NaN and infinities included); the buffer is left as it was.

    ``receive`` also raises it, leaving the buffer as it was, for a message
    stamped more than one tick after the node's clock, the newest tick it
    observed or stepped; such a message would take a slot still in the
    window.  One tick of slack lets neighbours' messages arrive before the
    node's own reading of that tick.
    """

    def __init__(self, point: PointId, rows: Sequence[PointId], model, cfg: SnapshotConfig):
        self.point = point
        self.cfg = cfg
        self.model = model
        self.row_ids = [p.id for p in rows]
        self.neighbor_ids = frozenset(p.id for p in rows if p.id != point.id)
        self._row = {pid: r for r, pid in enumerate(self.row_ids)}
        self._span = cfg.cols
        self._values = np.zeros((len(self.row_ids), self._span))
        self._stamps = np.full((len(self.row_ids), self._span), -1)  # -1: never written
        # row t % span: the slots of ticks t - delta .. t, oldest first
        self._slots = (np.arange(self._span)[:, None] + np.arange(1, self._span + 1)) % self._span
        self._clock = -1  # newest tick observed or stepped

    def observe(self, tick: int, condition: float) -> None:
        """Record the node's own sensor reading for this tick."""
        self._store(self._row[self.point.id], tick, condition)
        if tick > self._clock:
            self._clock = tick

    def receive(self, message: ConditionMessage) -> None:
        if message.from_point.id not in self.neighbor_ids:
            raise ValueError(f"{self.point.id}: unexpected sender {message.from_point.id}")
        if message.tick > self._clock + 1:
            raise ValueError(
                f"{self.point.id}: message from {message.from_point.id} at tick {message.tick} "
                f"is ahead of the node's tick {self._clock}"
            )
        self._store(self._row[message.from_point.id], message.tick, message.condition)

    def _store(self, row: int, tick: int, condition: float) -> None:
        if not 0.0 <= condition <= 1.0:  # false for NaN too
            raise ValueError(
                f"{self.point.id}: condition {condition} from {self.row_ids[row]} at tick {tick} is not in [0, 1]"
            )
        slot = tick % self._span
        if tick >= self._stamps[row, slot]:
            self._stamps[row, slot] = tick
            self._values[row, slot] = condition

    def window(self, tick: int) -> np.ndarray | SimRecord:
        """The buffered (rows, delta + 1) window for tick, oldest column
        first, or the skip record when the window is incomplete."""
        if tick > self._clock:
            self._clock = tick
        delta = self.cfg.delta
        if tick < delta:
            return SimRecord(tick, self.point.id, None, SKIP_WARMUP)
        # slot s only ever holds ticks congruent to s mod delta + 1, so the window is
        # fresh exactly when every stamp lies in [tick - delta, tick]
        stamps = self._stamps
        if stamps.min() >= tick - delta and stamps.max() <= tick:
            return self._values[:, self._slots[tick % self._span]]
        window = np.arange(tick - delta, tick + 1)
        fresh = stamps[:, window % self._span] == window
        stale = [self.row_ids[r] for r in np.flatnonzero(~fresh.all(axis=1))]
        return SimRecord(tick, self.point.id, None, f"{SKIP_STALE}:{','.join(stale)}")

    def step(self, tick: int) -> SimRecord:
        """Attempt a prediction for tick + horizon from the buffered window."""
        window = self.window(tick)
        if isinstance(window, SimRecord):
            return window
        return SimRecord(tick, self.point.id, self.model.predict(window), None)


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
    Each tick's records equal every node's ``step``, in node order, with one
    ``model.predict_each`` over the tick's fresh windows.
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
        column = values[:, tick].tolist()
        for node in nodes:
            node.observe(tick, column[position[node.point.id]])
        for sender, condition in zip(spec.points, column):
            # one immutable message per sender and tick, shared by its listeners
            message = ConditionMessage(sender, tick, timestamp, condition)
            for node in listeners[sender.id]:
                if drop is not None and drop(sender.id, node.point.id, tick):
                    dropped += 1
                    continue
                node.receive(message)
                delivered += 1
        windows = [node.window(tick) for node in nodes]
        fresh = [w for w in windows if not isinstance(w, SimRecord)]
        predictions = iter(model.predict_each(np.stack(fresh)).tolist() if fresh else ())
        records.extend(
            w if isinstance(w, SimRecord) else SimRecord(tick, node.point.id, next(predictions), None)
            for node, w in zip(nodes, windows)
        )

    return SimLog(
        records=records,
        ticks=total_ticks,
        subscriptions=sum(len(node.neighbor_ids) for node in nodes),
        messages_delivered=delivered,
        messages_dropped=dropped,
    )
