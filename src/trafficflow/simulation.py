"""Decentralized prediction as synchronous rounds of isolated nodes.

Every network point publishes its own sensed condition once per tick; each
eligible point runs a Node that hears only its declared upstream/downstream
neighbours plus its own sensor, keeps the last ``delta + 1`` ticks per
source in a ring buffer, and predicts its own next-step condition from a
locally assembled snapshot.  The tick barrier delivers all of a tick's
messages before any node computes, which makes node predictions exactly
equal to the centralized windowed pipeline.

``run`` builds no nodes.  Its only fault is a dropped message, and a
delivered cell holds the grid's value, so each node's window is the grid's
block of the node's rows whenever none of its cells was dropped.  ``run``
notes the newest tick at which each link was dropped, decides every record,
then predicts all fresh windows in one ``predict_dataset`` call, whose bits
do not depend on the batch (see ``nn``): each equals the node's ``predict``.
``Node`` is the checked boundary for messages from outside a replay and
the reference that ``run``'s records must equal.

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
from typing import Callable, Sequence

import numpy as np

from .core import NetworkSpec, PointId, SnapshotConfig, eligible_points, frozen, neighbor_rows
from .ingestion import CleanSeries, Dataset, Windows, aligned_grid

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
    messages of its ``n_in + m_out`` declared neighbours, the rows it is
    built with; the locality property of the whole scheme rests on this.
    ``receive`` is the checked per-message boundary for messages from
    outside a replay; ``run`` replays without nodes, and its records equal
    every node's ``step``.

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
        span = self._span = cfg.cols
        self._values = np.zeros((len(rows), span))
        self._stamps = np.full(self._values.shape, -1)  # -1: never written
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
        window = np.arange(tick - delta, tick + 1)
        slots = window % self._span
        fresh = self._stamps[:, slots] == window
        if fresh.all():
            return self._values[:, slots]
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

    ``drop(from_id, to_id, tick)`` injects message loss.  It is called once
    per link and tick: senders in network order, each sender's listeners in
    node order.  The replay is deterministic; message accounting counts
    per-subscriber deliveries.  Each tick's records equal every node's
    ``step``, in node order; one ``model.predict_dataset`` after the tick
    loop, at the model's default chunk, predicts the fresh windows of every
    tick.  ``ticks`` (default: the whole series) must not be negative;
    ValueError otherwise.

    A row is stale while the newest tick at which its link was dropped lies
    in the window.  No check of ``receive`` could fire on a replay:
    CleanSeries holds only conditions in [0, 1], every sender is one of the
    node's own rows, and every message is stamped with the node's own tick.
    """
    if ticks is not None and ticks < 0:
        raise ValueError(f"ticks must not be negative, got {ticks}")
    values, start = aligned_grid(series, spec, cfg.step_minutes)
    total_ticks = values.shape[1] if ticks is None else min(ticks, values.shape[1])
    delta = cfg.delta

    points = eligible_points(spec, cfg)
    rows = [neighbor_rows(spec, point, cfg) for point in points]
    position = {p.id: k for k, p in enumerate(spec.points)}
    # source[k, r]: network position of node k's row r
    source = np.array([[position[p.id] for p in row] for row in rows], dtype=np.intp).reshape(len(points), cfg.rows)
    # (sender, listener, node, row) of every link: senders in network order,
    # each sender's listeners in node order
    links = [
        (spec.points[s].id, points[k].id, k, r)
        for s, k, r in sorted((s, k, r) for (k, r), s in np.ndenumerate(source) if r != cfg.n_in)
    ]
    ids = [point.id for point in points]
    # lost[k, r]: the newest tick at which node k's row r was dropped
    lost = np.full(source.shape, -delta - 1)
    # fresh[t, k]: node k's window at tick t is complete, its record predicted below
    fresh = np.zeros((total_ticks, len(points)), dtype=bool)

    delivered = 0
    dropped = 0
    records: list[SimRecord | None] = []
    for tick in range(total_ticks):
        cut = [(k, r) for sender, receiver, k, r in links if drop(sender, receiver, tick)] if drop is not None else []
        if cut:  # lost[()] would write every cell
            lost[tuple(zip(*cut))] = tick
        delivered += len(links) - len(cut)
        dropped += len(cut)

        if tick < delta:
            records.extend(SimRecord(tick, pid, None, SKIP_WARMUP) for pid in ids)
            continue
        stale = lost >= tick - delta
        fresh[tick] = ~stale.any(axis=1)
        for k, (pid, ok) in enumerate(zip(ids, fresh[tick].tolist())):
            if ok:
                records.append(None)
            else:  # the stale rows' senders, in row order
                names = ",".join(spec.points[s].id for s in source[k, stale[k]])
                records.append(SimRecord(tick, pid, None, f"{SKIP_STALE}:{names}"))

    column, node = np.nonzero(fresh)
    if column.size:
        # the pad stands in for the target columns Dataset wants; nothing reads it
        grid = frozen(np.pad(values[:, :total_ticks], ((0, 0), (0, cfg.horizon_steps))))
        windows = Dataset(Windows(grid, start, frozen(node + cfg.n_in), frozen(column)), cfg, spec)
        predictions = model.predict_dataset(windows)
        for tick, k, prediction in zip(column.tolist(), node.tolist(), predictions.tolist()):
            records[tick * len(points) + k] = SimRecord(tick, ids[k], prediction)

    return SimLog(
        records=records,
        ticks=total_ticks,
        subscriptions=len(links),
        messages_delivered=delivered,
        messages_dropped=dropped,
    )
