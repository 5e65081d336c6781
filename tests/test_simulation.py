"""Decentralized node simulation: warm-up, equivalence, faults, locality."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trafficflow import core, ingestion, models, simulation

from conftest import START, make_network_series


def _world(n_points=12, days=2, seed=3, noise=0.02):
    spec = core.chain_network(n_points, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    profile = ingestion.SyntheticProfile(
        0.9, (ingestion.RushHourDip(10, 13, 0.5, ramp_slots=1),), noise, 1
    )
    series = ingestion.synth(profile, spec, days=days, seed=seed, cfg=cfg)
    return spec, cfg, series


def _tick_of(snap, cfg):
    return int((snap.timestamp - START).total_seconds() // (cfg.step_minutes * 60))


def test_warmup_phase_emits_no_predictions():
    spec, cfg, series = _world()
    model = models.CnnPredictor.initialize(0)
    log = simulation.run(series, spec, cfg, model, ticks=cfg.delta + 2)
    eligible = core.eligible_points(spec, cfg)
    for record in log.records:
        if record.tick < cfg.delta:
            assert record.prediction is None
            assert record.skip_reason == simulation.SKIP_WARMUP
        else:
            assert record.prediction is not None
    warmups = [r for r in log.records if r.skip_reason == simulation.SKIP_WARMUP]
    assert len(warmups) == cfg.delta * len(eligible)


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_node_predictions_bit_identical_to_centralized_pipeline(kind):
    spec, cfg, series = _world()
    model = (models.CnnPredictor if kind == "cnn" else models.LstmPredictor).initialize(5)
    dataset = ingestion.window(series, spec, cfg)
    log = simulation.run(series, spec, cfg, model)
    sims = log.predictions()
    assert sims, "simulation produced no predictions"
    central = model.predict_dataset(dataset)
    for row, snap in enumerate(dataset.snapshots):
        key = (_tick_of(snap, cfg), snap.point.id)
        assert key in sims
        assert sims[key] == model.predict_snapshot(snap)
        assert sims[key] == central[row]


def _node_step_replay(series, spec, cfg, model, drop, ticks=None):
    """The replay with each node predicting on its own, through ``Node.step``:
    its records and the messages delivered and dropped."""
    values, _ = ingestion.aligned_grid(series, spec, cfg.step_minutes)
    by_id = {p.id: p for p in spec.points}
    nodes = [simulation.Node(p, core.neighbor_rows(spec, p, cfg), model, cfg) for p in core.eligible_points(spec, cfg)]
    records = []
    delivered = dropped = 0
    for tick in range(values.shape[1] if ticks is None else min(ticks, values.shape[1])):
        column = dict(zip(by_id, values[:, tick].tolist()))
        for node in nodes:
            node.observe(tick, column[node.point.id])
            for pid in sorted(node.neighbor_ids):
                if drop(pid, node.point.id, tick):
                    dropped += 1
                else:
                    node.receive(simulation.ConditionMessage(by_id[pid], tick, column[pid]))
                    delivered += 1
        records.extend(node.step(tick) for node in nodes)
    return records, delivered, dropped


class _Padded:
    """A predictor on windows of any geometry up to 9 x 5: each window is
    zero-padded into a snapshot matrix, which the 9 x 5 geometry leaves as
    it is."""

    def __init__(self, model):
        self.model = model

    @staticmethod
    def _pad(windows):
        out = np.zeros(windows.shape[:-2] + (models.SNAP_ROWS, models.SNAP_COLS))
        out[..., : windows.shape[-2], : windows.shape[-1]] = windows
        return out

    def predict(self, window):
        return self.model.predict(self._pad(window))

    def predict_dataset(self, dataset, chunk=models.PREDICT_CHUNK):
        return self.model.forward_batch(self._pad(dataset.matrices()))[0]


@st.composite
def _replays(draw):
    """(n_in, m_out, delta, horizon, points, ticks, drop rate, drop seed) of a
    replay: networks from no eligible node up, ticks from none to the whole
    series."""
    n_in, m_out = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    delta, horizon = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    points = n_in + m_out + draw(st.integers(0 if n_in + m_out else 1, 3))
    ticks = draw(st.none() | st.integers(0, delta - 1))
    return n_in, m_out, delta, horizon, points, ticks, draw(st.floats(0, 0.1)), draw(st.integers(0, 2**16))


_FIRST_REPLAY = (4, 4, 4, 1, 12, None, 0.03, 4)  # the benchmark geometry, two days


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
@given(replay=_replays())
@example(replay=_FIRST_REPLAY)
def test_run_gives_the_records_of_a_per_node_step_replay(kind, replay):
    # run decides every record first and predicts all fresh windows in one
    # predict_dataset call; each record must still be the node's own step:
    # same order, same skips, same prediction bits, and the same message
    # counts, up to the last tick, whose target lies beyond the series
    n_in, m_out, delta, horizon, points, ticks, rate, seed = replay
    spec, cfg, series = _world(points, days=2 if replay == _FIRST_REPLAY else 1)
    cfg = dataclasses.replace(cfg, delta=delta, n_in=n_in, m_out=m_out, horizon_steps=horizon)
    model = _Padded(models.KINDS[kind].initialize(8))
    rng = np.random.default_rng(seed)
    dropped = {
        (pid, node.id, int(t))
        for node in core.eligible_points(spec, cfg)
        for pid in (p.id for p in core.neighbor_rows(spec, node, cfg) if p != node)
        for t in np.flatnonzero(rng.random(len(series[0].values)) < rate)
    }

    def drop(sender, receiver, tick):
        return (sender, receiver, tick) in dropped

    log = simulation.run(series, spec, cfg, model, ticks=ticks, drop=drop)
    reference, delivered, lost = _node_step_replay(series, spec, cfg, model, drop, ticks)
    assert (log.messages_delivered, log.messages_dropped) == (delivered, lost)
    assert lost == sum(t < log.ticks for *_, t in dropped)
    if replay == _FIRST_REPLAY:  # the drops silence nodes beyond the warm-up
        assert lost > 0
        assert sum(r.prediction is None for r in reference) > len(core.eligible_points(spec, cfg)) * delta
    assert [(r.tick, r.point_id, r.skip_reason) for r in log.records] == [
        (r.tick, r.point_id, r.skip_reason) for r in reference
    ]
    got = np.array([np.nan if r.prediction is None else r.prediction for r in log.records])
    want = np.array([np.nan if r.prediction is None else r.prediction for r in reference])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_run_predicts_all_fresh_windows_in_one_predict_dataset_call():
    # at the default chunk; a replay with no fresh window calls no model
    spec, cfg, series = _world()
    calls = []

    class Counting(_Padded):
        def predict(self, window):
            raise AssertionError("run predicted a single window")

        def predict_dataset(self, dataset, chunk=models.PREDICT_CHUNK):
            calls.append((dataset.z, chunk))
            return super().predict_dataset(dataset, chunk)

    model = Counting(models.CnnPredictor.initialize(0))
    log = simulation.run(series, spec, cfg, model, ticks=cfg.delta + 3)
    assert calls == [(len(log.predictions()), models.PREDICT_CHUNK)]
    simulation.run(series, spec, cfg, model, ticks=cfg.delta)
    assert len(calls) == 1


def test_drop_is_asked_once_per_link_and_tick_in_network_then_node_order():
    # senders in network order, each sender's listeners in node order; a
    # predicate that keeps state sees the same sequence whatever it answers
    spec, cfg, series = _world()
    cfg = dataclasses.replace(cfg, n_in=2, m_out=3)
    nodes = core.eligible_points(spec, cfg)
    calls = []

    def drop(sender, receiver, tick):
        calls.append((sender, receiver, tick))
        return len(calls) % 7 == 0

    ticks = cfg.delta + 3
    log = simulation.run(series, spec, cfg, _Padded(models.CnnPredictor.initialize(0)), ticks=ticks, drop=drop)
    assert calls == [
        (sender.id, node.id, tick)
        for tick in range(ticks)
        for sender in spec.points
        for node in nodes
        if sender != node and sender in core.neighbor_rows(spec, node, cfg)
    ]
    assert log.messages_dropped == len(calls) // 7
    assert log.messages_delivered == len(calls) - len(calls) // 7


def test_simulation_covers_final_ticks_without_targets():
    # the node predicts at the last tick too, where no windowed snapshot
    # exists because the target is beyond the series end
    spec, cfg, series = _world()
    model = models.CnnPredictor.initialize(1)
    dataset = ingestion.window(series, spec, cfg)
    log = simulation.run(series, spec, cfg, model)
    last_tick = len(series[0]) - 1
    dataset_ticks = {_tick_of(s, cfg) for s in dataset.snapshots}
    assert last_tick not in dataset_ticks
    assert any(r.tick == last_tick and r.prediction is not None for r in log.records)


def test_message_accounting():
    spec, cfg, series = _world()
    model = models.CnnPredictor.initialize(0)
    ticks = 10
    log = simulation.run(series, spec, cfg, model, ticks=ticks)
    eligible = core.eligible_points(spec, cfg)
    assert log.subscriptions == len(eligible) * (cfg.n_in + cfg.m_out)
    assert log.messages_delivered == ticks * log.subscriptions
    assert log.messages_dropped == 0
    # coarse upper bound: every point fanning out to every node
    assert log.messages_delivered <= ticks * len(spec.points) * (cfg.n_in + cfg.m_out)


@pytest.mark.parametrize("k", [0, 12, -1], ids=["warmup", "mid", "last"])
def test_dropped_message_silences_dependent_windows_only(k):
    spec, cfg, series = _world(noise=0.0)
    model = models.CnnPredictor.initialize(2)
    last = len(series[0]) - 1
    k %= last + 1
    victim = spec.points[6].id

    def drop(sender, receiver, tick):
        return sender == victim and tick == k

    clean_log = simulation.run(series, spec, cfg, model)
    faulty_log = simulation.run(series, spec, cfg, model, drop=drop)
    assert faulty_log.messages_dropped > 0

    stale = [r for r in faulty_log.records if r.skip_reason and r.skip_reason.startswith(simulation.SKIP_STALE)]
    # subscribers of the victim skip exactly the ticks past the warm-up
    # whose window spans k
    expected_ticks = set(range(max(k, cfg.delta), min(k + cfg.delta, last) + 1))
    assert expected_ticks
    assert {r.tick for r in stale} == expected_ticks
    subscribers = {
        p.id
        for p in core.eligible_points(spec, cfg)
        if victim in {q.id for q in core.neighbor_rows(spec, p, cfg)} and p.id != victim
    }
    assert {r.point_id for r in stale} == subscribers
    for record in stale:
        assert victim in record.skip_reason

    # everyone else's predictions are unchanged, bit for bit
    clean_preds = clean_log.predictions()
    faulty_preds = faulty_log.predictions()
    for key, value in faulty_preds.items():
        assert clean_preds[key] == value
    lost = set(clean_preds) - set(faulty_preds)
    assert lost == {(t, pid) for t in expected_ticks for pid in subscribers}


def test_out_of_window_drop_has_no_effect():
    spec, cfg, series = _world()
    model = models.CnnPredictor.initialize(2)
    log = simulation.run(series, spec, cfg, model, ticks=8,
                         drop=lambda s, r, t: t >= 100)
    assert log.messages_dropped == 0
    assert not [r for r in log.records if r.skip_reason and r.skip_reason.startswith(simulation.SKIP_STALE)]


def test_zero_tick_run_is_empty():
    spec, cfg, series = _world()
    model = models.CnnPredictor.initialize(0)
    log = simulation.run(series, spec, cfg, model, ticks=0)
    assert log.records == []
    assert log.messages_delivered == 0
    assert log.predictions() == {}


@pytest.mark.parametrize("ticks", [-1, -5])
def test_run_refuses_a_negative_tick_count(ticks):
    spec, cfg, series = _world()
    with pytest.raises(ValueError, match=f"ticks must not be negative, got {ticks}"):
        simulation.run(series, spec, cfg, models.CnnPredictor.initialize(0), ticks=ticks)


def test_replay_is_deterministic():
    spec, cfg, series = _world()
    model = models.LstmPredictor.initialize(9)
    a = simulation.run(series, spec, cfg, model)
    b = simulation.run(series, spec, cfg, model)
    assert a.records == b.records
    assert a.messages_delivered == b.messages_delivered


def test_locality_non_neighbor_noise_does_not_change_predictions():
    spec, cfg, series = _world(noise=0.0)
    model = models.CnnPredictor.initialize(4)
    target_point = core.eligible_points(spec, cfg)[1]  # order_index 5
    neighborhood = {p.order_index for p in core.neighbor_rows(spec, target_point, cfg)}

    rng = np.random.default_rng(99)
    noisy_values = np.stack([
        s.values if s.point.order_index in neighborhood else rng.uniform(0, 1, size=len(s))
        for s in series
    ])
    noisy_series = make_network_series(noisy_values, spec)

    base = simulation.run(series, spec, cfg, model).predictions()
    noisy = simulation.run(noisy_series, spec, cfg, model).predictions()
    ticks = {t for (t, pid) in base if pid == target_point.id}
    assert ticks
    for t in ticks:
        assert base[(t, target_point.id)] == noisy[(t, target_point.id)]


def test_run_requires_full_point_coverage():
    spec, cfg, series = _world()
    with pytest.raises(ingestion.MisalignedSeriesError):
        simulation.run(series[:-1], spec, cfg, models.CnnPredictor.initialize(0))


def test_node_rejects_messages_from_strangers():
    spec, cfg, series = _world()
    point = core.eligible_points(spec, cfg)[0]
    node = simulation.Node(point, core.neighbor_rows(spec, point, cfg),
                           models.CnnPredictor.initialize(0), cfg)
    stranger = spec.points[-1]
    message = simulation.ConditionMessage(stranger, 0, 0.5)
    with pytest.raises(ValueError, match="unexpected sender"):
        node.receive(message)


# ---------------------------------------------------------------------------
# delivery order, duplicates and late messages


@lru_cache(maxsize=None)
def _schedule_world():
    """A small world, a CNN, and the central predictions."""
    spec, cfg, series = _world(n_points=10, days=1)
    model = models.CnnPredictor.initialize(7)
    central = {
        (_tick_of(snap, cfg), snap.point.id): model.predict_snapshot(snap)
        for snap in ingestion.window(series, spec, cfg).snapshots
    }
    values = {s.point.id: s.values for s in series}
    return spec, cfg, model, central, values


@given(data=st.data())
def test_node_matches_central_under_any_timely_schedule(data):
    # each (sender, tick) cell arrives in its own tick, in any order, with
    # repeats and late copies of older ticks mixed in; at most one cell is
    # missed.  A complete window must predict exactly what the central
    # pipeline does; an incomplete one must skip, naming every sender whose
    # cell is missing.
    spec, cfg, model, central, values = _schedule_world()
    point = data.draw(st.sampled_from(core.eligible_points(spec, cfg)))
    rows = core.neighbor_rows(spec, point, cfg)
    by_id = {p.id: p for p in rows}
    row_ids = [p.id for p in rows]
    node = simulation.Node(point, rows, model, cfg)
    ticks = 3 * cfg.cols
    missed = data.draw(st.none() | st.tuples(st.sampled_from(row_ids), st.integers(0, ticks - 1)))

    delivered = set()
    for tick in range(ticks):
        cells = [(pid, tick) for pid in row_ids if (pid, tick) != missed]
        repeats = data.draw(st.lists(st.sampled_from(cells), max_size=3))
        late = []
        if tick > 0:
            late = data.draw(
                st.lists(st.tuples(st.sampled_from(row_ids), st.integers(0, tick - 1)), max_size=3)
            )
        for pid, t in data.draw(st.permutations(cells + repeats + late)):
            condition = float(values[pid][t])
            if pid == point.id:
                node.observe(t, condition)
            else:
                node.receive(simulation.ConditionMessage(by_id[pid], t, condition))
            delivered.add((pid, t))

        record = node.step(tick)
        if tick < cfg.delta:
            assert record.skip_reason == simulation.SKIP_WARMUP
            continue
        window = range(tick - cfg.delta, tick + 1)
        stale = [pid for pid in row_ids if any((pid, t) not in delivered for t in window)]
        if stale:
            assert record.prediction is None
            assert record.skip_reason == f"{simulation.SKIP_STALE}:{','.join(stale)}"
        else:
            assert record.skip_reason is None
            assert record.prediction == central[(tick, point.id)]
        if missed is not None and missed[1] == tick:
            assert missed[0] in stale


class _Recorder:
    """A model that records the matrix it is asked to predict from."""

    def predict(self, matrix):
        self.matrix = matrix.copy()
        return 0.5


def test_node_slot_keeps_newest_tick_and_last_duplicate():
    spec, cfg, _ = _world()
    point = core.eligible_points(spec, cfg)[0]
    rows = core.neighbor_rows(spec, point, cfg)
    sender = rows[0]
    recorder = _Recorder()
    node = simulation.Node(point, rows, recorder, cfg)

    def deliver(tick, value):
        node.observe(tick, value)
        for p in rows:
            if p.id != point.id:
                node.receive(simulation.ConditionMessage(p, tick, value))

    for tick in range(cfg.cols + 1):
        deliver(tick, tick / 10)
    last = cfg.cols  # window 1 .. cols; tick 0 has left it
    assert node.step(last).prediction == 0.5
    np.testing.assert_array_equal(recorder.matrix[0], np.arange(1, last + 1) / 10)

    # a late copy of tick 0 shares its slot with tick cols: ignored
    node.receive(simulation.ConditionMessage(sender, 0, 0.25))
    # a repeat of tick cols - 1 overwrites it: the last copy wins
    node.receive(simulation.ConditionMessage(sender, last - 1, 0.75))
    node.receive(simulation.ConditionMessage(sender, last - 1, 0.125))
    assert node.step(last).prediction == 0.5
    assert recorder.matrix[0].tolist() == [*(t / 10 for t in range(1, last - 1)), 0.125, last / 10]
    assert recorder.matrix[1:].tolist() == [[t / 10 for t in range(1, last + 1)]] * (len(rows) - 1)


def _node_and_sender(own):
    spec, cfg, _ = _world()
    point = core.eligible_points(spec, cfg)[0]
    rows = core.neighbor_rows(spec, point, cfg)
    node = simulation.Node(point, rows, _Recorder(), cfg)
    return node, rows, point if own else next(p for p in rows if p.id != point.id)


def _send(node, sender, tick, condition):
    if sender == node.point:
        node.observe(tick, condition)
    else:
        node.receive(simulation.ConditionMessage(sender, tick, condition))


@pytest.mark.parametrize("condition", [float("nan"), float("inf"), -float("inf"), 7.0, -0.25, 1.0 + 1e-12])
@pytest.mark.parametrize("own", [True, False], ids=["observe", "receive"])
def test_node_refuses_a_condition_outside_the_unit_interval(condition, own):
    node, rows, sender = _node_and_sender(own)
    span = node.cfg.cols
    for tick in range(span):
        for p in rows:
            _send(node, p, tick, 0.5)
    tick = span - 1
    with pytest.raises(ValueError) as err:
        _send(node, sender, tick, condition)
    assert str(err.value) == f"{node.point.id}: condition {condition} from {sender.id} at tick {tick} is not in [0, 1]"
    # the refused reading left the window as it was
    assert node.step(tick).prediction == 0.5
    np.testing.assert_array_equal(node.model.matrix, np.full((len(rows), span), 0.5))


@pytest.mark.parametrize("condition", [0.0, -0.0, 1.0])
@pytest.mark.parametrize("own", [True, False], ids=["observe", "receive"])
def test_node_accepts_the_unit_interval_bounds(condition, own):
    node, rows, sender = _node_and_sender(own)
    for tick in range(node.cfg.cols):
        for p in rows:
            _send(node, p, tick, condition if p == sender else 0.5)
    assert node.step(node.cfg.cols - 1).prediction == 0.5
    assert node.model.matrix[rows.index(sender)].tolist() == [condition] * node.cfg.cols


def test_node_refuses_a_message_more_than_one_tick_ahead():
    node, rows, sender = _node_and_sender(own=False)
    span = node.cfg.cols
    for tick in range(span):
        for p in rows:
            _send(node, p, tick, 0.5)
    # the newest own reading is tick span - 1: tick span is timely, span + 1 is not
    with pytest.raises(ValueError) as err:
        _send(node, sender, span + 1, 0.25)
    assert str(err.value) == (
        f"{node.point.id}: message from {sender.id} at tick {span + 1} is ahead of the node's tick {span - 1}"
    )
    # the refused message left the window as it was
    assert node.step(span - 1).prediction == 0.5
    np.testing.assert_array_equal(node.model.matrix, np.full((len(rows), span), 0.5))
    _send(node, sender, span, 0.25)


def test_a_message_of_the_next_tick_takes_the_oldest_slot_of_the_window():
    # tick span shares its ring slot with tick 0, the oldest tick of tick
    # span - 1's window: a step of that tick after it finds the window stale
    node, rows, sender = _node_and_sender(own=False)
    span = node.cfg.cols
    for tick in range(span):
        for p in rows:
            _send(node, p, tick, 0.5)
    _send(node, sender, span, 0.25)
    assert node.step(span - 1).skip_reason == f"{simulation.SKIP_STALE}:{sender.id}"
    for p in rows:
        if p != sender:
            _send(node, p, span, 0.5)
    assert node.step(span).prediction == 0.5
    assert node.model.matrix[rows.index(sender)].tolist() == [0.5] * (span - 1) + [0.25]


def test_a_message_stamped_far_ahead_no_longer_silences_the_node():
    # the tick-99 message would take the ring slot of tick 4, 9, 14 and 19,
    # and every step from tick 4 to tick 19 would skip as stale
    node, rows, sender = _node_and_sender(own=False)
    records = []
    for tick in range(20):
        for p in rows:
            _send(node, p, tick, 0.5)
        if tick == 4:
            with pytest.raises(ValueError, match=f"from {sender.id} at tick 99 "):
                _send(node, sender, 99, 0.5)
        records.append(node.step(tick))
    assert [r.prediction for r in records[4:]] == [0.5] * 16


def test_node_clock_runs_on_past_a_missed_own_reading():
    # step advances the clock, so with the own reading of tick 5 lost, the
    # neighbours' messages of tick 6 are still timely before the node's own
    node, rows, sender = _node_and_sender(own=False)
    for tick in range(8):
        for p in sorted(rows, key=lambda p: p == node.point):  # own reading last
            if (p, tick) != (node.point, 5):
                _send(node, p, tick, 0.5)
        node.step(tick)
    assert node.step(7).skip_reason == f"{simulation.SKIP_STALE}:{node.point.id}"
