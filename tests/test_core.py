"""Network/snapshot value types and neighbour-row geometry."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trafficflow import core


def test_chain_network_is_ordered():
    spec = core.chain_network(5, 60.0)
    assert [p.order_index for p in spec.points] == [0, 1, 2, 3, 4]
    assert spec.speed_limits == (60.0,) * 5


@pytest.mark.parametrize("count", [-1, -10**30])
def test_chain_network_rejects_a_negative_point_count(count):
    # a count past the index range once escaped as an OverflowError
    with pytest.raises(ValueError, match=f"got {count}"):
        core.chain_network(count, 60.0)


def test_network_spec_rejects_unsorted_points():
    points = (core.PointId("a", 1), core.PointId("b", 0))
    with pytest.raises(ValueError, match="increasing order_index"):
        core.NetworkSpec(points=points, speed_limits=(60.0, 60.0))


def test_network_spec_rejects_nonpositive_speed_limit():
    points = (core.PointId("a", 0),)
    with pytest.raises(ValueError, match="positive"):
        core.NetworkSpec(points=points, speed_limits=(0.0,))


@pytest.mark.parametrize("points,limits,message", [
    ([core.PointId("a", 0)], (60.0,), "NetworkSpec.points must be of type tuple, got [PointId(id='a', order_index=0)]"),
    ((core.PointId("a", 0), "b"), (60.0, 60.0), "NetworkSpec.points[1] must be of type PointId, got 'b'"),
    ((core.PointId("a", 0),), (None,), "NetworkSpec.speed_limits[0] must be of type float, got None"),
    ((core.PointId("a", 0),), (True,), "NetworkSpec.speed_limits[0] must be of type float, got True"),
    ((core.PointId("a", 0),), (float("nan"),), "speed limits must be strictly positive"),
])
def test_network_spec_checks_each_point_and_limit_against_its_annotation(points, limits, message):
    with pytest.raises(ValueError) as err:
        core.NetworkSpec(points, limits)
    assert str(err.value) == message


def test_network_spec_stores_limits_as_floats():
    spec = core.NetworkSpec((core.PointId("a", 0),), (np.int64(60),))
    assert spec.speed_limits == (60.0,) and type(spec.speed_limits[0]) is float


@pytest.mark.parametrize("kwargs", [
    {"delta": 0},
    {"n_in": -1},
    {"m_out": -1},
    {"step_minutes": 0},
    {"horizon_steps": 0},
    {"delta": "4"},
    {"delta": True},
    {"step_minutes": 30.0},
    {"n_in": None},
    {"step_minutes": 24 * 60 + 1},
    {"step_minutes": 10**30},
    {"delta": 10**30},
    {"n_in": 10**30},
    {"m_out": 10**30},
    {"horizon_steps": 10**30},
])
def test_snapshot_config_validation(kwargs):
    with pytest.raises(ValueError):
        core.SnapshotConfig(**kwargs)


def test_snapshot_config_names_the_field_out_of_its_range():
    for key, lo in (("delta", 1), ("n_in", 0), ("m_out", 0), ("horizon_steps", 1)):
        core.SnapshotConfig(**{key: 2**20})
        for value in (lo - 1, 2**20 + 1):
            with pytest.raises(ValueError) as err:
                core.SnapshotConfig(**{key: value})
            assert str(err.value) == f"{key} must be in [{lo}, 1048576], got {value}"


def test_integer_fields_take_numpy_integers_as_python_ints():
    cfg = core.SnapshotConfig(delta=np.int64(3), step_minutes=np.int32(30))
    assert (cfg.delta, cfg.step_minutes) == (3, 30)
    assert type(cfg.delta) is int and type(cfg.step_minutes) is int


def test_default_config_is_nine_by_five():
    cfg = core.SnapshotConfig()
    assert (cfg.rows, cfg.cols) == (9, 5)
    assert (cfg.delta, cfg.n_in, cfg.m_out, cfg.step_minutes, cfg.horizon_steps) == (4, 4, 4, 5, 1)


def test_fifty_eligible_points_in_58_point_network():
    spec = core.chain_network(58, 65.0)
    cfg = core.SnapshotConfig()
    eligible = core.eligible_points(spec, cfg)
    assert len(eligible) == 50
    orders = [p.order_index for p in eligible]
    assert orders == list(range(4, 54))
    for order in (0, 1, 2, 3, 54, 55, 56, 57):
        with pytest.raises(core.BoundaryPointError):
            core.neighbor_rows(spec, spec.points[order], cfg)


def test_neighbor_rows_degenerate_no_neighbors():
    spec = core.chain_network(3, 60.0)
    cfg = core.SnapshotConfig(n_in=0, m_out=0)
    rows = core.neighbor_rows(spec, spec.points[1], cfg)
    assert rows == [spec.points[1]]


def test_neighbor_rows_hand_enumerated():
    # order_index 10 with n=2, m=1: [L_2, L_1, S, R_1] = indices 8..11
    spec = core.chain_network(15, 60.0)
    cfg = core.SnapshotConfig(n_in=2, m_out=1)
    rows = core.neighbor_rows(spec, spec.points[10], cfg)
    assert [p.order_index for p in rows] == [8, 9, 10, 11]


@given(
    n_points=st.integers(1, 30),
    n_in=st.integers(0, 5),
    m_out=st.integers(0, 5),
)
def test_eligible_count_property(n_points, n_in, m_out):
    spec = core.chain_network(n_points, 60.0)
    cfg = core.SnapshotConfig(n_in=n_in, m_out=m_out)
    assert len(core.eligible_points(spec, cfg)) == max(0, n_points - n_in - m_out)


@given(
    n_points=st.integers(1, 30),
    n_in=st.integers(0, 5),
    m_out=st.integers(0, 5),
)
def test_neighbor_rows_round_trip_property(n_points, n_in, m_out):
    spec = core.chain_network(n_points, 60.0)
    cfg = core.SnapshotConfig(n_in=n_in, m_out=m_out)
    for point in core.eligible_points(spec, cfg):
        rows = core.neighbor_rows(spec, point, cfg)
        assert len(rows) == n_in + m_out + 1
        assert rows[n_in] == point
        orders = [p.order_index for p in rows]
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)


def test_check_condition_bounds():
    assert core.check_condition(0.0) == 0.0
    assert core.check_condition(1.0) == 1.0
    for bad in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValueError):
            core.check_condition(bad)


def _snapshot(**overrides):
    fields = dict(
        matrix=np.full((9, 5), 0.5),
        day_value=0.5,
        time_value=28 / 47,
        target=0.7,
        point=core.PointId("d004", 4),
        timestamp=datetime(2024, 1, 3, 14, 0),
    )
    fields.update(overrides)
    return core.PointSnapshot(**fields)


def test_point_snapshot_valid():
    snap = _snapshot()
    assert snap.matrix.shape == (9, 5)
    assert not snap.matrix.flags.writeable


def test_point_snapshot_copies_a_writeable_matrix_and_keeps_a_read_only_one():
    matrix = np.full((9, 5), 0.5)
    snap = _snapshot(matrix=matrix)
    assert matrix.flags.writeable
    matrix[0, 0] = 0.25
    assert snap.matrix[0, 0] == 0.5
    assert _snapshot(matrix=snap.matrix).matrix is snap.matrix


@pytest.mark.parametrize("overrides", [
    {"matrix": np.full((9, 5), 1.5)},
    {"matrix": np.full((9, 5), -0.1)},
    {"day_value": 0.4},            # not k/6
    {"time_value": 0.5001},        # not k/47
    {"target": 1.2},
])
def test_point_snapshot_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        _snapshot(**overrides)

