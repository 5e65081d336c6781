"""Predictor architecture, independent forward oracles, parameter files."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficflow import core, ingestion, models, nn
from trafficflow.serialization import ChecksumError, ContainerFormatError, VersionMismatchError

from conftest import START, make_network_series


def _random_snapshots(count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(count, 9, 5))


# ---------------------------------------------------------------------------
# independent straight-line reimplementations (no shared code with trafficflow)


def _sig(v):
    return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))


def naive_cnn_forward(params, matrix):
    def conv_relu(x, w, b):
        height, width, chans = len(x), len(x[0]), len(x[0][0])
        k, filters = len(w), len(w[0][0][0])
        out = [
            [[0.0] * filters for _ in range(width - k + 1)] for _ in range(height - k + 1)
        ]
        for i in range(height - k + 1):
            for j in range(width - k + 1):
                for f in range(filters):
                    acc = b[f]
                    for ki in range(k):
                        for kj in range(k):
                            for c in range(chans):
                                acc += x[i + ki][j + kj][c] * w[ki][kj][c][f]
                    out[i][j][f] = acc if acc > 0.0 else 0.0
        return out

    x = [[[matrix[i][j]] for j in range(5)] for i in range(9)]
    a1 = conv_relu(x, params["conv1_w"].tolist(), params["conv1_b"].tolist())
    a2 = conv_relu(a1, params["conv2_w"].tolist(), params["conv2_b"].tolist())
    flat = [a2[i][j][f] for i in range(5) for j in range(1) for f in range(64)]
    w1, b1 = params["fc1_w"].tolist(), params["fc1_b"].tolist()
    hidden = []
    for k in range(32):
        acc = b1[k]
        for d in range(len(flat)):
            acc += flat[d] * w1[d][k]
        hidden.append(acc if acc > 0.0 else 0.0)
    w2, b2 = params["fc2_w"].tolist(), params["fc2_b"].tolist()
    z = b2[0]
    for k in range(32):
        z += hidden[k] * w2[k][0]
    return _sig(z)


def naive_lstm_forward(params, matrix):
    hidden = 20

    def run_layer(seq, wx, wh, b):
        h = [0.0] * hidden
        c = [0.0] * hidden
        outputs = []
        for x_t in seq:
            gates = []
            for col in range(4 * hidden):
                acc = b[col]
                for d in range(len(x_t)):
                    acc += x_t[d] * wx[d][col]
                for d in range(hidden):
                    acc += h[d] * wh[d][col]
                gates.append(acc)
            new_h, new_c = [], []
            for u in range(hidden):
                i = _sig(gates[u])
                f = _sig(gates[hidden + u])
                g = math.tanh(gates[2 * hidden + u])
                o = _sig(gates[3 * hidden + u])
                cu = f * c[u] + i * g
                new_c.append(cu)
                new_h.append(o * math.tanh(cu))
            h, c = new_h, new_c
            outputs.append(h)
        return outputs

    columns = [[matrix[r][t] for r in range(9)] for t in range(5)]
    hs1 = run_layer(columns, params["l1_wx"].tolist(), params["l1_wh"].tolist(), params["l1_b"].tolist())
    hs2 = run_layer(hs1, params["l2_wx"].tolist(), params["l2_wh"].tolist(), params["l2_b"].tolist())
    w, b = params["head_w"].tolist(), params["head_b"].tolist()
    z = b[0]
    for u in range(hidden):
        z += hs2[-1][u] * w[u][0]
    return _sig(z)


# ---------------------------------------------------------------------------
# architecture


def test_cnn_parameter_count_from_shape_arithmetic():
    # independent arithmetic over the declared layer shapes
    expected = (3 * 3 * 1 * 64 + 64) + (3 * 3 * 64 * 64 + 64) + (320 * 32 + 32) + (32 * 1 + 1)
    model = models.CnnPredictor.initialize(0)
    assert model.param_count == expected == 47_873


def test_lstm_parameter_count_from_shape_arithmetic():
    expected = 4 * 20 * (9 + 20 + 1) + 4 * 20 * (20 + 20 + 1) + (20 * 1 + 1)
    model = models.LstmPredictor.initialize(0)
    assert model.param_count == expected == 5_701


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_zero_parameters_predict_one_half(kind):
    if kind == "cnn":
        base = models.CnnPredictor.initialize(0)
        model = models.CnnPredictor({k: np.zeros_like(v) for k, v in base.params.items()})
    else:
        base = models.LstmPredictor.initialize(0)
        model = models.LstmPredictor({k: np.zeros_like(v) for k, v in base.params.items()})
    for matrix in _random_snapshots(3, seed=1):
        assert model.predict(matrix) == 0.5


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_prediction_deterministic_and_in_unit_interval(kind):
    model = (models.CnnPredictor if kind == "cnn" else models.LstmPredictor).initialize(3)
    again = (models.CnnPredictor if kind == "cnn" else models.LstmPredictor).initialize(3)
    for matrix in _random_snapshots(10, seed=2):
        p1 = model.predict(matrix)
        p2 = again.predict(matrix)
        assert p1 == p2
        assert 0.0 < p1 < 1.0


def test_cnn_matches_independent_naive_oracle():
    model = models.CnnPredictor.initialize(5)
    for i, matrix in enumerate(_random_snapshots(5, seed=3)):
        expected = naive_cnn_forward(model.params, matrix.tolist())
        assert model.predict(matrix) == pytest.approx(expected, rel=1e-12)


def test_lstm_matches_independent_naive_oracle():
    model = models.LstmPredictor.initialize(7)
    for matrix in _random_snapshots(5, seed=5):
        expected = naive_lstm_forward(model.params, matrix.tolist())
        assert model.predict(matrix) == pytest.approx(expected, rel=1e-12)


def test_lstm_column_order_matters():
    model = models.LstmPredictor.initialize(8)
    matrix = _random_snapshots(1, seed=6)[0]
    assert model.predict(matrix) != model.predict(matrix[:, ::-1])


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_shape_mismatch_for_non_default_geometry(kind):
    model = (models.CnnPredictor if kind == "cnn" else models.LstmPredictor).initialize(0)
    with pytest.raises(nn.ShapeMismatchError):
        model.predict(np.full((7, 5), 0.5))


def test_predict_dataset_matches_single_predictions():
    spec = core.chain_network(11, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    values = np.random.default_rng(10).uniform(0, 1, size=(11, 9))
    ds = ingestion.window(make_network_series(values, spec), spec, cfg)
    for model in (models.CnnPredictor.initialize(1), models.LstmPredictor.initialize(1)):
        batch = model.predict_dataset(ds)
        single = np.array([model.predict_snapshot(s) for s in ds.snapshots])
        np.testing.assert_array_equal(batch, single)


def _chunks_dataset():
    """About 3.5 default chunks of snapshots, so the last chunk is partial."""
    chunk = models.PREDICT_CHUNK
    spec = core.chain_network(11, 60.0)  # three centre points with full neighbourhoods
    cfg = core.SnapshotConfig(step_minutes=30)
    slots = cfg.delta + cfg.horizon_steps + -(-7 * chunk // 6)
    values = np.random.default_rng(11).uniform(0, 1, size=(11, slots))
    ds = ingestion.window(make_network_series(values, spec), spec, cfg)
    assert ds.z > 3 * chunk and ds.z % chunk
    return ds


def test_predict_dataset_is_independent_of_chunk_size():
    # every chunk gives forward_batch's bits over the whole stack, though
    # the LSTM's passes keep no backward cache
    chunk = models.PREDICT_CHUNK
    ds = _chunks_dataset()
    sample = np.append(np.random.default_rng(12).choice(ds.z, size=20, replace=False), [chunk - 1, chunk, ds.z - 1])
    for model in (
        models.CnnPredictor.initialize(1),
        models.LstmPredictor.initialize(1),
    ):
        default = model.predict_dataset(ds)
        np.testing.assert_array_equal(default, model.forward_batch(ds.matrices())[0])
        for size in (1, 7, 50, chunk, 4096, ds.z):
            np.testing.assert_array_equal(model.predict_dataset(ds, chunk=size), default)
        single = np.array([model.predict_snapshot(ds.snapshots[int(i)]) for i in sample])
        np.testing.assert_array_equal(default[sample], single)


def test_lstm_predict_dataset_keeps_no_backward_cache():
    # forward_batch's caches, two chunks' of them alive at once, took about
    # 28 KB per row of a chunk; the cache-free pass takes about 7.3 KB
    ds = _chunks_dataset()
    model = models.LstmPredictor.initialize(1)
    model.predict_dataset(ds)  # the gate constants are built on first use
    tracemalloc.start()
    try:
        preds = model.predict_dataset(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - preds.nbytes < 10_000 * models.PREDICT_CHUNK


@pytest.mark.parametrize("kind,calls", [
    ("cnn", {"conv2d_forward": 2, "dense_forward": 2, "lstm_forward": 0}),
    ("lstm", {"conv2d_forward": 0, "dense_forward": 1, "lstm_forward": 2}),
])
def test_batch_one_predict_runs_the_shared_kernels(monkeypatch, kind, calls):
    # a node's predict goes through the kernels that training and
    # predict_dataset run, each with a batch of one: a predict-only forward
    # would fork the arithmetic that the exact comparisons tie together.
    # forward_batch runs each kernel once for the whole stack.
    batches = {name: [] for name in calls}
    for name in calls:
        def counting(x, *args, _original=getattr(nn, name), _batches=batches[name], **kwargs):
            _batches.append(np.shape(x)[0])
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(nn, name, counting)
    model = models.KINDS[kind].initialize(4)
    model.predict(_random_snapshots(1, seed=9)[0])
    assert batches == {name: [1] * count for name, count in calls.items()}
    for n in (1, 2, 37):
        for calls_of_kernel in batches.values():
            calls_of_kernel.clear()
        model.forward_batch(_random_snapshots(n, seed=n))
        assert batches == {name: [n] * count for name, count in calls.items()}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(models.KINDS)),
    batch=st.integers(1, 64),
    params_seed=st.integers(0, 2**16),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_forward_batch_gives_every_matrix_its_own_predict_bit_for_bit(kind, batch, params_seed, data_seed):
    # the simulator's batched passes must give each node exactly its
    # batch-of-one prediction; a flat GEMM over the stack rounds rows
    # differently at some batch sizes
    model = models.KINDS[kind].initialize(params_seed)
    stack = _random_snapshots(batch, seed=data_seed)
    single = np.array([model.predict(m) for m in stack])
    each = model.forward_batch(stack)[0]
    assert each.shape == (batch,)
    assert each.view(np.int64).tolist() == single.view(np.int64).tolist()


# ---------------------------------------------------------------------------
# the CNN's grid path against the per-snapshot path


_CNN = models.CnnPredictor.initialize(13)


def _row_path(model, dataset):
    """Every snapshot of ``dataset`` through one forward_batch."""
    return model.forward_batch(dataset.matrices())[0]


def _assert_fresh(preds, model, dataset):
    assert not any(np.shares_memory(preds, a) for a in (dataset.windows.grid, *model.params.values()))


@st.composite
def _cnn_datasets(draw):
    n_in = draw(st.sampled_from([3, 4, 5]))
    cfg = core.SnapshotConfig(n_in=n_in, m_out=8 - n_in, horizon_steps=draw(st.integers(1, 3)))
    n_points = draw(st.integers(9, 15))
    n_slots = draw(st.integers(cfg.delta + cfg.horizon_steps + 1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = core.chain_network(n_points, 60.0, n_in=cfg.n_in, m_out=cfg.m_out)
    series = make_network_series(rng.uniform(0, 1, size=(n_points, n_slots)), spec, step_minutes=cfg.step_minutes)
    ds = ingestion.window(series, spec, cfg)
    rows = {
        "all": np.arange(ds.z),
        "shuffled": rng.permutation(ds.z),
        "sparse": rng.choice(ds.z, size=draw(st.integers(1, ds.z)), replace=False),
        "repeated": rng.integers(0, ds.z, size=draw(st.integers(1, 3 * ds.z))),
    }[draw(st.sampled_from(["all", "shuffled", "sparse", "repeated"]))]
    return ds.subset(rows)


@given(dataset=_cnn_datasets(), chunk=st.sampled_from([1, 7, models.PREDICT_CHUNK, None]))
def test_cnn_predict_dataset_matches_the_per_snapshot_path(dataset, chunk):
    preds = _CNN.predict_dataset(dataset, chunk=chunk or dataset.z)
    np.testing.assert_array_equal(preds, _row_path(_CNN, dataset))
    _assert_fresh(preds, _CNN, dataset)


@given(
    dataset=_cnn_datasets(),
    kind=st.sampled_from(["cnn", "lstm"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30)
def test_batch_one_predict_matches_predict_dataset(dataset, kind, seed):
    rng = np.random.default_rng(seed)
    base = models.KINDS[kind].initialize(0).params
    model = models.KINDS[kind]({name: a + rng.normal(scale=0.3, size=a.shape) for name, a in base.items()})
    rows = rng.choice(dataset.z, size=min(dataset.z, 40), replace=False)
    single = [model.predict(m) for m in dataset.matrices(rows)]
    np.testing.assert_array_equal(single, model.predict_dataset(dataset)[rows])


def test_cnn_predict_dataset_takes_each_side_of_the_block_rule():
    spec = core.chain_network(14, 60.0)  # centres 4 .. 9
    cfg = core.SnapshotConfig(step_minutes=30)
    values = np.random.default_rng(14).uniform(0, 1, size=(14, 80))
    ds = ingestion.window(make_network_series(values, spec), spec, cfg)
    model = models.CnnPredictor.initialize(2)
    sizes = []  # the size of every batch the row path runs
    original = model.forward_batch

    def counting(matrices):
        sizes.append(len(matrices))
        return original(matrices)

    model.forward_batch = counting

    # a full dataset: every block's tile has fewer than 5 conv2 cells per snapshot
    preds = model.predict_dataset(ds)
    assert sizes == []
    np.testing.assert_array_equal(preds, _row_path(model, ds))

    # one snapshot per column, on the first and the last centre row in turn:
    # every tile spans all six centre rows, twice the conv2 cells the row path needs
    w = ds.windows
    scattered = ds.subset(np.flatnonzero(w.centre == np.where(w.column % 2, 4, 9)))
    assert set(scattered.windows.centre) == {4, 9} and len(set(scattered.windows.column)) == scattered.z
    sizes.clear()
    preds = model.predict_dataset(scattered, chunk=32)
    assert sum(sizes) == scattered.z and max(sizes) <= 32
    model.forward_batch = original
    np.testing.assert_array_equal(preds, _row_path(model, scattered))
    _assert_fresh(preds, model, scattered)


def _tiny_dataset(rows):
    spec = core.chain_network(11, 60.0)  # centres 4 .. 6
    cfg = core.SnapshotConfig(step_minutes=30)
    values = np.random.default_rng(15).uniform(0, 1, size=(11, 12))
    ds = ingestion.window(make_network_series(values, spec), spec, cfg)
    return ds.subset(np.flatnonzero(ds.windows.centre == 5) if rows == "one centre row" else rows)


@pytest.mark.parametrize("rows", [[], [9], "one centre row"])
@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_predict_dataset_of_empty_and_tiny_datasets(kind, rows):
    ds = _tiny_dataset(rows)
    model = models.KINDS[kind].initialize(3)
    preds = model.predict_dataset(ds)
    assert preds.shape == (ds.z,) == (len(rows) if isinstance(rows, list) else 7,)
    single = [model.predict_snapshot(s) for s in ds.snapshots]
    np.testing.assert_array_equal(preds, single)


@pytest.mark.parametrize("n_in,delta", [(5, 4), (4, 5)])
def test_cnn_predict_dataset_rejects_other_snapshot_geometry(n_in, delta):
    # a full dataset, whose blocks would all take the grid path
    spec = core.chain_network(16, 60.0, n_in=n_in, m_out=4)
    cfg = core.SnapshotConfig(delta=delta, n_in=n_in, m_out=4, step_minutes=30)
    ds = ingestion.window(make_network_series(np.full((16, 12), 0.5), spec), spec, cfg)
    with pytest.raises(nn.ShapeMismatchError):
        models.CnnPredictor.initialize(0).predict_dataset(ds)


# ---------------------------------------------------------------------------
# parameter files


def test_save_load_round_trip_preserves_predictions():
    model = models.CnnPredictor.initialize(11)
    blob = models.save(model.to_params(seed=11))
    restored = models.build_predictor(models.load(blob))
    for matrix in _random_snapshots(100, seed=7):
        assert restored.predict(matrix) == model.predict(matrix)


def test_save_load_round_trip_lstm():
    model = models.LstmPredictor.initialize(12)
    blob = models.save(model.to_params(seed=12, config={"note": "test"}))
    params = models.load(blob)
    assert params.seed == 12 and params.config["note"] == "test"
    restored = models.build_predictor(params)
    for matrix in _random_snapshots(20, seed=8):
        assert restored.predict(matrix) == model.predict(matrix)


def test_truncated_model_file_fails_checksum():
    blob = models.save(models.CnnPredictor.initialize(0).to_params())
    with pytest.raises(ChecksumError):
        models.load(blob[:-7])


def test_corrupted_model_file_fails_checksum():
    blob = bytearray(models.save(models.CnnPredictor.initialize(0).to_params()))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(ChecksumError):
        models.load(bytes(blob))


def test_model_file_bad_magic():
    with pytest.raises(ContainerFormatError):
        models.load(b"garbage-bytes-with-no-structure")


def test_model_file_version_mismatch():
    from trafficflow.serialization import write_container

    blob = write_container(models.MODEL_MAGIC, 999, {"kind": "cnn"}, [])
    with pytest.raises(VersionMismatchError):
        models.load(blob)


def test_cnn_params_rejected_by_lstm_predictor():
    params = models.load(models.save(models.CnnPredictor.initialize(0).to_params()))
    with pytest.raises(models.ManifestMismatchError):
        models.LstmPredictor.from_params(params)
    with pytest.raises(models.ManifestMismatchError):
        models.CnnPredictor.from_params(models.LstmPredictor.initialize(0).to_params())


def test_manifest_mismatch_on_wrong_shapes():
    model = models.CnnPredictor.initialize(0)
    broken = {k: v.copy() for k, v in model.params.items()}
    broken["fc1_w"] = np.zeros((100, 32))
    with pytest.raises(models.ManifestMismatchError):
        models.CnnPredictor(broken)


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_model_file_whose_config_names_a_context_mode_loads_and_predicts_the_same(kind):
    # trained model files have carried "context_mode": "none" in their header
    # config; the config is provenance only, so such a file still loads
    model = models.KINDS[kind].initialize(16)
    config = {"model": kind, "loss": "strict", "context_mode": "none"}
    params = models.load(models.save(model.to_params(seed=16, config=config)))
    assert params.config == config
    restored = models.build_predictor(params)
    for name, array in model.params.items():
        np.testing.assert_array_equal(restored.params[name], array)
    matrices = _random_snapshots(20, seed=17)
    assert [restored.predict(m) for m in matrices] == [model.predict(m) for m in matrices]
    ds = _tiny_dataset("one centre row")
    np.testing.assert_array_equal(restored.predict_dataset(ds), model.predict_dataset(ds))


def test_model_file_with_a_widened_first_dense_layer_is_refused():
    params = models.CnnPredictor.initialize(0).to_params(config={"context_mode": "concat"})
    params.arrays["fc1_w"] = np.zeros((322, 32))
    with pytest.raises(models.ManifestMismatchError, match=r"\(322, 32\)"):
        models.build_predictor(models.load(models.save(params)))


def test_model_file_round_trip_via_disk(tmp_path):
    path = tmp_path / "model.tfmodel"
    original = models.LstmPredictor.initialize(4).to_params(seed=4)
    models.save_file(original, path)
    loaded = models.load_file(path)
    assert loaded.kind == "lstm"
    assert loaded.manifest == original.manifest
    for name in original.arrays:
        np.testing.assert_array_equal(loaded.arrays[name], original.arrays[name])
