"""The functions and methods the benchmark's traced run wraps by name.

``perfbench/layers.py`` replaces them for the length of a traced run and
puts the originals back; a renamed or deleted one fails its install.
"""

import importlib
import sys
from datetime import datetime
from pathlib import Path

import numpy as np

# every module the wrappers go into, loaded before the attributes are listed
from trafficflow import core, evaluation, ingestion, models, nn, serialization, simulation, training  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _program_attributes() -> dict:
    """Every attribute of every loaded trafficflow module and of the classes
    they define, keyed by (module, name[, member])."""
    out = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "trafficflow" or module_name.startswith("trafficflow.")):
            continue
        for key, value in vars(module).items():
            out[module_name, key] = value
            if isinstance(value, type) and value.__module__ == module_name:
                out.update(((module_name, key, member), v) for member, v in vars(value).items())
    return out


def test_traced_run_wraps_its_names_and_restores_every_original(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    before = _program_attributes()
    with layers.installed(tracer.Tracer()):
        for name in ("daily_rmse", "day_curve", "slot_series", "boxplot_summary", "write_report"):
            assert getattr(evaluation, name) is not before["trafficflow.evaluation", name]
    after = _program_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_predict_dataset_takes_the_chunk_keyword():
    # the simulate workload's central reference calls predict_dataset(subset, chunk=64)
    spec = core.chain_network(10, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    values = np.random.default_rng(0).uniform(0, 1, size=(10, 12))
    series = [ingestion.CleanSeries(p, values[k], datetime(2024, 1, 1), 30) for k, p in enumerate(spec.points)]
    dataset = ingestion.window(series, spec, cfg)
    for model in (models.CnnPredictor.initialize(0), models.LstmPredictor.initialize(0)):
        preds = model.predict_dataset(dataset, chunk=64)
        assert preds.shape == (dataset.z,) and np.all((preds > 0) & (preds < 1))


def test_traced_hooks_read_the_kernel_caches(monkeypatch):
    # the wrappers' hooks read ConvCache.cols, .w_mat and .in_shape,
    # DenseCache.x and LstmCache.steps[0].h_prev; they run only inside a
    # traced operation, at batch 32 (training) and at batch 1 (a node)
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    rng = np.random.default_rng(1)
    matrices = rng.uniform(0, 1, size=(32, 9, 5))
    traced = tracer.Tracer()
    with layers.installed(traced), traced.operation():
        for model in (models.CnnPredictor.initialize(0), models.LstmPredictor.initialize(0)):
            preds, cache = model.forward_batch(matrices)
            model.backward_batch(rng.normal(size=preds.shape), cache)
            model.predict(matrices[0])
    metrics = layers.metrics(tracer.SpanSummary(traced))
    for name in ("nn.conv2d_forward.b32_gflops", "nn.conv2d_backward.b32_gflops", "nn.conv2d_forward.b1_us",
                 "nn.dense_backward.b32_us", "nn.lstm_forward.b1_us", "nn.lstm_backward.b32_us",
                 "models.cnn.predict.b1_p50_us", "models.lstm.predict.b1_p50_us"):
        assert metrics[name] > 0, name
