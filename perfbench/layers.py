"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapper is installed around a public function or method of
``trafficflow``; nothing in the program changes.  Span names are
``<layer>.<function>[.<model kind>][.<batch bucket>]``, where the batch
bucket is ``b1`` (one sample, the decentralized node path), ``b32`` (a
training batch, the last partial batch included) or ``chunk`` (the
``predict_dataset`` chunks of up to 4096 rows).

A metric whose layer a workload does not call reads 0 in that workload.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from tracer import Patcher, SpanSummary, Tracer

# (name, unit, better); BENCHMARK.json lists the same metrics in this order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("ingestion.read_detector_file_ms", "ms", "lower"),
    ("ingestion.clean_ms", "ms", "lower"),
    ("ingestion.window_ms", "ms", "lower"),
    ("ingestion.dataset_to_bytes_ms", "ms", "lower"),
    ("ingestion.dataset_from_bytes_ms", "ms", "lower"),
    ("serialization.write_container_ms", "ms", "lower"),
    ("serialization.read_container_ms", "ms", "lower"),
    ("serialization.atomic_write_ms", "ms", "lower"),
    ("core.point_snapshot_ms", "ms", "lower"),
    ("core.point_snapshots_built", "count", "lower"),
    ("ingestion.rows_parsed", "count", "higher"),
    ("ingestion.slots_interpolated", "count", "lower"),
    ("serialization.dataset_bytes", "bytes", "lower"),
    ("nn.conv2d_forward.b32_us", "us", "lower"),
    ("nn.conv2d_forward.chunk_us", "us", "lower"),
    ("nn.conv2d_forward.b1_us", "us", "lower"),
    ("nn.conv2d_backward.b32_us", "us", "lower"),
    ("nn.conv2d_forward.b32_gflops", "GFLOP/s", "higher"),
    ("nn.conv2d_backward.b32_gflops", "GFLOP/s", "higher"),
    ("nn.dense_forward.b32_us", "us", "lower"),
    ("nn.dense_backward.b32_us", "us", "lower"),
    ("nn.lstm_forward.b32_us", "us", "lower"),
    ("nn.lstm_forward.chunk_us", "us", "lower"),
    ("nn.lstm_forward.b1_us", "us", "lower"),
    ("nn.lstm_backward.b32_us", "us", "lower"),
    ("nn.loss_us", "us", "lower"),
    ("nn.sgd_step_us", "us", "lower"),
    ("models.cnn.forward_batch.b32_us", "us", "lower"),
    ("models.cnn.forward_batch.b32_self_us", "us", "lower"),
    ("models.cnn.backward_batch.b32_us", "us", "lower"),
    ("models.cnn.backward_batch.b32_self_us", "us", "lower"),
    ("models.lstm.forward_batch.b32_us", "us", "lower"),
    ("models.lstm.forward_batch.b32_self_us", "us", "lower"),
    ("models.lstm.backward_batch.b32_us", "us", "lower"),
    ("models.lstm.backward_batch.b32_self_us", "us", "lower"),
    ("models.cnn.predict_dataset_ms", "ms", "lower"),
    ("models.lstm.predict_dataset_ms", "ms", "lower"),
    ("models.cnn.predict.b1_p50_us", "us", "lower"),
    ("models.cnn.predict.b1_p99_us", "us", "lower"),
    ("models.lstm.predict.b1_p50_us", "us", "lower"),
    ("models.lstm.predict.b1_p99_us", "us", "lower"),
    ("models.save_file_ms", "ms", "lower"),
    ("training.cnn.self_ms", "ms", "lower"),
    ("training.lstm.self_ms", "ms", "lower"),
    ("training.split_ms", "ms", "lower"),
    ("training.steps_per_epoch", "count", "lower"),
    ("training.skipped_zero_loss_batches", "count", "lower"),
    ("evaluation.daily_rmse_ms", "ms", "lower"),
    ("evaluation.series_ms", "ms", "lower"),
    ("evaluation.boxplot_summary_ms", "ms", "lower"),
    ("evaluation.write_report_ms", "ms", "lower"),
    ("evaluation.predict_dataset_calls_per_model", "count", "lower"),
    ("evaluation.useful_prediction_ratio", "ratio", "higher"),
    ("simulation.cnn.self_ms", "ms", "lower"),
    ("simulation.lstm.self_ms", "ms", "lower"),
    ("simulation.node_ticks", "count", "higher"),
    ("simulation.predictions", "count", "higher"),
    ("simulation.skips_warmup", "count", "lower"),
    ("simulation.skips_stale", "count", "lower"),
    ("simulation.messages_delivered", "count", "higher"),
    ("simulation.messages_dropped", "count", "lower"),
    ("simulation.prediction_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
]


def _bucket(batch: int) -> str:
    if batch == 1:
        return "b1"
    return "b32" if batch <= 32 else "chunk"


def _lead(x, sample_ndim: int) -> int:
    """Batch size of an nn input that is one sample or a batch of them."""
    shape = np.shape(x)
    return shape[0] if len(shape) == sample_ndim + 1 else 1


def _conv_macs(tracer: Tracer, name: str, cache, factor: int) -> None:
    tracer.count(f"{name}.macs", factor * cache.cols.size * cache.w_mat.shape[1])


def install(patcher: Patcher) -> None:
    """Wrap the public functions and methods that the per-layer metrics need."""
    from trafficflow import core, evaluation, ingestion, models, nn, serialization, simulation, training

    # data layers
    patcher.function(
        ingestion, "read_detector_file", "ingestion.read_detector_file",
        lambda t, a, k, r: t.count("ingestion.rows_parsed", sum(len(s.samples) for s in r[1])),
    )
    patcher.function(
        ingestion, "clean", "ingestion.clean",
        lambda t, a, k, r: t.count("ingestion.slots_interpolated", len(r) - len(a[0].samples)),
    )
    patcher.function(ingestion, "window", "ingestion.window")
    patcher.function(
        ingestion, "dataset_to_bytes", "ingestion.dataset_to_bytes",
        lambda t, a, k, r: t.count("serialization.dataset_bytes", len(r)),
    )
    patcher.function(ingestion, "dataset_from_bytes", "ingestion.dataset_from_bytes")
    patcher.function(ingestion, "save_dataset", "ingestion.save_dataset")
    patcher.function(ingestion, "load_dataset", "ingestion.load_dataset")
    patcher.function(serialization, "write_container", "serialization.write_container")
    patcher.function(serialization, "read_container", "serialization.read_container")
    patcher.function(serialization, "atomic_write_bytes", "serialization.atomic_write")
    patcher.method(core.PointSnapshot, "__post_init__", "core.point_snapshot")

    # nn kernels, bucketed by batch size
    patcher.function(
        nn, "conv2d_forward", lambda a, k: f"nn.conv2d_forward.{_bucket(_lead(a[0], 3))}",
        lambda t, a, k, r: _conv_macs(t, f"nn.conv2d_forward.{_bucket(r[1].in_shape[0])}", r[1], 1),
    )
    patcher.function(
        nn, "conv2d_backward", lambda a, k: f"nn.conv2d_backward.{_bucket(a[1].in_shape[0])}",
        lambda t, a, k, r: _conv_macs(t, f"nn.conv2d_backward.{_bucket(a[1].in_shape[0])}", a[1], 2),
    )
    patcher.function(nn, "dense_forward", lambda a, k: f"nn.dense_forward.{_bucket(_lead(a[0], 1))}")
    patcher.function(nn, "dense_backward", lambda a, k: f"nn.dense_backward.{_bucket(a[1].x.shape[0])}")
    patcher.function(nn, "lstm_forward", lambda a, k: f"nn.lstm_forward.{_bucket(_lead(a[0], 2))}")
    patcher.function(
        nn, "lstm_backward", lambda a, k: f"nn.lstm_backward.{_bucket(a[1].steps[0].h_prev.shape[0])}"
    )
    patcher.function(nn, "loss_forward", "nn.loss_forward")
    patcher.function(nn, "loss_backward", "nn.loss_backward")
    patcher.function(nn, "sgd_step", "nn.sgd_step")

    # models
    def count_step(tracer: Tracer, args, kwargs, result) -> None:
        if tracer.inside("training.train") and not tracer.inside("models."):
            tracer.count("training.steps")

    def count_eval_prediction(tracer: Tracer, args, kwargs, result) -> None:
        if tracer.inside("evaluation.evaluate_models"):
            tracer.count("evaluation.predict_dataset_calls")
            tracer.count("evaluation.predictions_computed", len(result))

    for cls in (models.CnnPredictor, models.LstmPredictor):
        patcher.method(
            cls, "forward_batch",
            lambda a, k: f"models.{a[0].kind}.forward_batch.{_bucket(len(a[1]))}", count_step,
        )
        patcher.method(
            cls, "backward_batch", lambda a, k: f"models.{a[0].kind}.backward_batch.{_bucket(len(a[1]))}"
        )
        patcher.method(cls, "predict", lambda a, k: f"models.{a[0].kind}.predict")
        patcher.method(
            cls, "predict_dataset", lambda a, k: f"models.{a[0].kind}.predict_dataset", count_eval_prediction
        )
    patcher.method(
        evaluation.PersistencePredictor, "predict_dataset", "models.persistence.predict_dataset",
        count_eval_prediction,
    )
    patcher.function(models, "save_file", "models.save_file")

    # training
    def count_train(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count("training.epochs", args[1].epochs)
        tracer.count("training.skipped_zero_loss_batches", result[1].skipped_zero_loss_batches)

    patcher.function(training, "train", lambda a, k: f"training.train.{a[1].model}", count_train)
    patcher.function(training, "split", "training.split")

    # evaluation
    def count_useful(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count("evaluation.predictors", len(args[0]))
        tracer.count("evaluation.useful_predictions", len(args[0]) * args[1].z)

    patcher.function(evaluation, "evaluate_models", "evaluation.evaluate_models", count_useful)
    for name in ("daily_rmse", "day_curve", "slot_series", "boxplot_summary", "write_report"):
        patcher.function(evaluation, name, f"evaluation.{name}")

    # simulation
    def count_sim(tracer: Tracer, args, kwargs, log) -> None:
        tracer.count("simulation.runs")
        tracer.count("simulation.node_ticks", len(log.records))
        tracer.count("simulation.predictions", sum(r.prediction is not None for r in log.records))
        tracer.count(
            "simulation.skips_warmup", sum(r.skip_reason == simulation.SKIP_WARMUP for r in log.records)
        )
        tracer.count(
            "simulation.skips_stale",
            sum((r.skip_reason or "").startswith(simulation.SKIP_STALE) for r in log.records),
        )
        tracer.count("simulation.messages_delivered", log.messages_delivered)
        tracer.count("simulation.messages_dropped", log.messages_dropped)

    patcher.function(simulation, "run", lambda a, k: f"simulation.run.{a[3].kind}", count_sim)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Trace the program inside the block; every original is restored after."""
    patcher = Patcher(tracer)
    try:
        install(patcher)
        yield
    finally:
        patcher.restore()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(s: SpanSummary) -> dict[str, float]:
    """Per-layer metric values from the recorded spans and counts."""
    def op_ms(*span_names: str, self_only: bool = False) -> float:
        return s.per_op_total(s.match(lambda n: n in span_names), self_only) * 1e3

    def mean_us(name: str, self_only: bool = False) -> float:
        return s.mean_call(s.mask(name), self_only) * 1e6

    def gflops(name: str) -> float:
        return _ratio(2.0 * s.total_count(f"{name}.macs"), float(s.dur[s.mask(name)].sum())) / 1e9

    loss = s.match(lambda n: n in ("nn.loss_forward", "nn.loss_backward"))
    nested = np.zeros_like(loss)
    nested[s.parent >= 0] = loss[s.parent[s.parent >= 0]]
    steps = s.total_count("training.steps")
    per_op_spans = np.bincount(s.op_of, minlength=s.ops) if s.ops else np.zeros(1)
    sim_runs = s.total_count("simulation.runs")

    out = {
        "ingestion.read_detector_file_ms": op_ms("ingestion.read_detector_file"),
        "ingestion.clean_ms": op_ms("ingestion.clean"),
        "ingestion.window_ms": op_ms("ingestion.window"),
        "ingestion.dataset_to_bytes_ms": op_ms("ingestion.dataset_to_bytes"),
        "ingestion.dataset_from_bytes_ms": op_ms("ingestion.dataset_from_bytes"),
        "serialization.write_container_ms": op_ms("serialization.write_container"),
        "serialization.read_container_ms": op_ms("serialization.read_container"),
        "serialization.atomic_write_ms": op_ms("serialization.atomic_write"),
        "core.point_snapshot_ms": op_ms("core.point_snapshot"),
        "core.point_snapshots_built": s.per_op_calls(s.mask("core.point_snapshot")),
        "ingestion.rows_parsed": s.count("ingestion.rows_parsed"),
        "ingestion.slots_interpolated": s.count("ingestion.slots_interpolated"),
        "serialization.dataset_bytes": s.count("serialization.dataset_bytes"),
        "nn.conv2d_forward.b32_gflops": gflops("nn.conv2d_forward.b32"),
        "nn.conv2d_backward.b32_gflops": gflops("nn.conv2d_backward.b32"),
        "nn.loss_us": _ratio(float(s.dur[loss & ~nested].sum()), steps) * 1e6,
        "nn.sgd_step_us": mean_us("nn.sgd_step"),
        "models.save_file_ms": mean_us("models.save_file") / 1e3,
        "training.split_ms": op_ms("training.split"),
        "training.steps_per_epoch": _ratio(steps, s.total_count("training.epochs")),
        "training.skipped_zero_loss_batches": s.count("training.skipped_zero_loss_batches"),
        "evaluation.daily_rmse_ms": op_ms("evaluation.daily_rmse"),
        "evaluation.series_ms": op_ms("evaluation.day_curve", "evaluation.slot_series"),
        "evaluation.boxplot_summary_ms": op_ms("evaluation.boxplot_summary"),
        "evaluation.write_report_ms": op_ms("evaluation.write_report"),
        "evaluation.predict_dataset_calls_per_model": _ratio(
            s.total_count("evaluation.predict_dataset_calls"), s.total_count("evaluation.predictors")
        ),
        "evaluation.useful_prediction_ratio": _ratio(
            s.total_count("evaluation.useful_predictions"), s.total_count("evaluation.predictions_computed")
        ),
        "simulation.prediction_ratio": _ratio(
            s.total_count("simulation.predictions"), s.total_count("simulation.node_ticks")
        ),
        "trace.spans": float(np.median(per_op_spans)),
    }
    for kernel in ("conv2d_forward", "conv2d_backward", "dense_forward", "dense_backward",
                   "lstm_forward", "lstm_backward"):
        for bucket in ("b32", "chunk", "b1"):
            out[f"nn.{kernel}.{bucket}_us"] = mean_us(f"nn.{kernel}.{bucket}")
    for kind in ("cnn", "lstm"):
        for method in ("forward_batch", "backward_batch"):
            out[f"models.{kind}.{method}.b32_us"] = mean_us(f"models.{kind}.{method}.b32")
            out[f"models.{kind}.{method}.b32_self_us"] = mean_us(f"models.{kind}.{method}.b32", True)
        out[f"models.{kind}.predict_dataset_ms"] = mean_us(f"models.{kind}.predict_dataset") / 1e3
        predict = s.mask(f"models.{kind}.predict")
        out[f"models.{kind}.predict.b1_p50_us"] = s.percentile(predict, 50) * 1e6
        out[f"models.{kind}.predict.b1_p99_us"] = s.percentile(predict, 99) * 1e6
        out[f"training.{kind}.self_ms"] = op_ms(f"training.train.{kind}", self_only=True)
        out[f"simulation.{kind}.self_ms"] = op_ms(f"simulation.run.{kind}", self_only=True)
    for name in ("node_ticks", "predictions", "skips_warmup", "skips_stale",
                 "messages_delivered", "messages_dropped"):
        out[f"simulation.{name}"] = _ratio(s.total_count(f"simulation.{name}"), sim_runs)
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
