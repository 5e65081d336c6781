"""Decentralized short-term traffic congestion prediction.

Pipeline: ingest detector speed series (or synthesize traffic), window them
into spatio-temporal point snapshots, train a small CNN or stacked LSTM
with a congestion-weighted Euclidean loss, evaluate daily RMSE, and replay
predictions through a decentralized per-node simulation.
"""

__version__ = "0.1.0"

from .core import (
    NetworkSpec,
    PointId,
    PointSnapshot,
    SnapshotConfig,
    chain_network,
    eligible_points,
    neighbor_rows,
)
from .ingestion import (
    CleanSeries,
    Dataset,
    RawSeries,
    RushHourDip,
    SyntheticProfile,
    clean,
    context_scalars,
    load_dataset,
    parse_raw,
    save_dataset,
    synth,
    window,
)
from .models import CnnPredictor, LstmPredictor, ModelParams, build_predictor
from .training import TrainConfig, TrainReport, by_point, by_time, split, train

__all__ = [
    "__version__",
    "NetworkSpec",
    "PointId",
    "PointSnapshot",
    "SnapshotConfig",
    "chain_network",
    "eligible_points",
    "neighbor_rows",
    "CleanSeries",
    "Dataset",
    "RawSeries",
    "RushHourDip",
    "SyntheticProfile",
    "clean",
    "context_scalars",
    "load_dataset",
    "parse_raw",
    "save_dataset",
    "synth",
    "window",
    "CnnPredictor",
    "LstmPredictor",
    "ModelParams",
    "build_predictor",
    "TrainConfig",
    "TrainReport",
    "by_point",
    "by_time",
    "split",
    "train",
]
