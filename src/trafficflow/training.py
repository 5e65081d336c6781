"""Dataset splitting, the epoch loop, checkpointing, reproducible runs.

Splits are disjoint by construction and carried through to the report so a
reviewer can verify no test snapshot ever reached a parameter update.  All
randomness (weight init, per-epoch shuffling) flows from the run seed via
named streams; a fixed seed reproduces losses and parameters bit-exactly.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import models, nn
from .core import check_field_types
from .ingestion import Dataset
from .rng import stream

__all__ = [
    "EmptySplitError",
    "SplitSpec",
    "by_point",
    "TrainConfig",
    "SETTINGS",
    "TrainReport",
    "split",
    "train",
]


class EmptySplitError(ValueError):
    """A requested split leaves the train or test side empty."""


# each axis's default (train, test) counts; the paper splits 20 points and the next 30
_DEFAULT_COUNTS = {"point": (20, 30), "time": (48, 12)}


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/test assignment along one axis, by count: the first
    ``train`` units and the next ``test`` ones.  Units are eligible centre
    points in order (axis="point") or calendar days (axis="time").  A count
    left out or None takes the axis's default, 20 and 30 points or 48 and 12
    days; a count of 0 raises EmptySplitError and one below 0 ValueError."""

    axis: str = "point"
    train: int | None = None
    test: int | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.axis not in _DEFAULT_COUNTS:
            raise ValueError(f"unknown split axis {self.axis!r}")
        for side, default in zip(("train", "test"), _DEFAULT_COUNTS[self.axis]):
            count = default if getattr(self, side) is None else getattr(self, side)
            if count < 1:
                raise (EmptySplitError if count == 0 else ValueError)(f"{side} count must be >= 1, got {count}")
            object.__setattr__(self, side, count)


def by_point(train: int | None = None, test: int | None = None) -> SplitSpec:
    return SplitSpec(axis="point", train=train, test=test)


@dataclass
class TrainConfig:
    """Knobs of one training run; defaults follow the artifact conventions.
    Its ``SETTINGS``, ``split`` nested, are what a train config file gives and
    what the model header, ``report.json`` and ``config.json`` echo."""

    model: str = "cnn"
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.01
    seed: int = 0
    split: SplitSpec = field(default_factory=SplitSpec)
    loss: str = "strict"  # the paper's congestion-weighted loss, the only one
    checkpoint_dir: str | Path | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.model not in models.KINDS:
            raise ValueError(f"unknown model kind {self.model!r}")
        if not 1 <= self.epochs <= 2**20:  # more is a run that would not end
            raise ValueError(f"epochs must be in [1, {2**20}], got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be a finite number >= 0, got {self.lr}")
        if self.loss != "strict":
            raise ValueError(f"unknown loss kind {self.loss!r}; only 'strict' is defined")


# every field but checkpoint_dir, which only Python callers set
SETTINGS = tuple(f.name for f in fields(TrainConfig) if f.name != "checkpoint_dir")


@dataclass
class TrainReport:
    """What one run did: losses per epoch, final test RMSE, provenance."""

    epoch_losses: list[float]
    final_test_rmse: float
    wall_time_s: float
    config: dict
    train_units: list
    test_units: list
    train_size: int
    test_size: int
    skipped_zero_loss_batches: int = 0

    def to_dict(self) -> dict:
        """Everything but the wall time, which alone differs between runs."""
        doc = asdict(self)
        del doc["wall_time_s"]
        return doc


def _keys(dataset: Dataset, axis: str) -> np.ndarray:
    """Each snapshot's split key: its centre point's order index on the point
    axis, its calendar day on the time axis."""
    return dataset.point_order() if axis == "point" else dataset.times().astype("datetime64[D]")


def _labels(dataset: Dataset, axis: str) -> list:
    """The distinct units of ``dataset`` in sorted order: order indices or
    ISO dates."""
    distinct = np.unique(_keys(dataset, axis))
    return [int(k) for k in distinct] if axis == "point" else [str(k) for k in distinct]


def split(dataset: Dataset, cfg: TrainConfig) -> tuple[Dataset, Dataset]:
    """Partition snapshots by centre point or by calendar day, disjointly;
    EmptySplitError if the dataset has fewer units than the split takes."""
    spec = cfg.split
    keys = _keys(dataset, spec.axis)
    distinct = np.unique(keys)
    if spec.train + spec.test > len(distinct):
        raise EmptySplitError(f"the split takes {spec.train} train and {spec.test} test units, "
                              f"the dataset has {len(distinct)}")
    train_keys, test_keys = distinct[: spec.train], distinct[spec.train : spec.train + spec.test]
    train_idx, test_idx = (np.flatnonzero(np.isin(keys, side)) for side in (train_keys, test_keys))
    return dataset.subset(train_idx), dataset.subset(test_idx)


def train(dataset: Dataset, cfg: TrainConfig) -> tuple[models.ModelParams, TrainReport]:
    """Split, run the epoch loop, checkpoint each epoch into
    ``cfg.checkpoint_dir`` (if set), report.

    Deterministic for a fixed seed; zero-loss batches skip their update per
    the loss contract; non-finite gradients abort with epoch/batch context.
    """
    started = _time.perf_counter()
    train_ds, test_ds = split(dataset, cfg)
    train_units = _labels(train_ds, cfg.split.axis)
    test_units = _labels(test_ds, cfg.split.axis)

    model = models.KINDS[cfg.model].initialize(cfg.seed)
    targets = train_ds.targets()
    z = train_ds.z

    shuffle_rng = stream(cfg.seed, "shuffle")
    epoch_losses: list[float] = []
    skipped = 0
    config_echo = {key: value for key, value in asdict(cfg).items() if key in SETTINGS}

    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(z)
        batch_losses: list[float] = []
        for lo in range(0, z, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            preds, cache = model.forward_batch(train_ds.matrices(idx))
            batch = nn.LossBatch(preds, targets[idx])
            batch_losses.append(nn.loss_forward(batch))
            try:
                grad_preds = nn.loss_backward(batch)
            except nn.ZeroLossError:
                skipped += 1
                continue
            grads = model.backward_batch(grad_preds, cache)
            if cfg.lr > 0:
                try:
                    model.params = nn.sgd_step(model.params, grads, cfg.lr)
                except nn.NonFiniteGradientError as err:
                    raise nn.NonFiniteGradientError(
                        err.name, f"epoch {epoch}, batch {lo // cfg.batch_size}"
                    ) from err
        epoch_losses.append(float(np.mean(batch_losses)))
        if cfg.checkpoint_dir:
            checkpoint_path = str(Path(cfg.checkpoint_dir) / f"epoch_{epoch:03d}.tfmodel")
            models.save_file(model.to_params(seed=cfg.seed, config=config_echo), checkpoint_path)

    test_preds = model.predict_dataset(test_ds)
    final_rmse = float(np.sqrt(np.mean((test_preds - test_ds.targets()) ** 2)))

    params = model.to_params(seed=cfg.seed, config=config_echo)
    report = TrainReport(
        epoch_losses=epoch_losses,
        final_test_rmse=final_rmse,
        wall_time_s=_time.perf_counter() - started,
        config=config_echo,
        train_units=train_units,
        test_units=test_units,
        train_size=train_ds.z,
        test_size=test_ds.z,
        skipped_zero_loss_batches=skipped,
    )
    return params, report
