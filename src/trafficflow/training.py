"""Dataset splitting, the epoch loop, checkpointing, reproducible runs.

Splits are disjoint by construction and carried through to the report so a
reviewer can verify no test snapshot ever reached a parameter update.  All
randomness (weight init, per-epoch shuffling) flows from the run seed via
named streams; a fixed seed reproduces losses and parameters bit-exactly.
"""

from __future__ import annotations

import math
import time as _time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
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
    "by_time",
    "TrainConfig",
    "TrainReport",
    "split",
    "train",
]


class EmptySplitError(ValueError):
    """A requested split leaves the train or test side empty."""


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/test assignment along one axis.

    axis="point": integers mean "first K eligible points" (train) and "the
    next K" (test); sequences are explicit order_index collections.
    axis="time": integers mean "first K calendar days" and "the next K";
    sequences are explicit ISO dates.
    """

    axis: str
    train: int | tuple = 20
    test: int | tuple = 30

    def __post_init__(self) -> None:
        if self.axis not in ("point", "time"):
            raise ValueError(f"unknown split axis {self.axis!r}")
        for name in ("train", "test"):
            value = getattr(self, name)
            if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
                object.__setattr__(self, name, int(value))
            elif isinstance(value, Sequence) and not isinstance(value, str):
                object.__setattr__(self, name, tuple(value))
            else:
                raise ValueError(f"SplitSpec.{name} must be a count or a list of units, got {value!r}")


def by_point(train: int | Sequence[int] = 20, test: int | Sequence[int] = 30) -> SplitSpec:
    return SplitSpec(axis="point", train=train, test=test)


def by_time(train: int | Sequence[str] = 48, test: int | Sequence[str] = 12) -> SplitSpec:
    return SplitSpec(axis="time", train=train, test=test)


@dataclass
class TrainConfig:
    """Knobs of one training run; defaults follow the artifact conventions."""

    model: str = "cnn"
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.01
    seed: int = 0
    split: SplitSpec = field(default_factory=by_point)
    loss: str = "strict"  # the paper's congestion-weighted loss, the only one
    checkpoint_dir: str | Path | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.model not in models.KINDS:
            raise ValueError(f"unknown model kind {self.model!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be a finite number >= 0, got {self.lr}")
        if self.loss != "strict":
            raise ValueError(f"unknown loss kind {self.loss!r}; only 'strict' is defined")
        if not isinstance(self.checkpoint_dir, (str, Path, type(None))):
            raise ValueError(f"TrainConfig.checkpoint_dir must be a path, got {self.checkpoint_dir!r}")

    def echo(self, split_units: tuple[list, list]) -> dict:
        """Every setting but ``checkpoint_dir``, the split's fields as
        ``split_*`` keys, and the units each side resolved to."""
        settings = asdict(self)
        del settings["checkpoint_dir"]
        for key, value in settings.pop("split").items():
            settings[f"split_{key}"] = list(value) if isinstance(value, tuple) else value
        settings["train_units"], settings["test_units"] = split_units
        return settings


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


def _resolve_units(available: list, requested: int | tuple, offset: int, side: str) -> list:
    if isinstance(requested, int):
        if requested < 0:
            raise ValueError(f"{side} count must be >= 0")
        chosen = available[offset : offset + requested]
        if len(chosen) < requested:
            raise EmptySplitError(
                f"{side}: requested {requested} units, only {len(chosen)} available past offset {offset}"
            )
        return chosen
    missing = [u for u in requested if u not in available]
    if missing:
        raise EmptySplitError(f"{side}: units {missing} absent from dataset")
    return list(requested)


def _units(dataset: Dataset, axis: str) -> tuple[np.ndarray, dict]:
    """Each snapshot's split key, and the distinct units in sorted order
    mapped to their keys.  Units are centre-point order indices on the point
    axis and ISO calendar dates on the time axis."""
    keys = dataset.point_order() if axis == "point" else dataset.times().astype("datetime64[D]")
    distinct = np.unique(keys)
    labels = [int(k) for k in distinct] if axis == "point" else [str(k) for k in distinct]
    return keys, dict(zip(labels, distinct))


def split(dataset: Dataset, cfg: TrainConfig) -> tuple[Dataset, Dataset]:
    """Partition snapshots by centre point or by calendar day, disjointly."""
    spec = cfg.split
    keys, units = _units(dataset, spec.axis)
    available = list(units)

    train_units = _resolve_units(available, spec.train, 0, "train")
    if isinstance(spec.test, int):
        offset = len(train_units) if isinstance(spec.train, int) else 0
        test_units = _resolve_units(available, spec.test, offset, "test")
    else:
        test_units = _resolve_units(available, spec.test, 0, "test")

    overlap = set(train_units) & set(test_units)
    if overlap:
        raise EmptySplitError(f"train/test overlap on units {sorted(overlap)}")
    if not train_units or not test_units:
        raise EmptySplitError("both split sides must be nonempty")

    train_idx = np.flatnonzero(np.isin(keys, [units[u] for u in train_units]))
    test_idx = np.flatnonzero(np.isin(keys, [units[u] for u in test_units]))
    if not train_idx.size or not test_idx.size:
        raise EmptySplitError("a split side matched no snapshots")
    return dataset.subset(train_idx), dataset.subset(test_idx)


def train(dataset: Dataset, cfg: TrainConfig) -> tuple[models.ModelParams, TrainReport]:
    """Split, run the epoch loop, checkpoint each epoch into
    ``cfg.checkpoint_dir`` (if set), report.

    Deterministic for a fixed seed; zero-loss batches skip their update per
    the loss contract; non-finite gradients abort with epoch/batch context.
    """
    started = _time.perf_counter()
    train_ds, test_ds = split(dataset, cfg)
    train_units = list(_units(train_ds, cfg.split.axis)[1])
    test_units = list(_units(test_ds, cfg.split.axis)[1])

    model = models.KINDS[cfg.model].initialize(cfg.seed)
    targets = train_ds.targets()
    z = train_ds.z

    shuffle_rng = stream(cfg.seed, "shuffle")
    epoch_losses: list[float] = []
    skipped = 0
    config_echo = cfg.echo((train_units, test_units))

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
