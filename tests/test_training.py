"""Splitting, the training loop, determinism, provenance."""

import tempfile

import numpy as np
import pytest

from trafficflow import core, ingestion, models, nn, training

from conftest import make_network_series


def _synthetic_dataset(days=2, seed=0, n_points=12, noise=0.02):
    spec = core.chain_network(n_points, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    profile = ingestion.SyntheticProfile(
        base_speed_ratio=0.9,
        dips=(ingestion.RushHourDip(10, 13, 0.5, ramp_slots=1),),
        noise_std=noise,
        propagation_lag_steps=1,
    )
    series = ingestion.synth(profile, spec, days=days, seed=seed, cfg=cfg)
    return ingestion.window(series, spec, cfg)


def _constant_dataset(value=0.8, n_points=10, slots=40):
    spec = core.chain_network(n_points, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    values = np.full((n_points, slots), value)
    return ingestion.window(make_network_series(values, spec), spec, cfg)


# ---------------------------------------------------------------------------
# splitting


def test_by_point_split_first_20_next_30():
    spec = core.chain_network(58, 65.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    values = np.random.default_rng(0).uniform(0, 1, size=(58, 7))
    ds = ingestion.window(make_network_series(values, spec), spec, cfg)
    train_ds, test_ds = training.split(ds, training.TrainConfig(split=training.by_point(20, 30)))
    train_orders = {s.point.order_index for s in train_ds.snapshots}
    test_orders = {s.point.order_index for s in test_ds.snapshots}
    assert train_orders == set(range(4, 24))
    assert test_orders == set(range(24, 54))
    assert not train_orders & test_orders
    assert train_ds.z + test_ds.z == ds.z


def test_by_time_split_48_12():
    spec = core.chain_network(5, 60.0, n_in=1, m_out=1)
    cfg = core.SnapshotConfig(delta=1, n_in=1, m_out=1, step_minutes=240, horizon_steps=1)
    values = np.random.default_rng(1).uniform(0, 1, size=(5, 60 * 6))
    ds = ingestion.window(make_network_series(values, spec, step_minutes=240), spec, cfg)
    cfg_train = training.TrainConfig(split=training.SplitSpec(axis="time"))
    assert (cfg_train.split.train, cfg_train.split.test) == (48, 12)
    train_ds, test_ds = training.split(ds, cfg_train)
    train_days = {s.timestamp.date() for s in train_ds.snapshots}
    test_days = {s.timestamp.date() for s in test_ds.snapshots}
    assert len(train_days) == 48 and len(test_days) == 12
    assert max(train_days) < min(test_days)


def test_empty_split_rejected():
    # a count below 1 is refused when the split is built, one past the data
    # when it is applied
    with pytest.raises(training.EmptySplitError, match="^test count must be >= 1, got 0$"):
        training.by_point(4, 0)
    with pytest.raises(ValueError, match="^train count must be >= 1, got -1$") as err:
        training.by_point(-1, 2)
    assert type(err.value) is ValueError
    ds = _synthetic_dataset()  # 4 eligible points
    message = "^the split takes 4 train and 1 test units, the dataset has 4$"
    with pytest.raises(training.EmptySplitError, match=message):
        training.split(ds, training.TrainConfig(split=training.by_point(4, 1)))


def test_split_counts_default_per_axis():
    assert training.SplitSpec() == training.by_point() == training.SplitSpec("point", 20, 30)
    assert training.SplitSpec(axis="time", test=None) == training.SplitSpec("time", 48, 12)
    assert training.SplitSpec(axis="time", train=3) == training.SplitSpec("time", 3, 12)
    assert training.TrainConfig().split == training.SplitSpec("point", 20, 30)


# ---------------------------------------------------------------------------
# training loop


def test_constant_traffic_learned_within_30_epochs(tmp_path):
    ds = _constant_dataset(value=0.8)
    cfg = training.TrainConfig(
        model="cnn",
        epochs=30,
        lr=0.5,
        seed=0,
        split=training.by_point(1, 1),
        checkpoint_dir=tmp_path,
    )
    params, report = training.train(ds, cfg)
    assert report.epoch_losses[-1] < 0.01
    assert len(report.epoch_losses) == 30


def test_training_deterministic_for_fixed_seed(tmp_path):
    ds = _synthetic_dataset()
    cfg = training.TrainConfig(
        model="lstm", epochs=3, lr=0.2, seed=7,
        split=training.by_point(2, 2), checkpoint_dir=tmp_path / "a",
    )
    params_a, report_a = training.train(ds, cfg)
    cfg_b = training.TrainConfig(
        model="lstm", epochs=3, lr=0.2, seed=7,
        split=training.by_point(2, 2), checkpoint_dir=tmp_path / "b",
    )
    params_b, report_b = training.train(ds, cfg_b)
    assert report_a.epoch_losses == report_b.epoch_losses
    assert report_a.final_test_rmse == report_b.final_test_rmse
    for name in params_a.arrays:
        np.testing.assert_array_equal(params_a.arrays[name], params_b.arrays[name])
    assert models.save(params_a) == models.save(params_b)


def test_zero_learning_rate_keeps_initial_parameters(tmp_path):
    ds = _synthetic_dataset()
    cfg = training.TrainConfig(
        model="cnn", epochs=2, lr=0.0, seed=3,
        split=training.by_point(2, 2), checkpoint_dir=tmp_path,
    )
    params, _ = training.train(ds, cfg)
    fresh = models.CnnPredictor.initialize(3)
    for name, array in fresh.params.items():
        np.testing.assert_array_equal(params.arrays[name], array)


def test_loss_trend_decreases_on_synthetic_data(tmp_path):
    ds = _synthetic_dataset(days=3)
    cfg = training.TrainConfig(
        model="cnn", epochs=10, lr=0.3, seed=1,
        split=training.by_point(2, 2), checkpoint_dir=tmp_path,
    )
    _, report = training.train(ds, cfg)
    first = float(np.mean(report.epoch_losses[:5]))
    last = float(np.mean(report.epoch_losses[-5:]))
    assert last < first


def test_report_provenance_is_disjoint_and_complete(tmp_path):
    ds = _synthetic_dataset()
    cfg = training.TrainConfig(
        model="cnn", epochs=1, lr=0.1, seed=0,
        split=training.by_point(2, 2), checkpoint_dir=tmp_path,
    )
    _, report = training.train(ds, cfg)
    assert not set(report.train_units) & set(report.test_units)
    assert report.train_units == [4, 5] and report.test_units == [6, 7]
    assert report.train_size > 0 and report.test_size > 0
    # the config echo is the settings document; the units appear once, resolved
    assert report.config == {"model": "cnn", "epochs": 1, "batch_size": 32, "lr": 0.1, "seed": 0, "loss": "strict",
                             "split": {"axis": "point", "train": 2, "test": 2}}
    assert [p.name for p in tmp_path.iterdir()] == ["epoch_000.tfmodel"]


def test_checkpoints_written_every_epoch(tmp_path):
    ds = _synthetic_dataset()
    cfg = training.TrainConfig(
        model="lstm", epochs=4, lr=0.1, seed=0,
        split=training.by_point(2, 2), checkpoint_dir=tmp_path,
    )
    training.train(ds, cfg)
    files = sorted(p.name for p in tmp_path.glob("*.tfmodel"))
    assert files == [f"epoch_{e:03d}.tfmodel" for e in range(4)]
    restored = models.build_predictor(models.load_file(tmp_path / files[-1]))
    assert restored.kind == "lstm"


def test_no_checkpoint_dir_writes_no_checkpoints(tmp_path, monkeypatch):
    # without a checkpoint directory nothing is written, not even to a
    # temporary directory
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = training.TrainConfig(model="cnn", epochs=2, lr=0.1, seed=0, split=training.by_point(2, 2))
    training.train(_synthetic_dataset(), cfg)
    assert list(tmp_path.iterdir()) == []


def test_non_finite_gradient_reports_epoch_and_batch(tmp_path, monkeypatch):
    ds = _synthetic_dataset()
    cfg = training.TrainConfig(
        model="cnn", epochs=1, lr=0.1, seed=0,
        split=training.by_point(2, 2), checkpoint_dir=tmp_path,
    )

    def poisoned(self, grad_preds, cache):
        grads = original(self, grad_preds, cache)
        grads["fc2_b"] = np.array([np.nan])
        return grads

    original = models.CnnPredictor.backward_batch
    monkeypatch.setattr(models.CnnPredictor, "backward_batch", poisoned)
    with pytest.raises(nn.NonFiniteGradientError) as err:
        training.train(ds, cfg)
    assert err.value.name == "fc2_b"
    assert str(err.value) == "non-finite gradient for parameter 'fc2_b' at epoch 0, batch 0"


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), -0.1])
def test_train_config_refuses_a_non_finite_or_negative_lr(lr):
    with pytest.raises(ValueError, match=f"lr must be a finite number >= 0, got {lr}"):
        training.TrainConfig(lr=lr)


def test_train_config_validation():
    with pytest.raises(ValueError):
        training.TrainConfig(model="mlp")
    with pytest.raises(ValueError, match=r"^batch_size must be >= 1, got 0$"):
        training.TrainConfig(batch_size=0)
    assert training.TrainConfig(epochs=2**20).epochs == 2**20
    for epochs in (0, 2**20 + 1, 10**30):  # above the bound, a run that would not end
        with pytest.raises(ValueError, match=rf"^epochs must be in \[1, 1048576\], got {epochs}$"):
            training.TrainConfig(epochs=epochs)
    for loss in ("huber", "rmse"):
        with pytest.raises(ValueError, match="unknown loss kind"):
            training.TrainConfig(loss=loss)
    with pytest.raises(ValueError):
        training.SplitSpec(axis="rows")
    for bad in ({"epochs": "2"}, {"epochs": None}, {"batch_size": True}, {"lr": "0.1"}, {"seed": 1.0},
                {"model": ["cnn"]}, {"loss": 0}, {"checkpoint_dir": 5}):
        with pytest.raises(ValueError, match="must be"):
            training.TrainConfig(**bad)
    for bad in ((4, 5), [4], 4.0, True):  # a split side is a count, never a list of units
        with pytest.raises(ValueError, match=r"SplitSpec.train must be of type int \| None"):
            training.by_point(bad)


def test_checkpoint_dir_is_checked_against_its_annotation():
    assert training.TrainConfig(checkpoint_dir="c").checkpoint_dir == "c"
    with pytest.raises(ValueError) as err:
        training.TrainConfig(checkpoint_dir=5)
    assert str(err.value) == "TrainConfig.checkpoint_dir must be of type str | pathlib.Path | None, got 5"
