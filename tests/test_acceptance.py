"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria (stated tolerances pinned here):
  1. CNN layer chain 9x5 -> 7x3x64 -> 5x1x64 -> 320 -> 32 -> 1, structural.
  2. All layer backward passes and the training loss match central finite
     differences (h = 1e-5) at relative error < 1e-5 over >= 20 seeds.
  3. Loss formula fidelity to 1e-12, including the weight switch at Y = 0.5.
  4. The printed 9x5 sample snapshot regenerates bit-exactly from ingestion;
     context scalars for a Wednesday 14:00-14:30 bucket are (0.5, 28/47).
  5. On the bundled synthetic benchmark (48 days, 20 train / 30 test points,
     30 epochs) both models beat persistence on >= 80% of (point, day) cells
     and mean daily RMSE < 0.5 x persistence.
  6. Decentralized node predictions equal the centralized windowed pipeline
     bit-for-bit on every post-warm-up tick of a 500-tick run.
  7. Fixed-seed training is bit-reproducible; model and dataset files round
     trip bit-exactly.
  8. A 58-point network with n = m = 4 has exactly 50 eligible points.
  9. Evaluation emits rush-hour/light-traffic slot series, and dip-slot MAE
     >= flat-slot MAE on >= 3 of 5 seeds.
"""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from trafficflow import core, experiments, ingestion, models, nn, simulation, training

from conftest import central_diff, rel_err


def _pass(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_cnn_shape_fidelity():
    model = models.CnnPredictor.initialize(0)
    _, (conv1, conv2, fc1, fc2, _) = model.forward_batch(np.zeros((2, 9, 5)))
    shapes = [conv1.in_shape[1:3], *(a.shape[1:] for a in (conv1.out, conv2.out, fc1.x, fc1.out, fc2.out))]
    assert shapes == [(9, 5), (7, 3, 64), (5, 1, 64), (320,), (32,), (1,)]
    # the chain is also enforced at construction: a wrong fc1 width is rejected
    broken = {k: v.copy() for k, v in model.params.items()}
    broken["fc1_w"] = np.zeros((321, 32))
    with pytest.raises(models.ManifestMismatchError):
        models.CnnPredictor(broken)
    _pass(1, "shape fidelity")


def test_criterion_2_gradient_correctness():
    seeds = range(20)

    for seed in seeds:
        rng = np.random.default_rng(10_000 + seed)

        # conv layer (relu, production activation); inputs kept off the kink
        for attempt in range(50):
            x = rng.normal(size=(2, 7, 5, 2))
            w = rng.normal(size=(3, 3, 2, 4)) * 0.7
            b = rng.normal(size=4)
            _, cache = nn.conv2d_forward(x, w, b, "relu")
            if np.min(np.abs(cache.z)) > 1e-3:
                break
        out, cache = nn.conv2d_forward(x, w, b, "relu")
        coef = rng.normal(size=out.shape)

        def conv_obj():
            y, _ = nn.conv2d_forward(x, w, b, "relu")
            return float(np.sum(y * coef))

        gx, gw, gb = nn.conv2d_backward(coef, cache)
        assert rel_err(gx, central_diff(conv_obj, x)) < 1e-5
        assert rel_err(gw, central_diff(conv_obj, w)) < 1e-5
        assert rel_err(gb, central_diff(conv_obj, b)) < 1e-5

        # dense layer (relu)
        for attempt in range(50):
            dx = rng.normal(size=(3, 6))
            dw = rng.normal(size=(6, 4))
            db = rng.normal(size=4)
            _, dcache = nn.dense_forward(dx, dw, db, "relu")
            if np.min(np.abs(dcache.z)) > 1e-3:
                break
        dout, dcache = nn.dense_forward(dx, dw, db, "relu")
        dcoef = rng.normal(size=dout.shape)

        def dense_obj():
            y, _ = nn.dense_forward(dx, dw, db, "relu")
            return float(np.sum(y * dcoef))

        gx, gw, gb = nn.dense_backward(dcoef, dcache)
        assert rel_err(gx, central_diff(dense_obj, dx)) < 1e-5
        assert rel_err(gw, central_diff(dense_obj, dw)) < 1e-5
        assert rel_err(gb, central_diff(dense_obj, db)) < 1e-5

        # LSTM cell over a length-5 sequence (full BPTT)
        xs = rng.normal(size=(2, 5, 3))
        wx = rng.normal(size=(3, 16)) * 0.6
        wh = rng.normal(size=(4, 16)) * 0.6
        lb = rng.normal(size=16) * 0.3
        hs, lcache = nn.lstm_forward(xs, wx, wh, lb)
        lcoef = rng.normal(size=hs.shape)

        def lstm_obj():
            out, _ = nn.lstm_forward(xs, wx, wh, lb)
            return float(np.sum(out * lcoef))

        gxs, gwx, gwh, glb = nn.lstm_backward(lcoef, lcache)
        assert rel_err(gxs, central_diff(lstm_obj, xs)) < 1e-5
        assert rel_err(gwx, central_diff(lstm_obj, wx)) < 1e-5
        assert rel_err(gwh, central_diff(lstm_obj, wh)) < 1e-5
        assert rel_err(glb, central_diff(lstm_obj, lb)) < 1e-5

        # training loss, away from the |.| kink
        targets = rng.uniform(0, 1, size=12)
        preds = rng.uniform(0, 1, size=12)
        preds[np.abs(preds - targets) < 1e-3] += 5e-3

        def loss_obj():
            return nn.loss_forward(nn.LossBatch(preds, targets))

        grad = nn.loss_backward(nn.LossBatch(preds, targets))
        assert rel_err(grad, central_diff(loss_obj, preds)) < 1e-5

    _pass(2, "gradient correctness")


def test_criterion_2b_production_model_gradients():
    # spot check the full production-sized models end to end: sampled
    # parameter coordinates against finite differences through the loss
    rng = np.random.default_rng(77)
    matrices = rng.uniform(0.05, 0.95, size=(4, 9, 5))
    targets = rng.uniform(0.05, 0.95, size=4)

    for kind in ("cnn", "lstm"):
        model = (models.CnnPredictor if kind == "cnn" else models.LstmPredictor).initialize(3)

        def objective():
            preds, _ = model.forward_batch(matrices)
            return nn.loss_forward(nn.LossBatch(preds, targets))

        preds, cache = model.forward_batch(matrices)
        grad_preds = nn.loss_backward(nn.LossBatch(preds, targets))
        grads = model.backward_batch(grad_preds, cache)
        h = 1e-5
        for name, param in model.params.items():
            flat = param.reshape(-1)
            coords = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            for c in coords:
                old = flat[c]
                flat[c] = old + h
                f_plus = objective()
                flat[c] = old - h
                f_minus = objective()
                flat[c] = old
                numeric = (f_plus - f_minus) / (2 * h)
                analytic = grads[name].reshape(-1)[c]
                denom = max(abs(numeric) + abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < 1e-5, f"{kind}.{name}[{c}]"
    _pass(2, "gradient correctness (production shapes)")


def test_criterion_3_loss_formula_fidelity():
    assert nn.loss_forward(nn.LossBatch(np.array([0.8]), np.array([0.9]))) == pytest.approx(0.1, abs=1e-12)
    assert nn.loss_forward(nn.LossBatch(np.array([0.5]), np.array([0.4]))) == pytest.approx(
        math.sqrt(0.11), abs=1e-12
    )
    # weight switches exactly at Y = 0.5: equal targets still penalized
    assert nn.loss_forward(nn.LossBatch(np.array([0.6]), np.array([0.5]))) == pytest.approx(
        math.sqrt(0.1 ** 2 + 0.1), abs=1e-12
    )
    assert nn.loss_forward(nn.LossBatch(np.array([0.6]), np.array([0.500001]))) == pytest.approx(
        abs(0.6 - 0.500001), abs=1e-9
    )
    values = np.array([0.2, 0.5, 0.9])
    assert nn.loss_forward(nn.LossBatch(values, values)) == 0.0
    _pass(3, "loss formula fidelity")


def test_criterion_4_sample_snapshot_reproduction():
    sample = np.array([
        [0.5, 0.6, 0.4, 0.5, 0.3],
        [0.4, 0.7, 0.4, 0.8, 0.5],
        [0.2, 0.9, 0.3, 0.3, 0.4],
        [0.4, 0.7, 0.5, 0.6, 0.5],
        [0.3, 0.8, 0.1, 0.8, 0.9],
        [0.5, 0.6, 0.5, 0.4, 0.3],
        [0.4, 0.7, 0.3, 0.9, 0.5],
        [0.5, 0.6, 0.5, 0.4, 0.3],
        [0.4, 0.7, 0.3, 0.9, 0.5],
    ])
    day_scalar, time_scalar = ingestion.context_scalars(datetime(2024, 1, 3, 14, 0))
    assert (day_scalar, time_scalar) == (0.5, 28 / 47)
    assert ingestion.context_scalars(datetime(2024, 1, 3, 14, 29)) == (0.5, 28 / 47)

    spec = core.chain_network(9, 10.0)
    cfg = core.SnapshotConfig(step_minutes=5)
    start = datetime(2024, 1, 3, 13, 40)  # Wednesday, column t at 14:00
    cleaned = []
    for k, point in enumerate(spec.points):
        speeds = [v * 10.0 for v in sample[k]] + [7.0]
        samples = [(start + timedelta(minutes=5 * i), s) for i, s in enumerate(speeds)]
        cleaned.append(ingestion.clean(ingestion.RawSeries(point, tuple(samples), 10.0), cfg))
    ds = ingestion.window(cleaned, spec, cfg)
    assert ds.z == 1
    snap = ds.snapshots[0]
    assert np.array_equal(snap.matrix, sample)
    assert snap.day_value == 0.5
    assert snap.time_value == 28 / 47
    assert snap.target == 0.7
    _pass(4, "sample snapshot reproduction")


def test_criterion_5_generalization_benchmark():
    run = experiments.generalization(data_seed=42, train_seed=123, lr=0.3, epochs=30)
    assert run.job.days == 48
    assert {s.point.order_index for s in run.test_ds.snapshots} == set(range(24, 54))
    n_cells = sum(r.model == "persistence" for r in run.evaluation.records)

    for kind in ("cnn", "lstm"):
        contrast = run.contrasts[kind]
        assert contrast.cells == n_cells
        share = contrast.wins / contrast.cells
        mean_rmse, base_mean = contrast.mean_rmse, contrast.persistence_mean
        print(f"  [{kind}] mean daily RMSE {mean_rmse:.4f} vs persistence {base_mean:.4f} "
              f"(ratio {mean_rmse / base_mean:.3f}), cell wins {share:.1%}")
        assert share >= 0.80, f"{kind}: beats persistence on only {share:.1%} of cells"
        assert mean_rmse < 0.5 * base_mean, f"{kind}: mean RMSE ratio {mean_rmse / base_mean:.3f}"
    _pass(5, "generalization benchmark")


def test_criterion_6_centralized_decentralized_equivalence():
    spec = core.chain_network(12, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    profile = ingestion.SyntheticProfile(
        0.92, (ingestion.RushHourDip(14, 17, 0.5, ramp_slots=2),), 0.02, 1
    )
    series = ingestion.synth(profile, spec, days=11, seed=6, cfg=cfg)  # 528 slots
    assert len(series[0]) >= 501
    dataset = ingestion.window(series, spec, cfg)
    centralized = {}
    for kind in ("cnn", "lstm"):
        model = (models.CnnPredictor if kind == "cnn" else models.LstmPredictor).initialize(8)
        for snap in dataset.snapshots:
            tick = int((snap.timestamp - series[0].start).total_seconds() // 1800)
            centralized[(kind, tick, snap.point.id)] = model.predict_snapshot(snap)
        log = simulation.run(series, spec, cfg, model, ticks=500)
        predictions = log.predictions()
        eligible = core.eligible_points(spec, cfg)
        mismatches = 0
        compared = 0
        for tick in range(cfg.delta, 500):
            for point in eligible:
                sim_value = predictions[(tick, point.id)]
                compared += 1
                if sim_value != centralized[(kind, tick, point.id)]:
                    mismatches += 1
        assert compared == (500 - cfg.delta) * len(eligible)
        assert mismatches == 0, f"{kind}: {mismatches} of {compared} differ"
    _pass(6, "centralized/decentralized equivalence")


def test_criterion_7_determinism_and_round_trips(tmp_path):
    spec = core.chain_network(12, 60.0)
    cfg = core.SnapshotConfig(step_minutes=30)
    profile = ingestion.SyntheticProfile(0.9, (ingestion.RushHourDip(10, 13, 0.5, ramp_slots=1),), 0.02, 1)
    series = ingestion.synth(profile, spec, days=2, seed=11, cfg=cfg)
    dataset = ingestion.window(series, spec, cfg)

    # fixed-seed training reproduces losses and parameters bit-exactly
    def run(tag):
        cfg_t = training.TrainConfig(
            model="cnn", epochs=3, lr=0.2, seed=21,
            split=training.by_point(2, 2), checkpoint_dir=tmp_path / tag,
        )
        return training.train(dataset, cfg_t)

    params_a, report_a = run("a")
    params_b, report_b = run("b")
    assert report_a.epoch_losses == report_b.epoch_losses
    assert report_a.final_test_rmse == report_b.final_test_rmse
    assert models.save(params_a) == models.save(params_b)

    # model file round trip preserves 100 random predictions bit-exactly
    restored = models.build_predictor(models.load(models.save(params_a)))
    direct = models.build_predictor(params_a)
    matrices = np.random.default_rng(5).uniform(0, 1, size=(100, 9, 5))
    for matrix in matrices:
        assert restored.predict(matrix) == direct.predict(matrix)

    # dataset file round trip is lossless
    blob = ingestion.dataset_to_bytes(dataset)
    loaded = ingestion.dataset_from_bytes(blob)
    assert loaded.z == dataset.z
    for a, b in zip(dataset.snapshots, loaded.snapshots):
        assert np.array_equal(a.matrix, b.matrix)
        assert (a.day_value, a.time_value, a.target, a.point, a.timestamp) == (
            b.day_value, b.time_value, b.target, b.point, b.timestamp,
        )
    assert ingestion.dataset_to_bytes(loaded) == blob
    _pass(7, "determinism and round trips")


def test_criterion_8_eligible_point_arithmetic():
    spec = core.chain_network(58, 65.0)
    cfg = core.SnapshotConfig()  # n = m = 4
    assert len(core.eligible_points(spec, cfg)) == 50
    _pass(8, "eligible point arithmetic")


def test_criterion_9_rush_hour_report():
    days = 6
    results = experiments.rush_hour(seeds=5, epochs=6, days=days, lr=0.5)
    for r in results:
        assert r.n_dip > 0 and r.n_flat > 0
        # the report emits the rush-hour and light-traffic slot series
        assert len(r.rush) == days and len(r.light) == days
        print(f"  dip MAE {r.dip_mae:.4f} vs flat MAE {r.flat_mae:.4f}")
    trend_hits = sum(r.dip_mae >= r.flat_mae for r in results)
    assert trend_hits >= 3, f"dip >= flat trend held on only {trend_hits} of 5 seeds"
    _pass(9, "rush hour behavior report")
