"""The headline experiments' contrast arithmetic, on hand-made records."""

from datetime import date

import pytest

from trafficflow import core, evaluation, experiments


def _record(order: int, day: int, rmse: float, model: str) -> evaluation.DailyRmseRecord:
    return evaluation.DailyRmseRecord(core.PointId(f"d{order:03d}", order), date(2024, 1, day), rmse, model)


def test_persistence_contrast_pairs_cells_and_counts_a_tie_as_a_loss():
    records = [
        _record(0, 1, 0.4, "persistence"),
        _record(0, 2, 0.2, "persistence"),
        _record(1, 1, 0.3, "persistence"),
        # listed out of the persistence order, so pairing by position would count two wins
        _record(1, 1, 0.35, "cnn"),  # a loss
        _record(0, 2, 0.2, "cnn"),  # a tie, which is a loss
        _record(0, 1, 0.1, "cnn"),  # the one win
        _record(1, 1, 0.0, "lstm"),  # another model's cell
    ]
    contrast = experiments.persistence_contrast(records, "cnn")
    assert (contrast.wins, contrast.cells) == (1, 3)
    assert contrast.mean_rmse == pytest.approx(0.65 / 3, abs=1e-15)
    assert contrast.persistence_mean == pytest.approx(0.3, abs=1e-15)
