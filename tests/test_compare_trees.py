"""scripts/compare_trees.py: a tree against itself, and its array diff."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from trafficflow import models

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "compare_trees.py"

_spec = importlib.util.spec_from_file_location("compare_trees", SCRIPT)
compare_trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_trees)


def test_a_tree_against_itself_writes_identical_outputs():
    done = subprocess.run([sys.executable, str(SCRIPT), str(REPO), str(REPO)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    *lines, summary = done.stdout.splitlines()
    verdicts = dict(line.rsplit(": ", 1) for line in lines)
    assert set(verdicts.values()) == {"identical"}
    assert summary == f"{len(lines)} of {len(lines)} outputs identical"
    # every command wrote what it writes, and no wall-time file is compared
    assert {
        "synth.tfds", "ingest.tfds", "ingest.tfds.config.json", "cnn.tfmodel", "lstm.tfmodel.report.json",
        "eval/config.json", "eval/daily_rmse.csv", "sim.log", "train_lstm.out",
    } <= set(verdicts)
    assert not any(name.endswith(".meta.json") for name in verdicts)


def test_array_differences_count_elements_and_ulp():
    params = models.CnnPredictor.initialize(0).to_params(seed=0)
    parent = models.save(params)
    assert compare_trees.array_differences(parent, parent) == []
    # the header alone differs: the arrays are identical
    assert compare_trees.array_differences(parent, models.save(models.ModelParams(**{**vars(params), "seed": 1}))) == []
    arrays = dict(params.arrays)
    arrays["fc2_b"] = np.nextafter(arrays["fc2_b"], -np.inf)
    w = arrays["fc1_w"].copy()
    w.flat[[0, 5]] = [np.nextafter(np.nextafter(w.flat[0], np.inf), np.inf), -w.flat[5]]
    arrays["fc1_w"] = w
    change = models.save(models.ModelParams(**{**vars(params), "arrays": arrays}))
    flips = 2 * int(np.abs(w.flat[5:6]).view(np.int64)[0])  # from x to -x across zero
    assert compare_trees.array_differences(parent, change) == [
        f"array fc1_w: 2 of {w.size} elements differ, largest by {max(2, flips)} ulp",
        "array fc2_b: 1 of 1 elements differ, largest by 1 ulp",
    ]
