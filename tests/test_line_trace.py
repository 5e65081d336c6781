"""scripts/line_trace.py: the package lines that no caller runs."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

from trafficflow import models, simulation

REPO = Path(__file__).resolve().parent.parent


def _lines(function) -> dict[int, str]:
    source, first = inspect.getsourcelines(function)
    return {first + i: text.strip() for i, text in enumerate(source)}


def test_the_trace_lists_node_receive_and_not_the_tiled_pass():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "line_trace.py")], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    *listing, total = done.stdout.splitlines()
    listed = {(m[1], int(m[2])) for m in map(re.compile(r"(trafficflow\.\w+):(\d+): ").match, listing) if m}
    counts = [int(m[1]) for m in map(re.compile(r"trafficflow\.\w+: (\d+) lines not run$").match, listing) if m]
    assert total == f"{len(listed)} lines not run in all" == f"{sum(counts)} lines not run in all"
    # no replay builds a Node: the one-at-a-time message boundary stays for callers outside the package
    assert any(("trafficflow.simulation", n) in listed for n in _lines(simulation.Node.receive))
    # every block of every CNN prediction runs both convolutions over its tile
    body = _lines(models.CnnPredictor.predict_dataset)
    loop = [n for n, text in body.items() if text.startswith("for sel in")]
    tiled = [n for n in body if n >= loop[0] and body[n]]
    assert body[tiled[-1]] == "return out"
    assert not any(("trafficflow.models", n) in listed for n in tiled)
