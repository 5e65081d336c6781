"""The functions and methods the benchmark's traced run wraps by name.

``perfbench/layers.py`` replaces them for the length of a traced run and
puts the originals back; a renamed or deleted one fails its install.
"""

import importlib
import sys
from pathlib import Path

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
