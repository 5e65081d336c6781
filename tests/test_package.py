"""The package's public surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import trafficflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(trafficflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"trafficflow.{name}")
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []
