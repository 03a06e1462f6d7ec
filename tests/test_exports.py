"""Every exported name resolves, so no deleted name lingers in an export list."""

import importlib

import pytest

MODULES = ["bathprobe", "bathprobe.cli", "bathprobe.correlations",
           "bathprobe.dynamics", "bathprobe.fisher", "bathprobe.oracle",
           "bathprobe.quadrature", "bathprobe.spectral"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, (name, missing)
