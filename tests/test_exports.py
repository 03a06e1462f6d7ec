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


def test_one_quadrature_route_under_every_name():
    # the benchmark's output checks import it from bathprobe.spectral
    import bathprobe
    from bathprobe import quadrature, spectral
    assert spectral.quadrature_factor is quadrature.quadrature_factor
    assert bathprobe.quadrature_factor is quadrature.quadrature_factor
