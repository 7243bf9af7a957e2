"""Every name a photonkit module lists in `__all__` exists on it (`errors`
lists none).

`from photonkit.<module> import *` and the benchmark tracer
(`perfbench/spans.py`, which looks up each entry) both fail on a stale one."""

import importlib
import inspect
import pkgutil

import pytest

import photonkit
from photonkit import biphoton, dispersion, fiber_prop

MODULES = sorted(m.name for m in pkgutil.iter_modules(photonkit.__path__))


def test_modules_found():
    assert "numerics" in MODULES and "cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(f"photonkit.{name}")
    names = getattr(module, "__all__", ())
    assert [entry for entry in names if not hasattr(module, entry)] == []


# perfbench/spans.py reads these arguments by name, through inspect.signature.
@pytest.mark.parametrize("function,argument", [
    (biphoton.jsa_grid, "z_order"),
    (fiber_prop.save_time_grid_csv, "path"),
    (dispersion.refractive_index, "wavelength_um"),
])
def test_traced_argument_names(function, argument):
    assert argument in inspect.signature(function).parameters
