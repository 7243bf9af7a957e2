"""Every name a photonkit module lists in `__all__` exists on it (`errors`
lists none).

`from photonkit.<module> import *` and the benchmark tracer
(`perfbench/spans.py`, which looks up each entry) both fail on a stale one."""

import importlib
import inspect
import pkgutil

import pytest

import photonkit
from photonkit import biphoton, dispersion, fiber_prop, specs

MODULES = sorted(m.name for m in pkgutil.iter_modules(photonkit.__path__))

# The module each input spec moved to `specs` from, which re-exports it.
SPEC_HOMES = {
    "dispersion": ("Polarization", "SellmeierSet", "CrystalSpec", "load_crystal",
                   "crystal_to_dict", "builtin_crystal_path"),
    "biphoton": ("PumpSpec", "CouplingSpec", "JsaGridSpec"),
    "phasematch": ("PhaseMatchQuery",),
    "fiber_prop": ("FiberSpec",),
    "rect_guide": ("RectGuideSpec",),
    "bent_guide": ("BentGuideSpec",),
}


def test_modules_found():
    assert "numerics" in MODULES and "cli" in MODULES and "specs" in MODULES


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


def test_every_spec_has_one_home():
    assert sorted(n for names in SPEC_HOMES.values() for n in names) == sorted(specs.__all__)


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in SPEC_HOMES.items() for name in names])
def test_spec_reexport_is_the_same_object(module, name):
    # A copy instead of a re-export would make a second Polarization enum,
    # whose members match none of the crystal's axis tests.
    home = importlib.import_module(f"photonkit.{module}")
    assert name in home.__all__
    assert getattr(home, name) is getattr(specs, name)
