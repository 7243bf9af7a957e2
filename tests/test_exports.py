"""Every name a photonkit module lists in `__all__` exists on it (`errors`
lists none), and every function listed there is used by photonkit's own code
or is named library API. Every name a photonkit or test module imports is
used in that module or listed in its `__all__`.

`from photonkit.<module> import *` and the benchmark tracer
(`perfbench/spans.py`, which looks up each entry) both fail on a stale one."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import photonkit
from photonkit import biphoton, dispersion, fiber_prop, specs

MODULES = sorted(m.name for m in pkgutil.iter_modules(photonkit.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted([*Path(photonkit.__file__).parent.rglob("*.py"),
                  *Path(__file__).resolve().parent.rglob("*.py")])

# Public functions no photonkit code calls, kept as library API; README's
# "Library API" section lists the same names.
LIBRARY_API = {
    "bracket_root": "acceptance criterion 9 brackets its roots with it",
    "integrate": "acceptance criterion 9 checks Gauss-Legendre exactness with it",
    "robustly_guided": "acceptance criterion 2 flags marginal bent-guide modes with it",
    "qff_transform_check": "acceptance criterion 9 checks the radial-Schrodinger form with it",
    "synthesize_noisy_dataset": "acceptance criterion 3 fits the data it synthesizes",
    "fwhm_omega_to_tau": "the documented pump-duration conversion from a spectral FWHM",
    "envelope_tau_from_reciprocal_sigma":
        "the documented duration conversion; acceptance criterion 5 uses it",
    "omega_phz_from_wavelength_um":
        "the documented unit conversion, inverse of wavelength_um_from_omega_phz",
    "simulate_poisson": "acceptance criterion 8 draws its count records with it",
    "branch": "acceptance criterion 8 thins the count records with it",
    "solve_signal_wavelength":
        "the one-pump phase-matching solve, which the benchmark traces as a layer",
}


def _module(stem: str):
    return importlib.import_module("photonkit" if stem == "__init__"
                                   else f"photonkit.{stem}")


def _public_functions() -> dict[str, object]:
    """Every function a photonkit module lists in __all__, by name."""
    modules = [_module(name) for name in MODULES]
    return {entry: getattr(module, entry) for module in modules
            for entry in getattr(module, "__all__", ())
            if inspect.isfunction(getattr(module, entry, None))}


def _functions_loaded_in_source() -> set:
    """Every function photonkit's code loads: a bare name that its module's
    globals, or one of the module's relative `from .x import f` statements
    (function-local ones too), bind to the function, or `m.f` where `m` so
    names a photonkit module. A def statement's own name, an `__all__`
    string, a docstring or comment, and an attribute of anything else (a
    dataclass field of the same name, say) are none of these."""
    loaded = set()
    for path in Path(photonkit.__file__).parent.glob("*.py"):
        module = _module(path.stem)
        tree = ast.parse(path.read_text())
        bound = {name: [value] for name, value in vars(module).items()}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    value = (getattr(_module(node.module), alias.name) if node.module
                             else _module(alias.name))
                    bound.setdefault(alias.asname or alias.name, []).append(value)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                values = bound.get(node.id, [])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                values = [getattr(m, node.attr, None)
                          for m in bound.get(node.value.id, [])
                          if inspect.ismodule(m) and m.__name__.startswith("photonkit")]
            else:
                continue
            loaded.update(v for v in values if inspect.isfunction(v))
    return loaded


# The module each input spec moved to `specs` from, which re-exports it.
SPEC_HOMES = {
    "dispersion": ("Polarization", "SellmeierSet", "CrystalSpec", "load_crystal",
                   "builtin_crystal_path"),
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


def test_every_public_function_is_called_or_library_api():
    loaded = _functions_loaded_in_source()
    uncalled = {name for name, f in _public_functions().items() if f not in loaded}
    assert sorted(uncalled - LIBRARY_API.keys()) == []
    # An entry that gained a caller, or left every __all__, leaves the set.
    assert sorted(LIBRARY_API.keys() - uncalled) == []


def test_readme_lists_the_library_api():
    section = README.read_text().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^- `(\w+)`", section, flags=re.M)) == set(LIBRARY_API)


def _unused_imports(path: Path) -> list[str]:
    """The names an import statement of `path` binds (`from __future__`
    aside) that the file never loads and its `__all__` does not list."""
    tree = ast.parse(path.read_text())
    imported, listed = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            listed.update(ast.literal_eval(node.value))
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - loaded - listed - {"*"})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert _unused_imports(path) == []
