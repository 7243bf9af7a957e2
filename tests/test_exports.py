"""Every name a photonkit module lists in `__all__` exists on it (`errors`
lists none).

`from photonkit.<module> import *` and the benchmark tracer
(`perfbench/spans.py`, which looks up each entry) both fail on a stale one."""

import importlib
import pkgutil

import pytest

import photonkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(photonkit.__path__))


def test_modules_found():
    assert "numerics" in MODULES and "cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(f"photonkit.{name}")
    names = getattr(module, "__all__", ())
    assert [entry for entry in names if not hasattr(module, entry)] == []
