"""Span tracing of photonkit's public functions, from outside the package.

`Tracer.install()` replaces every public function of every photonkit module
with a recording wrapper, in each module namespace that holds it, so a name
bound by `from .dispersion import refractive_index` is traced where the
importing module looks it up. `uninstall()` restores the originals. Spans are
kept in memory per job, written out by `Tracer.write()` and reduced to
per-layer totals by `Tracer.reduce()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


def _sweep(arg, result):
    return {"pumps": int(np.size(result)), "roots_found": int(np.isfinite(result).sum())}


def _jsa_cells(arg, result):
    return {"cells": result.omega_s_phz.size * result.omega_i_phz.size * arg("z_order")}


# Quantities recorded per call besides its count and times: span name ->
# f(arg, result) -> {quantity: value}, where arg(name) is the call's argument
# of that name, or its default.
QUANTITIES = {
    "dispersion.refractive_index":
        lambda arg, r: {"elements": int(np.size(arg("wavelength_um")))},
    "phasematch.solve_signal_sweep": _sweep,
    "numerics.least_squares_fit": lambda arg, r: {"iterations": r.iterations},
    "sellmeier_fit.fit":
        lambda arg, r: {"iterations": r.iterations, "converged": int(r.converged)},
    "biphoton.jsa_grid": _jsa_cells,
    "fiber_prop.save_time_grid_csv":
        lambda arg, r: {"bytes": os.path.getsize(arg("path"))},
    "bent_guide.solve_modes": lambda arg, r: {"modes": len(r)},
}

# The CLI module is the front end: only its entry point is a layer boundary,
# so scenario validation and output writing count as cli.run self time.
CLI_ENTRY = {"photonkit.cli": ("run",)}


class Span(NamedTuple):
    serial: int
    name: str
    start: float
    end: float
    parent: int  # serial of the enclosing span, -1 at the top
    job: int
    quantities: dict | None


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    quantities: dict = field(default_factory=lambda: defaultdict(float))


def _public_functions(module):
    short = module.__name__.rpartition(".")[2]
    names = CLI_ENTRY.get(module.__name__, getattr(module, "__all__", ()))
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{short}.{name}", obj


class Tracer:
    """Records one span per call into a photonkit public function."""

    def __init__(self, package):
        self.modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                        for m in pkgutil.iter_modules(package.__path__)]
        self.originals = {}  # id(original) -> (span name, original)
        for module in self.modules:
            for name, fn in _public_functions(module):
                self.originals[id(fn)] = (name, fn)
        self.patched: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        self.job = 0
        self._serial = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _wrap(self, name, fn):
        extract = QUANTITIES.get(name)
        params = inspect.signature(fn).parameters
        position = {p: i for i, p in enumerate(params)}
        clock = time.perf_counter
        spans = self.spans
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs under the main thread's open span
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            serial = next(self._serial)
            stack.append(serial)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append(Span(serial, name, start, end, parent, self.job, None))
                raise
            end = clock()
            stack.pop()
            quantities = None
            if extract:
                def arg(p):
                    i = position[p]
                    return args[i] if i < len(args) else kwargs.get(p, params[p].default)
                quantities = extract(arg, result)
            spans.append(Span(serial, name, start, end, parent, self.job, quantities))
            return result

        return traced

    def install(self) -> None:
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self.originals.items()}
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self.patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in self.patched:
            setattr(module, attr, original)
        self.patched.clear()

    def write(self, fh) -> None:
        """Write the recorded spans to the open text file `fh`, one JSON
        object per line."""
        for span in self.spans:
            fh.write(json.dumps(span._asdict()) + "\n")

    def reduce(self) -> dict[str, LayerTotals]:
        """Adds the recorded spans to the per-name `totals`, clears them, and
        returns the totals.

        busy_s counts a span only when no enclosing span has the same name, so
        recursion is not counted twice. self_s is a span's duration minus the
        part of it covered by its child spans.
        """
        by_serial = {s.serial: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start, s.end))
        for s in self.spans:
            t = self.totals[s.name]
            t.calls += 1
            duration = s.end - s.start
            t.self_s += duration - _covered(children.get(s.serial, ()), s.start, s.end)
            if not _has_ancestor_named(s, by_serial):
                t.busy_s += duration
            for key, value in (s.quantities or {}).items():
                t.quantities[key] += value
        self.spans.clear()
        return self.totals


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _has_ancestor_named(span: Span, by_serial: dict) -> bool:
    parent = by_serial.get(span.parent)
    while parent is not None:
        if parent.name == span.name:
            return True
        parent = by_serial.get(parent.parent)
    return False
