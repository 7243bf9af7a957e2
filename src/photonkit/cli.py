"""Batch command-line front end.

Subcommands bind the solver modules to scenario files and flags and write CSV
grids plus JSON summaries. A command returns its payload and prints nothing;
a payload block that is exactly a solver result dataclass's fields is built
from that object. `run` alone prints JSON, one document per call: the
command's payload, or the validation-error or solver-error payload of the
exception it raised. It also picks the exit code: 0 success, 2 validation
failure, 3 solver failure. JSON payloads are rounded to 9 significant digits;
CSV files carry `repr` floats, which round-trip exactly.

Each CLI call is a fresh process, so every command imports the solver modules
it runs, and numpy, inside its own function, and a process loads only those.
Scenarios and flags are checked by building the dataclasses of `specs`, which
loads no numpy: `validate` and `stats g2` run without it. Before numpy loads,
wherever that happens, the BLAS thread count defaults to one (see
`_BLAS_THREAD_VARS`).

`main` is the console entry point. Once the command has returned it freezes
the heap (`gc.freeze`), so the collections the interpreter runs at exit skip
what the process built; atexit handlers, the flushing of stdout and stderr,
module teardown and the exit code are as they would be without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys
import typing
from pathlib import Path

# numpy's OpenBLAS reads these once, when it loads, and otherwise starts one
# thread per core. Unless the user set one, a CLI process runs BLAS on one
# thread. This runs when the CLI is imported, before any command imports numpy.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from . import specs  # noqa: E402
from .errors import DomainError, PhotonkitError, ScenarioError  # noqa: E402

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _round_sig(value, digits: int = 9):
    """Recursively round floats to `digits` significant digits for output; a
    numpy scalar or array, which has `tolist`, first becomes its Python value."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, float):
        if not math.isfinite(value):
            return value
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _round_sig(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_sig(v, digits) for v in value]
    return value


def _invalid(path: str, message: str) -> ScenarioError:
    return ScenarioError([{"path": path, "message": message}])


def _read_input(pointer: str, path: Path, load):
    """load(path) for an input file: the scenario (pointer ""), a crystal file
    ("/crystal") or a dataset ("/data"). A file that is missing, unreadable,
    not UTF-8 or malformed is reported at `pointer`."""
    try:
        return load(path)
    except FileNotFoundError:
        raise _invalid(pointer, f"not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise _invalid(pointer, f"line {exc.lineno}: {exc.msg}") from None
    except (OSError, ValueError) as exc:
        raise _invalid(pointer, str(exc)) from None


def _load_scenario(path: str) -> dict:
    p = Path(path)
    raw = _read_input("", p, lambda f: json.loads(f.read_text()))
    if not isinstance(raw, dict):
        raise _invalid("", "scenario must be a JSON object")
    raw["__dir__"] = str(p.parent)
    return raw


def _crystal(ref, base: str = ".") -> specs.CrystalSpec:
    """Load a crystal file, relative to `base`, or else a builtin by name."""
    if not isinstance(ref, str) or not ref:
        raise _invalid("/crystal", "crystal file or builtin name required")
    candidate = Path(base) / ref
    if not candidate.exists():
        try:
            candidate = specs.builtin_crystal_path(ref)
        except PhotonkitError:
            raise _invalid("/crystal", f"not found: {ref}") from None
    return _read_input("/crystal", candidate, specs.load_crystal)


# ---------------------------------------------------------------- scenarios

_KIND_NAMES = {float: "number", int: "integer", str: "string",
               specs.Polarization: "string"}


def _json_ok(kind, value) -> bool:
    """Whether the JSON `value` can fill a field of type `kind`."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float))
    if kind is int:
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    return isinstance(value, str)


def _spec(cls, block, pointer: str, diags: list, **defaults):
    """Build the spec dataclass `cls` from `block`: a JSON object, or flag values.

    Keys are the field names; a field missing from `block` takes `defaults`,
    then the dataclass default. Every unknown key and ill-typed value is
    reported; a DomainError from the dataclass checks is reported at
    `{pointer}/{field}`. Returns None once it has appended a diagnostic.
    """
    if not isinstance(block, dict):
        diags.append({"path": pointer, "message": "object required"})
        return None
    found = len(diags)
    hints = typing.get_type_hints(cls)
    diags.extend({"path": f"{pointer}/{key}", "message": "unknown field"}
                 for key in block if key not in hints)
    values = dict(defaults)
    for f in dataclasses.fields(cls):
        if f.name not in block and (f.name in values
                                    or f.default is not dataclasses.MISSING):
            continue
        value = block.get(f.name)
        optional = type(None) in typing.get_args(hints[f.name])
        kind = typing.get_args(hints[f.name])[0] if optional else hints[f.name]
        if value is None and optional:
            values[f.name] = None
        elif _json_ok(kind, value):
            values[f.name] = kind(value) if kind in (float, int) else value
        else:
            diags.append({"path": f"{pointer}/{f.name}",
                          "message": f"{_KIND_NAMES[kind]} required"})
    if len(diags) > found:
        return None
    try:
        return cls(**values)
    except DomainError as exc:
        path = f"{pointer}/{exc.field}" if exc.field else pointer
        diags.append({"path": path, "message": str(exc)})
        return None


def _string(scenario: dict, key: str, diags: list, default: str | None = None):
    """The scenario's string `key`, or `default` when it is absent or null."""
    value = scenario.get(key)
    if value is None:
        return default
    if not isinstance(value, str):
        diags.append({"path": f"/{key}", "message": "string required"})
    return value


def _out_dir(scenario: dict, diags: list) -> Path | None:
    """The scenario's `output_dir` (default "."), relative to the scenario
    file; its nearest existing ancestor, itself included, must be a directory."""
    name = _string(scenario, "output_dir", diags, ".")
    if not isinstance(name, str):
        return None
    out_dir = Path(scenario.get("__dir__", ".")) / name
    existing = next((p for p in (out_dir, *out_dir.parents) if p.exists()), out_dir)
    if not existing.is_dir():
        diags.append({"path": "/output_dir", "message": f"{existing} is not a directory"})
    return out_dir


def _names_directory(name: str, out_dir: Path) -> bool:
    """Whether the file name `name` under `out_dir` is empty, ends in a path
    separator, or resolves to the output directory or another directory."""
    path = out_dir / name
    return (not name or name.endswith(("/", os.sep))
            or path.resolve() == out_dir.resolve() or path.is_dir())


def _build(scenario: dict) -> dict:
    """The inputs of the scenario's command, each spec built once.

    Raises ScenarioError carrying every diagnostic, with JSON-pointer paths.
    """
    command = scenario.get("command")
    if command not in ("jsa", "fiber", "bentguide solve", "rectguide"):
        raise _invalid("/command", "command must be one of jsa, fiber, "
                                   "rectguide, 'bentguide solve'")
    diags: list = []
    inputs: dict = {}
    if command in ("jsa", "fiber"):
        try:
            inputs["crystal"] = _crystal(scenario.get("crystal"),
                                         scenario.get("__dir__", "."))
        except ScenarioError as exc:
            diags += exc.diagnostics
        for key, cls in (("pump", specs.PumpSpec),
                         ("coupling", specs.CouplingSpec),
                         ("grid", specs.JsaGridSpec)):
            inputs[key] = _spec(cls, scenario.get(key), f"/{key}", diags)
        inputs["query"] = _spec(specs.PhaseMatchQuery, scenario.get("query", {}),
                                "/query", diags, pump_wavelength_nm=1.0)
        inputs["out_dir"] = _out_dir(scenario, diags)
    if command == "fiber":
        inputs["fiber"] = _spec(specs.FiberSpec, scenario.get("fiber"),
                                "/fiber", diags)
        inputs["method"] = scenario.get("method", "stationary")
        if inputs["method"] not in ("stationary", "exact"):
            diags.append({"path": "/method",
                          "message": "method must be 'stationary' or 'exact'"})
    if command == "bentguide solve":
        inputs["spec"] = _spec(specs.BentGuideSpec, scenario.get("spec"),
                               "/spec", diags)
        field_csv = inputs["field_csv"] = _string(scenario, "field_csv", diags)
        if isinstance(field_csv, str):
            out_dir = inputs["out_dir"] = _out_dir(scenario, diags)
            if out_dir is not None and _names_directory(field_csv, out_dir):
                diags.append({"path": "/field_csv",
                              "message": "field_csv must name a file, not a directory"})
    if command == "rectguide":
        spec = inputs["spec"] = _spec(specs.RectGuideSpec, scenario.get("spec"),
                                      "/spec", diags)
        if spec is not None:
            key = "frequency_thz" if spec.kind == "hollow" else "wavelength_um"
            if key not in scenario:
                diags.append({"path": f"/{key}",
                              "message": f"{spec.kind} solve needs {key}"})
            elif not _json_ok(float, scenario[key]):
                diags.append({"path": f"/{key}", "message": "number required"})
            elif not 0 < scenario[key] < math.inf:
                diags.append({"path": f"/{key}", "message": "must be finite"
                              if scenario[key] > 0 else "must be positive"})
            else:
                inputs[key] = float(scenario[key])
            if spec.kind == "dielectric":
                pol = inputs["polarization"] = _string(scenario, "polarization",
                                                       diags, "Ey")
                if isinstance(pol, str) and pol not in ("Ey", "Ex"):
                    diags.append({"path": "/polarization",
                                  "message": "polarization must be 'Ey' or 'Ex'"})
    if diags:
        raise ScenarioError(diags)
    return inputs


def _scenario_inputs(path: str, command: str) -> dict:
    """Load the scenario file and build its inputs for `command`."""
    scenario = _load_scenario(path)
    scenario["command"] = command
    return _build(scenario)


def _make_out_dir(inputs: dict) -> Path:
    inputs["out_dir"].mkdir(parents=True, exist_ok=True)
    return inputs["out_dir"]


# ---------------------------------------------------------------- subcommands
#
# Each command returns its "ok" payload without `status`, which `run` adds.

def _cmd_dispersion(args) -> dict:
    from . import dispersion

    crystal = _crystal(args.crystal)
    if not math.isfinite(args.wavelength_um):
        raise _invalid("/wavelength_um", "must be finite")
    if args.wavelength_um <= 0:
        raise _invalid("/wavelength_um", "must be positive")
    if not math.isfinite(args.temperature_k):
        raise _invalid("/temperature_k", "must be finite")
    sell = crystal.axis_set(specs.Polarization(args.axis))
    n = dispersion.refractive_index(sell, args.wavelength_um)
    payload = {
        "crystal": crystal.name,
        "axis": args.axis,
        "wavelength_um": args.wavelength_um,
        "refractive_index": n,
        "wavevector_per_um": dispersion.wavevector_magnitude(n, args.wavelength_um),
    }
    if crystal.poling_period_um > 0:
        payload["poling_period_um"] = dispersion.poling_period(
            crystal, args.temperature_k)
    return payload


def _flag_query(args, top_pump_nm: float, **fields):
    """The flags' PhaseMatchQuery, built by `_spec` from `fields` plus the
    temperature and QPM sign, and the --window-nm pair, which must be finite,
    increase and lie above `top_pump_nm`. Raises ScenarioError listing every
    defect."""
    diags: list = []
    lo, hi = args.window_nm
    if not (math.isfinite(lo) and math.isfinite(hi)):
        diags.append({"path": "/window_nm", "message": "lo and hi must be finite"})
    elif not lo < hi:
        diags.append({"path": "/window_nm", "message": "lo must be below hi"})
    elif not top_pump_nm < lo:
        diags.append({"path": "/window_nm", "message":
                      f"window must lie above the pump wavelength {top_pump_nm} nm"})
    query = _spec(specs.PhaseMatchQuery, dict(
        fields, temperature_k=args.temperature_k, qpm_sign=args.qpm_sign), "", diags)
    if diags:
        raise ScenarioError(diags)
    return query, (lo, hi)


def _check_scan(pointer: str, pump_count: int, window) -> None:
    """Report at `pointer` a window scan of `pump_count` pumps too large to run."""
    from . import phasematch

    try:
        phasematch.scan_points(pump_count, window)
    except DomainError as exc:
        raise _invalid(pointer, str(exc)) from None


def _cmd_phasematch_sweep(args) -> dict:
    import numpy as np

    from . import phasematch

    crystal = _crystal(args.crystal)
    if not (math.isfinite(args.start_nm) and math.isfinite(args.stop_nm)):
        raise _invalid("/sweep", "start and stop must be finite")
    if args.points < 2 or args.stop_nm <= args.start_nm:
        raise _invalid("/sweep", "need points >= 2 and stop > start")
    query, window = _flag_query(args, args.stop_nm, pump_wavelength_nm=args.start_nm,
                                pol_pump=args.pol_pump, pol_signal=args.pol_signal,
                                pol_idler=args.pol_idler)
    _check_scan("/sweep", args.points, window)
    pumps = np.linspace(args.start_nm, args.stop_nm, args.points)
    roots = phasematch.solve_signal_sweep(query, crystal, pumps, window)
    rows = [{"pump_nm": float(p), "signal_nm": (None if math.isnan(s) else float(s))}
            for p, s in zip(pumps, roots)]
    if args.out:
        # The run creates the CSV's parent directory, as bentguide solve does.
        try:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            phasematch.save_dataset_csv(
                [phasematch.MeasurementPoint(row["pump_nm"], row["signal_nm"])
                 for row in rows if row["signal_nm"] is not None], args.out)
        except OSError as exc:
            raise _invalid("/out", str(exc)) from None
    return {"crystal": crystal.name, "points": rows,
            "solved": int(np.isfinite(roots).sum())}


def _cmd_fit_sellmeier(args) -> dict:
    from . import sellmeier_fit

    crystal = _crystal(args.crystal)
    points = _read_input("/data", Path(args.data), sellmeier_fit.load_dataset_csv)
    if not points:
        raise _invalid("/data", "no data rows")
    pumps = [pt.pump_nm for pt in points]
    query, window = _flag_query(args, max(pumps), pump_wavelength_nm=min(pumps))
    _check_scan("/window_nm", len(pumps), window)
    setup = sellmeier_fit.FitSetup(crystal=crystal, query=query, search_window_nm=window)
    start = crystal.sellmeier_z
    if args.start:
        a0, a1, a2 = args.start
        try:
            start = dataclasses.replace(start, a0=a0, a1=a1, a2=a2)
        except DomainError as exc:
            raise _invalid("/start", str(exc)) from None
    return dataclasses.asdict(
        sellmeier_fit.fit(points, start.as_tuple()[:3], setup, weighted=args.weighted))


def _scenario_grid(args, command: str):
    """The inputs of the scenario `command` runs on, and their joint spectrum."""
    from . import biphoton

    inputs = _scenario_inputs(args.scenario, command)
    grid = biphoton.jsa_grid(inputs["pump"], inputs["coupling"], inputs["crystal"],
                             inputs["grid"], inputs["query"])
    return inputs, grid


def _cmd_jsa(args) -> dict:
    from . import biphoton, numerics

    inputs, grid = _scenario_grid(args, "jsa")
    fit2 = biphoton.fit_gaussian_2d(grid)
    om_s, p_s = biphoton.marginal(grid, "signal")
    fit_s = biphoton.fit_gaussian_1d(om_s, p_s)
    out = _make_out_dir(inputs)
    numerics.write_grid_csv(out / "jsa_grid.csv",
                            ("omega_s_phz", "omega_i_phz", "probability"),
                            grid.omega_s_phz, grid.omega_i_phz, grid.probability)
    return {"grid_csv": str(out / "jsa_grid.csv"),
            "joint_fit": {
                "signal_center_phz": fit2.signal_center_phz,
                "idler_center_phz": fit2.idler_center_phz,
                "signal_sigma_phz": fit2.signal_sigma_phz,
                "idler_sigma_phz": fit2.idler_sigma_phz,
                "pearson": fit2.pearson},
            "signal_marginal_fit": {
                "center_phz": fit_s.center_phz,
                "fwhm_phz": fit_s.fwhm_phz}}


def _cmd_fiber(args) -> dict:
    from . import biphoton, fiber_prop

    inputs, grid = _scenario_grid(args, "fiber")
    fiber, method = inputs["fiber"], inputs["method"]
    if method == "exact":
        tg = fiber_prop.propagate_exact(grid, fiber)
    else:
        tg = fiber_prop.propagate_stationary(grid, fiber)
    stats = fiber_prop.time_grid_stats(tg)
    fit2 = biphoton.fit_gaussian_2d(grid)
    mapped = fiber_prop.time_stats_from_frequency(fit2, fiber)
    out = _make_out_dir(inputs)
    fiber_prop.save_time_grid_csv(tg, out / "time_grid.csv")
    return {"method": method,
            "time_grid_csv": str(out / "time_grid.csv"),
            "dispersion_scale_ns_per_phz": fiber_prop.dispersion_scale(fiber),
            "far_field_parameter": fiber_prop.far_field_parameter(
                fiber, fit2.signal_sigma_phz),
            "time_stats": dataclasses.asdict(stats),
            "mapped_frequency_stats": dataclasses.asdict(mapped)}


def _cmd_rectguide(args) -> dict:
    from . import rect_guide

    inputs = _scenario_inputs(args.scenario, "rectguide")
    spec = inputs["spec"]
    if spec.kind == "hollow":
        modes = rect_guide.hollow_modes(spec, inputs["frequency_thz"])
    else:
        modes = rect_guide.marcatili_solve(spec, inputs["wavelength_um"],
                                           inputs["polarization"])
    return {"modes": [dataclasses.asdict(m) for m in modes]}


def _cmd_bentguide_solve(args) -> dict:
    import numpy as np

    from . import bent_guide, numerics

    inputs = _scenario_inputs(args.scenario, "bentguide solve")
    spec = inputs["spec"]
    modes = bent_guide.solve_modes(spec)
    if inputs["field_csv"] is not None:
        path = inputs["out_dir"] / inputs["field_csv"]
        path.parent.mkdir(parents=True, exist_ok=True)
        r = np.linspace(spec.inner_radius_um, spec.outer_radius_um, 101)
        z = np.linspace(-2 * spec.half_height_um, 2 * spec.half_height_um, 101)
        numerics.write_grid_csv(path, ("r_um", "z_um", "abs_Er"),
                                r, z, modes[0].field(r, z))
    # Every mode field but the back-reference to the spec.
    return {"modes": [{f.name: getattr(m, f.name) for f in dataclasses.fields(m)
                       if f.name != "spec"} for m in modes],
            "count_estimate": list(bent_guide.count_vertical_modes(spec))}


def _cmd_stats_g2(args) -> dict:
    from . import photon_stats

    kind, _, param = args.state.partition(":")
    states = {"fock": (int, photon_stats.fock_moments),
              "thermal": (float, photon_stats.thermal_moments),
              "coherent": (float, photon_stats.coherent_moments),
              "tmsv": (float, lambda r: photon_stats.tmsv_moments(r).per_mode)}
    if kind not in states:
        raise _invalid("/state", f"unknown state kind {kind!r}")
    parse, moments_of = states[kind]
    try:
        value = 1.0 if kind == "coherent" and not param else parse(param)
    except ValueError:
        raise _invalid("/state", f"bad parameter {param!r}") from None
    try:
        moments = moments_of(value)
    except DomainError as exc:
        raise _invalid("/state", str(exc)) from None
    g2 = photon_stats.g2_from_moments(moments)
    return {"state": args.state, **dataclasses.asdict(moments),
            "g2": g2, "classification": photon_stats.classify_g2(g2)}


def _cmd_validate(args) -> dict:
    _build(_load_scenario(args.scenario))
    return {"diagnostics": []}


# ---------------------------------------------------------------- golden runs

def _golden_checks() -> list[tuple[str, bool]]:
    from . import bent_guide, dispersion, fiber_prop, photon_stats, rect_guide
    from .numerics import C_UM_PER_FS

    checks: list[tuple[str, bool]] = []

    spec = bent_guide.BentGuideSpec(0.5, 1.5, 0.25, 2.3, 1.0, 0.8)
    verts = bent_guide.vertical_roots(spec)
    betas = [v.beta_w_per_um for v in verts]
    refs_b = [5.03, 9.94, 14.46]
    checks.append(("bent-guide beta_w within 0.5%",
                   len(betas) == 3 and all(abs(b / r - 1) < 0.005
                                           for b, r in zip(betas, refs_b))))
    checks.append(("bent-guide vertical counts (2, 1)",
                   bent_guide.count_vertical_modes(spec) == (2, 1)))
    modes = bent_guide.solve_modes(spec)
    by_qp = {(m.q, m.p): m for m in modes}
    checks.append(("bent-guide n_eff(1,1) within 3%",
                   abs(by_qp[(1, 1)].n_eff / 2.03 - 1) < 0.03))
    checks.append(("bent-guide mean radius (1,1) within 0.05 um",
                   abs(by_qp[(1, 1)].mean_radius_um - 1.29) < 0.05))

    hollow = rect_guide.RectGuideSpec(1.0, 0.5, 1.0, kind="hollow")
    cutoff = rect_guide.hollow_cutoff_thz(hollow, 1, 0)
    checks.append(("hollow TE10 cutoff = c/(2a)",
                   abs(cutoff - C_UM_PER_FS / 2.0 * 1e3) < 1e-9))

    fiber = fiber_prop.FiberSpec(-2.27e-26, 1e4)
    checks.append(("fiber dispersion scale 227 ns/PHz",
                   abs(fiber_prop.dispersion_scale(fiber) - 227.0) < 1e-9))

    g2_vals = [photon_stats.g2_from_moments(photon_stats.fock_moments(1)),
               photon_stats.g2_from_moments(photon_stats.fock_moments(2)),
               photon_stats.g2_from_moments(photon_stats.coherent_moments(1.0)),
               photon_stats.g2_from_moments(photon_stats.thermal_moments(0.7))]
    checks.append(("g2 table {0, 0.5, 1, 2}",
                   g2_vals == [0.0, 0.5, 1.0, 2.0]))

    crystal = specs.load_crystal(specs.builtin_crystal_path("ppktp_kato2002"))
    f1, f2 = dispersion.sellmeier_fraction_ranges(crystal.sellmeier_z)
    checks.append(("z-axis pole-fraction ranges (0.533, 0.048)",
                   abs(f1 - 0.533) < 0.005 and abs(f2 - 0.048) < 0.005))
    return checks


def _cmd_golden(_args=None) -> int:
    checks = _golden_checks()
    all_ok = True
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_SOLVER


# ------------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonkit", description="numerical photonics workbench")
    parser.add_argument("--golden", action="store_true",
                        help="run the built-in reference checks and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("dispersion", help="refractive index at one wavelength")
    p.add_argument("--crystal", required=True)
    p.add_argument("--axis", default="z", choices=["x", "y", "z", "fast", "slow"])
    p.add_argument("--wavelength-um", type=float, required=True)
    p.add_argument("--temperature-k", type=float, default=298.0)
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("phasematch", help="phase matching solvers")
    psub = p.add_subparsers(dest="subcommand", required=True)
    ps = psub.add_parser("sweep", help="signal wavelength over a pump sweep")
    ps.add_argument("--crystal", required=True)
    ps.add_argument("--start-nm", type=float, required=True)
    ps.add_argument("--stop-nm", type=float, required=True)
    ps.add_argument("--points", type=int, default=23)
    ps.add_argument("--window-nm", type=float, nargs=2, default=(500.0, 600.0))
    ps.add_argument("--temperature-k", type=float, default=298.0)
    ps.add_argument("--pol-pump", default="z")
    ps.add_argument("--pol-signal", default="z")
    ps.add_argument("--pol-idler", default="z")
    ps.add_argument("--qpm-sign", type=int, default=-1)
    ps.add_argument("--out", default=None, help="optional CSV output path")
    ps.set_defaults(func=_cmd_phasematch_sweep)

    p = sub.add_parser("fit-sellmeier", help="fit z-axis Sellmeier coefficients")
    p.add_argument("--crystal", required=True)
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--start", type=float, nargs=3, default=None)
    p.add_argument("--window-nm", type=float, nargs=2, default=(500.0, 600.0))
    p.add_argument("--temperature-k", type=float, default=298.0)
    p.add_argument("--qpm-sign", type=int, default=-1)
    p.add_argument("--weighted", action="store_true")
    p.set_defaults(func=_cmd_fit_sellmeier)

    p = sub.add_parser("jsa", help="joint spectral probability grid")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_jsa)

    p = sub.add_parser("fiber", help="propagate the joint spectrum through fiber")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser("rectguide", help="rectangular waveguide modes")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_rectguide)

    p = sub.add_parser("bentguide", help="bent waveguide solvers")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    bs = bsub.add_parser("solve", help="full bent-guide mode table")
    bs.add_argument("--spec", dest="scenario", required=True)
    bs.set_defaults(func=_cmd_bentguide_solve)

    p = sub.add_parser("stats", help="photon statistics")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    sg = ssub.add_parser("g2", help="zero-delay second-order coherence")
    sg.add_argument("--state", required=True,
                    help="fock:N | thermal:BETA | coherent[:MEAN] | tmsv:R")
    sg.set_defaults(func=_cmd_stats_g2)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)
    return parser


def run(argv=None) -> int:
    """Run one command; print its JSON payload and return the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.golden:
        return _cmd_golden(args)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_VALIDATION
    try:
        payload, code = {"status": "ok", **args.func(args)}, EXIT_OK
    except ScenarioError as exc:
        payload = {"status": "validation-error", "diagnostics": exc.diagnostics}
        code = EXIT_VALIDATION
    except PhotonkitError as exc:
        payload = {"status": "solver-error",
                   "error": type(exc).__name__, "message": str(exc)}
        code = EXIT_SOLVER
    print(json.dumps(_round_sig(payload), sort_keys=True, indent=2))
    return code


def main() -> None:
    """Run the command of `sys.argv` and exit with its code.

    Before exiting it freezes the heap: the interpreter's exit-time
    collections then skip every object the imports and the command left,
    which would otherwise take longer than many a command. `run`, which
    tests and library callers use in process, freezes nothing."""
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
