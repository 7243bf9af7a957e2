"""The benchmark's three workloads: seeded job streams and output checks.

A job is one or more photonkit CLI calls on inputs the benchmark writes into
the job's own directory. `prepare` writes the inputs and returns the calls;
`check` reads the calls' standard output and the files they wrote, and raises
CheckFailed when an answer is outside the acceptance-gate tolerance.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

# Kato & Takaoka (2002) KTP Sellmeier sets, as shipped in ppktp_kato2002.
KATO_AXES = {
    "x": {"a0": 3.29100, "a1": 0.04140, "a2": 0.03978, "a3": 9.35522, "a4": 31.45571},
    "y": {"a0": 3.45018, "a1": 0.04341, "a2": 0.04597, "a3": 16.98825, "a4": 39.43799},
    "z": {"a0": 4.59423, "a1": 0.06206, "a2": 0.04763, "a3": 110.80672, "a4": 86.12171},
}
KATO_POLING_UM = 4.01

# Type-II telecom source of acceptance criterion 5: quoted pump duration (fs),
# grid range fraction, and the reference (rho, tau_s ns, tau_i ns).
SPECTRAL_CASES = (
    (94.58, 0.02, (0.9535, 1.156, 1.182)),
    (719.1, 0.0075, (-0.0921, 0.22152, 0.226509)),
    (976.0, 0.005, (-0.35761, 0.19625, 0.2007)),
)
SPECTRAL_N = 300
FIBER_NS_PER_PHZ = 227.0
TAU_TOL = 0.15
RHO_TOL = 0.05
PUMP_JITTER = 0.005

# The fit job inverts the criterion-3 perturbation: the data come from the Kato
# z-axis scaled by these factors and the fit starts from the Kato values.
FIT_FACTORS = (1 / 1.002, 1 / 0.99, 1 / 1.01)
FIT_JITTER = 5e-5
FIT_PUMPS = (392.0, 403.0, 55)
FIT_REL_TOL = 1e-6

BENT_GOLDEN_SPEC = {"inner_radius_um": 0.5, "outer_radius_um": 1.5,
                    "half_height_um": 0.25, "core_index": 2.3,
                    "clad_index": 1.0, "vacuum_wavelength_um": 0.8}
C_UM_PER_FS = 0.299792458


class CheckFailed(Exception):
    """A job's output is missing or outside its tolerance."""


@dataclass(frozen=True)
class Step:
    """One CLI call: its arguments after `photonkit` and the expected exit code."""

    argv: tuple[str, ...]
    exit_code: int = 0


@dataclass(frozen=True)
class Job:
    kind: str
    prepare: Callable[[Path], list[Step]]
    check: Callable[[Path, list[str]], None]


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def _payload(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _check_grid_csv(path: Path, rows: int) -> None:
    """The grid CSV has `rows` data rows whose probabilities sum to 1."""
    with open(path) as fh:
        next(fh)
        probs = [float(line.rsplit(",", 1)[1]) for line in fh]
    require(len(probs) == rows, f"{path.name}: {len(probs)} rows, want {rows}")
    total = math.fsum(probs)
    require(abs(total - 1.0) < 1e-9, f"{path.name}: probabilities sum to {total!r}")


def _check_time_stats(tau_s_ns, tau_i_ns, rho, ref) -> None:
    rho_ref, ts_ref, ti_ref = ref
    require(abs(tau_s_ns / ts_ref - 1.0) < TAU_TOL, f"tau_s {tau_s_ns} vs {ts_ref}")
    require(abs(tau_i_ns / ti_ref - 1.0) < TAU_TOL, f"tau_i {tau_i_ns} vs {ti_ref}")
    require(abs(rho - rho_ref) < RHO_TOL, f"rho {rho} vs {rho_ref}")
    require(rho_ref > 0 or rho < 0, f"rho {rho} should be negative")


# ------------------------------------------------------------------ spectral

def _spectral_scenario(case: int, jitter: float) -> dict:
    tau_quoted, z, _ = SPECTRAL_CASES[case]
    return {
        "crystal": "ppktp_type2_telecom",
        "pump": {"central_frequency_phz": 2.4148,
                 "pulse_duration_fs": tau_quoted * (1.0 + jitter) / math.sqrt(2.0),
                 "spatial_width_um": 41.0},
        "coupling": {"signal_width_um": 48.75, "idler_width_um": 48.75},
        "grid": {"n": SPECTRAL_N, "range_fraction": z,
                 "signal_center_phz": 1.2209, "idler_center_phz": 1.19404},
        "query": {"pump_wavelength_nm": 780.1, "pol_pump": "y",
                  "pol_signal": "y", "pol_idler": "z", "qpm_sign": 1},
        "fiber": {"gvd_2beta_s2_per_m": -2.27e-26, "length_m": 1e4},
        "method": "stationary",
        "output_dir": "out",
    }


def spectral_job(command: str, case: int, jitter: float) -> Job:
    ref = SPECTRAL_CASES[case][2]

    def prepare(d: Path) -> list[Step]:
        path = _write_json(d / "scenario.json", _spectral_scenario(case, jitter))
        return [Step((command, "--scenario", path))]

    def check(d: Path, out: list[str]) -> None:
        p = _payload(out[0])
        require(p.get("status") == "ok", f"status {p.get('status')}")
        if command == "jsa":
            _check_grid_csv(d / "out" / "jsa_grid.csv", SPECTRAL_N**2)
            fit = p["joint_fit"]
            _check_time_stats(FIBER_NS_PER_PHZ * fit["signal_sigma_phz"],
                              FIBER_NS_PER_PHZ * fit["idler_sigma_phz"],
                              fit["pearson"], ref)
        else:
            _check_grid_csv(d / "out" / "time_grid.csv", SPECTRAL_N**2)
            require(p["method"] == "stationary", f"method {p['method']}")
            m = p["mapped_frequency_stats"]
            _check_time_stats(m["tau_s_ns"], m["tau_i_ns"], m["pearson_t"], ref)

    return Job(f"{command}:case{case}", prepare, check)


def _spectral_cycle(rng: random.Random, k: int) -> list[Job]:
    """Both commands on one pump case; the cases take turns cycle by cycle."""
    case = k % len(SPECTRAL_CASES)
    jobs = [spectral_job(cmd, case, rng.uniform(-PUMP_JITTER, PUMP_JITTER))
            for cmd in ("jsa", "fiber")]
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------- fit

def fit_job(factors: tuple[float, float, float]) -> Job:
    z = KATO_AXES["z"]
    truth = [z["a0"] * factors[0], z["a1"] * factors[1], z["a2"] * factors[2]]
    start, stop, points = FIT_PUMPS

    def prepare(d: Path) -> list[Step]:
        axes = {k: dict(v) for k, v in KATO_AXES.items()}
        axes["z"].update(a0=truth[0], a1=truth[1], a2=truth[2])
        crystal = _write_json(d / "crystal.json", {
            "name": "ppktp_perturbed", "axes": axes,
            "poling_period_um": KATO_POLING_UM, "length_um": 10000.0,
            "t0_kelvin": 298.0, "alpha_per_kelvin": 0.0})
        sweep = str(d / "out" / "sweep.csv")
        return [Step(("phasematch", "sweep", "--crystal", crystal,
                      "--start-nm", repr(start), "--stop-nm", repr(stop),
                      "--points", str(points), "--out", sweep)),
                Step(("fit-sellmeier", "--crystal", "ppktp_kato2002",
                      "--data", sweep))]

    def check(d: Path, out: list[str]) -> None:
        sweep = _payload(out[0])
        require(sweep.get("solved") == points, f"sweep solved {sweep.get('solved')}")
        with open(d / "out" / "sweep.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        require(rows == points, f"sweep.csv has {rows} rows")
        fit = _payload(out[1])
        require(fit.get("status") == "ok", f"fit status {fit.get('status')}")
        for got, want in zip(fit["fitted"], truth):
            require(abs(got / want - 1.0) < FIT_REL_TOL,
                    f"fitted {got!r} vs truth {want!r}")

    return Job("sweep+fit", prepare, check)


def _fit_cycle(rng: random.Random, k: int) -> list[Job]:
    return [fit_job(tuple(f * (1.0 + rng.uniform(-FIT_JITTER, FIT_JITTER))
                          for f in FIT_FACTORS))]


# --------------------------------------------------------------------- batch

def g2_job(state: str, expected: float) -> Job:
    def check(d: Path, out: list[str]) -> None:
        g2 = _payload(out[0])["g2"]
        require(g2 == expected, f"g2({state}) = {g2!r}, want {expected}")

    return Job(f"g2:{state.partition(':')[0]}",
               lambda d: [Step(("stats", "g2", "--state", state))], check)


def _sellmeier_index(axis: str, lam_um: float) -> float:
    s = KATO_AXES[axis]
    lam2 = lam_um**2
    return math.sqrt(s["a0"] + s["a1"] / (lam2 - s["a2"]) + s["a3"] / (lam2 - s["a4"]))


def dispersion_job(axis: str, lam_um: float) -> Job:
    def check(d: Path, out: list[str]) -> None:
        p = _payload(out[0])
        want = _sellmeier_index(axis, lam_um)
        require(abs(p["refractive_index"] / want - 1.0) < 1e-8,
                f"n_{axis}({lam_um}) = {p['refractive_index']!r}, want {want!r}")
        require(p["poling_period_um"] == KATO_POLING_UM,
                f"poling period {p['poling_period_um']}")

    return Job("dispersion", lambda d: [Step((
        "dispersion", "--crystal", "ppktp_kato2002", "--axis", axis,
        "--wavelength-um", repr(lam_um)))], check)


def hollow_job(width_um: float, freq_thz: float) -> Job:
    def prepare(d: Path) -> list[Step]:
        path = _write_json(d / "rect.json", {
            "spec": {"width_a_um": width_um, "height_b_um": width_um / 2,
                     "core_index": 1.0, "kind": "hollow"},
            "frequency_thz": freq_thz})
        return [Step(("rectguide", "--scenario", path))]

    def check(d: Path, out: list[str]) -> None:
        modes = _payload(out[0])["modes"]
        te10 = [m for m in modes if (m["family"], m["m"], m["n"]) == ("TE", 1, 0)]
        want = C_UM_PER_FS / (2.0 * width_um) * 1e3
        require(len(te10) == 1 and abs(te10[0]["cutoff_thz"] / want - 1) < 1e-8,
                f"TE10 cutoff {te10} vs {want}")
        require(all(m["cutoff_thz"] < freq_thz for m in modes),
                "a listed mode is below cutoff")

    return Job("rect:hollow", prepare, check)


def marcatili_job(width_um: float, core_index: float) -> Job:
    wavelength = 1.55

    def prepare(d: Path) -> list[Step]:
        path = _write_json(d / "rect.json", {
            "spec": {"width_a_um": width_um, "height_b_um": width_um / 2,
                     "core_index": core_index, "clad_index": 1.0,
                     "kind": "dielectric"},
            "wavelength_um": wavelength, "polarization": "Ey"})
        return [Step(("rectguide", "--scenario", path))]

    def check(d: Path, out: list[str]) -> None:
        modes = _payload(out[0])["modes"]
        k0 = 2.0 * math.pi / wavelength
        require(len(modes) > 0, "no guided modes")
        for m in modes:
            require(k0 < m["k_z_per_um"] < k0 * core_index,
                    f"k_z {m['k_z_per_um']} outside the light lines")
        kz = [m["k_z_per_um"] for m in modes]
        require(kz == sorted(kz, reverse=True), "modes not sorted by k_z")

    return Job("rect:dielectric", prepare, check)


def bent_job() -> Job:
    def prepare(d: Path) -> list[Step]:
        path = _write_json(d / "bent.json", {"spec": BENT_GOLDEN_SPEC})
        return [Step(("bentguide", "solve", "--spec", path))]

    def check(d: Path, out: list[str]) -> None:
        modes = _payload(out[0])["modes"]
        require(len(modes) == 12, f"{len(modes)} modes, want 12")
        m11 = [m for m in modes if (m["q"], m["p"]) == (1, 1)]
        require(len(m11) == 1 and abs(m11[0]["n_eff"] / 2.03 - 1.0) < 0.03,
                f"n_eff(1,1) = {m11}")

    return Job("bentguide", prepare, check)


INVALID_EDITS = {
    "/pump/pulse_duration_fs": ("pump", "pulse_duration_fs", -66.88),
    "/grid/n": ("grid", "n", 8),
    "/grid/range_fraction": ("grid", "range_fraction", 0.7),
}


def validate_job(defect: str | None) -> Job:
    def prepare(d: Path) -> list[Step]:
        scenario = dict(_spectral_scenario(0, 0.0), command="jsa")
        if defect is not None:
            block, key, value = INVALID_EDITS[defect]
            scenario[block] = dict(scenario[block], **{key: value})
        path = _write_json(d / "scenario.json", scenario)
        return [Step(("validate", path), 0 if defect is None else 2)]

    def check(d: Path, out: list[str]) -> None:
        p = _payload(out[0])
        paths = [diag["path"] for diag in p["diagnostics"]]
        if defect is None:
            require(p["status"] == "ok" and not paths, f"valid scenario: {p}")
        else:
            require(p["status"] == "validation-error" and paths == [defect],
                    f"invalid scenario: {p}")

    return Job("validate:" + ("invalid" if defect else "valid"), prepare, check)


def golden_job() -> Job:
    def check(d: Path, out: list[str]) -> None:
        lines = out[0].splitlines()
        require(len(lines) == 8 and all(ln.startswith("PASS  ") for ln in lines),
                f"golden report: {lines}")

    return Job("golden", lambda d: [Step(("--golden",))], check)


def _batch_cycle(rng: random.Random, k: int) -> list[Job]:
    fock = rng.choice((1, 2))
    jobs = [
        g2_job(f"fock:{fock}", 1.0 - 1.0 / fock),
        g2_job(f"coherent:{rng.uniform(0.5, 5.0)!r}", 1.0),
        g2_job(f"thermal:{rng.uniform(0.2, 2.0)!r}", 2.0),
        g2_job(f"tmsv:{rng.uniform(0.2, 1.5)!r}", 2.0),
        dispersion_job(rng.choice("xyz"), rng.uniform(0.45, 1.6)),
        hollow_job(rng.uniform(1.0, 2.0), rng.uniform(400.0, 600.0)),
        marcatili_job(rng.uniform(1.0, 2.0), rng.uniform(1.45, 2.2)),
        bent_job(),
        validate_job(None),
        validate_job(rng.choice(sorted(INVALID_EDITS))),
        golden_job(),
    ]
    rng.shuffle(jobs)
    return jobs


CYCLES = {"spectral": _spectral_cycle, "fit": _fit_cycle, "batch": _batch_cycle}
WORKLOADS = tuple(CYCLES)


def cycles(workload: str, seed: int) -> Iterator[list[Job]]:
    """Endless cycles of the workload's job mix, each shuffled by the seed.

    A fit or batch cycle holds each job kind once, a spectral cycle each
    command once. So a run that stops between cycles keeps the mix balanced
    whatever its length.
    """
    rng = random.Random(f"{workload}:{seed}")
    make = CYCLES[workload]
    for k in itertools.count():
        yield make(rng, k)
