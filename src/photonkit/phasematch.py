"""Quasi-phase-matching: wavevector mismatch, idler geometry, and the root
solve for the signal wavelength.

Both entry points scan the mismatch over the search window at COARSE_STEP_NM
and hand every bracketed sign change at once to numerics.find_root, which
takes bracket-safeguarded Newton steps on the closed-form slope until
|dk| <= MISMATCH_TOL_PER_UM."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dispersion import (
    index_and_derivative,
    poling_period,
    refractive_index,
    wavevector_magnitude,
)
from .errors import ArcsineDomain, DomainError, MultipleRoots, NoRootInWindow
from .numerics import RootBracket, find_root
from .specs import CrystalSpec, PhaseMatchQuery, SellmeierSet

__all__ = [
    "PhaseMatchQuery",
    "PhaseMatchSolution",
    "idler_wavelength",
    "grating_vector",
    "mismatch",
    "idler_angle",
    "solve_signal_wavelength",
    "solve_signal_sweep",
    "snell_external_angle",
    "scan_points",
]

COARSE_STEP_NM = 0.1
# Most mismatch values one window scan evaluates, pumps x window points; each
# array of the scan then takes at most 80 MB.
MAX_SCAN_CELLS = 10**7
MISMATCH_TOL_PER_UM = 1e-10
# find_root's step cap and final step size for the roots.
SWEEP_MAX_STEPS = 64
SWEEP_STEP_TOL_NM = 1e-12


@dataclass(frozen=True)
class PhaseMatchSolution:
    signal_wavelength_nm: float
    idler_wavelength_nm: float
    idler_angle_rad: float
    mismatch_per_um: float


def idler_wavelength(pump_nm: float, signal_nm: float) -> float:
    """Energy conservation: 1/lam_i = 1/lam_p - 1/lam_s."""
    if not 0 < pump_nm < signal_nm:
        raise DomainError("requires 0 < pump wavelength < signal wavelength")
    return 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)


def grating_vector(query: PhaseMatchQuery, crystal: CrystalSpec) -> float:
    """Signed quasi-wavevector contribution sign * m * 2 pi / Lambda(T), 1/um.

    Enters the mismatch as dk = k_p - k_s - k_i + grating_vector, so the
    default sign of -1 gives the subtracted-grating convention.
    """
    if crystal.poling_period_um == 0 or query.qpm_order == 0:
        return 0.0
    lam_t = poling_period(crystal, query.temperature_k)
    return query.qpm_sign * query.qpm_order * 2.0 * math.pi / lam_t


def _wavevector(sellmeier: SellmeierSet, wavelength_um, slope: bool):
    """k = 2 pi n / lam in 1/um and, when slope is set, dk/dlam in 1/um^2."""
    if not slope:
        return wavevector_magnitude(refractive_index(sellmeier, wavelength_um),
                                    wavelength_um), None
    n, dn = index_and_derivative(sellmeier, wavelength_um)
    k = wavevector_magnitude(n, wavelength_um)
    return k, (2.0 * math.pi * dn - k) / wavelength_um


def mismatch(query: PhaseMatchQuery, crystal: CrystalSpec, pump_nm, signal_nm,
             slope: bool = False):
    """Longitudinal mismatch dk (1/um) over broadcasting pump and signal
    wavelengths (nm) at the query's signal angle; the query's own pump
    wavelength is not used. With slope set, returns (dk, d(dk)/dlam_s), the
    slope at fixed pump in 1/um per nm.

    The idler polar angle absorbs the signal's transverse wavevector
    t = k_s sin(th), so dk = k_p - k_s cos(th) - k_iz + q K with
    k_iz = sqrt(k_i^2 - t^2). The idler follows the signal through
    1/lam_i = 1/lam_p - 1/lam_s, so dlam_i/dlam_s = -(lam_i/lam_s)^2 and
    d(dk)/dlam_s = -cos(th) dk_s/dlam
                   + [(lam_i/lam_s)^2 k_i dk_i/dlam + k_s sin^2(th) dk_s/dlam] / k_iz,
    which is -dk_s/dlam + (lam_i/lam_s)^2 dk_i/dlam in collinear geometry.
    """
    p_um = np.asarray(pump_nm, dtype=float) * 1e-3
    s_um = np.asarray(signal_nm, dtype=float) * 1e-3
    i_um = 1.0 / (1.0 / p_um - 1.0 / s_um)
    k_p, _ = _wavevector(crystal.axis_set(query.pol_pump), p_um, False)
    k_s, dks = _wavevector(crystal.axis_set(query.pol_signal), s_um, slope)
    k_i, dki = _wavevector(crystal.axis_set(query.pol_idler), i_um, slope)
    sin_s = math.sin(query.signal_theta_rad)
    cos_s = math.cos(query.signal_theta_rad)
    if sin_s == 0.0:
        k_iz = k_i
    else:
        sin_i = k_s * sin_s / k_i
        if np.any(np.abs(sin_i) > 1):
            raise ArcsineDomain("idler cannot absorb the signal transverse momentum")
        k_iz = k_i * np.sqrt(1.0 - sin_i**2)
    dk = k_p - k_s * cos_s - k_iz + grating_vector(query, crystal)
    if not slope:
        return dk
    ddk = (-cos_s * dks + (i_um / s_um) ** 2 * dki * (k_i / k_iz)
           + k_s * sin_s**2 * dks / k_iz)
    return dk, ddk * 1e-3


def idler_angle(query: PhaseMatchQuery, signal_nm: float, crystal: CrystalSpec) -> float:
    """Idler polar angle, valid in the phase-matched regime only.

    theta_i = arcsin(t / sqrt(t^2 + l^2)) with t the signal transverse
    wavevector and l the grating-corrected longitudinal remainder.
    """
    k_p, _ = _wavevector(crystal.axis_set(query.pol_pump),
                         query.pump_wavelength_nm * 1e-3, False)
    k_s, _ = _wavevector(crystal.axis_set(query.pol_signal), signal_nm * 1e-3, False)
    t = k_s * math.sin(query.signal_theta_rad)
    ell = k_p - k_s * math.cos(query.signal_theta_rad) + grating_vector(query, crystal)
    hyp = math.hypot(t, ell)
    if hyp == 0:
        return 0.0
    arg = t / hyp
    if abs(arg) > 1:
        raise ArcsineDomain("arcsin argument outside [-1, 1]")
    return math.asin(arg)


def scan_points(pump_count: int, window_nm: tuple[float, float]) -> int:
    """Points of the grid that spans the finite window at COARSE_STEP_NM spacing
    or just below: ceil((hi - lo) / COARSE_STEP_NM) + 1, both ends included.
    DomainError when `pump_count` pumps would make it more than MAX_SCAN_CELLS."""
    lo, hi = window_nm
    points = max(math.ceil((hi - lo) / COARSE_STEP_NM) + 1, 2)
    if pump_count * points > MAX_SCAN_CELLS:
        raise DomainError(f"the scan grid of {pump_count} pumps x {points} window "
                          f"points exceeds {MAX_SCAN_CELLS} cells")
    return points


def _scan(query: PhaseMatchQuery, crystal: CrystalSpec, pumps_nm: np.ndarray,
          window_nm: tuple[float, float]):
    """Mismatch on the window grid, one row per pump, and the sign changes
    between neighbouring grid points.

    Raises DomainError unless the window is finite and lies above every pump
    wavelength, and when the grid would exceed MAX_SCAN_CELLS.
    """
    lo, hi = window_nm
    if not (lo < hi < math.inf and np.all(pumps_nm < lo)):
        raise DomainError("search window must be finite and lie above the pump "
                          "wavelength")
    grid = np.linspace(lo, hi, scan_points(pumps_nm.size, window_nm))
    dk = mismatch(query, crystal, pumps_nm[:, None], grid)
    sign = np.sign(dk)
    return grid, dk, sign[:, :-1] * sign[:, 1:] < 0


def _refine(query: PhaseMatchQuery, crystal: CrystalSpec, pumps_nm: np.ndarray,
            grid: np.ndarray, dk: np.ndarray, rows, cols) -> np.ndarray:
    """Roots of the scanned mismatch in the brackets [grid[c], grid[c + 1]] of
    pumps_nm[r], for r, c in zip(rows, cols), each with |dk| <=
    MISMATCH_TOL_PER_UM; find_root raises MaxIterations when a root misses
    that within SWEEP_MAX_STEPS steps."""
    bracket = RootBracket(grid[cols], grid[cols + 1], dk[rows, cols], dk[rows, cols + 1])
    return find_root(partial(mismatch, query, crystal, pumps_nm[rows], slope=True),
                     bracket, tol=SWEEP_STEP_TOL_NM, max_iter=SWEEP_MAX_STEPS,
                     ftol=MISMATCH_TOL_PER_UM)


def solve_signal_sweep(query: PhaseMatchQuery, crystal: CrystalSpec, pump_sweep_nm,
                       search_window_nm: tuple[float, float]) -> np.ndarray:
    """Collinear signal-wavelength roots for many pump wavelengths at once.

    Shares the window scan, which requires the window above every pump, and
    the find_root refinement of solve_signal_wavelength. Pumps whose mismatch
    keeps its sign over the window come back NaN; where several sign changes
    exist for one pump, the bracket closest to the window centre is refined.
    Collinear geometry only.
    """
    if query.signal_theta_rad != 0.0:
        raise DomainError("sweep solver supports collinear geometry only")
    pumps = np.atleast_1d(np.asarray(pump_sweep_nm, dtype=float))
    grid, dk, flips = _scan(query, crystal, pumps, search_window_nm)
    centre = 0.5 * (search_window_nm[0] + search_window_nm[1])
    dist = np.where(flips, np.abs(0.5 * (grid[:-1] + grid[1:]) - centre), np.inf)
    rows = np.nonzero(flips.any(axis=1))[0]
    roots = np.full(pumps.size, np.nan)
    if rows.size:
        cols = np.argmin(dist, axis=1)[rows]
        roots[rows] = _refine(query, crystal, pumps, grid, dk, rows, cols)
    return roots


def snell_external_angle(n_internal: float, theta_internal_rad: float) -> float:
    """Refraction helper: internal angle to external (vacuum-side) angle."""
    arg = n_internal * math.sin(theta_internal_rad)
    if abs(arg) > 1:
        raise ArcsineDomain("total internal reflection: no external angle")
    return math.asin(arg)


def solve_signal_wavelength(query: PhaseMatchQuery, crystal: CrystalSpec,
                            search_window_nm: tuple[float, float]) -> PhaseMatchSolution:
    """Signal wavelength zeroing the scalar mismatch inside the window.

    Scans the window on the same grid as solve_signal_sweep and refines the
    one bracketed sign change through the same find_root call, so the root
    meets |dk| <= MISMATCH_TOL_PER_UM. A grid point where dk is exactly zero is a
    root as it stands. Raises DomainError for a window not above the pump,
    NoRootInWindow without a root and MultipleRoots with more than one.
    """
    lo, hi = search_window_nm
    pump = np.array([query.pump_wavelength_nm])
    grid, dk, flips = _scan(query, crystal, pump, search_window_nm)
    flips = np.nonzero(flips[0])[0]
    exact = np.nonzero(dk[0] == 0.0)[0]
    brackets = ([(grid[i], grid[i + 1]) for i in flips]
                + [(grid[i], grid[i]) for i in exact])
    if not brackets:
        raise NoRootInWindow(
            f"mismatch keeps its sign over [{lo}, {hi}] nm at {COARSE_STEP_NM} nm scan")
    if len(brackets) > 1:
        raise MultipleRoots(brackets)
    if exact.size:
        root, residual = float(grid[exact[0]]), 0.0
    else:
        x = _refine(query, crystal, pump, grid, dk, [0], flips)
        root, residual = float(x[0]), abs(float(mismatch(query, crystal, pump, x)[0]))
    return PhaseMatchSolution(
        signal_wavelength_nm=root,
        idler_wavelength_nm=idler_wavelength(query.pump_wavelength_nm, root),
        idler_angle_rad=idler_angle(query, root, crystal),
        mismatch_per_um=residual,
    )
