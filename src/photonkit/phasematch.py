"""Collinear quasi-phase-matching: the wavevector mismatch and the root solve
for the signal wavelength.

Both entry points scan the mismatch over the search window at COARSE_STEP_NM
and hand every bracketed sign change at once to numerics.find_root, which
takes bracket-safeguarded Newton steps on the closed-form slope until
|dk| <= MISMATCH_TOL_PER_UM. The sweep scans in blocks of pump rows, and a
caller that already holds roots (the Sellmeier fit between its trials) lets
it test each held root's scan cell first and scan only the pumps whose cell
lost its sign change. The pump-vs-signal dataset (MeasurementPoint and its
CSV file) lives here too, so that writing a sweep does not compile the
Sellmeier fit; `sellmeier_fit` re-exports it. Only its reader and writer
import `csv`: importing it with the module raised the peak RSS of the sweep
and fit-sellmeier processes by 0.1-0.2 MB."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .dispersion import (
    grating_vector,
    index_and_derivative,
    refractive_index,
    wavevector_magnitude,
)
from .errors import DomainError, MultipleRoots, NoRootInWindow
from .numerics import RootBracket, find_root
from .specs import CrystalSpec, PhaseMatchQuery, SellmeierSet

__all__ = [
    "PhaseMatchQuery",
    "PhaseMatchSolution",
    "idler_wavelength",
    "grating_vector",
    "mismatch",
    "solve_signal_wavelength",
    "solve_signal_sweep",
    "scan_points",
    "MeasurementPoint",
    "load_dataset_csv",
    "save_dataset_csv",
]

COARSE_STEP_NM = 0.1
# Most mismatch values one sweep's window scan may cost, pumps x window points.
# It bounds the work of one call; memory is bounded by the scan's row blocks.
MAX_SCAN_CELLS = 10**7
# Mismatch values per row block of a sweep's scan: whole pump rows, at least one.
SCAN_BLOCK_CELLS = 2**14
MISMATCH_TOL_PER_UM = 1e-10
# find_root's step cap and final step size for the roots.
SWEEP_MAX_STEPS = 64
SWEEP_STEP_TOL_NM = 1e-12


@dataclass(frozen=True)
class PhaseMatchSolution:
    signal_wavelength_nm: float
    idler_wavelength_nm: float
    mismatch_per_um: float


@dataclass(frozen=True)
class MeasurementPoint:
    pump_nm: float
    signal_nm: float
    sigma_nm: float = 1.0

    def __post_init__(self):
        fields = (self.pump_nm, self.signal_nm, self.sigma_nm)
        if not all(0 < v < math.inf for v in fields):
            raise DomainError("measurement fields must be finite and positive")


def load_dataset_csv(path) -> list[MeasurementPoint]:
    """Read a `lambda_pump_nm,lambda_vis_nm,sigma_nm` dataset file (sigma_nm
    optional, 1 when absent). Raises DomainError for a missing column, and
    with the line number for a value that is missing, not a number, not finite
    or not positive."""
    import csv

    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in ("lambda_pump_nm", "lambda_vis_nm"):
            if column not in (reader.fieldnames or ()):
                raise DomainError(f"missing column {column}")
        for row in reader:
            try:
                points.append(MeasurementPoint(
                    pump_nm=float(row["lambda_pump_nm"]),
                    signal_nm=float(row["lambda_vis_nm"]),
                    sigma_nm=float(row.get("sigma_nm") or 1.0),
                ))
            except DomainError as exc:
                raise DomainError(f"line {reader.line_num}: {exc}") from None
            except (TypeError, ValueError):
                raise DomainError(f"line {reader.line_num}: value missing "
                                  "or not a number") from None
    return points


def save_dataset_csv(points: Sequence[MeasurementPoint], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_pump_nm", "lambda_vis_nm", "sigma_nm"])
        for pt in points:
            writer.writerow([repr(pt.pump_nm), repr(pt.signal_nm), repr(pt.sigma_nm)])


def idler_wavelength(pump_nm: float, signal_nm: float) -> float:
    """Energy conservation: 1/lam_i = 1/lam_p - 1/lam_s."""
    if not 0 < pump_nm < signal_nm:
        raise DomainError("requires 0 < pump wavelength < signal wavelength")
    return 1.0 / (1.0 / pump_nm - 1.0 / signal_nm)


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
    """Collinear mismatch dk = k_p - k_s - k_i + q K (1/um) over broadcasting
    pump and signal wavelengths (nm); the query's own pump wavelength is not
    used. With slope set, returns (dk, d(dk)/dlam_s), the slope at fixed pump
    in 1/um per nm. The idler follows the signal through
    1/lam_i = 1/lam_p - 1/lam_s, so dlam_i/dlam_s = -(lam_i/lam_s)^2 and
    d(dk)/dlam_s = -dk_s/dlam + (lam_i/lam_s)^2 dk_i/dlam.
    """
    p_um = np.asarray(pump_nm, dtype=float) * 1e-3
    s_um = np.asarray(signal_nm, dtype=float) * 1e-3
    i_um = 1.0 / (1.0 / p_um - 1.0 / s_um)
    k_p, _ = _wavevector(crystal.axis_set(query.pol_pump), p_um, False)
    k_s, dks = _wavevector(crystal.axis_set(query.pol_signal), s_um, slope)
    k_i, dki = _wavevector(crystal.axis_set(query.pol_idler), i_um, slope)
    dk = k_p - k_s - k_i + grating_vector(query, crystal)
    if not slope:
        return dk
    return dk, (-dks + (i_um / s_um) ** 2 * dki) * 1e-3


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


def _window_grid(pumps_nm: np.ndarray, window_nm: tuple[float, float]) -> np.ndarray:
    """The scan grid of the window, np.linspace over scan_points.

    Raises DomainError unless the window is finite and lies above every pump
    wavelength, and when the pumps' scan would exceed MAX_SCAN_CELLS.
    """
    lo, hi = window_nm
    if not (lo < hi < math.inf and np.all(pumps_nm < lo)):
        raise DomainError("search window must be finite and lie above the pump "
                          "wavelength")
    return np.linspace(lo, hi, scan_points(pumps_nm.size, window_nm))


def _scan(query: PhaseMatchQuery, crystal: CrystalSpec, pumps_nm: np.ndarray,
          grid: np.ndarray):
    """Mismatch of each pump over `grid`, one row per pump, and the sign
    changes between neighbouring grid points. `grid` is the window grid, or
    one row of grid points per pump. A grid point where dk is exactly zero
    makes no sign change."""
    dk = mismatch(query, crystal, pumps_nm[:, None], grid)
    sign = np.sign(dk)
    return dk, sign[..., :-1] * sign[..., 1:] < 0


def _refine(query: PhaseMatchQuery, crystal: CrystalSpec, pumps_nm: np.ndarray,
            bracket: RootBracket) -> np.ndarray:
    """Roots of the mismatch of each pump inside its bracket, each with |dk| <=
    MISMATCH_TOL_PER_UM; find_root raises MaxIterations when a root misses
    that within SWEEP_MAX_STEPS steps."""
    return find_root(partial(mismatch, query, crystal, pumps_nm, slope=True),
                     bracket, tol=SWEEP_STEP_TOL_NM, max_iter=SWEEP_MAX_STEPS,
                     ftol=MISMATCH_TOL_PER_UM)


def solve_signal_sweep(query: PhaseMatchQuery, crystal: CrystalSpec, pump_sweep_nm,
                       search_window_nm: tuple[float, float],
                       near_nm=None) -> np.ndarray:
    """Signal-wavelength roots for many pump wavelengths at once.

    Shares the window scan, which requires the window above every pump, and
    the find_root refinement of solve_signal_wavelength. Pumps whose mismatch
    keeps its sign over the window come back NaN; where several sign changes
    exist for one pump, the bracket closest to the window centre is refined.
    The scan runs over blocks of pumps of at most SCAN_BLOCK_CELLS mismatch
    values each.

    near_nm, one value per pump, holds roots the caller already has (a
    fitter's roots at its last parameters, say). A pump whose held root is
    finite and inside the window first tests the scan cell holding that root:
    dk at the cell's two grid points, with the scan's own sign-change test.
    Where the sign changes, that cell is the pump's bracket and the pump is
    not scanned; every other pump is. The bracket, its dk values and the
    refinement are the scan's own, so where a pump has one sign change in the
    window its root is the same to the bit. Where it has several, a pump whose
    held cell still changes sign keeps that root, while the scan would refine
    the bracket closest to the window centre: the roots follow the held ones
    instead of jumping between branches.
    """
    pumps = np.atleast_1d(np.asarray(pump_sweep_nm, dtype=float))
    grid = _window_grid(pumps, search_window_nm)
    cell = np.full(pumps.size, -1)  # each pump's bracket [grid[c], grid[c + 1]]
    f_lo, f_hi = np.empty(pumps.size), np.empty(pumps.size)
    if near_nm is not None:
        near = np.atleast_1d(np.asarray(near_nm, dtype=float))
        if near.shape != pumps.shape:
            raise DomainError("near_nm needs one value per pump")
        rows = np.nonzero((grid[0] <= near) & (near <= grid[-1]))[0]
        cols = np.minimum(np.searchsorted(grid, near[rows], side="right") - 1,
                          grid.size - 2)
        dk, flips = _scan(query, crystal, pumps[rows], grid[np.stack([cols, cols + 1], 1)])
        kept = flips[:, 0]
        rows = rows[kept]
        cell[rows] = cols[kept]
        f_lo[rows], f_hi[rows] = dk[kept, 0], dk[kept, 1]
    centre = 0.5 * (search_window_nm[0] + search_window_nm[1])
    dist = np.abs(0.5 * (grid[:-1] + grid[1:]) - centre)
    todo = np.nonzero(cell < 0)[0]
    block = max(SCAN_BLOCK_CELLS // grid.size, 1)
    for start in range(0, todo.size, block):
        rows = todo[start:start + block]
        dk, flips = _scan(query, crystal, pumps[rows], grid)
        found = flips.any(axis=1)
        cols = np.argmin(np.where(flips, dist, np.inf), axis=1)[found]
        rows, dk = rows[found], dk[found]
        cell[rows] = cols
        f_lo[rows] = dk[np.arange(rows.size), cols]
        f_hi[rows] = dk[np.arange(rows.size), cols + 1]
    roots = np.full(pumps.size, np.nan)
    rows = np.nonzero(cell >= 0)[0]
    if rows.size:
        cols = cell[rows]
        roots[rows] = _refine(query, crystal, pumps[rows], RootBracket(
            grid[cols], grid[cols + 1], f_lo[rows], f_hi[rows]))
    return roots


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
    grid = _window_grid(pump, search_window_nm)
    dk, flips = _scan(query, crystal, pump, grid)
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
        x = _refine(query, crystal, pump, RootBracket(
            grid[flips], grid[flips + 1], dk[0, flips], dk[0, flips + 1]))
        root, residual = float(x[0]), abs(float(mismatch(query, crystal, pump, x)[0]))
    return PhaseMatchSolution(
        signal_wavelength_nm=root,
        idler_wavelength_nm=idler_wavelength(query.pump_wavelength_nm, root),
        mismatch_per_um=residual,
    )
