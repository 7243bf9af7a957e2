"""Estimate Sellmeier coefficients (a_z0, a_z1, a_z2) from pump-wavelength vs
signal-central-wavelength data through the implicit phase-matching model."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import numerics, phasematch
from .dispersion import index_derivatives
from .errors import DivergedFit, DomainError, InsufficientData, NoRootInWindow
from .specs import CrystalSpec, SellmeierSet

__all__ = [
    "MeasurementPoint",
    "SellmeierFitReport",
    "FitSetup",
    "model_signal_wavelength",
    "model_derivatives",
    "rss",
    "fit",
    "synthesize_noisy_dataset",
    "load_dataset_csv",
    "save_dataset_csv",
    "sellmeier_fraction_ranges",
]

MAX_NOISE_FRACTION = 0.05


@dataclass(frozen=True)
class MeasurementPoint:
    pump_nm: float
    signal_nm: float
    sigma_nm: float = 1.0

    def __post_init__(self):
        fields = (self.pump_nm, self.signal_nm, self.sigma_nm)
        if not all(0 < v < math.inf for v in fields):
            raise DomainError("measurement fields must be finite and positive")


@dataclass(frozen=True)
class SellmeierFitReport:
    fitted: tuple[float, float, float]
    uncertainties: tuple[float, float, float]
    rss_nm2: float
    rss_start_nm2: float
    average_error_nm: float
    n_points: int
    converged: bool
    iterations: int


@dataclass(frozen=True)
class FitSetup:
    """Everything held fixed during the fit: crystal, query template, window."""

    crystal: CrystalSpec
    query: phasematch.PhaseMatchQuery
    search_window_nm: tuple[float, float] = (500.0, 600.0)


def _crystal_with_z(setup: FitSetup, coeffs: Sequence[float]) -> CrystalSpec:
    """The setup's crystal with the z-axis a0, a1, a2 set to `coeffs`."""
    a0, a1, a2 = map(float, coeffs)
    sell_z = replace(setup.crystal.sellmeier_z, a0=a0, a1=a1, a2=a2)
    return replace(setup.crystal, sellmeier_z=sell_z)


def model_signal_wavelength(pump_nm, coeffs: Sequence[float], setup: FitSetup):
    """Signal central wavelength(s) predicted by the phase-matching sweep solve
    for one pump (a float) or many (an array).

    Entries are NaN where no root lies in the window, so the fitter can mask
    the point for the current step.
    """
    roots = phasematch.solve_signal_sweep(setup.query, _crystal_with_z(setup, coeffs),
                                          np.atleast_1d(pump_nm), setup.search_window_nm)
    return float(roots[0]) if np.ndim(pump_nm) == 0 else roots


def _mismatch_derivatives(pumps_nm, signals_nm, coeffs: Sequence[float],
                          setup: FitSetup):
    """Derivatives of the collinear mismatch dk(lam_s, a) = k_p - k_s - k_i + K
    at the finite roots, up to second order in the signal wavelength lam_s (in
    um) and the fitted a = (a0, a1, a2), the pump held fixed.

    Returns the mask of finite roots and, on those rows, dk_s, dk_ss, dk_a
    (rows of 3), dk_sa (rows of 3) and dk_aa (rows of 3 x 3). Each wave enters
    with its sign; the idler follows lam_s through 1/lam_i = 1/lam_p - 1/lam_s,
    so dlam_i/dlam_s = -(lam_i/lam_s)^2 and d2lam_i/dlam_s^2 =
    2 lam_i^2 (lam_i + lam_s)/lam_s^4. With k = 2 pi n/lam, k_lam =
    2 pi (n'/lam - n/lam^2) and k_lam,lam = 2 pi (n''/lam - 2 n'/lam^2 +
    2 n/lam^3). Only waves whose polarization maps to the z-axis set depend
    on a.
    """
    pumps_nm = np.asarray(pumps_nm, dtype=float)
    signals_nm = np.asarray(signals_nm, dtype=float)
    crystal = _crystal_with_z(setup, coeffs)
    query = setup.query
    ok = np.isfinite(signals_nm)
    p_um = pumps_nm[ok] * 1e-3
    s_um = signals_nm[ok] * 1e-3
    i_um = 1.0 / (1.0 / p_um - 1.0 / s_um)
    ratio2 = (i_um / s_um) ** 2
    zeros, ones = np.zeros(p_um.size), np.ones(p_um.size)
    dk_s, dk_ss = zeros.copy(), zeros.copy()
    dk_a, dk_sa = np.zeros((p_um.size, 3)), np.zeros((p_um.size, 3))
    dk_aa = np.zeros((p_um.size, 3, 3))
    two_pi = 2.0 * math.pi
    # (sign, polarization, wavelength, dlam/dlam_s, d2lam/dlam_s^2)
    for sign, pol, lam, dlam, d2lam in (
            (1.0, query.pol_pump, p_um, zeros, zeros),
            (-1.0, query.pol_signal, s_um, ones, zeros),
            (-1.0, query.pol_idler, i_um, -ratio2, 2.0 * ratio2 * (i_um + s_um) / s_um**2)):
        sellmeier = crystal.axis_set(pol)
        n, dn, d2n, dn_a, d2n_la, d2n_aa = index_derivatives(sellmeier, lam)
        k_l = two_pi * (dn / lam - n / lam**2)
        k_ll = two_pi * (d2n / lam - 2.0 * dn / lam**2 + 2.0 * n / lam**3)
        dk_s += sign * k_l * dlam
        dk_ss += sign * (k_ll * dlam**2 + k_l * d2lam)
        if sellmeier is crystal.sellmeier_z:
            # k_a = 2 pi n_a/lam and k_lam,a = 2 pi (n_lam,a/lam - n_a/lam^2)
            k_per_n = (two_pi / lam)[:, None]
            grad = dn_a[:, :3]
            dk_a += sign * k_per_n * grad
            dk_sa += (sign * k_per_n * (d2n_la[:, :3] - grad / lam[:, None])
                      * dlam[:, None])
            dk_aa += sign * k_per_n[:, :, None] * d2n_aa[:, :3, :3]
    return ok, dk_s, dk_ss, dk_a, dk_sa, dk_aa


def model_derivatives(pumps_nm, signals_nm, coeffs: Sequence[float],
                      setup: FitSetup):
    """Exact first and second derivatives of the collinear signal roots with
    respect to the fitted a0, a1, a2, from one pass over the mismatch.

    signals_nm must be the roots at coeffs (NaN rows stay NaN). Returns the
    Jacobian, shape (len(pumps_nm), 3) in nm per unit, and curvature(v), the
    second directional derivatives along v in (a0, a1, a2), one per pump in nm
    per unit squared. Differentiating dk(lam_s(a + t v), a + t v) = 0 twice in
    t gives lam' = -dk_a v / dk_s (the implicit function theorem) and
    lam'' = -(dk_ss lam'^2 + 2 (dk_sa v) lam' + v dk_aa v) / dk_s,
    all taken at the roots, so neither solves a root.
    """
    ok, dk_s, dk_ss, dk_a, dk_sa, dk_aa = _mismatch_derivatives(
        pumps_nm, signals_nm, coeffs, setup)
    jac = np.full((ok.size, 3), np.nan)
    jac[ok] = -1e3 * dk_a / dk_s[:, None]  # dk_s is per um of lam_s

    def curvature(direction: Sequence[float]) -> np.ndarray:
        v = np.asarray(direction, dtype=float)
        first = -(dk_a @ v) / dk_s
        second = -(dk_ss * first**2 + 2.0 * (dk_sa @ v) * first + dk_aa @ v @ v) / dk_s
        out = np.full(ok.size, np.nan)
        out[ok] = 1e3 * second  # lam_s in um to nm
        return out

    return jac, curvature


def rss(points: Sequence[MeasurementPoint], coeffs: Sequence[float],
        setup: FitSetup) -> float:
    """Residual sum of squares in nm^2 over the dataset."""
    pumps = np.array([pt.pump_nm for pt in points])
    model = _require_roots(pumps, model_signal_wavelength(pumps, coeffs, setup))
    r = np.array([pt.signal_nm for pt in points]) - model
    return float(np.dot(r, r))


def _require_roots(pumps_nm, roots_nm):
    """roots_nm, or NoRootInWindow naming the first pump without a root."""
    missing = np.isnan(roots_nm)
    if missing.any():
        raise NoRootInWindow(f"no model root for pump {float(pumps_nm[missing][0])} nm")
    return roots_nm


def fit(points: Sequence[MeasurementPoint], start: Sequence[float],
        setup: FitSetup, weighted: bool = False,
        max_iter: int = 400) -> SellmeierFitReport:
    """Levenberg-Marquardt fit of the z-axis coefficients a0, a1, a2.

    The LM model is the sweep solve over all pumps. The LM Jacobian and the
    geodesic acceleration's second directional derivative are the exact ones
    of model_derivatives, built once per LM iteration at the roots the fit
    already holds, so they cost no root solves: each LM trial is one sweep.
    Points whose model root vanishes during a step are masked for that step,
    but every point needs its root at the start values (NoRootInWindow
    otherwise). The report carries both the fitted RSS and the RSS at the
    start values, both from the same sweep solve and both in nm^2, also when
    the fit itself minimises the weighted chi^2; an unweighted fit takes the
    start RSS from the LM's own first sweep.
    """
    if len(points) < 4:
        raise InsufficientData("need at least 4 points")
    pumps = np.array([pt.pump_nm for pt in points])
    signals = np.array([pt.signal_nm for pt in points])
    weights = (np.array([1.0 / pt.sigma_nm**2 for pt in points])
               if weighted else None)

    at_start = True

    def model(params, x):
        nonlocal at_start
        roots = model_signal_wavelength(x, params, setup)
        if at_start:
            # The LM's first call is at the start values.
            at_start = False
            _require_roots(x, roots)
        return roots

    def jacobian(params, x, values):
        return model_derivatives(x, values, params, setup)

    result = numerics.least_squares_fit(model, pumps, signals, start,
                                        weights=weights, max_iter=max_iter,
                                        jacobian=jacobian)
    if weighted:
        start_rss = rss(points, start, setup)
        fitted_rss = rss(points, result.parameters, setup)
    else:
        start_rss = result.initial_residual_sum_squares
        fitted_rss = result.residual_sum_squares
    report = SellmeierFitReport(
        fitted=tuple(result.parameters),
        uncertainties=tuple(result.standard_errors),
        rss_nm2=fitted_rss,
        rss_start_nm2=start_rss,
        average_error_nm=math.sqrt(fitted_rss / len(points)),
        n_points=len(points),
        converged=result.converged,
        iterations=result.iterations,
    )
    if not result.converged and report.rss_nm2 > report.rss_start_nm2:
        raise DivergedFit("fit failed to improve on the starting coefficients",
                          result=report)
    return report


def synthesize_noisy_dataset(coeffs: Sequence[float], pump_sweep_nm: Sequence[float],
                             noise_fraction: float, seed: int,
                             setup: FitSetup) -> list[MeasurementPoint]:
    """Model-generated dataset with Gaussian noise proportional to the value."""
    if not 0 <= noise_fraction <= MAX_NOISE_FRACTION:
        raise DomainError(f"noise_fraction must be in [0, {MAX_NOISE_FRACTION}]")
    rng = np.random.Generator(np.random.Philox(seed))
    points = []
    pumps = np.asarray(pump_sweep_nm, dtype=float)
    for pump, value in zip(pumps, model_signal_wavelength(pumps, coeffs, setup)):
        if math.isnan(value):
            continue
        sigma = noise_fraction * value
        noisy = value + sigma * rng.standard_normal() if sigma > 0 else value
        points.append(MeasurementPoint(pump_nm=float(pump), signal_nm=float(noisy),
                                       sigma_nm=float(sigma) if sigma > 0 else 1.0))
    return points


def load_dataset_csv(path) -> list[MeasurementPoint]:
    """Read a `lambda_pump_nm,lambda_vis_nm,sigma_nm` dataset file (sigma_nm
    optional, 1 when absent). Raises DomainError for a missing column, and
    with the line number for a value that is missing, not a number, not finite
    or not positive."""
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_pump_nm", "lambda_vis_nm", "sigma_nm"])
        for pt in points:
            writer.writerow([repr(pt.pump_nm), repr(pt.signal_nm), repr(pt.sigma_nm)])


def sellmeier_fraction_ranges(sellmeier: SellmeierSet,
                              lambda_um_range: tuple[float, float] = (0.4, 1.8),
                              samples: int = 2001) -> tuple[float, float]:
    """Value ranges of the two pole fractions over a wavelength interval.

    Returns (range of a1/(lam^2-a2), range of a3/(lam^2-a4)); used to justify
    freeing only the first-fraction coefficients in the fit.
    """
    lam2 = np.linspace(*lambda_um_range, samples) ** 2
    f1 = sellmeier.a1 / (lam2 - sellmeier.a2)
    f2 = sellmeier.a3 / (lam2 - sellmeier.a4)
    return float(np.ptp(f1)), float(np.ptp(f2))
