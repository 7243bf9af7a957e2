"""Estimate Sellmeier coefficients (a_z0, a_z1, a_z2) from pump-wavelength vs
signal-central-wavelength data through the implicit phase-matching model.

The dataset type and its CSV file live in `phasematch` and are re-exported
here."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import numerics, phasematch
from .dispersion import index_derivatives
from .errors import DivergedFit, DomainError, InsufficientData, NoRootInWindow
from .phasematch import MeasurementPoint, load_dataset_csv, save_dataset_csv
from .specs import CrystalSpec

__all__ = [
    "MeasurementPoint",
    "SellmeierFitReport",
    "FitSetup",
    "model_signal_wavelength",
    "model_derivatives",
    "fit",
    "synthesize_noisy_dataset",
    "load_dataset_csv",
    "save_dataset_csv",
]

MAX_NOISE_FRACTION = 0.05


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

    Entries are NaN where no root lies in the window; the fitter rejects a
    trial with such an entry.
    """
    roots = phasematch.solve_signal_sweep(setup.query, _crystal_with_z(setup, coeffs),
                                          np.atleast_1d(pump_nm), setup.search_window_nm)
    return float(roots[0]) if np.ndim(pump_nm) == 0 else roots


def _mismatch_derivatives(pumps_nm, signals_nm, coeffs: Sequence[float],
                          setup: FitSetup):
    """Derivatives of the collinear mismatch dk(lam_s, a) = k_p - k_s - k_i + K
    at the roots, up to second order in the signal wavelength lam_s (in um)
    and the fitted a = (a0, a1, a2), the pump held fixed.

    Returns dk_s, dk_ss, dk_a (rows of 3), dk_sa (rows of 3) and dk_aa (rows
    of 3 x 3), NaN on the rows of NaN roots. Each wave enters with its sign;
    the idler follows lam_s through 1/lam_i = 1/lam_p - 1/lam_s,
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
    p_um = pumps_nm * 1e-3
    s_um = signals_nm * 1e-3
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
    return dk_s, dk_ss, dk_a, dk_sa, dk_aa


def model_derivatives(pumps_nm, signals_nm, coeffs: Sequence[float],
                      setup: FitSetup):
    """Exact first and second derivatives of the collinear signal roots with
    respect to the fitted a0, a1, a2, from one pass over the mismatch.

    signals_nm must be the roots at coeffs; a NaN root gives NaN on its rows
    by arithmetic. Returns the Jacobian, shape (len(pumps_nm), 3) in nm per
    unit, and curvature(v), the second directional derivatives along v in
    (a0, a1, a2), one per pump in nm per unit squared. Differentiating
    dk(lam_s(a + t v), a + t v) = 0 twice in t gives lam' = -dk_a v / dk_s
    (the implicit function theorem) and
    lam'' = -(dk_ss lam'^2 + 2 (dk_sa v) lam' + v dk_aa v) / dk_s,
    all taken at the roots, so neither solves a root.
    """
    dk_s, dk_ss, dk_a, dk_sa, dk_aa = _mismatch_derivatives(
        pumps_nm, signals_nm, coeffs, setup)
    jac = -1e3 * dk_a / dk_s[:, None]  # dk_s is per um of lam_s

    def curvature(direction: Sequence[float]) -> np.ndarray:
        v = np.asarray(direction, dtype=float)
        first = -(dk_a @ v) / dk_s
        second = -(dk_ss * first**2 + 2.0 * (dk_sa @ v) * first + dk_aa @ v @ v) / dk_s
        return 1e3 * second  # lam_s in um to nm

    return jac, curvature


def fit(points: Sequence[MeasurementPoint], start: Sequence[float],
        setup: FitSetup, weighted: bool = False,
        max_iter: int = 400) -> SellmeierFitReport:
    """Levenberg-Marquardt fit of the z-axis coefficients a0, a1, a2.

    The LM model is the sweep solve over all pumps. The LM Jacobian and the
    geodesic acceleration's second directional derivative are the exact ones
    of model_derivatives, built once per LM iteration at the roots the fit
    already holds, so they cost no root solves: each LM trial is one root
    solve. That solve is passed the held roots (near_nm of
    solve_signal_sweep), so a pump whose root stays in its 0.1 nm scan cell
    is refined from that cell without scanning the window, to the same bits
    as the scan's root wherever the window holds one root per pump. Where it
    holds several, the model keeps to the branch of the roots it holds.
    Every point needs its root at the start values (NoRootInWindow
    otherwise), and a trial where a root vanishes is rejected, so every
    accepted step keeps a root at every point. The report's RSS at the
    start and at the fitted values are sum (signal - root)^2 in nm^2 over the
    roots the LM's first call solved and the roots its Jacobian hook last
    received, which are at the returned parameters, weighted fit or not.
    """
    if len(points) < 4:
        raise InsufficientData("need at least 4 points")
    pumps = np.array([pt.pump_nm for pt in points])
    signals = np.array([pt.signal_nm for pt in points])
    weights = (np.array([1.0 / pt.sigma_nm**2 for pt in points])
               if weighted else None)

    held = None  # roots at the LM's current parameters, from its Jacobian hook
    start_roots = None

    def model(params, x):
        nonlocal start_roots
        roots = phasematch.solve_signal_sweep(
            setup.query, _crystal_with_z(setup, params), x, setup.search_window_nm,
            near_nm=held)
        if held is None:
            # The LM's first call is at the start values.
            missing = np.isnan(roots)
            if missing.any():
                raise NoRootInWindow(f"no model root for pump {float(x[missing][0])} nm")
            start_roots = roots
        return roots

    def jacobian(params, x, values):
        nonlocal held
        held = values
        return model_derivatives(x, values, params, setup)

    result = numerics.least_squares_fit(model, pumps, signals, start,
                                        weights=weights, max_iter=max_iter,
                                        jacobian=jacobian)
    start_rss, fitted_rss = (float(np.dot(r, r)) for r in
                             (signals - start_roots, signals - held))
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
