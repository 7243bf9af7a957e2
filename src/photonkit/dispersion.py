"""Sellmeier refractive indices, the thermally expanded poling period and
the grating vector it gives.

The crystal descriptions and their file I/O live in `specs` and are
re-exported here."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NegativeRadicand, PoleProximity, Unpoled
from .specs import (
    CrystalSpec,
    PhaseMatchQuery,
    Polarization,
    SellmeierSet,
    builtin_crystal_path,
    crystal_to_dict,
    load_crystal,
)

__all__ = [
    "SellmeierSet",
    "CrystalSpec",
    "Polarization",
    "refractive_index",
    "index_and_derivative",
    "index_derivatives",
    "sellmeier_fraction_ranges",
    "poling_period",
    "grating_vector",
    "wavevector_magnitude",
    "load_crystal",
    "crystal_to_dict",
    "builtin_crystal_path",
]

POLE_GUARD_UM2 = 1e-9


def _index_squared(sellmeier: SellmeierSet, lam):
    """n^2 at wavelength(s) lam in um, with the pole distances
    (lam^2 - a2, lam^2 - a4); raises outside the formula's domain.

    One test covers every check, and only a failing one asks which check
    failed, in the order non-positive wavelength, pole, radicand, each over
    the whole array. NaN fails no check and passes through: fmin skips it, so
    fmin(lam, radicand) <= 0 is (lam <= 0) | (radicand <= 0)."""
    a0, a1, a2, a3, a4 = sellmeier.as_tuple()
    lam2 = lam**2
    d1 = lam2 - a2
    d2 = lam2 - a4
    with np.errstate(divide="ignore", invalid="ignore"):  # d = 0 raises below
        radicand = a0 + a1 / d1 + a3 / d2
    if ((np.fmin(lam, radicand) <= 0) | (np.abs(d1) < POLE_GUARD_UM2)
            | (np.abs(d2) < POLE_GUARD_UM2)).any():
        if np.any(lam <= 0):
            raise DomainError("wavelength must be positive")
        if np.any(np.abs(d1) < POLE_GUARD_UM2) or np.any(np.abs(d2) < POLE_GUARD_UM2):
            raise PoleProximity("wavelength squared within 1e-9 um^2 of a Sellmeier pole")
        raise NegativeRadicand("Sellmeier radicand is not positive")
    return radicand, d1, d2


def refractive_index(sellmeier: SellmeierSet, wavelength_um):
    """Refractive index at vacuum wavelength(s) in um."""
    n = np.sqrt(_index_squared(sellmeier, np.asarray(wavelength_um, dtype=float))[0])
    return float(n) if n.ndim == 0 else n


def index_and_derivative(sellmeier: SellmeierSet, wavelength_um):
    """Refractive index and its slope dn/dlam in 1/um at wavelength(s) in um.

    Differentiating the Sellmeier formula gives
    dn/dlam = -lam (a1/(lam^2 - a2)^2 + a3/(lam^2 - a4)^2) / n.
    Same domain checks as refractive_index.
    """
    lam = np.asarray(wavelength_um, dtype=float)
    radicand, d1, d2 = _index_squared(sellmeier, lam)
    n = np.sqrt(radicand)
    dn = -lam * (sellmeier.a1 / d1**2 + sellmeier.a3 / d2**2) / n
    if n.ndim == 0:
        return float(n), float(dn)
    return n, dn


def sellmeier_fraction_ranges(sellmeier: SellmeierSet,
                              lambda_um_range: tuple[float, float] = (0.4, 1.8),
                              samples: int = 2001) -> tuple[float, float]:
    """Value ranges of the two pole fractions over a wavelength interval.

    Returns (range of a1/(lam^2-a2), range of a3/(lam^2-a4)); used to justify
    freeing only the first-fraction coefficients in the Sellmeier fit.
    """
    _, d1, d2 = _index_squared(sellmeier, np.linspace(*lambda_um_range, samples))
    return float(np.ptp(sellmeier.a1 / d1)), float(np.ptp(sellmeier.a3 / d2))


def index_derivatives(sellmeier: SellmeierSet, wavelength_um):
    """n at wavelength(s) lam in um with its first and second derivatives in
    lam and in the coefficients a = (a0..a4), from one evaluation with the
    domain checks of refractive_index: (n, dn/dlam, d2n/dlam2, dn/da,
    d2n/(dlam da), d2n/da2), the last three of shape (..., 5), (..., 5) and
    (..., 5, 5).

    With R = n^2, d1 = lam^2 - a2 and d2 = lam^2 - a4, dn/dx = R_x / 2n and
    d2n/dxdy = R_xy / 2n - R_x R_y / 4n^3, where
    R_lam = -2 lam (a1/d1^2 + a3/d2^2),
    R_lam,lam = -2 (a1/d1^2 + a3/d2^2) + 8 lam^2 (a1/d1^3 + a3/d2^3),
    R_a = (1, 1/d1, a1/d1^2, 1/d2, a3/d2^2),
    R_lam,a = -2 lam (0, 1/d1^2, 2 a1/d1^3, 1/d2^2, 2 a3/d2^3), and the only
    nonzero R_a,a are R_a1,a2 = 1/d1^2, R_a2,a2 = 2 a1/d1^3 and their a3, a4
    counterparts.
    """
    lam = np.asarray(wavelength_um, dtype=float)
    radicand, d1, d2 = _index_squared(sellmeier, lam)
    n = np.sqrt(radicand)
    a1, a3 = sellmeier.a1, sellmeier.a3
    inv1, inv2 = 1.0 / d1, 1.0 / d2
    f1, f2 = a1 * inv1**2, a3 * inv2**2  # a1/d1^2, a3/d2^2
    r_l = -2.0 * lam * (f1 + f2)
    r_ll = r_l / lam + 8.0 * lam**2 * (f1 * inv1 + f2 * inv2)
    r_a = np.stack([np.ones_like(lam), inv1, f1, inv2, f2], axis=-1)
    r_la = -2.0 * lam[..., None] * np.stack(
        [np.zeros_like(lam), inv1**2, 2.0 * f1 * inv1, inv2**2, 2.0 * f2 * inv2], axis=-1)
    r_aa = np.zeros(lam.shape + (5, 5))
    r_aa[..., 1, 2] = r_aa[..., 2, 1] = inv1**2
    r_aa[..., 2, 2] = 2.0 * f1 * inv1
    r_aa[..., 3, 4] = r_aa[..., 4, 3] = inv2**2
    r_aa[..., 4, 4] = 2.0 * f2 * inv2
    half, quarter = 0.5 / n, 0.25 / n**3  # 1/2n and 1/4n^3
    dn_a = r_a * half[..., None]
    d2n_la = r_la * half[..., None] - (r_l * quarter)[..., None] * r_a
    d2n_aa = (r_aa * half[..., None, None]
              - (r_a[..., :, None] * r_a[..., None, :]) * quarter[..., None, None])
    return n, r_l * half, r_ll * half - r_l**2 * quarter, dn_a, d2n_la, d2n_aa


def poling_period(crystal: CrystalSpec, temperature_k: float) -> float:
    """Poling period at temperature T: Lambda0 * (1 + alpha * (T - T0))."""
    if crystal.poling_period_um == 0:
        raise Unpoled(f"crystal {crystal.name!r} has no poling period")
    return crystal.poling_period_um * (
        1.0 + crystal.alpha_per_kelvin * (temperature_k - crystal.t0_kelvin)
    )


def grating_vector(query: PhaseMatchQuery, crystal: CrystalSpec) -> float:
    """Signed quasi-wavevector contribution sign * m * 2 pi / Lambda(T), 1/um.

    Enters the phasematch mismatch as dk = k_p - k_s - k_i + grating_vector,
    so the default sign of -1 gives the subtracted-grating convention.
    """
    if crystal.poling_period_um == 0 or query.qpm_order == 0:
        return 0.0
    lam_t = poling_period(crystal, query.temperature_k)
    return query.qpm_sign * query.qpm_order * 2.0 * math.pi / lam_t


def wavevector_magnitude(n, wavelength_um):
    """k = 2 pi n / lambda, in 1/um."""
    n = np.asarray(n, dtype=float)
    lam = np.asarray(wavelength_um, dtype=float)
    # One test of the two smallest values. fmin skips NaN, which passes
    # through, and n and lam are not broadcast against each other for it.
    if min(np.fmin.reduce(n, axis=None, initial=math.inf),
           np.fmin.reduce(lam, axis=None, initial=math.inf)) <= 0:
        raise DomainError("index and wavelength must be positive")
    k = 2.0 * math.pi * n / lam
    return float(k) if k.ndim == 0 else k
