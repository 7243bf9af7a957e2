"""Sellmeier refractive indices and the thermally expanded poling period.

The crystal descriptions and their file I/O live in `specs` and are
re-exported here."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NegativeRadicand, PoleProximity, Unpoled
from .specs import (
    CrystalSpec,
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
    "index_coefficient_gradient",
    "poling_period",
    "wavevector_magnitude",
    "load_crystal",
    "crystal_to_dict",
    "builtin_crystal_path",
]

POLE_GUARD_UM2 = 1e-9


def _index_squared(sellmeier: SellmeierSet, lam2):
    """n^2 at squared wavelength(s) lam2 in um^2, with the pole distances
    (lam2 - a2, lam2 - a4); raises outside the formula's domain."""
    if np.any(lam2 <= 0):
        raise DomainError("wavelength must be positive")
    a0, a1, a2, a3, a4 = sellmeier.as_tuple()
    d1 = lam2 - a2
    d2 = lam2 - a4
    if np.any(np.abs(d1) < POLE_GUARD_UM2) or np.any(np.abs(d2) < POLE_GUARD_UM2):
        raise PoleProximity("wavelength squared within 1e-9 um^2 of a Sellmeier pole")
    radicand = a0 + a1 / d1 + a3 / d2
    if np.any(radicand <= 0):
        raise NegativeRadicand("Sellmeier radicand is not positive")
    return radicand, d1, d2


def refractive_index(sellmeier: SellmeierSet, wavelength_um):
    """Refractive index at vacuum wavelength(s) in um."""
    lam2 = np.asarray(wavelength_um, dtype=float) ** 2
    n = np.sqrt(_index_squared(sellmeier, lam2)[0])
    return float(n) if n.ndim == 0 else n


def index_and_derivative(sellmeier: SellmeierSet, wavelength_um):
    """Refractive index and its slope dn/dlam in 1/um at wavelength(s) in um.

    Differentiating the Sellmeier formula gives
    dn/dlam = -lam (a1/(lam^2 - a2)^2 + a3/(lam^2 - a4)^2) / n.
    Same domain checks as refractive_index.
    """
    lam = np.asarray(wavelength_um, dtype=float)
    radicand, d1, d2 = _index_squared(sellmeier, lam**2)
    n = np.sqrt(radicand)
    dn = -lam * (sellmeier.a1 / d1**2 + sellmeier.a3 / d2**2) / n
    if n.ndim == 0:
        return float(n), float(dn)
    return n, dn


def index_coefficient_gradient(sellmeier: SellmeierSet, wavelength_um) -> np.ndarray:
    """dn/d(a0..a4) at wavelength(s) in um, shape (..., 5), with the domain
    checks of refractive_index. With d1 = lam^2 - a2 and d2 = lam^2 - a4,
    d(n^2)/da = (1, 1/d1, a1/d1^2, 1/d2, a3/d2^2), and dn = d(n^2) / 2n."""
    lam2 = np.asarray(wavelength_um, dtype=float) ** 2
    radicand, d1, d2 = _index_squared(sellmeier, lam2)
    dn2 = np.stack([np.ones_like(lam2), 1.0 / d1, sellmeier.a1 / d1**2,
                    1.0 / d2, sellmeier.a3 / d2**2], axis=-1)
    return dn2 / (2.0 * np.sqrt(radicand)[..., None])


def poling_period(crystal: CrystalSpec, temperature_k: float) -> float:
    """Poling period at temperature T: Lambda0 * (1 + alpha * (T - T0))."""
    if crystal.poling_period_um == 0:
        raise Unpoled(f"crystal {crystal.name!r} has no poling period")
    return crystal.poling_period_um * (
        1.0 + crystal.alpha_per_kelvin * (temperature_k - crystal.t0_kelvin)
    )


def wavevector_magnitude(n, wavelength_um):
    """k = 2 pi n / lambda, in 1/um."""
    n = np.asarray(n, dtype=float)
    lam = np.asarray(wavelength_um, dtype=float)
    if np.any(n <= 0) or np.any(lam <= 0):
        raise DomainError("index and wavelength must be positive")
    k = 2.0 * math.pi * n / lam
    return float(k) if k.ndim == 0 else k
