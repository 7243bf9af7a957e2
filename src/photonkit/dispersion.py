"""Sellmeier refractive indices, crystal descriptions, and the thermally
expanded poling period."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DomainError, NegativeRadicand, PoleProximity, Unpoled

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


class Polarization(Enum):
    """Wave polarization selector: fast/slow for the general case, or a
    principal axis for collinear propagation."""

    FAST = "fast"
    SLOW = "slow"
    X = "x"
    Y = "y"
    Z = "z"


@dataclass(frozen=True)
class SellmeierSet:
    """Coefficients of n^2 = a0 + a1/(lam^2 - a2) + a3/(lam^2 - a4), lam in um."""

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self):
        if self.a0 <= 0:
            raise DomainError("a0 must be positive")
        if self.a2 < 0 or self.a4 < 0:
            raise DomainError("pole positions a2, a4 must be nonnegative")
        if self.a2 == self.a4 and self.a2 != 0:
            raise DomainError("a2 and a4 must differ unless both zero")

    def as_tuple(self):
        return (self.a0, self.a1, self.a2, self.a3, self.a4)


@dataclass(frozen=True)
class CrystalSpec:
    """Principal-axis Sellmeier sets plus poling and geometry parameters.

    poling_period_um = 0 means the crystal is unpoled. Lengths in um,
    temperatures in kelvin, expansion coefficient in 1/K.
    """

    name: str
    sellmeier_x: SellmeierSet
    sellmeier_y: SellmeierSet
    sellmeier_z: SellmeierSet
    length_um: float
    poling_period_um: float = 0.0
    t0_kelvin: float = 298.0
    alpha_per_kelvin: float = 0.0

    def __post_init__(self):
        if self.length_um <= 0:
            raise DomainError("crystal length must be positive")
        if self.poling_period_um < 0:
            raise DomainError("poling period must be nonnegative")

    def axis_set(self, pol: Polarization) -> SellmeierSet:
        # In the collinear geometry used throughout, propagation is along x;
        # "slow" maps to the z axis and "fast" to y.
        if pol in (Polarization.Z, Polarization.SLOW):
            return self.sellmeier_z
        if pol in (Polarization.Y, Polarization.FAST):
            return self.sellmeier_y
        return self.sellmeier_x


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


def _axis_from_dict(d: dict) -> SellmeierSet:
    return SellmeierSet(**{k: float(d[k]) for k in ("a0", "a1", "a2", "a3", "a4")})


def load_crystal(path) -> CrystalSpec:
    """Load a crystal description from its JSON data file.

    Expected keys: name, axes.{x,y,z}.{a0..a4}, poling_period_um, length_um,
    t0_kelvin, alpha_per_kelvin; DomainError for a missing key or wrong type.
    """
    raw = json.loads(Path(path).read_text())
    try:
        return CrystalSpec(
            name=str(raw["name"]),
            sellmeier_x=_axis_from_dict(raw["axes"]["x"]),
            sellmeier_y=_axis_from_dict(raw["axes"]["y"]),
            sellmeier_z=_axis_from_dict(raw["axes"]["z"]),
            length_um=float(raw["length_um"]),
            poling_period_um=float(raw.get("poling_period_um", 0.0)),
            t0_kelvin=float(raw.get("t0_kelvin", 298.0)),
            alpha_per_kelvin=float(raw.get("alpha_per_kelvin", 0.0)),
        )
    except KeyError as exc:
        raise DomainError(f"crystal file {path} missing key {exc}") from exc
    except TypeError as exc:
        raise DomainError(f"crystal file {path} has the wrong layout: {exc}") from exc


def crystal_to_dict(crystal: CrystalSpec) -> dict:
    def axis(s: SellmeierSet):
        return {"a0": s.a0, "a1": s.a1, "a2": s.a2, "a3": s.a3, "a4": s.a4}

    return {
        "name": crystal.name,
        "axes": {
            "x": axis(crystal.sellmeier_x),
            "y": axis(crystal.sellmeier_y),
            "z": axis(crystal.sellmeier_z),
        },
        "poling_period_um": crystal.poling_period_um,
        "length_um": crystal.length_um,
        "t0_kelvin": crystal.t0_kelvin,
        "alpha_per_kelvin": crystal.alpha_per_kelvin,
    }


def builtin_crystal_path(name: str) -> Path:
    """Path to one of the crystal data files shipped with the package."""
    p = Path(__file__).parent / "data" / f"{name}.json"
    if not p.exists():
        raise DomainError(f"no builtin crystal named {name!r}")
    return p
