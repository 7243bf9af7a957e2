"""Every input dataclass of the solvers, with the `__post_init__` checks that
are the one validation layer, and the crystal file I/O. It imports no numpy,
so a CLI process that only checks its inputs never loads it; the solver
modules re-export the specs they take.

The crystal and phase-matching specs are defined here. The joint-spectrum,
fiber and waveguide specs (`_LAZY`) are defined in `_lazy_specs`, which the
module `__getattr__` (PEP 562) imports the first time one of them is looked
up, so a process that runs only the phase-matching, fit, dispersion or
photon-statistics commands does not build their classes."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import DomainError, require_finite

__all__ = [
    "Polarization",
    "SellmeierSet",
    "CrystalSpec",
    "load_crystal",
    "crystal_to_dict",
    "builtin_crystal_path",
    "PumpSpec",
    "CouplingSpec",
    "JsaGridSpec",
    "PhaseMatchQuery",
    "FiberSpec",
    "RectGuideSpec",
    "BentGuideSpec",
]

# The specs `__getattr__` takes from `_lazy_specs`.
_LAZY = frozenset({"PumpSpec", "CouplingSpec", "JsaGridSpec", "FiberSpec",
                   "RectGuideSpec", "BentGuideSpec"})


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _lazy_specs

    value = globals()[name] = getattr(_lazy_specs, name)
    return value


# --- crystals ---

class Polarization(Enum):
    """Wave polarization selector: a principal axis, or fast/slow, which name
    the y and z axes of the collinear geometry (see CrystalSpec.axis_set)."""

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
        if not all(math.isfinite(c) for c in self.as_tuple()):
            raise DomainError("Sellmeier coefficients must be finite")
        if not self.a0 > 0:
            raise DomainError("a0 must be positive")
        if not (self.a2 >= 0 and self.a4 >= 0):
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
        if not self.length_um > 0:
            raise DomainError("crystal length must be positive")
        if not self.poling_period_um >= 0:
            raise DomainError("poling period must be nonnegative")
        if not (math.isfinite(self.length_um) and math.isfinite(self.poling_period_um)):
            raise DomainError("crystal length and poling period must be finite")
        if not (math.isfinite(self.t0_kelvin) and math.isfinite(self.alpha_per_kelvin)):
            raise DomainError("t0_kelvin and alpha_per_kelvin must be finite")

    def axis_set(self, pol: Polarization) -> SellmeierSet:
        # In the collinear geometry used throughout, propagation is along x;
        # "slow" maps to the z axis and "fast" to y.
        if pol in (Polarization.Z, Polarization.SLOW):
            return self.sellmeier_z
        if pol in (Polarization.Y, Polarization.FAST):
            return self.sellmeier_y
        return self.sellmeier_x


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


# --- phase matching ---

@dataclass(frozen=True)
class PhaseMatchQuery:
    """One phase-matching question: pump, polarizations, QPM order. The
    geometry is collinear: pump, signal and idler all propagate along the
    poling axis (x)."""

    pump_wavelength_nm: float
    temperature_k: float = 298.0
    pol_pump: Polarization = Polarization.Z
    pol_signal: Polarization = Polarization.Z
    pol_idler: Polarization = Polarization.Z
    qpm_order: int = 1
    qpm_sign: int = -1

    def __post_init__(self):
        if not self.pump_wavelength_nm > 0:
            raise DomainError("pump wavelength must be positive",
                              field="pump_wavelength_nm")
        require_finite(self, "pump_wavelength_nm", "temperature_k")
        if abs(self.qpm_sign) != 1:
            raise DomainError("qpm_sign must be +1 or -1", field="qpm_sign")
        if self.qpm_order < 0:
            raise DomainError("qpm_order must be nonnegative", field="qpm_order")
        for field in ("pol_pump", "pol_signal", "pol_idler"):
            pol = getattr(self, field)
            if not isinstance(pol, Polarization):
                try:
                    pol = Polarization(str(pol).lower())
                except ValueError:
                    raise DomainError(f"unknown polarization {pol!r}",
                                      field=field) from None
                object.__setattr__(self, field, pol)
