"""Every input dataclass of the solvers, with the `__post_init__` checks that
are the one validation layer, and the crystal file I/O. It imports no numpy,
so a CLI process that only checks its inputs never loads it; the solver
modules re-export the specs they take."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import DomainError, require_positive

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


# --- crystals ---

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


# --- joint spectrum ---

@dataclass(frozen=True)
class PumpSpec:
    """Pulsed pump: central angular frequency (the *sum* frequency 2 omega_0),
    duration parameter tau_p, and transverse beam width."""

    central_frequency_phz: float
    pulse_duration_fs: float
    spatial_width_um: float

    def __post_init__(self):
        require_positive(self, "central_frequency_phz", "pulse_duration_fs",
                         "spatial_width_um")


@dataclass(frozen=True)
class CouplingSpec:
    """Gaussian fiber-mode widths and optional transverse wavevector offsets."""

    signal_width_um: float
    idler_width_um: float
    signal_offset_per_um: float = 0.0
    idler_offset_per_um: float = 0.0

    def __post_init__(self):
        require_positive(self, "signal_width_um", "idler_width_um")


@dataclass(frozen=True)
class JsaGridSpec:
    """n x n frequency grid, each axis spanning omega0 * (1 -+ range_fraction).

    idler_n, when set, decouples the idler sample count from n. Marginal
    convergence studies vary the signal count against a fixed idler comb;
    the joint sum changes with the idler sampling, so comparing marginals
    across signal counts requires the idler axis to stay put.
    """

    n: int
    range_fraction: float
    signal_center_phz: float
    idler_center_phz: float
    idler_n: int | None = None

    def __post_init__(self):
        for name in ("n", "idler_n"):
            count = getattr(self, name)
            if count is not None and count < 16:
                raise DomainError(f"{name} must be >= 16", field=name)
        if not 0 < self.range_fraction < 0.5:
            raise DomainError("must lie in (0, 0.5)", field="range_fraction")
        require_positive(self, "signal_center_phz", "idler_center_phz")

    def signal_axis(self) -> np.ndarray:
        import numpy as np

        z = self.range_fraction
        return np.linspace(self.signal_center_phz * (1 - z),
                           self.signal_center_phz * (1 + z), self.n)

    def idler_axis(self) -> np.ndarray:
        import numpy as np

        z = self.range_fraction
        count = self.n if self.idler_n is None else self.idler_n
        return np.linspace(self.idler_center_phz * (1 - z),
                           self.idler_center_phz * (1 + z), count)


@dataclass(frozen=True)
class PhaseMatchQuery:
    """One phase-matching question: pump, geometry, polarizations, QPM order.

    Angles are internal to the crystal, in radians. The pump propagates along
    the poling axis (x); the signal leaves it at polar angle signal_theta_rad,
    and the mismatch does not depend on the azimuth.
    """

    pump_wavelength_nm: float
    signal_theta_rad: float = 0.0
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
        if not math.isfinite(self.temperature_k):
            raise DomainError("must be finite", field="temperature_k")
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


# --- fiber and waveguides ---

@dataclass(frozen=True)
class FiberSpec:
    """Equal-length fiber pair: signed GVD 2*beta in s^2/m and length in m."""

    gvd_2beta_s2_per_m: float
    length_m: float

    def __post_init__(self):
        if not math.isfinite(self.gvd_2beta_s2_per_m):
            raise DomainError("must be finite", field="gvd_2beta_s2_per_m")
        if not self.length_m >= 0:
            raise DomainError("must be nonnegative", field="length_m")


@dataclass(frozen=True)
class RectGuideSpec:
    """Cross-section a x b with core index n1; clad_index ignored for hollow."""

    width_a_um: float
    height_b_um: float
    core_index: float
    clad_index: float = 1.0
    kind: str = "dielectric"

    def __post_init__(self):
        require_positive(self, "width_a_um", "height_b_um", "core_index")
        if self.kind not in ("hollow", "dielectric"):
            raise DomainError("kind must be 'hollow' or 'dielectric'", field="kind")
        if self.kind == "dielectric":
            if not self.clad_index >= 1.0:
                raise DomainError("clad index must be >= 1", field="clad_index")
            if not self.core_index >= self.clad_index:
                raise DomainError("core index must not be below clad index",
                                  field="core_index")


@dataclass(frozen=True)
class BentGuideSpec:
    """Annular cross-section between radii r1 < r2, height 2 z0."""

    inner_radius_um: float
    outer_radius_um: float
    half_height_um: float
    core_index: float
    clad_index: float
    vacuum_wavelength_um: float

    def __post_init__(self):
        require_positive(self, "inner_radius_um", "outer_radius_um")
        if not self.inner_radius_um < self.outer_radius_um:
            raise DomainError("inner radius must be below outer radius",
                              field="inner_radius_um")
        require_positive(self, "half_height_um")
        if not self.clad_index >= 1.0:
            raise DomainError("clad index must be >= 1", field="clad_index")
        if not self.core_index > self.clad_index:
            raise DomainError("core index must exceed clad index", field="core_index")
        require_positive(self, "vacuum_wavelength_um")

    @property
    def k0_per_um(self) -> float:
        return 2.0 * math.pi / self.vacuum_wavelength_um

    @property
    def contrast_k_per_um(self) -> float:
        """k0 sqrt(n1^2 - n2^2): the upper limit for beta_w."""
        return self.k0_per_um * math.sqrt(self.core_index**2 - self.clad_index**2)
