"""The input specs of the joint-spectrum, fiber and waveguide solvers.

`specs` imports this module the first time one of its classes is looked up
(`specs.PumpSpec`, `from photonkit.specs import PumpSpec`), so the CLI
processes that take none of them (`phasematch sweep`, `fit-sellmeier`,
`dispersion`, `stats g2`) never build these classes. Import them from `specs`
or from the solver module that takes them, not from here."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, require_finite, require_positive

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
        require_finite(self, "signal_offset_per_um", "idler_offset_per_um")


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


# --- fiber and waveguides ---

@dataclass(frozen=True)
class FiberSpec:
    """Equal-length fiber pair: signed GVD 2*beta in s^2/m and length in m."""

    gvd_2beta_s2_per_m: float
    length_m: float

    def __post_init__(self):
        require_finite(self, "gvd_2beta_s2_per_m")
        if not self.length_m >= 0:
            raise DomainError("must be nonnegative", field="length_m")
        require_finite(self, "length_m")


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
            require_finite(self, "clad_index")
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
        require_finite(self, "clad_index")
        if not self.core_index > self.clad_index:
            raise DomainError("core index must exceed clad index", field="core_index")
        require_finite(self, "core_index")
        require_positive(self, "vacuum_wavelength_um")

    @property
    def k0_per_um(self) -> float:
        return 2.0 * math.pi / self.vacuum_wavelength_um

    @property
    def contrast_k_per_um(self) -> float:
        """k0 sqrt(n1^2 - n2^2): the upper limit for beta_w."""
        return self.k0_per_um * math.sqrt(self.core_index**2 - self.clad_index**2)
