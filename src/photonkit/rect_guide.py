"""Straight rectangular waveguides.

Two solvers: exact TE/TM modes of a hollow perfectly conducting guide with
cutoff frequencies, and the Marcatili approximation for dielectric guides
(dominant-polarization E^y / E^x modes from two decoupled slab equations,
each solved by the shared numerics.slab_roots).
Lengths in um, frequencies in THz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import numerics
from .errors import DomainError, NoGuidedModes
from .numerics import C_UM_PER_FS
from .specs import RectGuideSpec

__all__ = [
    "RectGuideSpec",
    "RectMode",
    "hollow_modes",
    "hollow_cutoff_thz",
    "marcatili_slab_roots",
    "marcatili_solve",
]

THZ_TO_INV_FS = 1e-3  # 1 THz = 1e-3 cycles per fs


@dataclass(frozen=True)
class RectMode:
    """One guided mode: family, transverse indices, wavevector components."""

    family: str  # TE, TM, Ey, Ex
    m: int       # x index (p for dielectric)
    n: int       # y index (q for dielectric)
    k_x_per_um: float
    k_y_per_um: float
    k_z_per_um: float
    cutoff_thz: float | None = None


def hollow_cutoff_thz(spec: RectGuideSpec, m: int, n: int) -> float:
    """Cutoff frequency of the (m, n) hollow-guide mode, THz.

    f_c = (c / 2 pi) sqrt((m pi / a)^2 + (n pi / b)^2); both terms add under
    the radical, consistent with the propagation condition k_z^2 > 0.
    """
    kx = m * math.pi / spec.width_a_um
    ky = n * math.pi / spec.height_b_um
    return C_UM_PER_FS / (2.0 * math.pi) * math.hypot(kx, ky) / THZ_TO_INV_FS


def hollow_modes(spec: RectGuideSpec, frequency_thz: float) -> list[RectMode]:
    """All propagating TE/TM modes of a hollow guide at the given frequency.

    TE requires (m, n) != (0, 0); TM requires m >= 1 and n >= 1. Modes are
    sorted by cutoff frequency, TE before TM at equal (m, n).
    """
    if spec.kind != "hollow":
        raise DomainError("hollow_modes requires kind='hollow'")
    if frequency_thz <= 0:
        raise DomainError("frequency must be positive")
    k0 = 2.0 * math.pi * frequency_thz * THZ_TO_INV_FS / C_UM_PER_FS
    m_max = int(k0 * spec.width_a_um / math.pi)
    n_max = int(k0 * spec.height_b_um / math.pi)
    modes = []
    for family in ("TE", "TM"):
        for m in range(0, m_max + 1):
            for n in range(0, n_max + 1):
                if family == "TE" and m == 0 and n == 0:
                    continue
                if family == "TM" and (m < 1 or n < 1):
                    continue
                kx = m * math.pi / spec.width_a_um
                ky = n * math.pi / spec.height_b_um
                kz2 = k0**2 - kx**2 - ky**2
                if kz2 <= 0:
                    continue
                modes.append(RectMode(family, m, n, kx, ky, math.sqrt(kz2),
                                      cutoff_thz=hollow_cutoff_thz(spec, m, n)))
    modes.sort(key=lambda md: (md.cutoff_thz, md.family, md.m, md.n))
    return modes


def marcatili_slab_roots(spec: RectGuideSpec, wavelength_um: float,
                         polarization: str) -> tuple[list, list]:
    """The two decoupled slab spectra (k_x roots, k_y roots) for one family,
    each a list of (p, k) pairs from numerics.slab_roots.

    For E^y modes the electric field crosses the horizontal boundaries, so the
    y equation carries the (n2/n1)^2 index factor; E^x swaps the roles.
    """
    if spec.kind != "dielectric":
        raise DomainError("marcatili solver requires kind='dielectric'")
    if wavelength_um <= 0:
        raise DomainError("wavelength must be positive")
    if polarization not in ("Ey", "Ex"):
        raise DomainError("polarization must be 'Ey' or 'Ex'")
    k0 = 2.0 * math.pi / wavelength_um
    n1, n2 = spec.core_index, spec.clad_index
    factor = (n2 / n1) ** 2
    fx = factor if polarization == "Ex" else 1.0
    fy = factor if polarization == "Ey" else 1.0
    k_lim = k0 * math.sqrt(n1**2 - n2**2)
    return (numerics.slab_roots(k_lim, spec.width_a_um, fx),
            numerics.slab_roots(k_lim, spec.height_b_um, fy))


def marcatili_solve(spec: RectGuideSpec, wavelength_um: float,
                    polarization: str) -> list[RectMode]:
    """All guided E^y or E^x modes with real propagation constant.

    k_z = sqrt(k0^2 n1^2 - k_x^2 - k_y^2) must be real and exceed the cladding
    light line for the mode to be guided.
    """
    kx_roots, ky_roots = marcatili_slab_roots(spec, wavelength_um, polarization)
    k0 = 2.0 * math.pi / wavelength_um
    modes = []
    for p, kx in kx_roots:
        for q, ky in ky_roots:
            kz2 = (k0 * spec.core_index) ** 2 - kx**2 - ky**2
            if kz2 <= (k0 * spec.clad_index) ** 2:
                continue
            modes.append(RectMode(polarization, p, q, kx, ky, math.sqrt(kz2)))
    if not modes:
        raise NoGuidedModes(
            f"no guided {polarization} modes at {wavelength_um} um")
    modes.sort(key=lambda md: -md.k_z_per_um)
    return modes
