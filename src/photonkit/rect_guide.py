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

import numpy as np

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
    "mode_field",
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


def mode_field(mode: RectMode, spec: RectGuideSpec, x_um, y_um) -> np.ndarray:
    """Dominant-component field magnitude on the (x, y) sample grid.

    Coordinates are measured from the guide centre. For dielectric modes the
    four corner regions are zeroed, as the five-region approximation leaves
    them undetermined.
    """
    x = np.asarray(x_um, dtype=float)
    y = np.asarray(y_um, dtype=float)
    a, b = spec.width_a_um, spec.height_b_um
    if mode.family in ("TE", "TM"):
        # shift to wall-based coordinates for the closed-form patterns
        xs = x[:, None] + 0.5 * a
        ys = y[None, :] + 0.5 * b
        inside = ((xs >= 0) & (xs <= a)) & ((ys >= 0) & (ys <= b))
        if mode.family == "TM":
            field = np.sin(mode.m * math.pi * xs / a) * np.sin(mode.n * math.pi * ys / b)
        elif mode.m == 0:
            field = np.broadcast_to(np.sin(mode.n * math.pi * ys / b),
                                    (x.size, y.size)).copy()
        else:
            field = np.sin(mode.m * math.pi * xs / a) * np.cos(mode.n * math.pi * ys / b)
        return np.abs(np.where(inside, field, 0.0))

    k0 = math.sqrt(mode.k_z_per_um**2 + mode.k_x_per_um**2
                   + mode.k_y_per_um**2) / spec.core_index
    k_lim2 = k0**2 * (spec.core_index**2 - spec.clad_index**2)
    gx = math.sqrt(max(k_lim2 - mode.k_x_per_um**2, 1e-30))
    gy = math.sqrt(max(k_lim2 - mode.k_y_per_um**2, 1e-30))
    u = numerics.slab_profile(x, mode.k_x_per_um, a, gx, parity_odd=(mode.m % 2 == 0))
    v = numerics.slab_profile(y, mode.k_y_per_um, b, gy, parity_odd=(mode.n % 2 == 0))
    field = np.abs(u[:, None] * v[None, :])
    corner = (np.abs(x)[:, None] > 0.5 * a) & (np.abs(y)[None, :] > 0.5 * b)
    return np.where(corner, 0.0, field)
