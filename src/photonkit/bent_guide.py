"""Bent (annular) waveguide eigenmodes.

The vertical problem is a symmetric slab: cosine (even) and sine (odd) cores
matched to exponential tails, giving tangent/cotangent transcendental
equations for beta_w, solved by the shared Newton slab solver
numerics.slab_roots. The radial problem is a Bessel boundary problem whose
azimuthal number m is a positive real solving a 2x2 determinant condition.
Also exposes the radial-Schrodinger substitution u = sqrt(r) R and the
dimension-dependent inverse-square potential behind it. Lengths in um.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import numerics, special
from .errors import BesselRange, BoundaryResidual, DomainError, NoRealSolution
from .specs import BentGuideSpec

__all__ = [
    "BentGuideSpec",
    "BentModeSolution",
    "vertical_roots",
    "count_vertical_modes",
    "radial_determinant",
    "azimuthal_numbers",
    "approximate_azimuthal",
    "assemble_mode",
    "solve_modes",
    "mean_radius",
    "effective_index",
    "robustly_guided",
    "qff_transform_check",
    "qff_potential",
    "integer_snap_residual",
]

AZIMUTHAL_SCAN_STEP = 0.05
WALL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class VerticalRoot:
    parity: str  # "even" (cosine core) or "odd" (sine core)
    q: int
    beta_w_per_um: float
    beta_s_per_um: float


@dataclass(frozen=True)
class BentModeSolution:
    """One assembled E_r mode and its derived characteristics, which only
    assemble_mode fills in (NaN/False until then)."""

    p: int
    q: int
    parity: str
    beta_w_per_um: float
    beta_s_per_um: float
    h_per_um: float
    m: float
    gamma_rad: float
    spec: BentGuideSpec = field(repr=False)
    n_eff: float = math.nan
    mean_radius_um: float = math.nan
    physical: bool = False

    @property
    def order(self) -> float:
        """Bessel order lambda = sqrt(m^2 + 1)."""
        return math.sqrt(self.m**2 + 1.0)

    def radial_profile(self, r_um) -> np.ndarray:
        """R(r) = sin(gamma) J_lam(h r) + cos(gamma) Y_lam(h r)."""
        r = np.asarray(r_um, dtype=float)
        j, y = special.bessel_jy(self.order, self.h_per_um * r)
        return math.sin(self.gamma_rad) * j + math.cos(self.gamma_rad) * y

    def vertical_profile(self, z_um) -> np.ndarray:
        """Z(z): sinusoid in the core, value-matched exponential tails."""
        return numerics.slab_profile(z_um, self.beta_w_per_um,
                                     2.0 * self.spec.half_height_um,
                                     self.beta_s_per_um, self.parity == "odd")

    def field(self, r_um, z_um) -> np.ndarray:
        """|E_r| on the outer product of the radial and vertical samples."""
        rad = self.radial_profile(r_um)
        ver = self.vertical_profile(z_um)
        return np.abs(np.atleast_1d(rad)[:, None] * np.atleast_1d(ver)[None, :])


def vertical_roots(spec: BentGuideSpec) -> list[VerticalRoot]:
    """All beta_w roots of the two slab equations, ascending, q = 1, 2, ...

    Cosine (even) cores satisfy tan(beta z0) = gamma/beta and sine (odd)
    cores cot(beta z0) = -gamma/beta, with gamma = sqrt(B^2 - beta^2) the
    cladding decay rate; gamma doubles as beta_s through the index-matching
    condition h^2 = k1^2 - beta_w^2 = k2^2 + beta_s^2. Both are the slab
    relation of numerics.slab_roots with extent 2 z0 and index factor 1, whose
    p is q: odd p are the cosine roots, even p the sine roots.
    """
    cap = spec.contrast_k_per_um
    return [VerticalRoot("even" if q % 2 else "odd", q, beta,
                         math.sqrt(cap**2 - beta**2))
            for q, beta in numerics.slab_roots(cap, 2.0 * spec.half_height_um, 1.0)]


def count_vertical_modes(spec: BentGuideSpec) -> tuple[int, int]:
    """Estimated root counts (tangent family, cotangent family).

    ceil(l/pi) and ceil(l/pi - 1/2) with l = k0 z0 sqrt(n1^2 - n2^2); the
    totals track the exact counts from vertical_roots.
    """
    ell = spec.contrast_k_per_um * spec.half_height_um
    return (math.ceil(ell / math.pi), math.ceil(ell / math.pi - 0.5))


def radial_determinant(spec: BentGuideSpec, h_per_um: float, m) -> np.ndarray:
    """J_lam(h r1) Y_lam(h r2) - J_lam(h r2) Y_lam(h r1), lam = sqrt(m^2+1)."""
    m = np.asarray(m, dtype=float)
    lam = np.sqrt(m**2 + 1.0)
    if np.any(lam > special.MAX_BESSEL_ORDER):
        raise BesselRange(
            f"order sqrt(m^2+1) exceeds {special.MAX_BESSEL_ORDER}")
    # One pass over both walls: the last axis holds r1 and r2.
    j, y = special.bessel_jy(lam[..., None], h_per_um * np.array(
        [spec.inner_radius_um, spec.outer_radius_um]))
    return j[..., 0] * y[..., 1] - j[..., 1] * y[..., 0]


def azimuthal_numbers(spec: BentGuideSpec, h_per_um: float) -> list[tuple[int, float, float]]:
    """All (p, m, gamma) roots of the radial determinant, m descending.

    Scanned with a 0.05 bracketing step over m in (0, h r2]; one
    numerics.find_root call refines every sign change to 1e-13, by
    false-position steps, as the determinant has no closed-form slope in m.
    gamma solves
    sin(gamma) J_lam(h r1) + cos(gamma) Y_lam(h r1) = 0, i.e.
    tan(gamma) = -Y_lam(h r1) / J_lam(h r1).
    """
    if h_per_um <= 0:
        raise DomainError("h must be positive")
    m_hi = h_per_um * spec.outer_radius_um
    lam_hi = math.sqrt(m_hi**2 + 1.0)
    if lam_hi > special.MAX_BESSEL_ORDER:
        raise BesselRange(
            f"scan upper order {lam_hi:.1f} exceeds {special.MAX_BESSEL_ORDER}")
    grid = np.arange(AZIMUTHAL_SCAN_STEP, m_hi + AZIMUTHAL_SCAN_STEP,
                     AZIMUTHAL_SCAN_STEP)
    grid = grid[grid <= m_hi]
    vals = radial_determinant(spec, h_per_um, grid)
    sign = np.sign(vals)
    i = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    ms = numerics.find_root(
        partial(radial_determinant, spec, h_per_um),
        numerics.RootBracket(grid[i], grid[i + 1], vals[i], vals[i + 1]), tol=1e-13)
    ms = np.sort(ms)[::-1]
    j1, y1 = special.bessel_jy(np.sqrt(ms**2 + 1.0), h_per_um * spec.inner_radius_um)
    gammas = np.arctan2(-y1, j1)
    return list(zip(range(1, ms.size + 1), ms.tolist(), gammas.tolist()))


def approximate_azimuthal(spec: BentGuideSpec, h_per_um: float, p: int) -> float:
    """Thin-annulus estimate m = r_av sqrt(h^2 - pi^2 p^2/dr^2 - 5/(4 r_av^2))."""
    if p < 1:
        raise DomainError("p must be >= 1")
    r_av = 0.5 * (spec.inner_radius_um + spec.outer_radius_um)
    dr = spec.outer_radius_um - spec.inner_radius_um
    radicand = h_per_um**2 - (math.pi * p / dr) ** 2 - 1.25 / r_av**2
    if radicand <= 0:
        raise NoRealSolution(f"no real azimuthal number for p={p}")
    return r_av * math.sqrt(radicand)


def assemble_mode(spec: BentGuideSpec, vert: VerticalRoot,
                  azim: tuple[int, float, float]) -> BentModeSolution:
    """Combine a vertical root and an azimuthal root into a complete mode.

    Checks that the radial profile vanishes at both walls relative to its
    peak, then sets the mean radius, n_eff and physical (n_eff > n2).
    """
    p, m, gamma = azim
    k1 = spec.k0_per_um * spec.core_index
    h = math.sqrt(k1**2 - vert.beta_w_per_um**2)
    mode = BentModeSolution(
        p=p, q=vert.q, parity=vert.parity,
        beta_w_per_um=vert.beta_w_per_um, beta_s_per_um=vert.beta_s_per_um,
        h_per_um=h, m=m, gamma_rad=gamma, spec=spec)
    r = np.linspace(spec.inner_radius_um, spec.outer_radius_um, 512)
    prof = mode.radial_profile(r)
    peak = float(np.max(np.abs(prof)))
    worst = max(abs(prof[0]), abs(prof[-1]))
    if peak == 0 or worst / peak > WALL_TOLERANCE:
        raise BoundaryResidual(
            f"radial profile leaks at the walls: {worst / peak:.2e}")
    mode = replace(mode, mean_radius_um=mean_radius(mode))
    n_eff = effective_index(mode)
    return replace(mode, n_eff=n_eff, physical=bool(n_eff > spec.clad_index))


def solve_modes(spec: BentGuideSpec) -> list[BentModeSolution]:
    """Full mode table ordered by (q ascending, p ascending), solved serially:
    on two threads the golden annulus took longer than on one."""
    k1 = spec.k0_per_um * spec.core_index
    modes = []
    for vert in vertical_roots(spec):
        h = math.sqrt(k1**2 - vert.beta_w_per_um**2)
        modes += [assemble_mode(spec, vert, azim) for azim in azimuthal_numbers(spec, h)]
    return modes


def mean_radius(mode: BentModeSolution) -> float:
    """Intensity-weighted radial position <r> of the assembled field, um.

    The field separates as R(r) Z(z), so the vertical integral cancels; the
    integrals of |R|^2 r and |R|^2 share R at 96 Gauss-Legendre nodes.
    """
    lo, hi = mode.spec.inner_radius_um, mode.spec.outer_radius_um
    nodes, weights = numerics.gauss_legendre(96)
    r = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    w = weights * mode.radial_profile(r)**2
    return float(np.dot(w, r) / w.sum())


def effective_index(mode: BentModeSolution) -> float:
    """n_eff = m / (k0 <r>), from the mode's mean_radius_um."""
    return mode.m / (mode.spec.k0_per_um * mode.mean_radius_um)


def robustly_guided(mode: BentModeSolution, margin: float = 0.05) -> bool:
    """Guidance with a safety band: n_eff must clear n2 by `margin`.

    The strict flag (mode.physical) uses n_eff > n2; modes inside the band
    are marginal and tend to disappear in finite-element cross-checks.
    """
    if margin < 0:
        raise DomainError("margin must be nonnegative")
    return mode.n_eff > mode.spec.clad_index + margin


def qff_transform_check(mode: BentModeSolution, n_samples: int = 2001) -> dict:
    """Residual of the radial-Schrodinger form on u(r) = sqrt(r) R(r).

    u must satisfy u'' - (lam^2 - 1/4) u / r^2 + h^2 u = 0; the second
    derivative is taken with a 5-point central stencil on a uniform interior
    grid, skipping 2 steps at each wall.
    """
    spec = mode.spec
    r = np.linspace(spec.inner_radius_um, spec.outer_radius_um, n_samples)
    dr = r[1] - r[0]
    u = np.sqrt(r) * mode.radial_profile(r)
    upp = np.full_like(u, np.nan)
    upp[2:-2] = (-u[4:] + 16 * u[3:-1] - 30 * u[2:-2]
                 + 16 * u[1:-3] - u[:-4]) / (12.0 * dr**2)
    lam2 = mode.m**2 + 1.0
    interior = slice(2, -2)
    resid = (upp[interior] - (lam2 - 0.25) * u[interior] / r[interior]**2
             + mode.h_per_um**2 * u[interior])
    scale = mode.h_per_um**2 * float(np.max(np.abs(u)))
    max_rel = float(np.max(np.abs(resid))) / scale
    return {"max_relative_residual": max_rel, "scale": scale,
            "n_interior": int(u.size - 4)}


def qff_potential(m: float, r_um, dimension: int = 2) -> np.ndarray:
    """Radial effective potential (m^2 + (d-1)(d-3)/4) / r^2, units of 2M/hbar^2.

    The dimension-dependent term vanishes for d = 1 and d = 3; in d = 2 it is
    the attractive -1/(4 r^2) anticentrifugal contribution.
    """
    if dimension < 1:
        raise DomainError("dimension must be >= 1")
    r = np.asarray(r_um, dtype=float)
    if np.any(r <= 0):
        raise DomainError("potential defined for r > 0")
    d = dimension
    out = (m**2 + (d - 1) * (d - 3) / 4.0) / r**2
    return float(out) if out.ndim == 0 else out


def integer_snap_residual(spec: BentGuideSpec, h_per_um: float, m: float) -> tuple[int, float]:
    """Nearest-integer azimuthal number and the determinant residual there.

    Reported for comparison with finite-element solvers that require integer
    m; the residual is relative to the local determinant scale.
    """
    m_int = max(1, round(m))
    det = float(radial_determinant(spec, h_per_um, m_int))
    span = np.linspace(max(m_int - 0.5, 0.1), m_int + 0.5, 21)
    scale = float(np.max(np.abs(radial_determinant(spec, h_per_um, span))))
    return m_int, det / scale if scale > 0 else math.inf
