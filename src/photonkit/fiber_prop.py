"""Propagation of the joint spectrum through two equal dispersive fibers.

Two routes to the arrival-time distribution: the exact quadratic-phase kernel
followed by a 2D Fourier transform, and the stationary-phase map t = -2bD w
which is a pure coordinate remapping of the probability grid. Frequency axes
are in PHz (rad/fs); times are reported in ns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics
from .errors import DomainError, GridTooCoarse, ZeroDispersion
from .specs import FiberSpec

if TYPE_CHECKING:
    from .biphoton import GaussianFit2D, JsaGrid

__all__ = [
    "FiberSpec",
    "TimeStats",
    "TimeGrid",
    "dispersion_scale",
    "group_delay_dispersion_fs2",
    "far_field_parameter",
    "time_stats_from_frequency",
    "propagate_exact",
    "propagate_stationary",
    "time_grid_stats",
    "save_time_grid_csv",
]

S2_TO_FS2 = 1e30
FS_TO_NS = 1e-6


@dataclass(frozen=True)
class TimeStats:
    """Arrival-time standard deviations (ns) and their Pearson correlation."""

    tau_s_ns: float
    tau_i_ns: float
    pearson_t: float

    def __post_init__(self):
        if self.tau_s_ns < 0 or self.tau_i_ns < 0:
            raise DomainError("time spreads must be nonnegative")
        if not -1.0 <= self.pearson_t <= 1.0:
            raise DomainError("correlation must lie in [-1, 1]")


@dataclass
class TimeGrid:
    """Joint arrival-time probability on a rectangular (t_s, t_i) grid."""

    t_s_ns: np.ndarray
    t_i_ns: np.ndarray
    probability: np.ndarray  # [j, k] = p(t_s[j], t_i[k])


def group_delay_dispersion_fs2(fiber: FiberSpec) -> float:
    """Signed accumulated dispersion 2*beta*D in fs^2."""
    return fiber.gvd_2beta_s2_per_m * fiber.length_m * S2_TO_FS2


def dispersion_scale(fiber: FiberSpec) -> float:
    """|2 beta D| as a frequency-to-time conversion factor, ns per PHz."""
    return abs(group_delay_dispersion_fs2(fiber)) * FS_TO_NS


def far_field_parameter(fiber: FiberSpec, sigma_phz: float) -> float:
    """Dimensionless 2 beta D sigma^2; the stationary-phase route needs >> 1."""
    return abs(group_delay_dispersion_fs2(fiber)) * sigma_phz**2


def time_stats_from_frequency(fit: GaussianFit2D, fiber: FiberSpec) -> TimeStats:
    """Map fitted frequency-domain widths to arrival-time statistics.

    tau = |2 beta D| sigma per photon; the correlation coefficient carries
    over unchanged (axis-wise linear maps preserve Pearson correlation).
    """
    scale = dispersion_scale(fiber)
    return TimeStats(
        tau_s_ns=scale * fit.signal_sigma_phz,
        tau_i_ns=scale * fit.idler_sigma_phz,
        pearson_t=fit.pearson,
    )


def _uniform_step(axis: np.ndarray, name: str) -> float:
    steps = np.diff(axis)
    if axis.size < 2 or np.any(steps <= 0):
        raise DomainError(f"{name} axis must be strictly increasing")
    if np.ptp(steps) > 1e-9 * steps[0]:
        raise DomainError(f"{name} axis must be uniform for the transform")
    return float(steps[0])


def propagate_exact(grid: JsaGrid, fiber: FiberSpec) -> TimeGrid:
    """Quadratic spectral phase followed by a 2D discrete Fourier transform.

    The amplitude is reconstructed as sqrt(probability) with zero intrinsic
    phase. The applied phase is exp(-i beta D (w_s^2 + w_i^2)); if it changes
    by more than pi between adjacent samples on either axis the conjugate time
    grid cannot hold the result (aliasing) and GridTooCoarse is raised.
    """
    ws = np.asarray(grid.omega_s_phz, dtype=float)
    wi = np.asarray(grid.omega_i_phz, dtype=float)
    d_s = _uniform_step(ws, "signal")
    d_i = _uniform_step(wi, "idler")
    bd = 0.5 * group_delay_dispersion_fs2(fiber)  # beta * D in fs^2

    for axis, step, name in ((ws, d_s, "signal"), (wi, d_i, "idler")):
        # local phase slope 2 beta D w; worst case at the largest |w|
        max_step = abs(2.0 * bd) * float(np.max(np.abs(axis)) + step) * step
        if max_step > math.pi:
            raise GridTooCoarse(
                f"{name} axis: quadratic phase step {max_step:.3g} rad > pi")

    amp = np.sqrt(grid.probability)
    phase = np.exp(-1j * bd * (ws[:, None] ** 2 + wi[None, :] ** 2))
    spectrum = amp * phase
    field_t = np.fft.fftshift(np.fft.fft2(spectrum))
    prob = np.abs(field_t) ** 2

    n_s, n_i = prob.shape
    t_s = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n_s, d=d_s))
    t_i = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n_i, d=d_i))
    return TimeGrid(t_s * FS_TO_NS, t_i * FS_TO_NS, prob / prob.sum())


def propagate_stationary(grid: JsaGrid, fiber: FiberSpec) -> TimeGrid:
    """Stationary-phase propagation: the coordinate remap t = -2 beta D w.

    Probability mass moves with the map, so the grid values are unchanged up
    to axis orientation and the total is preserved exactly: the returned
    probability is a read-only view of the grid's, flipped on both axes where
    the map reverses them (2 beta D > 0 on increasing frequency axes) so that
    the time axes increase.
    """
    gdd = group_delay_dispersion_fs2(fiber)
    if gdd == 0.0:
        raise ZeroDispersion("stationary-phase map undefined at 2 beta D = 0")
    t_s = -gdd * np.asarray(grid.omega_s_phz, dtype=float) * FS_TO_NS
    t_i = -gdd * np.asarray(grid.omega_i_phz, dtype=float) * FS_TO_NS
    if t_s[0] > t_s[-1]:
        return TimeGrid(t_s[::-1], t_i[::-1], grid.probability[::-1, ::-1])
    return TimeGrid(t_s, t_i, grid.probability)


def time_grid_stats(tg: TimeGrid) -> TimeStats:
    """Moment-based arrival-time statistics of a time-domain grid."""
    p = np.asarray(tg.probability, dtype=float)
    if p.sum() <= 0:
        raise DomainError("empty time grid")
    _, _, var_s, var_i, cov = numerics.grid_moments(tg.t_s_ns, tg.t_i_ns, p)
    if var_s <= 0 or var_i <= 0:
        return TimeStats(math.sqrt(max(var_s, 0.0)),
                         math.sqrt(max(var_i, 0.0)), 0.0)
    rho = cov / math.sqrt(var_s * var_i)
    rho = max(min(rho, 1.0), -1.0)
    return TimeStats(math.sqrt(var_s), math.sqrt(var_i), rho)


def save_time_grid_csv(tg: TimeGrid, path) -> None:
    """Write the grid as `t_s_ns,t_i_ns,probability` rows."""
    numerics.write_grid_csv(path, ("t_s_ns", "t_i_ns", "probability"),
                            tg.t_s_ns, tg.t_i_ns, tg.probability)
