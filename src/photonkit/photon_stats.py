"""Photon-number statistics: closed-form g2(0) calculators for standard
states, two-mode squeezed vacuum moments, and a seeded Poisson-process Monte
Carlo with Bernoulli branching. All randomness comes from the counter-based
Philox generator so runs are reproducible bit for bit. Only the Monte Carlo
functions import numpy, so `photonkit stats g2` never loads it."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ZeroMean

__all__ = [
    "NumberMoments",
    "CountRecord",
    "TmsvStats",
    "g2_from_moments",
    "classify_g2",
    "fock_moments",
    "coherent_moments",
    "thermal_moments",
    "tmsv_moments",
    "simulate_poisson",
    "branch",
]


@dataclass(frozen=True)
class NumberMoments:
    """First two moments of the photon-number distribution: nonnegative and
    finite, with a mean of 0 or whose square is a positive float (g2 divides
    by it)."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.mean < 0 or self.variance < 0:
            raise DomainError("moments must be nonnegative")
        if not (math.isfinite(self.variance)
                and (self.mean == 0 or 0 < self.mean * self.mean < math.inf)):
            raise DomainError(f"moments ({self.mean!r}, {self.variance!r}) are out "
                              "of floating-point range")


@dataclass(frozen=True)
class CountRecord:
    """Detection record: strictly increasing nonnegative arrival times, s."""

    arrival_times_s: tuple[float, ...]

    def __post_init__(self):
        times = self.arrival_times_s
        if times and times[0] < 0:
            raise DomainError("arrival times must be nonnegative")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("arrival times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.arrival_times_s)


@dataclass(frozen=True)
class TmsvStats:
    """Per-mode moments plus cross-mode statistics of the squeezed pair."""

    per_mode: NumberMoments
    difference_variance: float
    cross_pearson: float


def g2_from_moments(moments: NumberMoments) -> float:
    """Zero-delay second-order coherence 1 + (var - mean) / mean^2."""
    if moments.mean <= 0:
        raise ZeroMean("g2 undefined for zero mean photon number")
    return 1.0 + (moments.variance - moments.mean) / moments.mean**2


def classify_g2(g2: float) -> str:
    """'sub-poissonian', 'poissonian', or 'super-poissonian'."""
    if g2 < 1.0:
        return "sub-poissonian"
    if g2 == 1.0:
        return "poissonian"
    return "super-poissonian"


def fock_moments(n: int) -> NumberMoments:
    """Photon-number state |n>: mean n, zero variance."""
    if n < 1:
        raise DomainError("fock_moments requires n >= 1")
    try:
        return NumberMoments(mean=float(n), variance=0.0)
    except OverflowError:
        raise DomainError("fock moments out of floating-point range") from None


def coherent_moments(mean: float) -> NumberMoments:
    """Coherent state: Poissonian, variance equals the mean."""
    if mean <= 0:
        raise DomainError("coherent mean must be positive")
    return NumberMoments(mean=mean, variance=mean)


def thermal_moments(beta_hbar_omega: float) -> NumberMoments:
    """Single thermal mode at reduced energy beta * hbar * omega."""
    if beta_hbar_omega <= 0:
        raise DomainError("beta * hbar * omega must be positive")
    try:
        mean = 1.0 / math.expm1(beta_hbar_omega)
        return NumberMoments(mean=mean, variance=mean**2 + mean)
    except OverflowError:
        raise DomainError("thermal moments out of floating-point range") from None


def tmsv_moments(squeeze_r: float) -> TmsvStats:
    """Two-mode squeezed vacuum with squeezing parameter R >= 0.

    Each mode has mean sinh^2 R and variance sinh^2(2R)/4; the photon-number
    difference has zero variance, so the cross correlation is perfect.
    """
    if squeeze_r < 0:
        raise DomainError("squeezing parameter must be nonnegative")
    try:
        mean = math.sinh(squeeze_r) ** 2
        variance = 0.25 * math.sinh(2.0 * squeeze_r) ** 2
    except OverflowError:
        raise DomainError("tmsv moments out of floating-point range") from None
    cross = 1.0 if squeeze_r > 0 else 0.0
    return TmsvStats(per_mode=NumberMoments(mean=mean, variance=variance),
                     difference_variance=0.0, cross_pearson=cross)


def _rng(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.Philox(seed))


def simulate_poisson(rate_per_s: float, horizon_s: float, seed: int) -> CountRecord:
    """Homogeneous Poisson process by exponential inter-arrival sampling."""
    import numpy as np

    if rate_per_s <= 0 or horizon_s <= 0:
        raise DomainError("rate and horizon must be positive")
    rng = _rng(seed)
    times = []
    t = 0.0
    # draw in blocks to keep the generator call count low
    block = max(16, int(rate_per_s * horizon_s * 1.2) + 16)
    while True:
        gaps = rng.exponential(1.0 / rate_per_s, size=block)
        arrivals = t + np.cumsum(gaps)
        inside = arrivals[arrivals < horizon_s]
        times.extend(inside.tolist())
        if inside.size < block:
            break
        t = float(arrivals[-1])
    return CountRecord(tuple(times))


def branch(record: CountRecord, keep_probability: float,
           seed: int) -> tuple[CountRecord, CountRecord]:
    """Independent Bernoulli thinning into (kept, dropped) partitions."""
    import numpy as np

    if not 0.0 <= keep_probability <= 1.0:
        raise DomainError("keep probability must lie in [0, 1]")
    times = np.asarray(record.arrival_times_s, dtype=float)
    if times.size == 0:
        return CountRecord(()), CountRecord(())
    keep = _rng(seed).random(times.size) < keep_probability
    return (CountRecord(tuple(times[keep].tolist())),
            CountRecord(tuple(times[~keep].tolist())))
