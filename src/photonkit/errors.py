"""Exception hierarchy shared across the workbench, and the positivity and
finiteness checks the spec dataclasses share."""

from __future__ import annotations

import math


class PhotonkitError(Exception):
    """Base class for all workbench errors."""


class DomainError(PhotonkitError, ValueError):
    """Input outside the supported domain of an operation.

    `field`, when set, names the dataclass field whose check failed.
    """

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field


def require_positive(spec, *fields: str) -> None:
    """Raise DomainError at the first of `fields` on `spec` that is not > 0,
    NaN included, or is infinite."""
    for name in fields:
        value = getattr(spec, name)
        if not 0 < value < math.inf:
            raise DomainError("must be finite" if value > 0 else "must be positive",
                              field=name)


def require_finite(spec, *fields: str) -> None:
    """Raise DomainError at the first of `fields` on `spec` that is NaN or infinite."""
    for name in fields:
        if not math.isfinite(getattr(spec, name)):
            raise DomainError("must be finite", field=name)


# --- numerics ---

class NoSignChange(PhotonkitError):
    """Root bracket does not straddle a sign change."""


class MaxIterations(PhotonkitError):
    """Iteration budget exhausted before reaching tolerance."""


class SingularJacobian(PhotonkitError):
    """Normal equations are singular; the fit cannot proceed."""


# --- dispersion ---

class PoleProximity(DomainError):
    """Wavelength squared too close to a Sellmeier pole."""


class NegativeRadicand(DomainError):
    """Sellmeier radicand non-positive; no real index exists."""


class Unpoled(PhotonkitError):
    """Operation requires a poled crystal (poling period > 0)."""


# --- phasematch ---

class NoRootInWindow(PhotonkitError):
    """Scalar mismatch has no sign change inside the search window."""


class MultipleRoots(PhotonkitError):
    """More than one sign change detected at coarse-scan resolution."""

    def __init__(self, brackets):
        super().__init__(f"{len(brackets)} sign changes in search window")
        self.brackets = brackets


# --- sellmeier_fit ---

class InsufficientData(PhotonkitError):
    """Fewer usable data points than required."""


class DivergedFit(PhotonkitError):
    """Fit failed to converge; carries the best-so-far result."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# --- biphoton ---

class DegenerateGrid(PhotonkitError):
    """Grid probabilities whose sum is not positive: zero, or NaN."""


class DegenerateFit(PhotonkitError):
    """Samples cannot constrain the requested model."""


class QuadratureNotConverged(PhotonkitError):
    """Crystal quadrature error estimate above tolerance at the node cap;
    carries the last node count and relative error estimate."""

    def __init__(self, message, order=None, error_estimate=None):
        super().__init__(message)
        self.order = order
        self.error_estimate = error_estimate


# --- fiber_prop ---

class GridTooCoarse(PhotonkitError):
    """Quadratic spectral phase varies by more than pi between samples."""


class ZeroDispersion(PhotonkitError):
    """Stationary-phase propagation undefined for 2*beta*D = 0."""


# --- waveguides ---

class NoGuidedModes(PhotonkitError):
    """No guided mode exists for the requested geometry/wavelength."""


class BesselRange(DomainError):
    """Requested Bessel order outside the supported range."""


class BoundaryResidual(PhotonkitError):
    """Assembled field fails the wall boundary-condition tolerance."""


# --- photon_stats ---

class ZeroMean(DomainError):
    """g2 undefined for zero mean photon number."""


# --- cli ---

class ScenarioError(PhotonkitError):
    """Scenario file failed validation; carries diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(d.get("message", "") for d in diagnostics))
        self.diagnostics = diagnostics
