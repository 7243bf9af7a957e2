"""Joint spectral probability of the fiber-coupled photon pair.

Frequencies are angular, in PHz (rad/fs); lengths in um; times in fs. The
four transverse wavevector integrals are evaluated in closed form as complex
Gaussian quadratic forms, leaving one numerical integral along the crystal.
The crystal is centred on z = 0 and the integrand at -z is the complex
conjugate of the one at +z, so that integral is real (Grice & Walmsley,
Phys. Rev. A 56, 1627, 1997): the Gauss-Legendre sum is folded onto the
nodes z >= 0 and accumulated in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .dispersion import refractive_index
from .errors import DegenerateFit, DegenerateGrid, DomainError, EvanescentTransverse
from .numerics import C_UM_PER_FS
from .phasematch import grating_vector
from .specs import (
    CouplingSpec,
    CrystalSpec,
    JsaGridSpec,
    PhaseMatchQuery,
    Polarization,
    PumpSpec,
)

__all__ = [
    "C_UM_PER_FS",
    "PumpSpec",
    "CouplingSpec",
    "JsaGridSpec",
    "JsaGrid",
    "GaussianFit1D",
    "GaussianFit2D",
    "omega_phz_from_wavelength_um",
    "wavelength_um_from_omega_phz",
    "pump_temporal_amplitude",
    "fwhm_omega_to_tau",
    "envelope_tau_from_reciprocal_sigma",
    "phase_mismatch_longitudinal",
    "jsa_grid",
    "marginal",
    "fit_gaussian_1d",
    "fit_gaussian_2d",
    "screening_mask",
]

FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
Z_QUAD_ORDER = 64
JSA_BLOCK_CELLS = 16384


def omega_phz_from_wavelength_um(wavelength_um):
    return 2.0 * math.pi * C_UM_PER_FS / np.asarray(wavelength_um, dtype=float)


def wavelength_um_from_omega_phz(omega_phz):
    return 2.0 * math.pi * C_UM_PER_FS / np.asarray(omega_phz, dtype=float)


@dataclass(frozen=True)
class JsaGrid:
    """Joint spectral probability, normalized to unit sum when built and
    stored read-only; DegenerateGrid unless the given values sum to a positive
    number."""

    omega_s_phz: np.ndarray
    omega_i_phz: np.ndarray
    probability: np.ndarray  # [j, k] = p(omega_s[j], omega_i[k])

    def __post_init__(self):
        total = float(self.probability.sum())
        if not total > 0:
            raise DegenerateGrid(f"grid probabilities sum to {total}")
        probability = self.probability / total
        probability.flags.writeable = False
        object.__setattr__(self, "probability", probability)

    def transpose(self) -> "JsaGrid":
        """The grid with signal and idler exchanged, its probability the exact
        transpose: it is not divided by its sum again, which rounding can
        leave off 1.0."""
        grid = object.__new__(JsaGrid)
        probability = self.probability.T.copy()
        probability.flags.writeable = False
        for name, value in (("omega_s_phz", self.omega_i_phz.copy()),
                            ("omega_i_phz", self.omega_s_phz.copy()),
                            ("probability", probability)):
            object.__setattr__(grid, name, value)
        return grid


@dataclass(frozen=True)
class GaussianFit1D:
    """b + a * exp(-4 ln2 (omega - center)^2 / fwhm^2) fitted to samples."""

    bias: float
    amplitude: float
    center_phz: float
    fwhm_phz: float
    standard_errors: tuple[float, float, float, float]
    rss: float
    dof: int

    @property
    def sigma_phz(self) -> float:
        return self.fwhm_phz / FWHM_SIGMA

    @property
    def p_values(self) -> tuple[float, float, float, float]:
        """Two-sided Student-t p-values of (bias, amplitude, centre, FWHM)
        against zero (special.student_t_two_sided), NaN where the standard
        error is not positive and finite; computed on read, which is when
        `special` is imported."""
        from .special import student_t_two_sided

        params = (self.bias, self.amplitude, self.center_phz, self.fwhm_phz)
        return tuple(student_t_two_sided(v / e, self.dof)
                     if e > 0 and np.isfinite(e) else math.nan
                     for v, e in zip(params, self.standard_errors))


@dataclass(frozen=True)
class GaussianFit2D:
    """Bivariate normal density fit: centres, widths, Pearson correlation."""

    amplitude: float
    signal_center_phz: float
    idler_center_phz: float
    signal_sigma_phz: float
    idler_sigma_phz: float
    pearson: float
    standard_errors: tuple[float, ...]
    near_singular: bool
    rss: float


def pump_temporal_amplitude(omega_phz, pump: PumpSpec):
    """Gaussian pump spectral envelope evaluated at the sum frequency."""
    tau = pump.pulse_duration_fs
    d = np.asarray(omega_phz, dtype=float) - pump.central_frequency_phz
    out = math.sqrt(tau) / math.pi**0.25 * np.exp(-0.5 * tau**2 * d**2)
    return float(out) if out.ndim == 0 else out


def fwhm_omega_to_tau(fwhm_phz: float, convention: str = "workbench") -> float:
    """Pump duration from the measured spectral intensity FWHM.

    The default reproduces the reference data reduction (tau = 8 ln2 / FWHM).
    `convention="fourier"` gives the transform-limited pair of the stated
    envelope, tau = 2 sqrt(ln2) / FWHM; the two differ by design, see README.
    """
    if fwhm_phz <= 0:
        raise DomainError("FWHM must be positive")
    if convention == "workbench":
        return 8.0 * math.log(2.0) / fwhm_phz
    if convention == "fourier":
        return 2.0 * math.sqrt(math.log(2.0)) / fwhm_phz
    raise DomainError(f"unknown convention {convention!r}")


def envelope_tau_from_reciprocal_sigma(tau_fs: float) -> float:
    """Amplitude-envelope duration from a reciprocal-intensity-sigma duration.

    A duration quoted as 1/sigma of the spectral *intensity* maps onto the
    Gaussian amplitude envelope exp(-tau^2 dw^2 / 2) with tau shorter by
    sqrt(2), since the intensity is the squared amplitude.
    """
    if tau_fs <= 0:
        raise DomainError("duration must be positive")
    return tau_fs / math.sqrt(2.0)


def _axis_k(crystal: CrystalSpec, pol: Polarization, omega_phz):
    """Wavevector magnitude n(omega) * omega / c in 1/um."""
    lam_um = wavelength_um_from_omega_phz(omega_phz)
    n = refractive_index(crystal.axis_set(pol), lam_um)
    return n * np.asarray(omega_phz, dtype=float) / C_UM_PER_FS


def phase_mismatch_longitudinal(omega_s_phz: float, omega_i_phz: float,
                                k_s_perp: float, k_i_perp: float,
                                crystal: CrystalSpec, query: PhaseMatchQuery,
                                temperature_k: float | None = None) -> float:
    """Longitudinal mismatch with paraxial k_z = k - k_perp^2 / (2k), 1/um.

    The pump transverse wavevector is the sum of the two photon transverse
    wavevectors. Polarizations, QPM order/sign and temperature come from the
    query (its pump wavelength field is ignored here).
    """
    if temperature_k is not None:
        from dataclasses import replace
        query = replace(query, temperature_k=temperature_k)
    k_s = _axis_k(crystal, query.pol_signal, omega_s_phz)
    k_i = _axis_k(crystal, query.pol_idler, omega_i_phz)
    k_p = _axis_k(crystal, query.pol_pump, omega_s_phz + omega_i_phz)
    k_p_perp = k_s_perp + k_i_perp
    for k, kt in ((k_s, k_s_perp), (k_i, k_i_perp), (k_p, k_p_perp)):
        if kt**2 >= k**2:
            raise EvanescentTransverse("transverse wavevector exceeds total")
    kz_s = k_s - k_s_perp**2 / (2.0 * k_s)
    kz_i = k_i - k_i_perp**2 / (2.0 * k_i)
    kz_p = k_p - k_p_perp**2 / (2.0 * k_p)
    return float(kz_p - kz_s - kz_i + grating_vector(query, crystal))


def jsa_grid(pump: PumpSpec, coupling: CouplingSpec, crystal: CrystalSpec,
             grid: JsaGridSpec, query: PhaseMatchQuery,
             z_order: int = Z_QUAD_ORDER) -> JsaGrid:
    """Joint spectral probability |A_p^t(w_s + w_i) * theta(w_s, w_i)|^2.

    theta is the phase-matching overlap: per crystal slice the four transverse
    integrals reduce to (2 pi)^2 / det A(z) for a complex symmetric 2x2 form A,
    and the slice contributions are summed with z_order Gauss-Legendre nodes
    along the crystal. A(-z) is the conjugate of A(z), so theta is real; the
    sum is folded onto the nodes z >= 0, with the weights of the nodes z > 0
    doubled, and only its real part is computed. theta can change sign (the
    sinc lobes), and that sign is the amplitude's only phase. The returned
    grid is normalized to unit sum. Row blocks of the grid run on
    numerics.worker_map's threads, with the same result for any worker count.
    Collinear geometry only: DomainError for a nonzero query.signal_theta_rad.
    """
    if query.signal_theta_rad != 0.0:
        raise DomainError("the joint spectrum is collinear only",
                          field="signal_theta_rad")
    w_s = grid.signal_axis()
    w_i = grid.idler_axis()
    k_s = _axis_k(crystal, query.pol_signal, w_s)          # (n,)
    k_i = _axis_k(crystal, query.pol_idler, w_i)           # (n,)
    w_sum = w_s[:, None] + w_i[None, :]                    # (n, n)
    k_p = _axis_k(crystal, query.pol_pump, w_sum)          # (n, n)
    dk0 = k_p - k_s[:, None] - k_i[None, :] + grating_vector(query, crystal)

    # A(z) = A0 + i z A1 with the real matrices A0 = [[a_ss, a_si],
    # [a_si, a_ii]] of squared widths and A1 = [[g_ss, 1/k_p], [1/k_p, g_ii]],
    # so det A(z) = d0 - z^2 d2 + i z d1 with real coefficients.
    ws2 = coupling.signal_width_um**2
    wi2 = coupling.idler_width_um**2
    wp2 = pump.spatial_width_um**2
    a_ss, a_ii, a_si = ws2 + wp2, wi2 + wp2, wp2
    inv_kp = 1.0 / k_p
    g_ss = inv_kp - 1.0 / k_s[:, None]
    g_ii = inv_kp - 1.0 / k_i[None, :]
    d0 = a_ss * a_ii - a_si * a_si
    d1 = a_ss * g_ii + a_ii * g_ss - 2.0 * a_si * inv_kp
    d2 = g_ss * g_ii - inv_kp * inv_kp

    # The integrand at -z is the complex conjugate of the one at +z, so theta
    # is real: sum Re[e^{i dk0 z} / det A(z)] over the nodes z >= 0, the
    # weight doubled for z > 0 (a centre node of an odd order counts once).
    half_l = 0.5 * crystal.length_um
    nodes, weights = numerics.gauss_legendre(z_order)
    z_nodes = half_l * nodes[z_order // 2:]
    z_weights = half_l * weights[z_order // 2:]
    z_weights[z_nodes > 0] *= 2.0

    # exp(b^T A^-1 b / 2) factor from the offset fiber centres (x-direction
    # only; offsets are scalars along one axis): b^T adj(A) b = q0 + i z q1.
    b_s = ws2 * coupling.signal_offset_per_um
    b_i = wi2 * coupling.idler_offset_per_um
    has_offset = b_s != 0.0 or b_i != 0.0
    if has_offset:
        q0 = a_ii * b_s**2 - 2.0 * a_si * b_s * b_i + a_ss * b_i**2
        q1 = g_ii * b_s**2 - 2.0 * inv_kp * b_s * b_i + g_ss * b_i**2
    const_offset = math.exp(-0.5 * (ws2 * coupling.signal_offset_per_um**2
                                    + wi2 * coupling.idler_offset_per_um**2))

    def accumulate(rows: slice) -> np.ndarray:
        acc = np.zeros((rows.stop - rows.start, w_i.size))
        for z, wz in zip(z_nodes, z_weights):
            det_re = d0 - z * z * d2[rows]
            det_im = z * d1[rows]
            det2 = det_re * det_re + det_im * det_im
            phase = z * dk0[rows]
            if has_offset:
                # quad = (q0 + i z q1) / det: Im(quad)/2 joins the phase and
                # e^{Re(quad)/2} divides det2
                q1z = z * q1[rows]
                phase += 0.5 * (q1z * det_re - q0 * det_im) / det2
                det2 *= np.exp(-0.5 * (q0 * det_re + q1z * det_im) / det2)
            acc += wz * (np.cos(phase) * det_re + np.sin(phase) * det_im) / det2
        return acc

    # Row blocks of about JSA_BLOCK_CELLS cells keep each node's temporaries
    # small; threads take whole blocks, so the sums do not depend on them.
    n = w_s.size
    rows = max(1, JSA_BLOCK_CELLS // w_i.size)
    blocks = [slice(i, min(i + rows, n)) for i in range(0, n, rows)]
    theta = np.vstack(numerics.worker_map(accumulate, blocks))

    prefactor = (coupling.signal_width_um * coupling.idler_width_um
                 * pump.spatial_width_um / math.pi**1.5) * (2.0 * math.pi)**2
    psi = pump_temporal_amplitude(w_sum, pump) * prefactor * const_offset * theta
    return JsaGrid(w_s, w_i, psi**2)


def marginal(grid: JsaGrid, axis: str = "signal"):
    """Marginal distribution over one photon's frequency axis."""
    if axis == "signal":
        return grid.omega_s_phz, grid.probability.sum(axis=1)
    if axis == "idler":
        return grid.omega_i_phz, grid.probability.sum(axis=0)
    raise DomainError(f"axis must be 'signal' or 'idler', got {axis!r}")


def fit_gaussian_1d(omega_phz, values) -> GaussianFit1D:
    """Fit b + a exp(-4 ln2 (w - w0)^2 / F^2) to sampled intensity values."""
    x = np.asarray(omega_phz, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.size < 5:
        raise DegenerateFit("need at least 5 samples")
    if np.ptp(y) == 0:
        raise DegenerateFit("constant samples cannot constrain a Gaussian")

    bias0 = float(y.min())
    amp0 = float(y.max() - y.min())
    c0 = float(x[np.argmax(y)])
    above = x[y - bias0 >= 0.5 * amp0]
    fwhm0 = float(above.max() - above.min()) if above.size > 1 else float(np.ptp(x) / 4)
    fwhm0 = max(fwhm0, float(np.ptp(x)) / (x.size - 1))

    def model(p, xx):
        b, a, c, f = p
        if f <= 0:
            return np.full(np.shape(xx), np.nan)
        return b + a * np.exp(-4.0 * math.log(2.0) * (xx - c)**2 / f**2)

    res = numerics.least_squares_fit(model, x, y, [bias0, amp0, c0, fwhm0])
    b, a, c, f = res.parameters
    return GaussianFit1D(
        bias=float(b), amplitude=float(a), center_phz=float(c),
        fwhm_phz=float(abs(f)),
        standard_errors=tuple(res.standard_errors),
        rss=res.residual_sum_squares,
        dof=max(x.size - 4, 1),
    )


def _gaussian_2d(params, ws, wi):
    """amp exp(-q) at the points (ws, wi), broadcast against each other, q the
    bivariate-normal quadratic form; NaN everywhere for a width <= 0 or
    |rho| >= 1."""
    amp, ms, mi, ss, si, rho = params
    if ss <= 0 or si <= 0 or not -1 < rho < 1:
        return np.full(np.broadcast_shapes(np.shape(ws), np.shape(wi)), np.nan)
    us = (ws - ms) / ss
    ui = (wi - mi) / si
    q = (us**2 - 2.0 * rho * us * ui + ui**2) / (2.0 * (1.0 - rho**2))
    return amp * np.exp(-q)


def _gaussian_2d_jacobian(params, ws, wi, values):
    """Derivatives of _gaussian_2d with respect to (amp, ms, mi, ss, si, rho),
    given its values f at params (ws and wi broadcast to the shape of f), as
    an (f.size, 6) matrix: the transposed view of one (6, f.size) array.

    With c = 1 - rho^2: df/dms = f (us - rho ui) / (c ss), df/dss = us df/dms,
    the idler pair likewise, and df/drho = f (us ui - 2 rho q) / c.
    """
    amp, ms, mi, ss, si, rho = params
    us = (ws - ms) / ss
    ui = (wi - mi) / si
    c = 1.0 - rho**2
    q = (us**2 - 2.0 * rho * us * ui + ui**2) / (2.0 * c)
    out = np.empty((6,) + values.shape)
    d_amp, d_ms, d_mi, d_ss, d_si, d_rho = out
    np.divide(values, amp, out=d_amp)
    np.multiply(values, us - rho * ui, out=d_ms)
    d_ms /= c * ss
    np.multiply(values, ui - rho * us, out=d_mi)
    d_mi /= c * si
    np.multiply(us, d_ms, out=d_ss)
    np.multiply(ui, d_mi, out=d_si)
    np.multiply(values, us * ui - 2.0 * rho * q, out=d_rho)
    d_rho /= c
    return out.reshape(6, -1).T


def fit_gaussian_2d(grid: JsaGrid) -> GaussianFit2D:
    """Fit a bivariate normal surface to the joint probability grid."""
    ws = grid.omega_s_phz
    wi = grid.omega_i_phz
    p = grid.probability
    if np.ptp(p) == 0:
        raise DegenerateFit("degenerate grid support")

    mu_s, mu_i, var_s, var_i, cov = numerics.grid_moments(ws, wi, p)
    rho0 = cov / math.sqrt(var_s * var_i) if var_s > 0 and var_i > 0 else 0.0
    rho0 = max(min(rho0, 0.999), -0.999)
    amp0 = float(p.max())

    # The model and its Jacobian are evaluated on the tensor grid by
    # broadcasting the axes; the fit sees the j-major flattened grid.
    ws_col = ws[:, None]
    wi_row = wi[None, :]
    x = np.arange(p.size, dtype=float)

    def model(params, _):
        return _gaussian_2d(params, ws_col, wi_row).ravel()

    def jacobian(params, _, values):
        return _gaussian_2d_jacobian(params, ws_col, wi_row, values.reshape(p.shape))

    start = [amp0, mu_s, mu_i, math.sqrt(var_s), math.sqrt(var_i), rho0]
    res = numerics.least_squares_fit(model, x, p.ravel(), start, jacobian=jacobian)
    amp, ms, mi, ss, si, rho = res.parameters
    return GaussianFit2D(
        amplitude=float(amp), signal_center_phz=float(ms), idler_center_phz=float(mi),
        signal_sigma_phz=float(abs(ss)), idler_sigma_phz=float(abs(si)),
        pearson=float(rho), standard_errors=tuple(res.standard_errors),
        near_singular=bool(abs(rho) > 1.0 - 1e-6),
        rss=res.residual_sum_squares,
    )


def screening_mask(fits, mismatches_per_um, p_value_max: float = 0.01,
                   mismatch_max_per_um: float = 1e-4) -> np.ndarray:
    """Measurement screen: keep points whose Gaussian-fit parameters are all
    significant (p-value below the threshold) and whose computed collinear
    mismatch magnitude stays below the cutoff."""
    keep = []
    for fit, dk in zip(fits, mismatches_per_um):
        significant = all(pv < p_value_max for pv in fit.p_values if np.isfinite(pv))
        keep.append(significant and abs(dk) < mismatch_max_per_um)
    return np.asarray(keep, dtype=bool)
