"""Joint spectral probability of the fiber-coupled photon pair.

Frequencies are angular, in PHz (rad/fs); lengths in um; times in fs. The
four transverse wavevector integrals are evaluated in closed form as complex
Gaussian quadratic forms, leaving one numerical integral along the crystal.
The crystal is centred on z = 0 and the integrand at -z is the complex
conjugate of the one at +z, so that integral is real (Grice & Walmsley,
Phys. Rev. A 56, 1627, 1997). It is a Filon-Legendre sum: the smooth part of
the integrand is expanded in Legendre polynomials from its values at the
Gauss-Legendre nodes z >= 0, and each term's product with the oscillating
phase is integrated exactly as a spherical Bessel function, all in real
arithmetic. The node count doubles until an error estimate meets
Z_QUAD_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .dispersion import grating_vector, refractive_index
from .errors import (
    DegenerateFit,
    DegenerateGrid,
    DomainError,
    QuadratureNotConverged,
)
from .numerics import C_UM_PER_FS
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
    "jsa_grid",
    "marginal",
    "fit_gaussian_1d",
    "fit_gaussian_2d",
]

Z_QUAD_ORDER = 16          # starting node count of the crystal quadrature
Z_QUAD_MAX_ORDER = 1024
Z_QUAD_TOL = 1e-10         # Legendre-tail estimate over the peak amplitude
# Node-array floats per block of jsa_grid cells, about 1 MB, and the size of
# the node buffer a grid reuses for its blocks: with a block's own cell terms,
# all the memory a grid takes besides its output, which holds the amplitudes
# until they are squared and normalized in place.
JSA_BLOCK_VALUES = 120_000
# Largest |rho| at which the 2D fit builds its normal equations from grid
# moments; the dense Jacobian above it (see _GaussianMoments).
MOMENT_RHO_MAX = 0.995


def omega_phz_from_wavelength_um(wavelength_um):
    return 2.0 * math.pi * C_UM_PER_FS / np.asarray(wavelength_um, dtype=float)


def wavelength_um_from_omega_phz(omega_phz):
    return 2.0 * math.pi * C_UM_PER_FS / np.asarray(omega_phz, dtype=float)


@dataclass(frozen=True)
class JsaGrid:
    """Joint spectral probability, normalized to unit sum when built and
    stored read-only; DegenerateGrid unless the given values sum to a positive
    number. A grid from jsa_grid also carries its crystal quadrature: the
    node count it converged at and its error estimate relative to the peak
    amplitude (None for a grid built from given values)."""

    omega_s_phz: np.ndarray
    omega_i_phz: np.ndarray
    probability: np.ndarray  # [j, k] = p(omega_s[j], omega_i[k])
    quadrature_order: int | None = None
    quadrature_error: float | None = None

    def __post_init__(self):
        probability = self.probability / _grid_total(self.probability)
        probability.flags.writeable = False
        object.__setattr__(self, "probability", probability)

    @classmethod
    def _of(cls, omega_s_phz, omega_i_phz, probability, quadrature_order=None,
            quadrature_error=None) -> "JsaGrid":
        """The grid of these fields as they are, `probability` (already of
        unit sum, and no caller's array) made read-only, not copied."""
        grid = object.__new__(cls)
        probability.flags.writeable = False
        for name, value in (("omega_s_phz", omega_s_phz),
                            ("omega_i_phz", omega_i_phz),
                            ("probability", probability),
                            ("quadrature_order", quadrature_order),
                            ("quadrature_error", quadrature_error)):
            object.__setattr__(grid, name, value)
        return grid


def _grid_total(probability) -> float:
    """The sum a grid's probabilities are divided by; DegenerateGrid unless it
    is positive (a NaN in the grid makes it NaN)."""
    total = float(probability.sum())
    if not total > 0:
        raise DegenerateGrid(f"grid probabilities sum to {total}")
    return total


@dataclass(frozen=True)
class GaussianFit1D:
    """b + a * exp(-4 ln2 (omega - center)^2 / fwhm^2) fitted to samples."""

    bias: float
    amplitude: float
    center_phz: float
    fwhm_phz: float
    standard_errors: tuple[float, float, float, float]
    rss: float


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


def _upward_first(count: int, omega) -> np.ndarray:
    """The order of the points `omega` that _spherical_j(count, .) takes: the
    points with |omega| > count, where j_k recurs upward, first."""
    return np.argsort(np.abs(omega) <= count, kind="stable")


def _spherical_j(count: int, omega, out=None) -> np.ndarray:
    """Spherical Bessel functions j_0 .. j_{count-1} (count >= 2) at the
    points `omega`, listed in the order _upward_first(count, omega) gives, as
    a (count, omega.size) array, written to `out` when given; one sin/cos
    pair per point, numpy alone.

    Where |omega| > count the upward recurrence j_{k+1} = (2k+1)/omega j_k -
    j_{k-1} from j_0 = sin(omega)/omega and j_1 = (j_0 - cos(omega))/omega is
    stable. Elsewhere Miller's downward recurrence (Gautschi, SIAM Rev. 9, 24,
    1967) runs in its ratio form rho_k = j_k/j_{k-1} = omega/(2k+1 - omega
    rho_{k+1}), started at rest far enough above count to have converged; the
    ratios neither overflow nor lose the tiny values at small |omega|, and 0
    needs no series. The sequence they give is scaled by the least-squares fit
    of its first two terms to j_0 and j_1, which holds its accuracy at a zero
    of either.
    """
    w = np.asarray(omega, dtype=float).ravel()
    n_up = int(np.count_nonzero(np.abs(w) > count))
    nonzero = w != 0.0
    j = np.empty((count, w.size)) if out is None else out
    j0 = np.divide(np.sin(w), w, out=j[0], where=nonzero)
    j0[~nonzero] = 1.0
    j1 = np.divide(j0 - np.cos(w), w, out=j[1], where=nonzero)
    j1[~nonzero] = 0.0

    inv = 1.0 / w[:n_up]
    for k in range(1, count - 1):
        row = np.multiply(j[k, :n_up], inv, out=j[k + 1, :n_up])
        row *= 2 * k + 1
        row -= j[k - 1, :n_up]

    low = w[n_up:]
    if low.size:
        f = j[:, n_up:]
        rho = np.zeros_like(low)
        den = np.empty_like(low)
        # the start index converges the ratios to rounding for |omega| <= count
        for k in range(count + int(6.0 * count ** (1.0 / 3.0)) + 4, 1, -1):
            np.multiply(low, rho, out=den)
            np.subtract(2 * k + 1, den, out=den)
            rho = np.divide(low, den, out=f[k] if k < count else rho)
        # f_0 = 3 - omega rho_2 and f_1 = omega keep the ratios of j_0, j_1
        # and j_2 and stay finite at every omega; both take the scale that
        # fits them to j_0 and j_1 before the products f_k = f_{k-1} rho_k
        f0 = np.multiply(low, rho, out=den)
        np.subtract(3.0, f0, out=f0)
        scale = f[0] * f0
        scale += f[1] * low
        scale /= np.square(f0) + np.square(low)
        np.multiply(f0, scale, out=f[0])
        np.multiply(low, scale, out=f[1])
        for k in range(2, count):
            f[k] *= f[k - 1]
    return j


def _filon_tables(m: int):
    """(t, even, odd): the m-node Gauss-Legendre nodes t >= 0 on [-1, 1], and
    the matrices that map g at those nodes onto i^k c_k, c_k the Legendre
    coefficients of g, for even k from Re g and for odd k from -Im g.

    c_k = (k + 1/2) sum_j w_j g(t_j) P_k(t_j). As g(-t) is the conjugate of
    g(t), a node pair +-t contributes 2 w P_k(t) Re g(t) for even k and
    2i w P_k(t) Im g(t) for odd k, and i^k c_k is real: the sign (-1)^(k/2)
    or (-1)^((k+1)/2), both (-1)^floor((k+1)/2), goes into the matrix row,
    and the sign of -Im g into `odd`. A node at t = 0 (odd m) counts once."""
    from numpy.polynomial.legendre import legvander

    nodes, weights = numerics.gauss_legendre(m)
    t = nodes[m // 2:]
    w = weights[m // 2:] * np.where(t > 0, 2.0, 1.0)
    k = np.arange(m)
    rows = ((-1.0) ** ((k + 1) // 2) * (k + 0.5))[:, None] * legvander(t, m - 1).T * w
    return t, np.ascontiguousarray(rows[0::2]), -np.ascontiguousarray(rows[1::2])


def jsa_grid(pump: PumpSpec, coupling: CouplingSpec, crystal: CrystalSpec,
             grid: JsaGridSpec, query: PhaseMatchQuery,
             z_order: int = Z_QUAD_ORDER) -> JsaGrid:
    """Joint spectral probability |A_p^t(w_s + w_i) * theta(w_s, w_i)|^2.

    theta = int e^{i dk0 z} g(z) dz over the crystal is the phase-matching
    overlap: per crystal slice the four transverse integrals reduce to
    g = (2 pi)^2 exp(quad/2) / det A(z) for a complex symmetric 2x2 form A,
    the exp factor from the fiber offsets. Only e^{i dk0 z} oscillates, so
    the sum is a Filon-Legendre one (Filon, Proc. R. Soc. Edinburgh 49, 38,
    1928; Iserles & Norsett, Proc. R. Soc. A 461, 1383, 2005): the smooth g
    is expanded in Legendre polynomials from m Gauss nodes along the crystal,
    and each term is integrated exactly, int_{-1}^{1} e^{i w t} P_k(t) dt =
    2 i^k j_k(w) (Abramowitz & Stegun 10.1.14), so a cell costs the same at
    any mismatch. A(-z) is the conjugate of A(z), so theta is real and is
    summed in real arithmetic from the nodes z >= 0; it can change sign (the
    sinc lobes), and that sign is the amplitude's only phase.

    m starts at z_order and doubles, for the whole grid, until the Legendre
    tail L (|c_{m-1}| + |c_{m-2}|) |A_p| (|j_k| <= 1 makes it valid at every
    mismatch) is within Z_QUAD_TOL of the largest |A_p theta|;
    QuadratureNotConverged if Z_QUAD_MAX_ORDER nodes do not get there. The
    returned grid is normalized to unit sum and carries m and that relative
    error estimate. Blocks of grid cells are summed one after another. Each
    builds its own cell terms (k_p, the mismatch, the coefficients of det A
    and the pump amplitude) from the axes, every value as it would be on the
    whole grid, and keeps only its largest |A_p theta| and tail: the grid
    takes its n^2 output, which holds A_p theta until it is squared and
    normalized in place, and one block's temporaries (see JSA_BLOCK_VALUES).
    Each doubling of m builds the cell terms again. A Sellmeier check that
    fails in any block raises what the check over the whole grid would.
    Pump, signal and idler are collinear, along the poling axis.
    """
    w_s = grid.signal_axis()
    w_i = grid.idler_axis()
    k_s = _axis_k(crystal, query.pol_signal, w_s)          # (n_s,)
    k_i = _axis_k(crystal, query.pol_idler, w_i)           # (n_i,)
    inv_ks, inv_ki = 1.0 / k_s, 1.0 / k_i
    grating = grating_vector(query, crystal)
    half_l = 0.5 * crystal.length_um

    # A(z) = A0 + i z A1 with the real matrices A0 = [[a_ss, a_si],
    # [a_si, a_ii]] of squared widths and A1 = [[g_ss, 1/k_p], [1/k_p, g_ii]],
    # so det A(z) = d0 - z^2 d2 + i z d1 with real coefficients.
    ws2 = coupling.signal_width_um**2
    wi2 = coupling.idler_width_um**2
    wp2 = pump.spatial_width_um**2
    a_ss, a_ii, a_si = ws2 + wp2, wi2 + wp2, wp2
    d0 = a_ss * a_ii - a_si * a_si

    # exp(b^T A^-1 b / 2) factor from the offset fiber centres (x-direction
    # only; offsets are scalars along one axis): b^T adj(A) b = q0 + i z q1.
    b_s = ws2 * coupling.signal_offset_per_um
    b_i = wi2 * coupling.idler_offset_per_um
    has_offset = b_s != 0.0 or b_i != 0.0
    q0 = a_ii * b_s**2 - 2.0 * a_si * b_s * b_i + a_ss * b_i**2
    const_offset = math.exp(-0.5 * (ws2 * coupling.signal_offset_per_um**2
                                    + wi2 * coupling.idler_offset_per_um**2))
    prefactor = (coupling.signal_width_um * coupling.idler_width_um
                 * pump.spatial_width_um / math.pi**1.5) * (2.0 * math.pi)**2
    scale = prefactor * const_offset * crystal.length_um

    def cell_terms(cells: slice):
        """The phase omega = dk0 L/2, d1, d2, q1 (None without offsets) and the
        pump amplitude A_p on a block of cells of the row-major grid, cell
        idx at (w_s[idx // n_i], w_i[idx % n_i]); each value is the one its
        expression gives on the whole grid."""
        rows, cols = np.divmod(np.arange(cells.start, cells.stop), w_i.size)
        w_sum = w_s[rows] + w_i[cols]
        k_p = _axis_k(crystal, query.pol_pump, w_sum)
        omega = (k_p - k_s[rows] - k_i[cols] + grating) * half_l
        inv_kp = 1.0 / k_p
        g_ss = inv_kp - inv_ks[rows]
        g_ii = inv_kp - inv_ki[cols]
        d1 = a_ss * g_ii + a_ii * g_ss - 2.0 * a_si * inv_kp
        d2 = g_ss * g_ii - inv_kp * inv_kp
        q1 = (g_ii * b_s**2 - 2.0 * inv_kp * b_s * b_i + g_ss * b_i**2
              if has_offset else None)
        return omega, d1, d2, q1, pump_temporal_amplitude(w_sum, pump)

    size = w_s.size * w_i.size
    psi = np.empty(size)   # A_p scale theta, squared in place at the end

    def accumulate(cells: slice, buf) -> tuple[float, float]:
        """theta at m nodes on a block of cells, with g at the nodes as rows
        of (nodes, cells) arrays in the node buffer buf, the cells in the
        order _spherical_j takes them. Writes A_p scale theta to psi[cells]
        and returns the block's largest |A_p theta| and A_p tail, the tail
        the Legendre coefficients' |c_{m-1}| + |c_{m-2}|."""
        omega, d1, d2, q1, amplitude = cell_terms(cells)
        t, even, odd = tables
        half = even.shape[0]
        order = _upward_first(m, omega)
        # (2 nodes, cells) rows of the buffer: low takes |det|^2 and then the
        # coefficients, high takes det and then the j_k
        low, high = buf[:4 * nodes * omega.size].reshape(2, 2 * nodes, omega.size)
        # g = exp(quad/2) conj(det) / |det|^2 at the nodes
        z = half_l * t[:, None]
        det_re = np.multiply(d2[order], -(z * z), out=high[:nodes])
        det_re += d0
        det_im = np.multiply(z, d1[order], out=high[nodes:])
        det2 = np.square(det_re, out=low[:nodes])
        det2 += np.square(det_im, out=low[nodes:])
        if has_offset:
            # quad = (q0 + i z q1) / det: Im(quad)/2 turns conj(det) and
            # e^{Re(quad)/2} divides det2
            q1z = z * q1[order]
            phase = 0.5 * (q1z * det_re - q0 * det_im) / det2
            det2 *= np.exp(-0.5 * (q0 * det_re + q1z * det_im) / det2)
            cos, sin = np.cos(phase), np.sin(phase)
            det_re, det_im = cos * det_re + sin * det_im, cos * det_im - sin * det_re
        det_re /= det2                          # Re g
        det_im /= det2                          # -Im g
        coef = low[:m]                          # i^k c_k: even k, then odd k
        np.matmul(even, det_re, out=coef[:half])
        np.matmul(odd, det_im, out=coef[half:])
        del det_re, det_im
        j = _spherical_j(m, omega[order], out=high[:m])
        theta = np.empty(order.size)           # theta / L
        theta[order] = (np.einsum("kc,kc->c", coef[:half], j[0::2])
                        + np.einsum("kc,kc->c", coef[half:], j[1::2]))
        tail = np.empty(order.size)
        tail[order] = np.abs(coef[half - 1]) + np.abs(coef[-1])
        np.multiply(amplitude * scale, theta, out=psi[cells])
        return np.abs(amplitude * theta).max(), (amplitude * tail).max()

    # Blocks of consecutive cells of the row-major grid. A block's node arrays
    # take 2 m floats a cell (2 m + 2 for odd m) of one JSA_BLOCK_VALUES-float
    # buffer that every block reuses, at every m, so that its pages are not
    # returned to the system and faulted in again block after block. (glibc
    # also keeps up to twice the largest block it has unmapped in its heap,
    # which spares the fit and the CSV writer the same churn afterwards.)
    # With the block's other temporaries, its cell terms among them, a block
    # holds about 2 m + 8 floats a cell, 5 m + 8 with offsets, which keeps it
    # within JSA_BLOCK_VALUES floats at every m.
    buf = np.empty(0)
    m = z_order
    while True:
        step = max(1, JSA_BLOCK_VALUES // ((5 if has_offset else 2) * m + 8))
        tables = _filon_tables(m)
        nodes = tables[0].size
        if buf.size < 4 * nodes * step:   # at the first m, or when step is 1
            buf = np.empty(max(JSA_BLOCK_VALUES, 4 * nodes * step))
        try:
            maxima = [accumulate(slice(start, min(start + step, size)), buf)
                      for start in range(0, size, step)]
        except DomainError:
            # A Sellmeier check that fails in some block: raise what the check
            # on the whole grid raises, whose test order spans every cell.
            _axis_k(crystal, query.pol_pump, w_s[:, None] + w_i[None, :])
            raise
        peak, error = map(float, np.max(maxima, axis=0))
        if not error > Z_QUAD_TOL * peak:   # a NaN grid fails in _grid_total
            break
        if m >= Z_QUAD_MAX_ORDER:
            relative = error / peak if peak > 0 else math.inf
            raise QuadratureNotConverged(
                f"Filon-Legendre sum along the crystal: error estimate "
                f"{relative:.3g} of the peak at {m} nodes, above {Z_QUAD_TOL:g}",
                order=m, error_estimate=relative)
        m = min(2 * m, Z_QUAD_MAX_ORDER)

    del buf
    # |A_p theta|^2 normalized in place: psi is this call's own array, so the
    # grid takes it without the n^2 copy a JsaGrid built from values makes
    probability = np.square(psi, out=psi).reshape(w_s.size, w_i.size)
    probability /= _grid_total(probability)
    return JsaGrid._of(w_s, w_i, probability, quadrature_order=m,
                       quadrature_error=error / peak if peak > 0 else 0.0)


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
    # amp exp(-(us^2 - 2 rho us ui + ui^2) / (2 (1 - rho^2))), each operation
    # in that order, in place in the one array of the broadcast shape
    out = np.multiply(2.0 * rho * us, ui)
    np.subtract(us**2, out, out=out)
    out += ui**2
    out /= 2.0 * (1.0 - rho**2)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= amp
    return out


def _gaussian_2d_jacobian(params, ws, wi, values):
    """Derivatives of _gaussian_2d with respect to (amp, ms, mi, ss, si, rho),
    given its values f at params (ws and wi broadcast to the shape of f), as
    an (f.size, 6) matrix: the transposed view of one (6, f.size) array.

    With c = 1 - rho^2: df/dms = f (us - rho ui) / (c ss), df/dss = us df/dms,
    the idler pair likewise, and df/drho = f (us ui - 2 rho q) / c.
    The 2D fit uses it above |rho| = MOMENT_RHO_MAX, where _GaussianMoments
    loses precision, and the tests take it as the reference.
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


# The monomials us^a ui^b of degree <= 2 that the Jacobian columns expand in.
_MONO_A = np.array([0, 1, 0, 2, 1, 0])
_MONO_B = np.array([0, 0, 1, 0, 1, 2])


class _GaussianMoments:
    """J^T J and J^T v of _gaussian_2d on the tensor grid ws x wi, from
    moments of the grid instead of the (ws.size * wi.size, 6) Jacobian.

    Column j of the Jacobian is f P_j(us, ui), P_j a polynomial of degree
    <= 2 with coefficients coef[j] on the monomials us^a ui^b above, us one
    value per row of the grid and ui one per column. So
    J^T J = coef H coef^T, H[m, n] the moment sum f^2 us^(a_m + a_n)
    ui^(b_m + b_n), and J^T v = coef N, N[m] the sum f v us^a_m ui^b_m. Each
    table of moments is Vs^T (f^2 or f v) Vi, with Vs and Vi the Vandermonde
    matrices of us and ui. The coefficients grow as 1/(1 - rho^2) and the
    sums cancel as |rho| -> 1. On 300 x 300 grids spanning +-4 or +-20
    widths, at parameters up to half a width off the grid's own, J^T J
    agrees with the dense product to 1.2e-11 of sqrt(A_ii A_ll) at
    |rho| = 0.99, 5.5e-11 at 0.995 and 2.6e-8 at 0.999, and not at all at
    0.9999 (an error of 1.8); J^T v agrees to 1e-14 of sqrt(A_ii) |v| up to
    0.999. So the fit uses the moments only up to |rho| = MOMENT_RHO_MAX.
    """

    def __init__(self, params, ws, wi, values):
        amp, ms, mi, ss, si, rho = params
        c = 1.0 - rho**2
        self.vs = np.vander((ws - ms) / ss, 5, increasing=True)
        self.vi = np.vander((wi - mi) / si, 5, increasing=True)
        self.f = values
        # One row per parameter, one column per monomial: (us - rho ui)/(c ss)
        # for ms, us times that for ss, the idler pair likewise, and
        # (us ui - 2 rho q)/c for rho.
        coef = np.zeros((6, 6))
        coef[0, 0] = 1.0 / amp
        coef[1, [1, 2]] = coef[3, [3, 4]] = np.array([1.0, -rho]) / (c * ss)
        coef[2, [2, 1]] = coef[4, [5, 4]] = np.array([1.0, -rho]) / (c * si)
        coef[5, [3, 4, 5]] = np.array([-rho, 1.0 + rho**2, -rho]) / c**2
        self.coef = coef

    def gram(self):
        m = self.vs.T @ (self.f * self.f) @ self.vi
        h = m[_MONO_A[:, None] + _MONO_A, _MONO_B[:, None] + _MONO_B]
        return self.coef @ h @ self.coef.T

    def rmatvec(self, v):
        n = self.vs[:, :3].T @ (self.f * v.reshape(self.f.shape)) @ self.vi[:, :3]
        return self.coef @ n[_MONO_A, _MONO_B]


def fit_gaussian_2d(grid: JsaGrid) -> GaussianFit2D:
    """Fit a bivariate normal surface to the joint probability grid.

    Each Jacobian call gives the fitter the normal-equation products from grid
    moments (_GaussianMoments) while the iterate's |rho| <= MOMENT_RHO_MAX
    (0.995), and the dense Jacobian above it, where the moments lose
    precision: J^T J agrees with the dense product to 5.5e-11 of its diagonal
    scale at |rho| = 0.995 and 2.6e-8 at 0.999. The fit is unweighted, as the
    moment form requires."""
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
    # broadcasting the axes; the fit sees the j-major flattened grid. Neither
    # reads the fitter's x, so it is one zero-stride value per point.
    ws_col = ws[:, None]
    wi_row = wi[None, :]
    x = np.broadcast_to(0.0, p.size)

    def model(params, _):
        return _gaussian_2d(params, ws_col, wi_row).ravel()

    def jacobian(params, _, values):
        values = values.reshape(p.shape)
        if abs(params[5]) > MOMENT_RHO_MAX:
            return _gaussian_2d_jacobian(params, ws_col, wi_row, values)
        return _GaussianMoments(params, ws, wi, values)

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
