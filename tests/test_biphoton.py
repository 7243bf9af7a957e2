import dataclasses
import math

import numpy as np
import pytest

from photonkit import biphoton, numerics, phasematch
from photonkit.biphoton import (
    CouplingSpec,
    JsaGrid,
    JsaGridSpec,
    PumpSpec,
    envelope_tau_from_reciprocal_sigma,
    fit_gaussian_1d,
    fit_gaussian_2d,
    fwhm_omega_to_tau,
    jsa_grid,
    marginal,
    omega_phz_from_wavelength_um,
    pump_temporal_amplitude,
    wavelength_um_from_omega_phz,
)
from photonkit.errors import (
    DegenerateFit,
    DegenerateGrid,
    DomainError,
    NegativeRadicand,
    PoleProximity,
    QuadratureNotConverged,
)


class TestConversions:
    def test_omega_wavelength_inverse(self):
        lam = 0.5331
        assert wavelength_um_from_omega_phz(
            omega_phz_from_wavelength_um(lam)) == pytest.approx(lam, rel=1e-15)

    def test_fwhm_to_tau_reference_pair(self):
        assert fwhm_omega_to_tau(0.01763) == pytest.approx(314.5, abs=0.05)

    def test_fwhm_to_tau_fourier(self):
        f = 0.01763
        assert fwhm_omega_to_tau(f, "fourier") == pytest.approx(
            2.0 * math.sqrt(math.log(2.0)) / f)

    def test_fwhm_reciprocal_scaling(self):
        assert fwhm_omega_to_tau(0.02) == pytest.approx(
            0.5 * fwhm_omega_to_tau(0.01))

    def test_fwhm_validation(self):
        with pytest.raises(DomainError):
            fwhm_omega_to_tau(0.0)
        with pytest.raises(DomainError):
            fwhm_omega_to_tau(0.01, "nonsense")

    def test_envelope_tau(self):
        assert envelope_tau_from_reciprocal_sigma(94.58) == pytest.approx(
            94.58 / math.sqrt(2.0))
        with pytest.raises(DomainError):
            envelope_tau_from_reciprocal_sigma(0.0)


class TestPumpEnvelope:
    PUMP = PumpSpec(central_frequency_phz=4.7375, pulse_duration_fs=94.447,
                    spatial_width_um=48.0)

    def test_peak_value(self):
        tau = self.PUMP.pulse_duration_fs
        assert pump_temporal_amplitude(4.7375, self.PUMP) == pytest.approx(
            math.sqrt(tau) / math.pi**0.25)

    def test_symmetry(self):
        lo = pump_temporal_amplitude(4.7375 - 0.01, self.PUMP)
        hi = pump_temporal_amplitude(4.7375 + 0.01, self.PUMP)
        assert lo == pytest.approx(hi, rel=1e-14)

    def test_intensity_normalization(self):
        f = lambda w: pump_temporal_amplitude(w, self.PUMP) ** 2
        got = numerics.integrate(f, 4.7375 - 0.08, 4.7375 + 0.08, order=200)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_validation(self):
        with pytest.raises(DomainError):
            PumpSpec(central_frequency_phz=-1.0, pulse_duration_fs=1.0,
                     spatial_width_um=1.0)

    @pytest.mark.parametrize("name", ["central_frequency_phz",
                                      "pulse_duration_fs", "spatial_width_um"])
    def test_validation_names_the_field(self, name):
        values = dict(central_frequency_phz=1.0, pulse_duration_fs=1.0,
                      spatial_width_um=1.0)
        values[name] = 0.0
        with pytest.raises(DomainError) as info:
            PumpSpec(**values)
        assert info.value.field == name


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            JsaGridSpec(n=8, range_fraction=0.02, signal_center_phz=1.0,
                        idler_center_phz=1.0)
        with pytest.raises(DomainError):
            JsaGridSpec(n=32, range_fraction=0.6, signal_center_phz=1.0,
                        idler_center_phz=1.0)

    def test_axis_bounds(self):
        g = JsaGridSpec(n=33, range_fraction=0.1, signal_center_phz=2.0,
                        idler_center_phz=1.0)
        ws = g.signal_axis()
        assert ws[0] == pytest.approx(1.8)
        assert ws[-1] == pytest.approx(2.2)
        assert ws.size == 33

    def test_independent_idler_count(self):
        g = JsaGridSpec(n=32, range_fraction=0.1, signal_center_phz=2.0,
                        idler_center_phz=1.0, idler_n=48)
        assert g.signal_axis().size == 32
        assert g.idler_axis().size == 48

    def test_idler_count_validated(self):
        with pytest.raises(DomainError) as info:
            JsaGridSpec(n=32, range_fraction=0.1, signal_center_phz=2.0,
                        idler_center_phz=1.0, idler_n=8)
        assert info.value.field == "idler_n"


@pytest.fixture(scope="module")
def small_grid(vis_ir_setup):
    s = vis_ir_setup
    g = JsaGridSpec(n=48, range_fraction=0.02,
                    signal_center_phz=s["signal_center"],
                    idler_center_phz=s["idler_center"])
    return jsa_grid(s["pump"], s["coupling"], s["crystal"], g, s["query"])


class TestJsaGrid:
    def test_normalized(self, small_grid):
        assert small_grid.probability.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(small_grid.probability >= 0)

    def test_antidiagonal_support(self, small_grid, vis_ir_setup):
        # pump envelope confines meaningful cells to a band around the
        # energy-conservation anti-diagonal
        pump = vis_ir_setup["pump"]
        p = small_grid.probability
        mask = p > 1e-3 * p.max()
        wsum = (small_grid.omega_s_phz[:, None]
                + small_grid.omega_i_phz[None, :])
        dev = np.abs(wsum - pump.central_frequency_phz)
        assert np.all(dev[mask] <= 4.0 / pump.pulse_duration_fs)

    @pytest.mark.parametrize("fill", [0.0, math.nan])
    def test_normalize_rejects_sum_not_positive(self, fill):
        # the grid is normalized when built; a NaN sum fails `not total > 0`
        with pytest.raises(DegenerateGrid):
            JsaGrid(np.arange(16.0), np.arange(16.0), np.full((16, 16), fill))

    def test_built_normalized_and_read_only(self):
        values = np.arange(1.0, 17.0).reshape(4, 4)
        grid = JsaGrid(np.arange(4.0), np.arange(4.0), values)
        assert grid.probability.sum() == pytest.approx(1.0, abs=1e-15)
        # the input array is copied, and left as it was
        assert np.array_equal(values, np.arange(1.0, 17.0).reshape(4, 4))
        assert values.flags.writeable
        assert not np.shares_memory(grid.probability, values)
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.probability = values
        with pytest.raises(ValueError):
            grid.probability[0, 0] = 0.0

    def test_pump_off_the_grid_is_degenerate(self, vis_ir_setup):
        # the pump envelope underflows to zero on every cell
        s = vis_ir_setup
        pump = PumpSpec(central_frequency_phz=2.0 * s["pump"].central_frequency_phz,
                        pulse_duration_fs=s["pump"].pulse_duration_fs,
                        spatial_width_um=s["pump"].spatial_width_um)
        g = JsaGridSpec(n=16, range_fraction=0.02,
                        signal_center_phz=s["signal_center"],
                        idler_center_phz=s["idler_center"])
        with pytest.raises(DegenerateGrid):
            jsa_grid(pump, s["coupling"], s["crystal"], g, s["query"])

    def test_quadrature_fields(self, small_grid):
        # a grid built from given values has no quadrature to report
        plain = JsaGrid(np.arange(4.0), np.arange(4.0), np.ones((4, 4)))
        assert plain.quadrature_order is None and plain.quadrature_error is None
        assert small_grid.quadrature_order >= biphoton.Z_QUAD_ORDER
        assert 0.0 < small_grid.quadrature_error <= biphoton.Z_QUAD_TOL

    def test_rectangular_grid_shape(self, vis_ir_setup):
        s = vis_ir_setup
        g = JsaGridSpec(n=20, range_fraction=0.02,
                        signal_center_phz=s["signal_center"],
                        idler_center_phz=s["idler_center"], idler_n=36)
        grid = jsa_grid(s["pump"], s["coupling"], s["crystal"], g, s["query"])
        assert grid.probability.shape == (20, 36)

    def test_cw_limit_anticorrelated(self, telecom_setup):
        # a 10 ps pump leaves only the energy-conservation ridge
        s = telecom_setup
        pump = PumpSpec(central_frequency_phz=s["pump_sum_phz"],
                        pulse_duration_fs=10000.0, spatial_width_um=41.0)
        g = JsaGridSpec(n=64, range_fraction=0.003,
                        signal_center_phz=s["signal_center"],
                        idler_center_phz=s["idler_center"])
        grid = jsa_grid(pump, s["coupling"], s["crystal"], g, s["query"])
        fit = fit_gaussian_2d(grid)
        assert fit.pearson < -0.9



def _reference_jsa(pump, coupling, crystal, grid, query, z_order=1024):
    """The plain quadrature: every Gauss-Legendre node along the crystal, in
    complex arithmetic, converged at the default 1024 nodes on the kernel
    cases. Returns the normalized probability and theta."""
    w_s, w_i = grid.signal_axis(), grid.idler_axis()
    k_s = biphoton._axis_k(crystal, query.pol_signal, w_s)[:, None]
    k_i = biphoton._axis_k(crystal, query.pol_idler, w_i)[None, :]
    w_sum = w_s[:, None] + w_i[None, :]
    k_p = biphoton._axis_k(crystal, query.pol_pump, w_sum)
    dk0 = k_p - k_s - k_i + phasematch.grating_vector(query, crystal)
    ws2, wi2 = coupling.signal_width_um**2, coupling.idler_width_um**2
    wp2 = pump.spatial_width_um**2
    b_s = ws2 * coupling.signal_offset_per_um
    b_i = wi2 * coupling.idler_offset_per_um
    nodes, weights = numerics.gauss_legendre(z_order)
    half_l = 0.5 * crystal.length_um
    theta = np.zeros(w_sum.shape, dtype=complex)
    for z, wz in zip(half_l * nodes, half_l * weights):
        a_ss = ws2 + wp2 + 1j * z * (1.0 / k_p - 1.0 / k_s)
        a_ii = wi2 + wp2 + 1j * z * (1.0 / k_p - 1.0 / k_i)
        a_si = wp2 + 1j * z / k_p
        det = a_ss * a_ii - a_si * a_si
        quad = (a_ii * b_s**2 - 2.0 * a_si * b_s * b_i + a_ss * b_i**2) / det
        theta += wz * np.exp(1j * dk0 * z) / det * np.exp(0.5 * quad)
    prob = np.abs(biphoton.pump_temporal_amplitude(w_sum, pump) * theta)**2
    return prob / prob.sum(), theta


def _kernel_case(case, telecom_setup, vis_ir_setup):
    """(pump, coupling, crystal, grid, query, jsa_grid keywords) per case."""
    if case in ("vis_ir", "rectangular", "waists_4um"):
        s = vis_ir_setup
        grid = JsaGridSpec(n=20 if case == "rectangular" else 48,
                           range_fraction=0.02,
                           signal_center_phz=s["signal_center"],
                           idler_center_phz=s["idler_center"],
                           idler_n=36 if case == "rectangular" else None)
        pump, coupling = s["pump"], s["coupling"]
        if case == "waists_4um":
            pump = dataclasses.replace(pump, spatial_width_um=4.0)
            coupling = CouplingSpec(signal_width_um=4.0, idler_width_um=4.0)
        return pump, coupling, s["crystal"], grid, s["query"], {}
    s = telecom_setup
    pump = PumpSpec(central_frequency_phz=s["pump_sum_phz"],
                    pulse_duration_fs=envelope_tau_from_reciprocal_sigma(94.58),
                    spatial_width_um=41.0)
    grid = JsaGridSpec(n=64, range_fraction=0.02,
                       signal_center_phz=s["signal_center"],
                       idler_center_phz=s["idler_center"])
    coupling, crystal = s["coupling"], s["crystal"]
    if case.startswith("offsets"):
        sign = 1.0 if case == "offsets_pos_neg" else -1.0
        coupling = CouplingSpec(signal_width_um=coupling.signal_width_um,
                                idler_width_um=coupling.idler_width_um,
                                signal_offset_per_um=0.02 * sign,
                                idler_offset_per_um=-0.015 * sign)
    if case == "crystal_30mm":
        crystal = dataclasses.replace(crystal, length_um=30000.0)
    kwargs = {"odd_order": {"z_order": 33}}
    return pump, coupling, crystal, grid, s["query"], kwargs.get(case, {})


class TestJsaKernel:
    """jsa_grid's Filon-Legendre sum must give the converged crystal integral:
    the plain Gauss-Legendre sum at 1024 nodes, to 1e-12 of the peak."""

    CASES = ["telecom", "vis_ir", "offsets_pos_neg", "offsets_neg_pos",
             "rectangular", "odd_order", "telecom_blocks", "crystal_30mm",
             "waists_4um"]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_unfolded_reference(self, case, telecom_setup, vis_ir_setup,
                                        monkeypatch):
        pump, coupling, crystal, grid, query, kwargs = _kernel_case(
            case, telecom_setup, vis_ir_setup)
        if case in ("rectangular", "telecom_blocks"):
            # several blocks, of 700 cells at 16 nodes, the last one partial
            monkeypatch.setattr(biphoton, "JSA_BLOCK_VALUES", 28000)
        got = jsa_grid(pump, coupling, crystal, grid, query, **kwargs)
        ref, theta = _reference_jsa(pump, coupling, crystal, grid, query)
        assert got.probability.shape == ref.shape
        assert np.abs(got.probability - ref).max() <= 1e-12 * ref.max()
        assert got.quadrature_error <= biphoton.Z_QUAD_TOL
        # theta is real: the complex sum's imaginary part is roundoff
        assert np.abs(theta.imag).max() <= 1e-12 * np.abs(theta).max()

    @pytest.mark.parametrize("case,order", [
        ("telecom", 16), ("odd_order", 33), ("offsets_pos_neg", 32),
        ("crystal_30mm", 32), ("waists_4um", 1024)])
    def test_node_count_doubles_until_converged(self, case, order, telecom_setup,
                                                vis_ir_setup):
        # the 4 um waists make g = exp(quad/2)/det A vary over a Rayleigh range
        # far shorter than the crystal
        pump, coupling, crystal, grid, query, kwargs = _kernel_case(
            case, telecom_setup, vis_ir_setup)
        got = jsa_grid(pump, coupling, crystal, grid, query, **kwargs)
        assert got.quadrature_order == order
        assert 0.0 < got.quadrature_error <= biphoton.Z_QUAD_TOL

    def test_capped_grid_raises(self, telecom_setup):
        # 4 um waists on the telecom source: the tail estimate is still
        # 3.6e-9 of the peak at the 1024-node cap
        s = telecom_setup
        pump = PumpSpec(central_frequency_phz=s["pump_sum_phz"],
                        pulse_duration_fs=envelope_tau_from_reciprocal_sigma(94.58),
                        spatial_width_um=4.0)
        coupling = CouplingSpec(signal_width_um=4.0, idler_width_um=4.0)
        grid = JsaGridSpec(n=16, range_fraction=0.02,
                           signal_center_phz=s["signal_center"],
                           idler_center_phz=s["idler_center"])
        with pytest.raises(QuadratureNotConverged) as info:
            jsa_grid(pump, coupling, s["crystal"], grid, s["query"])
        assert info.value.order == biphoton.Z_QUAD_MAX_ORDER
        assert info.value.error_estimate > biphoton.Z_QUAD_TOL

    @pytest.mark.parametrize("offsets", [False, True])
    @pytest.mark.parametrize("n", [300, 600])
    def test_memory_above_output(self, telecom_setup, vis_ir_setup, n, offsets):
        # Traced allocations of one grid above its n^2 output: each block
        # builds its own cell terms, so besides the output, which holds the
        # amplitudes until they are normalized in place, only one block's
        # scratch (about JSA_BLOCK_VALUES floats) is held.
        import tracemalloc

        pump, coupling, crystal, grid, query, _ = _kernel_case(
            "offsets_pos_neg" if offsets else "telecom", telecom_setup, vis_ir_setup)
        grid = dataclasses.replace(grid, n=n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = jsa_grid(pump, coupling, crystal, grid, query)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - got.probability.nbytes <= 2 * n * n * 8 + 1.2e6

    @pytest.mark.parametrize("tau_quoted,z", [(94.58, 0.02), (719.1, 0.0075),
                                              (976.0, 0.005)])
    def test_normalized_in_place_bit_identical(self, telecom_setup, monkeypatch,
                                               tau_quoted, z):
        # On the three benchmark cases, dividing jsa_grid's own array in place
        # gives the bits a JsaGrid built from the unnormalized values does.
        s = telecom_setup
        pump = PumpSpec(central_frequency_phz=s["pump_sum_phz"],
                        pulse_duration_fs=envelope_tau_from_reciprocal_sigma(tau_quoted),
                        spatial_width_um=41.0)
        spec = JsaGridSpec(n=300, range_fraction=z, signal_center_phz=s["signal_center"],
                           idler_center_phz=s["idler_center"])
        seen = []
        total = biphoton._grid_total
        monkeypatch.setattr(biphoton, "_grid_total",
                            lambda values: seen.append(values.copy()) or total(values))
        got = jsa_grid(pump, s["coupling"], s["crystal"], spec, s["query"])
        (values,) = seen
        built = JsaGrid(got.omega_s_phz, got.omega_i_phz, values)
        assert got.probability.tobytes() == built.probability.tobytes()
        assert not got.probability.flags.writeable

    def test_normalized_in_place_memory(self, telecom_setup):
        # at n = 600 the grid takes no second n^2 array to normalize its output
        import tracemalloc

        s = telecom_setup
        pump = PumpSpec(central_frequency_phz=s["pump_sum_phz"],
                        pulse_duration_fs=envelope_tau_from_reciprocal_sigma(94.58),
                        spatial_width_um=41.0)
        spec = JsaGridSpec(n=600, range_fraction=0.02,
                           signal_center_phz=s["signal_center"],
                           idler_center_phz=s["idler_center"])
        # the first grid of a process imports numpy.polynomial, about 0.7 MB
        # traced: a small grid first keeps that import out of the peak
        jsa_grid(pump, s["coupling"], s["crystal"], dataclasses.replace(spec, n=16),
                 s["query"])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = jsa_grid(pump, s["coupling"], s["crystal"], spec, s["query"])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - got.probability.nbytes < 1.5e6

    @pytest.mark.parametrize("failing,error,message", [
        ("last", NegativeRadicand, "Sellmeier radicand is not positive"),
        ("first_and_last", PoleProximity,
         "wavelength squared within 1e-9 um^2 of a Sellmeier pole"),
    ])
    def test_pump_check_failing_in_late_blocks(self, telecom_setup, monkeypatch,
                                               failing, error, message):
        # The pump alone takes the x-axis set, whose UV pole a2 is moved to
        # the shortest pump wavelength squared on the grid: just above it, the
        # radicand is negative at the last cell alone, and on it that cell
        # fails the pole check. With the IR pole a4 just above the longest
        # wavelength squared, the first cell's radicand is negative too; the
        # check on the whole grid tests the poles before the radicand, so the
        # pole error wins even though a block before the last fails first.
        s = telecom_setup
        pump = PumpSpec(central_frequency_phz=s["pump_sum_phz"],
                        pulse_duration_fs=envelope_tau_from_reciprocal_sigma(94.58),
                        spatial_width_um=41.0)
        grid = JsaGridSpec(n=16, range_fraction=0.02,
                           signal_center_phz=s["signal_center"],
                           idler_center_phz=s["idler_center"])
        lam2 = wavelength_um_from_omega_phz(
            grid.signal_axis()[:, None] + grid.idler_axis()[None, :]).ravel() ** 2
        sellmeier = s["crystal"].sellmeier_x
        if failing == "last":
            sellmeier = dataclasses.replace(sellmeier, a2=lam2.min() + 1e-6)
        else:
            sellmeier = dataclasses.replace(sellmeier, a2=lam2.min(), a3=1e-4,
                                            a4=lam2.max() + 1e-6)
        crystal = dataclasses.replace(s["crystal"], sellmeier_x=sellmeier)
        query = dataclasses.replace(s["query"], pol_pump="x")
        # 26 blocks of 10 cells at 16 nodes, the last one of 6
        monkeypatch.setattr(biphoton, "JSA_BLOCK_VALUES", 400)
        with np.errstate(divide="ignore"):
            radicand = (sellmeier.a0 + sellmeier.a1 / (lam2 - sellmeier.a2)
                        + sellmeier.a3 / (lam2 - sellmeier.a4))
        pole = np.abs(lam2 - sellmeier.a2) < 1e-9
        # the row-major cells: 0 in the first block, 255 in the last
        assert np.flatnonzero(pole).tolist() == ([] if failing == "last" else [255])
        assert np.flatnonzero(~pole & (radicand <= 0)).tolist() == (
            [255] if failing == "last" else [0])
        with pytest.raises(error) as info:
            jsa_grid(pump, s["coupling"], crystal, grid, query)
        assert type(info.value) is error and str(info.value) == message

    def test_offsets_move_the_grid(self, telecom_setup, vis_ir_setup):
        # the offset cases above would not test the offset factor if it
        # left the grid as it is
        base = jsa_grid(*_kernel_case("telecom", telecom_setup, vis_ir_setup)[:5])
        for case in ("offsets_pos_neg", "offsets_neg_pos"):
            moved = jsa_grid(*_kernel_case(case, telecom_setup, vis_ir_setup)[:5])
            assert np.abs(moved.probability - base.probability).max() > (
                1e-3 * base.probability.max())

    def test_theta_changes_sign(self, telecom_setup, vis_ir_setup):
        # the real amplitude carries the sinc lobes as sign changes
        _, theta = _reference_jsa(*_kernel_case("telecom", telecom_setup,
                                                vis_ir_setup)[:5], z_order=64)
        assert theta.real.min() < -1e-3 * theta.real.max()

    def test_vis_ir_marginal_converged_at_default_order(self, small_grid,
                                                        vis_ir_setup):
        s = vis_ir_setup
        g = JsaGridSpec(n=48, range_fraction=0.02,
                        signal_center_phz=s["signal_center"],
                        idler_center_phz=s["idler_center"])
        fine = jsa_grid(s["pump"], s["coupling"], s["crystal"], g, s["query"],
                        z_order=512)
        default = fit_gaussian_1d(*marginal(small_grid, "signal")).fwhm_phz
        converged = fit_gaussian_1d(*marginal(fine, "signal")).fwhm_phz
        assert default == pytest.approx(converged, rel=1e-6)


class TestSphericalBessel:
    @staticmethod
    def _check(count, omega):
        from scipy import special

        order = biphoton._upward_first(count, omega)
        assert sorted(order) == list(range(omega.size))
        # the points with |omega| > count, which recur upward, come first
        assert np.all(np.diff(np.abs(omega[order]) <= count) >= 0)
        j = biphoton._spherical_j(count, omega[order])
        ref = special.spherical_jn(np.arange(count)[:, None], omega[order][None, :])
        assert np.abs(j - ref).max() <= 1e-13

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        self._check(64, np.concatenate([
            [0.0, 1e-300, -1e-300, 1e-20, 1e-5, 1e-3],
            math.pi * np.arange(-318, 319),
            rng.uniform(-1e3, 1e3, 2000), rng.uniform(-70.0, 70.0, 2000),
            np.logspace(-10, 3, 300)]))

    @pytest.mark.parametrize("count", [2, 3, 16])
    def test_low_counts(self, count):
        self._check(count, np.array([0.0, 0.5, -2.0, 3.0 * math.pi, 40.0, -1e3]))


class TestMarginal:
    def test_uniform(self):
        grid = JsaGrid(np.linspace(1, 2, 16), np.linspace(1, 2, 16),
                       np.ones((16, 16)))
        _, p = marginal(grid, "signal")
        assert np.allclose(p, 1.0 / 16.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_separable_product(self):
        ws = np.linspace(1, 2, 21)
        wi = np.linspace(3, 4, 21)
        fs = np.exp(-(ws - 1.5) ** 2 / 0.02)
        fi = np.exp(-(wi - 3.4) ** 2 / 0.05)
        grid = JsaGrid(ws, wi, np.outer(fs, fi))
        _, ps = marginal(grid, "signal")
        _, pi = marginal(grid, "idler")
        assert np.allclose(ps, fs / fs.sum(), atol=1e-14)
        assert np.allclose(pi, fi / fi.sum(), atol=1e-14)

    def test_axis_validation(self):
        grid = JsaGrid(np.linspace(1, 2, 16), np.linspace(1, 2, 16),
                       np.ones((16, 16)))
        with pytest.raises(DomainError):
            marginal(grid, "pump")


class TestFit1D:
    def test_exact_gaussian(self):
        x = np.linspace(-1, 1, 101)
        y = 0.1 + 2.0 * np.exp(-4 * math.log(2) * (x - 0.2) ** 2 / 0.3**2)
        fit = fit_gaussian_1d(x, y)
        assert fit.bias == pytest.approx(0.1, abs=1e-9)
        assert fit.amplitude == pytest.approx(2.0, abs=1e-9)
        assert fit.center_phz == pytest.approx(0.2, abs=1e-10)
        assert fit.fwhm_phz == pytest.approx(0.3, abs=1e-9)
        assert fit.rss < 1e-16

    def test_degenerate(self):
        with pytest.raises(DegenerateFit):
            fit_gaussian_1d([1, 2, 3], [1, 2, 1])
        with pytest.raises(DegenerateFit):
            fit_gaussian_1d(np.linspace(0, 1, 10), np.ones(10))


@pytest.fixture(scope="module")
def telecom_grids(telecom_setup):
    """The type-II telecom grids of acceptance criterion 5, n = 300."""
    s = telecom_setup
    grids = []
    for tau_quoted, z in ((94.58, 0.02), (719.1, 0.0075), (976.0, 0.005)):
        pump = PumpSpec(central_frequency_phz=s["pump_sum_phz"],
                        pulse_duration_fs=envelope_tau_from_reciprocal_sigma(tau_quoted),
                        spatial_width_um=41.0)
        spec = JsaGridSpec(n=300, range_fraction=z, signal_center_phz=s["signal_center"],
                           idler_center_phz=s["idler_center"])
        grids.append(jsa_grid(pump, s["coupling"], s["crystal"], spec, s["query"]))
    return grids


class TestFit2D:
    @staticmethod
    def _bivariate(ws, wi, ms, mi, ss, si, rho):
        us = (ws[:, None] - ms) / ss
        ui = (wi[None, :] - mi) / si
        q = (us**2 - 2 * rho * us * ui + ui**2) / (2 * (1 - rho**2))
        return np.exp(-q)

    def test_recovers_bivariate_normal(self):
        ws = np.linspace(0.8, 1.2, 41)
        wi = np.linspace(1.8, 2.2, 41)
        p = self._bivariate(ws, wi, 1.0, 2.0, 0.05, 0.08, 0.5)
        fit = fit_gaussian_2d(JsaGrid(ws, wi, p))
        assert fit.signal_center_phz == pytest.approx(1.0, abs=1e-8)
        assert fit.idler_center_phz == pytest.approx(2.0, abs=1e-8)
        assert fit.signal_sigma_phz == pytest.approx(0.05, rel=1e-6)
        assert fit.idler_sigma_phz == pytest.approx(0.08, rel=1e-6)
        assert fit.pearson == pytest.approx(0.5, abs=1e-6)
        assert not fit.near_singular

    def test_product_grid_uncorrelated(self):
        ws = np.linspace(0.8, 1.2, 31)
        wi = np.linspace(1.8, 2.2, 31)
        p = self._bivariate(ws, wi, 1.0, 2.0, 0.06, 0.06, 0.0)
        fit = fit_gaussian_2d(JsaGrid(ws, wi, p))
        assert abs(fit.pearson) < 1e-8

    def test_near_singular_flag(self):
        ws = np.linspace(0.95, 1.05, 81)
        wi = np.linspace(0.95, 1.05, 81)
        p = self._bivariate(ws, wi, 1.0, 1.0, 0.05, 0.05, 1.0 - 1e-7)
        fit = fit_gaussian_2d(JsaGrid(ws, wi, p))
        assert fit.near_singular

    def test_degenerate(self):
        grid = JsaGrid(np.linspace(1, 2, 16), np.linspace(1, 2, 16),
                       np.ones((16, 16)))
        with pytest.raises(DegenerateFit):
            fit_gaussian_2d(grid)

    @pytest.mark.parametrize("half", [4.0, 20.0])
    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.9, 0.99])
    def test_moment_products_match_dense(self, rho, half):
        # 300 x 300 grid spanning +-half widths, parameters off the truth:
        # J^T J from moments within 1e-10 of sqrt(A_ii A_ll) of the dense
        # product, J^T v within 1e-14 of sqrt(A_ii) |v|.
        ws = np.linspace(1.2 - half * 0.01, 1.2 + half * 0.01, 300)
        wi = np.linspace(1.25 - half * 0.013, 1.25 + half * 0.013, 300)
        params = np.array([2.0, 1.201, 1.24935, 0.0102, 0.01287, rho])
        f = biphoton._gaussian_2d(params, ws[:, None], wi[None, :])
        jac = biphoton._gaussian_2d_jacobian(params, ws[:, None], wi[None, :], f)
        moments = biphoton._GaussianMoments(params, ws, wi, f)
        gram = jac.T @ jac
        scale = np.sqrt(np.diag(gram))
        assert np.all(np.abs(moments.gram() - gram) <= 1e-10 * np.outer(scale, scale))
        v = np.random.default_rng(3).standard_normal(f.size)
        assert np.all(np.abs(moments.rmatvec(v) - jac.T @ v)
                      <= 1e-14 * scale * np.linalg.norm(v))

    def test_dense_jacobian_above_switch(self, monkeypatch):
        # Each Jacobian call takes its form from the iterate's rho: moments
        # up to MOMENT_RHO_MAX, the dense matrix above.
        calls = []
        dense, moments = biphoton._gaussian_2d_jacobian, biphoton._GaussianMoments

        def spy(kind, build):
            def record(params, *args):
                calls.append((kind, params[5]))
                return build(params, *args)
            return record

        monkeypatch.setattr(biphoton, "_gaussian_2d_jacobian", spy("dense", dense))
        monkeypatch.setattr(biphoton, "_GaussianMoments", spy("moments", moments))
        ws = np.linspace(0.9, 1.1, 121)
        wi = np.linspace(1.9, 2.1, 121)
        for rho in (0.5, 0.999):
            fit = fit_gaussian_2d(JsaGrid(ws, wi, self._bivariate(ws, wi, 1.0, 2.0, 0.02,
                                                                  0.025, rho)))
            assert fit.pearson == pytest.approx(rho, abs=1e-9)
        assert {kind for kind, _ in calls} == {"dense", "moments"}
        assert all((kind == "dense") == (abs(rho) > biphoton.MOMENT_RHO_MAX)
                   for kind, rho in calls)

    @pytest.mark.parametrize("case", range(3))
    def test_telecom_fit_matches_dense_path(self, telecom_grids, monkeypatch, case):
        # The criterion-5 grids at n = 300: the moment products give the
        # dense-Jacobian fit's parameters to 1e-12 in the same iterations.
        grid = telecom_grids[case]
        results = []
        lsq = numerics.least_squares_fit

        def record(*args, **kw):
            results.append(lsq(*args, **kw))
            return results[-1]

        monkeypatch.setattr(numerics, "least_squares_fit", record)
        fit = fit_gaussian_2d(grid)
        monkeypatch.setattr(biphoton, "MOMENT_RHO_MAX", -1.0)   # every call dense
        reference = fit_gaussian_2d(grid)
        got, want = results[0].parameters, results[1].parameters
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert results[0].iterations == results[1].iterations
        assert fit.pearson == pytest.approx(reference.pearson, rel=1e-12)

    def test_memory_peak(self, telecom_grids):
        # Traced allocations of one fit on a 300 x 300 grid, above its input:
        # no (n^2, 6) Jacobian, which alone takes 4.32 MB. The model fills one
        # n^2 array in place, and the LM holds no residual or rejected trial
        # while the next trial runs: about 3.3 n^2 floats, 2.37 MB.
        import tracemalloc

        grid = telecom_grids[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_gaussian_2d(grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.7e6

    def test_jacobian_matches_central_differences(self, telecom_setup):
        s = telecom_setup
        pump = PumpSpec(central_frequency_phz=s["pump_sum_phz"],
                        pulse_duration_fs=508.5, spatial_width_um=41.0)
        g = JsaGridSpec(n=48, range_fraction=0.0075,
                        signal_center_phz=s["signal_center"],
                        idler_center_phz=s["idler_center"])
        grid = jsa_grid(pump, s["coupling"], s["crystal"], g, s["query"])
        fit = fit_gaussian_2d(grid)
        params = np.array([fit.amplitude, fit.signal_center_phz, fit.idler_center_phz,
                           fit.signal_sigma_phz, fit.idler_sigma_phz, fit.pearson])
        wsg, wig = np.meshgrid(grid.omega_s_phz, grid.omega_i_phz, indexing="ij")
        ws, wi = wsg.ravel(), wig.ravel()
        values = biphoton._gaussian_2d(params, ws, wi)
        exact = biphoton._gaussian_2d_jacobian(params, ws, wi, values)
        # steps small against the widths, which set the scale of every
        # parameter but the amplitude
        steps = 1e-4 * np.array([params[0], params[3], params[4], params[3],
                                 params[4], 0.1])
        for j, h in enumerate(steps):
            up, down = params.copy(), params.copy()
            up[j] += h
            down[j] -= h
            numeric = (biphoton._gaussian_2d(up, ws, wi)
                       - biphoton._gaussian_2d(down, ws, wi)) / (2.0 * h)
            assert np.abs(exact[:, j] - numeric).max() <= 1e-6 * np.abs(numeric).max()

    @pytest.mark.parametrize("params", [
        (2.0, 1.01, 1.98, 0.05, 0.08, 0.5),
        (0.7, 0.97, 2.03, 0.03, 0.11, -0.8),
        (1.0, 1.0, 2.0, -0.05, 0.08, 0.5),   # out of domain: NaN everywhere
    ])
    def test_tensor_grid_bit_identical_to_flat_points(self, params):
        # The fit evaluates the model and its Jacobian on the broadcast axes;
        # that is the same arithmetic per point as on the flattened meshgrid.
        ws = np.linspace(0.8, 1.2, 37)
        wi = np.linspace(1.8, 2.2, 29)
        wsg, wig = np.meshgrid(ws, wi, indexing="ij")
        flat = biphoton._gaussian_2d(params, wsg.ravel(), wig.ravel())
        tensor = biphoton._gaussian_2d(params, ws[:, None], wi[None, :])
        assert tensor.shape == (37, 29)
        assert np.array_equal(tensor.ravel(), flat, equal_nan=True)
        jac_flat = biphoton._gaussian_2d_jacobian(params, wsg.ravel(), wig.ravel(), flat)
        jac = biphoton._gaussian_2d_jacobian(params, ws[:, None], wi[None, :], tensor)
        assert jac.shape == (37 * 29, 6)
        assert np.array_equal(jac, jac_flat, equal_nan=True)
