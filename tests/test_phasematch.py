import math
from dataclasses import replace

import numpy as np
import pytest

from photonkit import phasematch
from photonkit.dispersion import Polarization, refractive_index, wavevector_magnitude
from photonkit.errors import (
    DomainError,
    MaxIterations,
    MultipleRoots,
    NoRootInWindow,
)
from photonkit.phasematch import (
    MISMATCH_TOL_PER_UM,
    PhaseMatchQuery,
    grating_vector,
    idler_wavelength,
    mismatch,
    solve_signal_sweep,
    solve_signal_wavelength,
)


def _wave_ks(query, signal_nm, crystal):
    """Wavevector magnitudes (k_p, k_s, k_i) in 1/um, straight from dispersion."""
    lams = [query.pump_wavelength_nm * 1e-3, signal_nm * 1e-3]
    lams.append(1.0 / (1.0 / lams[0] - 1.0 / lams[1]))
    pols = (query.pol_pump, query.pol_signal, query.pol_idler)
    return [wavevector_magnitude(refractive_index(crystal.axis_set(pol), lam), lam)
            for pol, lam in zip(pols, lams)]


class TestQueryValidation:
    def test_polarization_strings_coerced(self):
        q = PhaseMatchQuery(pump_wavelength_nm=400.0, pol_pump="Y",
                            pol_signal="y", pol_idler="SLOW")
        assert q.pol_pump is Polarization.Y
        assert q.pol_signal is Polarization.Y
        assert q.pol_idler is Polarization.SLOW

    def test_unknown_polarization(self):
        with pytest.raises(DomainError):
            PhaseMatchQuery(pump_wavelength_nm=400.0, pol_pump="diagonal")

    def test_qpm_sign(self):
        with pytest.raises(DomainError):
            PhaseMatchQuery(pump_wavelength_nm=400.0, qpm_sign=2)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            PhaseMatchQuery(pump_wavelength_nm=400.0, qpm_order=-1)

    @pytest.mark.parametrize("temperature_k", [math.nan, math.inf, -math.inf])
    def test_temperature_not_finite(self, temperature_k):
        with pytest.raises(DomainError) as info:
            PhaseMatchQuery(pump_wavelength_nm=400.0, temperature_k=temperature_k)
        assert info.value.field == "temperature_k"


class TestIdlerWavelength:
    def test_energy_conservation(self):
        lam_i = idler_wavelength(400.0, 533.0)
        assert 1.0 / lam_i == pytest.approx(1.0 / 400.0 - 1.0 / 533.0,
                                            rel=1e-15)

    def test_degenerate(self):
        assert idler_wavelength(400.0, 800.0) == pytest.approx(800.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            idler_wavelength(500.0, 400.0)


class TestGratingVector:
    def test_sign_and_magnitude(self, kato_crystal):
        t0 = kato_crystal.t0_kelvin
        q_minus = PhaseMatchQuery(pump_wavelength_nm=400.0, temperature_k=t0)
        q_plus = PhaseMatchQuery(pump_wavelength_nm=400.0, temperature_k=t0,
                                 qpm_sign=1)
        expect = 2.0 * math.pi / kato_crystal.poling_period_um
        assert grating_vector(q_minus, kato_crystal) == pytest.approx(-expect)
        assert grating_vector(q_plus, kato_crystal) == pytest.approx(expect)

    def test_order_scaling(self, kato_crystal):
        t0 = kato_crystal.t0_kelvin
        q1 = PhaseMatchQuery(pump_wavelength_nm=400.0, temperature_k=t0)
        q3 = PhaseMatchQuery(pump_wavelength_nm=400.0, temperature_k=t0,
                             qpm_order=3)
        assert grating_vector(q3, kato_crystal) == pytest.approx(
            3.0 * grating_vector(q1, kato_crystal))

    def test_reexported_from_dispersion(self):
        from photonkit import dispersion
        assert phasematch.grating_vector is dispersion.grating_vector

    def test_zero_order(self, kato_crystal):
        q = PhaseMatchQuery(pump_wavelength_nm=400.0, qpm_order=0)
        assert grating_vector(q, kato_crystal) == 0.0

    def test_temperature_shrinks_vector(self, kato_crystal):
        # Both shipped crystals have alpha_per_kelvin 0, so the expansion is
        # exercised with a synthetic 1e-5 /K, not a material value.
        crystal = replace(kato_crystal, alpha_per_kelvin=1e-5)
        t0 = crystal.t0_kelvin
        cold = PhaseMatchQuery(pump_wavelength_nm=400.0, temperature_k=t0)
        hot = PhaseMatchQuery(pump_wavelength_nm=400.0, temperature_k=t0 + 50)
        assert abs(grating_vector(hot, crystal)) < abs(grating_vector(cold, crystal))
        assert grating_vector(hot, crystal) == pytest.approx(
            grating_vector(cold, crystal) / (1.0 + 50 * 1e-5), rel=1e-14)


class TestScalarMismatch:
    def test_collinear_definition(self, kato_crystal):
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        lam_s = 533.0
        dk = mismatch(q, kato_crystal, 397.6, lam_s)
        k_p, k_s, k_i = _wave_ks(q, lam_s, kato_crystal)
        expected = k_p - k_s - k_i + grating_vector(q, kato_crystal)
        assert dk == pytest.approx(expected, rel=1e-15)

    def test_vectorized(self, kato_crystal):
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        dk = mismatch(q, kato_crystal, 397.6, np.array([520.0, 533.0, 550.0]))
        assert dk.shape == (3,)


class TestSolvers:
    def test_collinear_root(self, kato_crystal):
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        sol = solve_signal_wavelength(q, kato_crystal, (500.0, 600.0))
        assert sol.mismatch_per_um < 1e-10
        assert 525.0 < sol.signal_wavelength_nm < 545.0
        assert sol.idler_wavelength_nm == pytest.approx(
            idler_wavelength(397.6, sol.signal_wavelength_nm))

    def test_window_below_pump_rejected(self, kato_crystal):
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        with pytest.raises(DomainError):
            solve_signal_wavelength(q, kato_crystal, (300.0, 600.0))

    def test_no_root(self, kato_crystal):
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        with pytest.raises(NoRootInWindow):
            solve_signal_wavelength(q, kato_crystal, (570.0, 600.0))

    def test_sweep_matches_single_solver(self, kato_crystal):
        pumps = np.linspace(395.0, 400.0, 7)
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        roots = solve_signal_sweep(q, kato_crystal, pumps, (500.0, 600.0))
        for pump, root in zip(pumps, roots):
            qi = PhaseMatchQuery(pump_wavelength_nm=float(pump))
            single = solve_signal_wavelength(qi, kato_crystal, (500.0, 600.0))
            assert root == pytest.approx(single.signal_wavelength_nm,
                                         abs=1e-9)

    def test_sweep_nan_outside(self, kato_crystal):
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        roots = solve_signal_sweep(q, kato_crystal, [397.6], (590.0, 600.0))
        assert np.isnan(roots).all()

    @pytest.mark.parametrize("window", [(300.0, 350.0), (398.0, 600.0)])
    def test_sweep_window_below_a_pump_rejected(self, kato_crystal, window):
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        with pytest.raises(DomainError, match="above the pump"):
            solve_signal_sweep(q, kato_crystal, [395.0, 400.0], window)

    @pytest.mark.parametrize("window", [(500.0, math.inf), (math.nan, 600.0)])
    def test_sweep_window_not_finite_rejected(self, kato_crystal, window):
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        with pytest.raises(DomainError, match="finite"):
            solve_signal_sweep(q, kato_crystal, [395.0, 400.0], window)

    def test_scan_size_bound(self, kato_crystal):
        # (500, 600) nm scans at 1001 points per pump
        most = phasematch.MAX_SCAN_CELLS // 1001
        assert phasematch.scan_points(most, (500.0, 600.0)) == 1001
        with pytest.raises(DomainError, match="exceeds"):
            phasematch.scan_points(most + 1, (500.0, 600.0))
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        with pytest.raises(DomainError, match="exceeds"):
            solve_signal_sweep(q, kato_crystal, [395.0, 400.0], (500.0, 1e7))


class TestSweepRefinement:
    @staticmethod
    def _single(query, pump):
        return PhaseMatchQuery(
            pump_wavelength_nm=float(pump), temperature_k=query.temperature_k,
            pol_pump=query.pol_pump, pol_signal=query.pol_signal,
            pol_idler=query.pol_idler, qpm_sign=query.qpm_sign)

    @pytest.mark.parametrize("case", ["kato", "telecom"])
    def test_roots_meet_tolerance_and_single_solver(self, case, kato_crystal,
                                                    telecom_setup):
        if case == "kato":
            crystal = kato_crystal
            query = PhaseMatchQuery(pump_wavelength_nm=397.6,
                                    temperature_k=kato_crystal.t0_kelvin)
            pumps, window = np.linspace(392.0, 403.0, 55), (500.0, 600.0)
        else:
            # type-II: the mismatch is nearly flat in the signal wavelength
            crystal = telecom_setup["crystal"]
            query = telecom_setup["query"]
            pumps, window = np.linspace(776.0, 784.0, 9), (1450.0, 1650.0)
        roots = solve_signal_sweep(query, crystal, pumps, window)
        assert np.isfinite(roots).all()
        for pump, root in zip(pumps, roots):
            qi = self._single(query, pump)
            assert abs(mismatch(qi, crystal, pump, root)) <= MISMATCH_TOL_PER_UM
            single = solve_signal_wavelength(qi, crystal, window)
            assert abs(root - single.signal_wavelength_nm) < 1e-9

    @pytest.mark.parametrize("window,branch", [((520.0, 1700.0), "idler"),
                                               ((500.0, 1520.0), "signal")])
    def test_closest_to_centre_policy(self, kato_crystal, window, branch):
        # Type-0 roots come in signal/idler pairs; both lie in these windows.
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        with pytest.raises(MultipleRoots) as exc:
            solve_signal_wavelength(q, kato_crystal, window)
        brackets = exc.value.brackets
        assert len(brackets) == 2
        centre = 0.5 * sum(window)
        near = min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1]) - centre))
        assert near == brackets[1 if branch == "idler" else 0]
        root = solve_signal_sweep(q, kato_crystal, [397.6], window)[0]
        expect = solve_signal_wavelength(q, kato_crystal,
                                         (near[0] - 1.0, near[1] + 1.0))
        assert root == pytest.approx(expect.signal_wavelength_nm, abs=1e-9)

    def test_slope_matches_central_difference(self, kato_crystal, telecom_setup):
        for crystal, query, pump, signal in (
                (kato_crystal, PhaseMatchQuery(pump_wavelength_nm=397.6),
                 397.6, 533.0),
                (telecom_setup["crystal"], telecom_setup["query"], 780.1, 1540.0)):
            dk, slope = mismatch(query, crystal, pump, signal, slope=True)
            qi = self._single(query, pump)
            assert dk == pytest.approx(mismatch(qi, crystal, pump, signal),
                                       rel=1e-12)
            h = 1e-4
            numeric = (mismatch(qi, crystal, pump, signal + h)
                       - mismatch(qi, crystal, pump, signal - h)) / (2.0 * h)
            assert slope == pytest.approx(numeric, rel=1e-5)

    @staticmethod
    def _nan_slope(monkeypatch):
        # A NaN slope never passes the step test, so the cap is reached.
        real = phasematch.index_and_derivative

        def broken(sellmeier, wavelength_um):
            n, dn = real(sellmeier, wavelength_um)
            return n, np.full_like(dn, np.nan)

        monkeypatch.setattr(phasematch, "index_and_derivative", broken)

    def test_stalled_refinement_raises(self, kato_crystal, monkeypatch):
        self._nan_slope(monkeypatch)
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        with pytest.raises(MaxIterations):
            solve_signal_sweep(q, kato_crystal, [395.0, 397.6], (500.0, 600.0))

    def test_single_solver_rejects_off_root(self, kato_crystal, monkeypatch):
        # The single solver refines through the same Newton loop as the
        # sweep, so a stalled loop surfaces as MaxIterations there too.
        self._nan_slope(monkeypatch)
        q = PhaseMatchQuery(pump_wavelength_nm=397.6)
        with pytest.raises(MaxIterations):
            solve_signal_wavelength(q, kato_crystal, (500.0, 600.0))


class TestHeldRoots:
    """solve_signal_sweep given the roots a caller holds (near_nm)."""

    @staticmethod
    def _sweep(crystal, pumps, window, near=None):
        q = PhaseMatchQuery(pump_wavelength_nm=397.6, temperature_k=crystal.t0_kelvin)
        return solve_signal_sweep(q, crystal, pumps, window, near_nm=near)

    @staticmethod
    def _count_scanned(monkeypatch):
        # pump rows scanned over the whole window grid, per block
        scanned, scan = [], phasematch._scan

        def counted(query, crystal, pumps_nm, grid):
            if grid.ndim == 1:
                scanned.append(pumps_nm.size)
            return scan(query, crystal, pumps_nm, grid)

        monkeypatch.setattr(phasematch, "_scan", counted)
        return scanned

    def test_held_cells_give_the_scan_roots(self, kato_crystal, monkeypatch):
        pumps = np.linspace(392.0, 403.0, 55)
        roots = self._sweep(kato_crystal, pumps, (500.0, 600.0))
        scanned = self._count_scanned(monkeypatch)
        assert np.array_equal(self._sweep(kato_crystal, pumps, (500.0, 600.0), roots),
                              roots)
        assert scanned == []
        # without held roots every pump is scanned, in blocks of whole rows
        assert np.array_equal(self._sweep(kato_crystal, pumps, (500.0, 600.0)), roots)
        assert sum(scanned) == 55
        assert max(scanned) == phasematch.SCAN_BLOCK_CELLS // 1001

    def test_two_root_window_follows_held_branch(self, kato_crystal):
        # Over (500, 1700) nm each type-0 Kato pump has a signal root at
        # 516-572 nm and its idler at 1365-1628 nm. The scan refines the
        # bracket nearest the window centre, the idler; held signal roots
        # keep the signal branch.
        pumps = np.linspace(392.0, 403.0, 12)
        signal = self._sweep(kato_crystal, pumps, (500.0, 600.0))
        plain = self._sweep(kato_crystal, pumps, (500.0, 1700.0))
        assert (plain > 1300.0).all()
        for pump, s, i in zip(pumps, signal, plain):
            assert i == pytest.approx(idler_wavelength(pump, s), rel=1e-9)
        held = self._sweep(kato_crystal, pumps, (500.0, 1700.0), signal)
        assert held == pytest.approx(signal, abs=1e-9)
        assert np.array_equal(self._sweep(kato_crystal, pumps, (500.0, 1700.0), plain),
                              plain)

    def test_fallback_to_scan(self, kato_crystal):
        # roots at about 529.5, 541.9 and 554.4 nm; none for 402 nm (565.7)
        pumps = np.array([395.0, 397.6, 400.0, 402.0])
        window = (500.0, 560.0)
        plain = self._sweep(kato_crystal, pumps, window)
        assert np.isfinite(plain[:3]).all() and np.isnan(plain[3])
        # a held cell without a sign change, a NaN, a root outside the
        # window, and a held cell for a pump without a root
        near = [plain[0] + 5.0, math.nan, 650.0, 555.0]
        got = self._sweep(kato_crystal, pumps, window, near)
        assert np.array_equal(got, plain, equal_nan=True)
        with pytest.raises(DomainError, match="one value per pump"):
            self._sweep(kato_crystal, pumps, window, near[:3])

    def test_memory_peak(self, kato_crystal):
        # Traced allocations of a 400-pump sweep over the default window: the
        # scan runs in row blocks instead of one 400 x 1001 mismatch array
        # with its temporaries (19 MB).
        import tracemalloc

        pumps = np.linspace(392.0, 403.0, 400)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self._sweep(kato_crystal, pumps, (500.0, 600.0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.6e6
