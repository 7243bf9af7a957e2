import math

import numpy as np
import pytest

from photonkit import numerics, phasematch, sellmeier_fit
from photonkit.errors import DomainError, InsufficientData, NoRootInWindow
from photonkit.phasematch import PhaseMatchQuery
from photonkit.sellmeier_fit import (
    FitSetup,
    MeasurementPoint,
    fit,
    load_dataset_csv,
    model_derivatives,
    model_signal_wavelength,
    rss,
    save_dataset_csv,
    sellmeier_fraction_ranges,
    synthesize_noisy_dataset,
)


@pytest.fixture(scope="module")
def setup(kato_crystal):
    query = PhaseMatchQuery(pump_wavelength_nm=397.6,
                            temperature_k=kato_crystal.t0_kelvin)
    return FitSetup(crystal=kato_crystal, query=query,
                    search_window_nm=(500.0, 600.0))


@pytest.fixture(scope="module")
def true_coeffs(kato_crystal):
    s = kato_crystal.sellmeier_z
    return (s.a0, s.a1, s.a2)


class TestModel:
    def test_model_matches_direct_solve(self, setup, true_coeffs):
        from photonkit import phasematch
        lam = model_signal_wavelength(397.6, true_coeffs, setup)
        sol = phasematch.solve_signal_wavelength(setup.query, setup.crystal,
                                                 setup.search_window_nm)
        assert lam == pytest.approx(sol.signal_wavelength_nm, abs=1e-9)

    def test_nan_outside_window(self, setup, true_coeffs):
        narrow = FitSetup(crystal=setup.crystal, query=setup.query,
                          search_window_nm=(590.0, 600.0))
        assert math.isnan(model_signal_wavelength(397.6, true_coeffs, narrow))

    def test_rss_zero_at_truth(self, setup, true_coeffs):
        pts = synthesize_noisy_dataset(true_coeffs,
                                       np.linspace(394.0, 401.0, 8),
                                       0.0, seed=1, setup=setup)
        assert rss(pts, true_coeffs, setup) < 1e-18

    def test_rss_raises_without_root(self, setup, true_coeffs):
        narrow = FitSetup(crystal=setup.crystal, query=setup.query,
                          search_window_nm=(590.0, 600.0))
        pts = [MeasurementPoint(397.6, 533.0)]
        with pytest.raises(NoRootInWindow):
            rss(pts, true_coeffs, narrow)


class TestSynthesize:
    def test_zero_noise_reproduces_model(self, setup, true_coeffs):
        pumps = np.linspace(394.0, 401.0, 6)
        pts = synthesize_noisy_dataset(true_coeffs, pumps, 0.0, seed=3,
                                       setup=setup)
        for pt in pts:
            assert pt.signal_nm == pytest.approx(
                model_signal_wavelength(pt.pump_nm, true_coeffs, setup))

    def test_seed_determinism(self, setup, true_coeffs):
        pumps = np.linspace(394.0, 401.0, 6)
        a = synthesize_noisy_dataset(true_coeffs, pumps, 0.01, 11, setup)
        b = synthesize_noisy_dataset(true_coeffs, pumps, 0.01, 11, setup)
        c = synthesize_noisy_dataset(true_coeffs, pumps, 0.01, 12, setup)
        assert a == b
        assert a != c

    def test_noise_fraction_bounds(self, setup, true_coeffs):
        with pytest.raises(DomainError):
            synthesize_noisy_dataset(true_coeffs, [397.6], 0.2, 1, setup)


class TestFit:
    def test_noiseless_recovery(self, setup, true_coeffs):
        pumps = np.linspace(392.0, 403.0, 15)
        pts = synthesize_noisy_dataset(true_coeffs, pumps, 0.0, seed=5,
                                       setup=setup)
        start = (true_coeffs[0] * 1.002, true_coeffs[1] * 0.99,
                 true_coeffs[2] * 1.01)
        report = fit(pts, start, setup)
        for got, want in zip(report.fitted, true_coeffs):
            assert abs(got - want) / abs(want) < 1e-6
        assert report.rss_nm2 <= report.rss_start_nm2
        assert report.n_points == 15

    def test_insufficient_data(self, setup, true_coeffs):
        pts = [MeasurementPoint(397.6, 533.0)] * 3
        with pytest.raises(InsufficientData):
            fit(pts, true_coeffs, setup)

    def test_weighted_fit_runs(self, setup, true_coeffs):
        pumps = np.linspace(394.0, 401.0, 8)
        pts = synthesize_noisy_dataset(true_coeffs, pumps, 0.005, seed=9,
                                       setup=setup)
        report = fit(pts, true_coeffs, setup, weighted=True)
        assert report.rss_nm2 <= report.rss_start_nm2

    def test_weighted_fit_reports_unweighted_rss(self, setup, true_coeffs):
        # The weighted fit minimises chi^2, but rss_nm2 stays the nm^2 sum at
        # the fitted coefficients, comparable with rss_start_nm2.
        pumps = np.linspace(394.0, 401.0, 8)
        pts = synthesize_noisy_dataset(true_coeffs, pumps, 0.005, seed=9,
                                       setup=setup)
        report = fit(pts, true_coeffs, setup, weighted=True)
        assert report.rss_nm2 == rss(pts, report.fitted, setup)
        assert report.rss_nm2 == pytest.approx(18.79, abs=0.01)
        assert report.average_error_nm == math.sqrt(report.rss_nm2 / len(pts))
        # 2.672 is where the plain LM stopped at its iteration cap
        model = model_signal_wavelength([pt.pump_nm for pt in pts], report.fitted,
                                        setup)
        chi2 = sum(((pt.signal_nm - m) / pt.sigma_nm)**2 for pt, m in zip(pts, model))
        assert chi2 <= 2.672

    def test_unweighted_start_rss_from_the_fit(self, setup, true_coeffs):
        pumps = np.linspace(394.0, 401.0, 8)
        pts = synthesize_noisy_dataset(true_coeffs, pumps, 0.005, seed=9,
                                       setup=setup)
        start = (true_coeffs[0] * 1.001, true_coeffs[1], true_coeffs[2])
        report = fit(pts, start, setup)
        assert report.rss_start_nm2 == rss(pts, start, setup)

    def test_start_without_root_raises(self, setup, true_coeffs):
        narrow = FitSetup(crystal=setup.crystal, query=setup.query,
                          search_window_nm=(530.0, 540.0))
        pts = synthesize_noisy_dataset(true_coeffs, np.linspace(392.0, 403.0, 8),
                                       0.0, seed=1, setup=setup)
        with pytest.raises(NoRootInWindow):
            fit(pts, true_coeffs, narrow)

    def test_criterion_3_clean_fit_iterations(self, setup, true_coeffs):
        # Geodesic acceleration: the plain LM took 132 iterations here.
        pts = synthesize_noisy_dataset(true_coeffs, np.linspace(392.0, 403.0, 55),
                                       0.0, seed=1, setup=setup)
        start = (true_coeffs[0] * 1.002, true_coeffs[1] * 0.99,
                 true_coeffs[2] * 1.01)
        report = fit(pts, start, setup)
        assert report.converged
        assert report.iterations <= 30
        for got, want in zip(report.fitted, true_coeffs):
            assert abs(got - want) / abs(want) < 1e-6

    def test_stop_at_pole_wall_not_converged(self, telecom_setup):
        # Only the idler is on z, and a0 + 0.2% pushes a2 onto its a2 >= 0
        # wall: the fit stops on tiny steps there, far from the data.
        crystal = telecom_setup["crystal"]
        wall_setup = FitSetup(crystal=crystal, query=telecom_setup["query"],
                              search_window_nm=(1450.0, 1650.0))
        s = crystal.sellmeier_z
        pts = synthesize_noisy_dataset((s.a0, s.a1, s.a2),
                                       np.linspace(776.0, 784.0, 21), 0.0,
                                       seed=1, setup=wall_setup)
        report = fit(pts, (s.a0 * 1.002, s.a1, s.a2), wall_setup)
        assert report.fitted[2] < 1e-9
        assert report.rss_nm2 > 1e4
        assert not report.converged


class TestJacobian:
    @staticmethod
    def _central_differences(setup, coeffs, pumps, rel_step=1e-5):
        cols = []
        for j in range(len(coeffs)):
            h = rel_step * abs(coeffs[j])
            roots = []
            for sign in (1.0, -1.0):
                c = list(coeffs)
                c[j] += sign * h
                crystal = sellmeier_fit._crystal_with_z(setup, c)
                roots.append(phasematch.solve_signal_sweep(
                    setup.query, crystal, pumps, setup.search_window_nm))
            cols.append((roots[0] - roots[1]) / (2.0 * h))
        return np.column_stack(cols)

    @pytest.mark.parametrize("case", ["kato_zzz", "telecom_yyz"])
    def test_matches_central_differences(self, case, setup, true_coeffs,
                                         telecom_setup):
        if case == "kato_zzz":
            fit_setup, coeffs = setup, true_coeffs
            pumps = np.linspace(392.0, 403.0, 12)
        else:
            # only the idler is polarized along z, so only it depends on a
            crystal = telecom_setup["crystal"]
            fit_setup = FitSetup(crystal=crystal, query=telecom_setup["query"],
                                 search_window_nm=(1450.0, 1650.0))
            s = crystal.sellmeier_z
            coeffs = (s.a0, s.a1, s.a2)
            pumps = np.linspace(776.0, 784.0, 9)
        roots = phasematch.solve_signal_sweep(
            fit_setup.query, fit_setup.crystal, pumps, fit_setup.search_window_nm)
        exact, _ = model_derivatives(pumps, roots, coeffs, fit_setup)
        numeric = self._central_differences(fit_setup, coeffs, pumps)
        assert np.abs(exact / numeric - 1.0).max() < 1e-5

    def test_nan_roots_stay_nan(self, setup, true_coeffs):
        jac, _ = model_derivatives([395.0, 397.6], [math.nan, 533.0], true_coeffs,
                                   setup)
        assert np.isnan(jac[0]).all()
        assert np.isfinite(jac[1]).all()

    def test_no_more_iterations_than_forward_differences(self, setup, true_coeffs,
                                                         monkeypatch):
        pumps = np.linspace(392.0, 403.0, 15)
        pts = synthesize_noisy_dataset(true_coeffs, pumps, 0.0, seed=5,
                                       setup=setup)
        start = (true_coeffs[0] * 1.002, true_coeffs[1] * 0.99,
                 true_coeffs[2] * 1.01)
        exact = fit(pts, start, setup)
        lm = numerics.least_squares_fit
        # the all-finite-difference fit: no analytic Jacobian or curvature
        monkeypatch.setattr(numerics, "least_squares_fit",
                            lambda *args, jacobian=None, **kw: lm(*args, **kw))
        forward = fit(pts, start, setup)
        for got, want in zip(exact.fitted, true_coeffs):
            assert abs(got - want) / abs(want) < 1e-6
        assert exact.converged
        assert exact.iterations <= forward.iterations


class TestCurvature:
    @staticmethod
    def _case(case, setup, true_coeffs, telecom_setup):
        if case == "kato_zzz":
            return setup, np.array(true_coeffs), np.linspace(392.0, 403.0, 12)
        # only the idler is polarized along z, so only it depends on a
        crystal = telecom_setup["crystal"]
        fit_setup = FitSetup(crystal=crystal, query=telecom_setup["query"],
                             search_window_nm=(1450.0, 1650.0))
        s = crystal.sellmeier_z
        return fit_setup, np.array([s.a0, s.a1, s.a2]), np.linspace(776.0, 784.0, 9)

    @pytest.mark.parametrize("case", ["kato_zzz", "telecom_yyz"])
    def test_matches_central_differences(self, case, setup, true_coeffs,
                                         telecom_setup):
        fit_setup, coeffs, pumps = self._case(case, setup, true_coeffs, telecom_setup)
        # along the criterion-3 start offsets; the difference error is O(h^2)
        v = coeffs * np.array([0.002, -0.01, 0.01])
        h = 0.03
        at = lambda c: model_signal_wavelength(pumps, c, fit_setup)
        roots = at(coeffs)
        numeric = (at(coeffs + h * v) - 2.0 * roots + at(coeffs - h * v)) / h**2
        exact = model_derivatives(pumps, roots, coeffs, fit_setup)[1](v)
        assert np.abs(exact / numeric - 1.0).max() < 1e-5

    def test_nan_roots_stay_nan(self, setup, true_coeffs):
        _, curvature = model_derivatives([395.0, 397.6], [math.nan, 533.0],
                                         true_coeffs, setup)
        got = curvature([0.01, -0.001, 0.0001])
        assert np.isnan(got[0])
        assert np.isfinite(got[1])

    def test_fit_sweeps_once_per_trial(self, setup, true_coeffs, monkeypatch):
        # the LM's start, then one sweep per trial: no geodesic probe sweeps
        pts = synthesize_noisy_dataset(true_coeffs, np.linspace(392.0, 403.0, 15),
                                       0.0, seed=5, setup=setup)
        sweeps, curvatures = [], []
        sweep, derivatives = phasematch.solve_signal_sweep, sellmeier_fit.model_derivatives

        def counted_derivatives(*a, **kw):
            jac, curvature = derivatives(*a, **kw)
            return jac, lambda v: curvatures.append(1) or curvature(v)

        monkeypatch.setattr(phasematch, "solve_signal_sweep",
                            lambda *a, **kw: sweeps.append(1) or sweep(*a, **kw))
        monkeypatch.setattr(sellmeier_fit, "model_derivatives", counted_derivatives)
        start = (true_coeffs[0] * 1.002, true_coeffs[1] * 0.99, true_coeffs[2] * 1.01)
        report = fit(pts, start, setup)
        assert report.converged
        assert len(sweeps) == 1 + len(curvatures)

    def test_derivatives_once_per_iteration(self, setup, true_coeffs, monkeypatch):
        # criterion 3's clean fit: one mismatch-derivative pass per LM
        # iteration, shared by its Jacobian and every trial's curvature, and
        # one at the returned parameters for the standard errors
        pts = synthesize_noisy_dataset(true_coeffs, np.linspace(392.0, 403.0, 55),
                                       0.0, seed=1, setup=setup)
        passes, derivatives = [], sellmeier_fit._mismatch_derivatives
        monkeypatch.setattr(sellmeier_fit, "_mismatch_derivatives",
                            lambda *a, **kw: passes.append(1) or derivatives(*a, **kw))
        start = (true_coeffs[0] * 1.002, true_coeffs[1] * 0.99, true_coeffs[2] * 1.01)
        report = fit(pts, start, setup)
        assert report.converged
        assert len(passes) == report.iterations + 1 == 14


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        pts = [MeasurementPoint(397.6, 533.2, 0.5),
               MeasurementPoint(398.0, 534.1, 0.4)]
        path = tmp_path / "data.csv"
        save_dataset_csv(pts, path)
        assert load_dataset_csv(path) == pts

    def test_missing_sigma_defaults(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("lambda_pump_nm,lambda_vis_nm,sigma_nm\n397.6,533.2,\n")
        pts = load_dataset_csv(path)
        assert pts[0].sigma_nm == 1.0

    def test_point_validation(self):
        with pytest.raises(DomainError):
            MeasurementPoint(0.0, 533.0)


class TestFractionRanges:
    def test_first_fraction_dominates(self, kato_crystal):
        r1, r2 = sellmeier_fraction_ranges(kato_crystal.sellmeier_z)
        # the second pole fraction barely moves over the band, which is why
        # only the first three coefficients are freed in the fit
        assert r1 > 10.0 * r2
