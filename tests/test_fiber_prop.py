import csv
import math

import numpy as np
import pytest

from photonkit.biphoton import GaussianFit2D, JsaGrid
from photonkit.errors import DomainError, GridTooCoarse, ZeroDispersion
from photonkit.fiber_prop import (
    FiberSpec,
    TimeGrid,
    TimeStats,
    dispersion_scale,
    far_field_parameter,
    group_delay_dispersion_fs2,
    propagate_exact,
    propagate_stationary,
    save_time_grid_csv,
    time_grid_stats,
    time_stats_from_frequency,
)

REFERENCE_FIBER = FiberSpec(gvd_2beta_s2_per_m=-2.27e-26, length_m=1.0e4)


def gaussian_grid(sigma_s, sigma_i, rho, n, span_sigmas=6.0):
    """Zero-centered correlated Gaussian probability grid."""
    ws = np.linspace(-span_sigmas * sigma_s, span_sigmas * sigma_s, n)
    wi = np.linspace(-span_sigmas * sigma_i, span_sigmas * sigma_i, n)
    us = (ws[:, None]) / sigma_s
    ui = (wi[None, :]) / sigma_i
    q = (us**2 - 2 * rho * us * ui + ui**2) / (2 * (1 - rho**2))
    return JsaGrid(ws, wi, np.exp(-q))


class TestScales:
    def test_reference_accumulated_dispersion(self):
        assert group_delay_dispersion_fs2(REFERENCE_FIBER) == \
            pytest.approx(-2.27e8, rel=1e-15)

    def test_scale_ns_per_phz(self):
        assert dispersion_scale(REFERENCE_FIBER) == pytest.approx(227.0)

    def test_sign_dropped_in_scale(self):
        flipped = FiberSpec(gvd_2beta_s2_per_m=2.27e-26, length_m=1.0e4)
        assert dispersion_scale(flipped) == dispersion_scale(REFERENCE_FIBER)

    def test_far_field_parameter(self):
        got = far_field_parameter(REFERENCE_FIBER, 0.01)
        assert got == pytest.approx(2.27e8 * 1e-4)

    def test_length_validation(self):
        with pytest.raises(DomainError):
            FiberSpec(gvd_2beta_s2_per_m=1e-22, length_m=-1.0)


class TestFrequencyMap:
    def test_widths_and_correlation(self):
        fit = GaussianFit2D(amplitude=1.0, signal_center_phz=1.0,
                            idler_center_phz=1.0, signal_sigma_phz=0.01,
                            idler_sigma_phz=0.02, pearson=-0.4,
                            standard_errors=(0,) * 6, near_singular=False,
                            rss=0.0)
        stats = time_stats_from_frequency(fit, REFERENCE_FIBER)
        assert stats.tau_s_ns == pytest.approx(2.27)
        assert stats.tau_i_ns == pytest.approx(4.54)
        assert stats.pearson_t == pytest.approx(-0.4)


class TestStationary:
    def test_machine_precision_moments(self):
        grid = gaussian_grid(0.01, 0.015, 0.6, 128)
        tg = propagate_stationary(grid, REFERENCE_FIBER)
        stats = time_grid_stats(tg)
        scale = dispersion_scale(REFERENCE_FIBER)

        freq = time_grid_stats(TimeGrid(grid.omega_s_phz, grid.omega_i_phz,
                                        grid.probability))
        assert stats.tau_s_ns == pytest.approx(scale * freq.tau_s_ns,
                                               rel=1e-13)
        assert stats.tau_i_ns == pytest.approx(scale * freq.tau_i_ns,
                                               rel=1e-13)
        assert stats.pearson_t == pytest.approx(freq.pearson_t, abs=1e-13)

    def test_probability_mass_preserved(self):
        grid = gaussian_grid(0.01, 0.01, -0.3, 64)
        tg = propagate_stationary(grid, REFERENCE_FIBER)
        assert tg.probability.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.sort(tg.probability.ravel()) == pytest.approx(
            np.sort(grid.probability.ravel()))

    def test_negative_dispersion_axis_flip(self):
        grid = gaussian_grid(0.01, 0.01, 0.5, 32)
        pos = propagate_stationary(
            grid, FiberSpec(gvd_2beta_s2_per_m=2.27e-26, length_m=1.0e4))
        neg = propagate_stationary(
            grid, FiberSpec(gvd_2beta_s2_per_m=-2.27e-26, length_m=1.0e4))
        assert np.all(np.diff(pos.t_s_ns) > 0)
        assert np.all(np.diff(neg.t_s_ns) > 0)
        # the same moments either way
        assert time_grid_stats(pos).pearson_t == pytest.approx(
            time_grid_stats(neg).pearson_t, abs=1e-13)

    @pytest.mark.parametrize("gvd", [-2.27e-26, 2.27e-26])
    def test_shares_grid_memory(self, gvd):
        grid = gaussian_grid(0.01, 0.01, 0.5, 32)
        tg = propagate_stationary(grid, FiberSpec(gvd, 1.0e4))
        assert np.shares_memory(tg.probability, grid.probability)
        assert not tg.probability.flags.writeable

    def test_zero_dispersion(self):
        grid = gaussian_grid(0.01, 0.01, 0.0, 16)
        with pytest.raises(ZeroDispersion):
            propagate_stationary(grid, FiberSpec(0.0, 1000.0))


class TestExact:
    def test_agrees_with_stationary_in_far_field(self):
        # far-field parameter 2 beta D sigma^2 = 20 >> 1
        sigma = math.sqrt(20.0 / 2.27e8)
        grid = gaussian_grid(sigma, sigma, 0.5, 512)
        exact = time_grid_stats(propagate_exact(grid, REFERENCE_FIBER))
        stat = time_grid_stats(propagate_stationary(grid, REFERENCE_FIBER))
        assert exact.tau_s_ns == pytest.approx(stat.tau_s_ns, rel=0.02)
        assert exact.tau_i_ns == pytest.approx(stat.tau_i_ns, rel=0.02)
        assert exact.pearson_t == pytest.approx(stat.pearson_t, abs=0.02)

    def test_normalized_output(self):
        sigma = math.sqrt(20.0 / 2.27e8)
        grid = gaussian_grid(sigma, sigma, 0.0, 512)
        tg = propagate_exact(grid, REFERENCE_FIBER)
        assert tg.probability.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_too_coarse(self):
        # offset axes make the quadratic phase wrap between samples
        ws = np.linspace(1.2, 1.25, 32)
        grid = JsaGrid(ws, ws.copy(),
                       np.exp(-((ws[:, None] - 1.225) ** 2
                                + (ws[None, :] - 1.225) ** 2)
                              / 1e-4))
        with pytest.raises(GridTooCoarse):
            propagate_exact(grid, REFERENCE_FIBER)

    def test_nonuniform_axis_rejected(self):
        ws = np.array([0.0, 1.0, 3.0, 6.0]) * 1e-3
        grid = JsaGrid(ws, ws.copy(), np.ones((4, 4)))
        with pytest.raises(DomainError):
            propagate_exact(grid, REFERENCE_FIBER)


class TestTimeStats:
    def test_empty_grid(self):
        tg = TimeGrid(np.linspace(0, 1, 4), np.linspace(0, 1, 4),
                      np.zeros((4, 4)))
        with pytest.raises(DomainError):
            time_grid_stats(tg)

    def test_point_mass(self):
        p = np.zeros((5, 5))
        p[2, 2] = 1.0
        tg = TimeGrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5), p)
        stats = time_grid_stats(tg)
        assert stats.tau_s_ns == 0.0
        assert stats.pearson_t == 0.0

    def test_stats_validation(self):
        with pytest.raises(DomainError):
            TimeStats(tau_s_ns=-1.0, tau_i_ns=0.0, pearson_t=0.0)
        with pytest.raises(DomainError):
            TimeStats(tau_s_ns=1.0, tau_i_ns=1.0, pearson_t=1.5)


class TestCsv:
    def test_rows_roundtrip(self, tmp_path):
        grid = gaussian_grid(0.01, 0.01, 0.2, 8)
        tg = propagate_stationary(grid, REFERENCE_FIBER)
        path = tmp_path / "times.csv"
        save_time_grid_csv(tg, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_s_ns", "t_i_ns", "probability"]
        assert len(rows) == 1 + 64
        got = float(rows[1][2])
        assert got == tg.probability[0, 0]
