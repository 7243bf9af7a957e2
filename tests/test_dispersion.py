import dataclasses
import json
import math

import numpy as np
import pytest

from photonkit.dispersion import (
    CrystalSpec,
    Polarization,
    SellmeierSet,
    builtin_crystal_path,
    crystal_to_dict,
    index_and_derivative,
    index_derivatives,
    load_crystal,
    poling_period,
    refractive_index,
    sellmeier_fraction_ranges,
    wavevector_magnitude,
)
from photonkit.errors import (
    DomainError,
    NegativeRadicand,
    PoleProximity,
    Unpoled,
)


class TestSellmeierSet:
    def test_validation(self):
        with pytest.raises(DomainError):
            SellmeierSet(0.0, 1.0, 0.1, 1.0, 0.2)
        with pytest.raises(DomainError):
            SellmeierSet(1.0, 1.0, -0.1, 1.0, 0.2)
        with pytest.raises(DomainError):
            SellmeierSet(1.0, 1.0, 0.1, 1.0, 0.1)
        for i in range(5):
            for bad in (math.nan, math.inf):
                coeffs = [2.0, 1.0, 0.1, 1.0, 0.2]
                coeffs[i] = bad
                with pytest.raises(DomainError):
                    SellmeierSet(*coeffs)

    def test_equal_zero_poles_allowed(self):
        SellmeierSet(1.0, 0.0, 0.0, 0.0, 0.0)


class TestRefractiveIndex:
    def test_formula(self, kato_crystal):
        s = kato_crystal.sellmeier_z
        lam = 0.5
        expected = math.sqrt(s.a0 + s.a1 / (lam**2 - s.a2)
                             + s.a3 / (lam**2 - s.a4))
        assert refractive_index(s, lam) == pytest.approx(expected, rel=1e-15)

    def test_constant_index_degeneracy(self):
        s = SellmeierSet(2.25, 0.0, 0.0, 0.0, 0.0)
        lam = np.array([0.4, 0.8, 1.6])
        assert refractive_index(s, lam) == pytest.approx([1.5, 1.5, 1.5])

    def test_normal_dispersion_monotone(self, kato_crystal):
        lam = np.linspace(0.4, 1.6, 200)
        n = refractive_index(kato_crystal.sellmeier_z, lam)
        assert np.all(np.diff(n) < 0)

    def test_pole_proximity(self):
        s = SellmeierSet(2.0, 1.0, 0.25, 0.0, 0.0)
        with pytest.raises(PoleProximity):
            refractive_index(s, 0.5)

    def test_negative_radicand(self):
        s = SellmeierSet(1.0, -5.0, 0.0, 0.0, 0.0)
        with pytest.raises(NegativeRadicand):
            refractive_index(s, 0.5)

    def test_wavelength_validation(self):
        s = SellmeierSet(2.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            refractive_index(s, 0.0)

    @pytest.mark.parametrize("fn", [refractive_index, index_and_derivative,
                                    index_derivatives])
    def test_check_precedence(self, fn):
        # non-positive wavelength, then pole, then radicand, over the whole
        # array: lam = 0 sits on the a2 = 0 pole and is still a plain DomainError
        with pytest.raises(DomainError, match="wavelength must be positive") as exc:
            fn(SellmeierSet(2.0, 1.0, 0.0, 0.0, 0.0), 0.0)
        assert type(exc.value) is DomainError
        with pytest.raises(DomainError) as exc:
            fn(SellmeierSet(2.0, 1.0, 0.25, 0.0, 0.0), np.array([0.5, 0.0, 0.8]))
        assert type(exc.value) is DomainError
        # a pole beside a negative radicand
        s = SellmeierSet(1.0, -5.0, 0.25, 0.0, 0.0)
        with pytest.raises(PoleProximity, match="within 1e-9 um"):
            fn(s, np.array([0.6, 0.5]))
        with pytest.raises(NegativeRadicand, match="radicand is not positive"):
            fn(s, np.array([0.6, 0.7]))

    @pytest.mark.parametrize("fn", [refractive_index, index_and_derivative,
                                    index_derivatives])
    @pytest.mark.parametrize("lam", [-0.8, np.array([0.5, -0.8])],
                             ids=["scalar", "array"])
    def test_negative_wavelength(self, kato_crystal, fn, lam):
        # lam^2 is positive here: the check is of lam itself
        with pytest.raises(DomainError, match="wavelength must be positive") as exc:
            fn(kato_crystal.sellmeier_z, lam)
        assert type(exc.value) is DomainError

    def test_nan_passes_through(self, kato_crystal):
        s = kato_crystal.sellmeier_z
        assert math.isnan(refractive_index(s, math.nan))
        n = refractive_index(s, np.array([0.5, math.nan]))
        assert n[0] == refractive_index(s, 0.5) and math.isnan(n[1])
        n, dn = index_and_derivative(s, math.nan)
        assert math.isnan(n) and math.isnan(dn)
        n, dn = index_and_derivative(s, np.array([math.nan, 0.8]))
        assert (n[1], dn[1]) == index_and_derivative(s, 0.8)
        assert math.isnan(n[0]) and math.isnan(dn[0])
        # NaN hides no invalid wavelength beside it
        with pytest.raises(DomainError):
            refractive_index(s, np.array([math.nan, 0.0]))


class TestIndexAndDerivative:
    def test_index_matches_refractive_index(self, kato_crystal):
        lam = np.linspace(0.4, 1.6, 50)
        n, _ = index_and_derivative(kato_crystal.sellmeier_z, lam)
        assert np.array_equal(n, refractive_index(kato_crystal.sellmeier_z, lam))

    def test_slope_matches_central_difference(self, kato_crystal):
        for sell in (kato_crystal.sellmeier_y, kato_crystal.sellmeier_z):
            lam = np.linspace(0.4, 1.6, 13)
            h = 1e-6
            numeric = (refractive_index(sell, lam + h)
                       - refractive_index(sell, lam - h)) / (2.0 * h)
            _, dn = index_and_derivative(sell, lam)
            assert dn == pytest.approx(numeric, rel=1e-7)

    def test_scalar_returns_floats(self, kato_crystal):
        n, dn = index_and_derivative(kato_crystal.sellmeier_z, 0.8)
        assert isinstance(n, float) and isinstance(dn, float)

    def test_guards(self):
        with pytest.raises(PoleProximity):
            index_and_derivative(SellmeierSet(2.0, 1.0, 0.25, 0.0, 0.0), 0.5)
        with pytest.raises(NegativeRadicand):
            index_and_derivative(SellmeierSet(1.0, -5.0, 0.0, 0.0, 0.0), 0.5)
        with pytest.raises(DomainError):
            index_and_derivative(SellmeierSet(2.0, 0.0, 0.0, 0.0, 0.0), 0.0)


class TestIndexDerivatives:
    @staticmethod
    def _shifted(sell, j, step):
        coeffs = np.array(sell.as_tuple())
        return SellmeierSet(*(coeffs + step * np.eye(5)[j]))

    @pytest.mark.parametrize("axis", ["y", "z"])
    def test_first_order_matches_index_and_derivative(self, kato_crystal, axis):
        sell = getattr(kato_crystal, f"sellmeier_{axis}")
        lam = np.linspace(0.4, 1.6, 13)
        n, dn, _, dn_a, _, _ = index_derivatives(sell, lam)
        assert np.array_equal(n, refractive_index(sell, lam))
        assert dn == pytest.approx(index_and_derivative(sell, lam)[1], rel=1e-14)
        for j in range(5):
            step = 1e-6 * max(abs(sell.as_tuple()[j]), 1e-2)
            numeric = (refractive_index(self._shifted(sell, j, step), lam)
                       - refractive_index(self._shifted(sell, j, -step), lam)) / (2 * step)
            assert np.abs(dn_a[:, j] - numeric).max() < 1e-7 * np.abs(dn_a).max()

    # central differences of the closed-form first derivatives
    @pytest.mark.parametrize("axis", ["y", "z"])
    def test_second_order_matches_central_differences(self, kato_crystal, axis):
        sell = getattr(kato_crystal, f"sellmeier_{axis}")
        lam = np.linspace(0.4, 1.6, 13)
        _, _, d2n, _, d2n_la, d2n_aa = index_derivatives(sell, lam)
        h = 1e-6
        first = lambda s, x: index_derivatives(s, x)[1]
        grad = lambda s, x: index_derivatives(s, x)[3]
        assert d2n == pytest.approx((first(sell, lam + h) - first(sell, lam - h)) / (2 * h),
                                    rel=1e-6)
        numeric = (grad(sell, lam + h) - grad(sell, lam - h)) / (2.0 * h)
        assert np.abs(d2n_la - numeric).max() < 1e-6 * np.abs(d2n_la).max()
        for j in range(5):
            step = 1e-6 * max(abs(sell.as_tuple()[j]), 1e-2)
            numeric = (grad(self._shifted(sell, j, step), lam)
                       - grad(self._shifted(sell, j, -step), lam)) / (2.0 * step)
            assert np.abs(d2n_aa[:, j] - numeric).max() < 1e-6 * np.abs(d2n_aa).max()
        assert np.array_equal(d2n_aa, np.swapaxes(d2n_aa, -1, -2))

    def test_guards(self):
        with pytest.raises(PoleProximity):
            index_derivatives(SellmeierSet(2.0, 1.0, 0.25, 0.0, 0.0), 0.5)


class TestWavevector:
    def test_unit_case(self):
        assert wavevector_magnitude(1.0, 2.0 * math.pi) == pytest.approx(1.0)

    def test_core_case(self):
        assert wavevector_magnitude(2.3, 0.8) == pytest.approx(18.064, abs=5e-4)
        assert wavevector_magnitude(1.0, 0.8) == pytest.approx(7.854, abs=5e-4)

    def test_validation(self):
        with pytest.raises(DomainError):
            wavevector_magnitude(0.0, 1.0)
        with pytest.raises(DomainError):
            wavevector_magnitude(1.0, 0.0)
        with pytest.raises(DomainError, match="must be positive"):
            wavevector_magnitude(np.array([[1.0], [math.nan]]), np.array([0.5, -0.0]))

    def test_nan_passes_through(self):
        assert math.isnan(wavevector_magnitude(math.nan, 1.0))
        k = wavevector_magnitude(np.array([[1.0], [2.0]]), np.array([math.nan, 1.0]))
        assert k.shape == (2, 2)
        assert np.isnan(k[:, 0]).all() and k[1, 1] == 2.0 * (2.0 * math.pi)


class TestPolingPeriod:
    def test_reference_temperature(self, kato_crystal):
        assert poling_period(kato_crystal, kato_crystal.t0_kelvin) == \
            pytest.approx(kato_crystal.poling_period_um, rel=1e-15)

    def test_linear_expansion(self, kato_crystal):
        # Both shipped crystals have alpha_per_kelvin 0, so the expansion is
        # exercised with a synthetic 1e-5 /K, not a material value.
        crystal = dataclasses.replace(kato_crystal, alpha_per_kelvin=1e-5)
        base = crystal.poling_period_um
        got = poling_period(crystal, crystal.t0_kelvin + 10.0)
        assert got > base
        assert got == pytest.approx(base * (1.0 + 10.0 * 1e-5), rel=1e-15)
        assert poling_period(crystal, crystal.t0_kelvin - 10.0) < base

    def test_unpoled(self, kato_crystal):
        bare = CrystalSpec(name="bare", sellmeier_x=kato_crystal.sellmeier_x,
                           sellmeier_y=kato_crystal.sellmeier_y,
                           sellmeier_z=kato_crystal.sellmeier_z,
                           length_um=1000.0)
        with pytest.raises(Unpoled):
            poling_period(bare, 300.0)


class TestCrystalIO:
    def test_builtin_crystals_load(self):
        for name in ("ppktp_kato2002", "ppktp_type2_telecom"):
            crystal = load_crystal(builtin_crystal_path(name))
            assert crystal.name
            assert crystal.length_um > 0
            assert crystal.poling_period_um > 0

    def test_unknown_builtin(self):
        with pytest.raises(DomainError):
            builtin_crystal_path("does_not_exist")

    def test_roundtrip(self, kato_crystal, tmp_path):
        path = tmp_path / "crystal.json"
        path.write_text(json.dumps(crystal_to_dict(kato_crystal)))
        back = load_crystal(path)
        assert back == kato_crystal

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(DomainError):
            load_crystal(path)

    def test_axis_set_mapping(self, kato_crystal):
        c = kato_crystal
        assert c.axis_set(Polarization.Z) is c.sellmeier_z
        assert c.axis_set(Polarization.SLOW) is c.sellmeier_z
        assert c.axis_set(Polarization.Y) is c.sellmeier_y
        assert c.axis_set(Polarization.FAST) is c.sellmeier_y
        assert c.axis_set(Polarization.X) is c.sellmeier_x

    def test_spec_validation(self, kato_crystal):
        with pytest.raises(DomainError):
            CrystalSpec(name="x", sellmeier_x=kato_crystal.sellmeier_x,
                        sellmeier_y=kato_crystal.sellmeier_y,
                        sellmeier_z=kato_crystal.sellmeier_z, length_um=0.0)
        for field in ("length_um", "poling_period_um", "t0_kelvin", "alpha_per_kelvin"):
            for bad in (math.nan, math.inf):
                with pytest.raises(DomainError):
                    dataclasses.replace(kato_crystal, **{field: bad})


class TestFractionRanges:
    @pytest.mark.parametrize("name", ["ppktp_kato2002", "ppktp_type2_telecom"])
    def test_matches_the_formula(self, name):
        crystal = load_crystal(builtin_crystal_path(name))
        lam2 = np.linspace(0.4, 1.8, 2001) ** 2
        for s in (crystal.sellmeier_x, crystal.sellmeier_y, crystal.sellmeier_z):
            assert sellmeier_fraction_ranges(s) == (
                float(np.ptp(s.a1 / (lam2 - s.a2))), float(np.ptp(s.a3 / (lam2 - s.a4))))

    def test_pole_in_the_interval(self):
        with pytest.raises(PoleProximity):
            sellmeier_fraction_ranges(SellmeierSet(2.0, 1.0, 0.25, 0.0, 0.0),
                                      (0.4, 0.6), samples=3)
