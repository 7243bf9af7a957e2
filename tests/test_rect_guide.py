import math

import numpy as np
import pytest

from photonkit.errors import DomainError, NoGuidedModes
from photonkit.rect_guide import (
    RectGuideSpec,
    hollow_cutoff_thz,
    hollow_modes,
    marcatili_slab_roots,
    marcatili_solve,
)

C_UM_PER_FS = 0.299792458


@pytest.fixture(scope="module")
def hollow():
    return RectGuideSpec(width_a_um=1.0, height_b_um=0.5, core_index=1.0,
                         kind="hollow")


@pytest.fixture(scope="module")
def dielectric():
    return RectGuideSpec(width_a_um=2.0, height_b_um=1.0, core_index=2.3,
                         clad_index=1.0)


class TestSpecValidation:
    def test_dimensions(self):
        with pytest.raises(DomainError):
            RectGuideSpec(width_a_um=0.0, height_b_um=1.0, core_index=1.5)

    def test_kind(self):
        with pytest.raises(DomainError):
            RectGuideSpec(width_a_um=1.0, height_b_um=1.0, core_index=1.5,
                          kind="ridge")

    def test_index_ordering(self):
        with pytest.raises(DomainError):
            RectGuideSpec(width_a_um=1.0, height_b_um=1.0, core_index=1.2,
                          clad_index=1.5)

    @pytest.mark.parametrize("field", ["width_a_um", "height_b_um", "core_index",
                                       "clad_index"])
    def test_nan_rejected_at_its_field(self, field):
        values = dict(width_a_um=1.0, height_b_um=1.0, core_index=1.5, clad_index=1.2)
        with pytest.raises(DomainError) as info:
            RectGuideSpec(**dict(values, **{field: math.nan}))
        assert info.value.field == field


class TestHollow:
    def test_te10_cutoff_closed_form(self, hollow):
        # f_c = c / (2 a) for the fundamental: 149.896229 THz at a = 1 um
        got = hollow_cutoff_thz(hollow, 1, 0)
        assert got == pytest.approx(C_UM_PER_FS / 2.0 * 1e3, rel=1e-15)
        assert got == pytest.approx(149.896229, abs=1e-6)

    def test_cutoff_combines_both_axes(self, hollow):
        f10 = hollow_cutoff_thz(hollow, 1, 0)
        f01 = hollow_cutoff_thz(hollow, 0, 1)
        f11 = hollow_cutoff_thz(hollow, 1, 1)
        assert f11 == pytest.approx(math.hypot(f10, f01), rel=1e-14)

    def test_mode_census_and_ordering(self, hollow):
        modes = hollow_modes(hollow, 400.0)
        assert modes, "expected propagating modes at 400 THz"
        cutoffs = [m.cutoff_thz for m in modes]
        assert cutoffs == sorted(cutoffs)
        assert all(c < 400.0 for c in cutoffs)
        assert modes[0].family == "TE" and (modes[0].m, modes[0].n) == (1, 0)
        for m in modes:
            if m.family == "TE":
                assert (m.m, m.n) != (0, 0)
            else:
                assert m.m >= 1 and m.n >= 1

    def test_kz_identity(self, hollow):
        f = 400.0
        k0 = 2.0 * math.pi * f * 1e-3 / C_UM_PER_FS
        for m in hollow_modes(hollow, f):
            assert m.k_z_per_um**2 + m.k_x_per_um**2 + m.k_y_per_um**2 == \
                pytest.approx(k0**2, rel=1e-12)

    def test_below_first_cutoff(self, hollow):
        assert hollow_modes(hollow, 100.0) == []

    def test_kind_guard(self, dielectric):
        with pytest.raises(DomainError):
            hollow_modes(dielectric, 400.0)


class TestMarcatili:
    def test_slab_dispersion_residual(self, dielectric):
        # each root satisfies k d = p pi - 2 atan(f k / gamma) to 1e-10
        lam = 0.8
        k0 = 2.0 * math.pi / lam
        n1, n2 = dielectric.core_index, dielectric.clad_index
        k_lim = k0 * math.sqrt(n1**2 - n2**2)
        kx_roots, ky_roots = marcatili_slab_roots(dielectric, lam, "Ey")
        cases = [(kx_roots, dielectric.width_a_um, 1.0),
                 (ky_roots, dielectric.height_b_um, (n2 / n1) ** 2)]
        for roots, extent, factor in cases:
            assert roots
            for p, k in roots:
                gamma = math.sqrt(k_lim**2 - k**2)
                res = k * extent - p * math.pi \
                    + 2.0 * math.atan(factor * k / gamma)
                assert abs(res) < 1e-10

    def test_index_factor_swaps_between_families(self, dielectric):
        lam = 0.8
        kx_ey, ky_ey = marcatili_slab_roots(dielectric, lam, "Ey")
        kx_ex, ky_ex = marcatili_slab_roots(dielectric, lam, "Ex")
        # the factored equation admits slightly larger roots, so the factored
        # axis of one family disagrees with the unfactored axis of the other
        assert kx_ey[0][1] != pytest.approx(kx_ex[0][1], rel=1e-6)
        assert ky_ey[0][1] != pytest.approx(ky_ex[0][1], rel=1e-6)

    def test_modes_sorted_and_guided(self, dielectric):
        lam = 0.8
        k0 = 2.0 * math.pi / lam
        modes = marcatili_solve(dielectric, lam, "Ey")
        kzs = [m.k_z_per_um for m in modes]
        assert kzs == sorted(kzs, reverse=True)
        for m in modes:
            n_eff = m.k_z_per_um / k0
            assert dielectric.clad_index < n_eff < dielectric.core_index

    def test_kz_identity(self, dielectric):
        lam = 0.8
        k0 = 2.0 * math.pi / lam
        for m in marcatili_solve(dielectric, lam, "Ey"):
            total = m.k_x_per_um**2 + m.k_y_per_um**2 + m.k_z_per_um**2
            assert total == pytest.approx((k0 * dielectric.core_index) ** 2,
                                          rel=1e-12)

    def test_no_guided_modes(self):
        thin = RectGuideSpec(width_a_um=0.05, height_b_um=0.05,
                             core_index=1.05, clad_index=1.0)
        with pytest.raises(NoGuidedModes):
            marcatili_solve(thin, 1.55, "Ey")

    def test_polarization_validation(self, dielectric):
        with pytest.raises(DomainError):
            marcatili_solve(dielectric, 0.8, "TE")


    @pytest.mark.parametrize("polarization", ["Ey", "Ex"])
    def test_slab_roots_agree_with_brentq(self, dielectric, polarization):
        # scipy is the reference only. Both stop within 1e-14 of the root
        # (brentq within 1e-14 + 4 eps k), so they agree to twice that.
        from scipy import optimize

        eps = np.finfo(float).eps
        k0 = 2.0 * math.pi / 1.55
        n1, n2 = dielectric.core_index, dielectric.clad_index
        k_lim = k0 * math.sqrt(n1**2 - n2**2)
        lo, hi = 1e-12 * k_lim, k_lim - 1e-12 * k_lim
        factor = (n2 / n1) ** 2
        kx, ky = marcatili_slab_roots(dielectric, 1.55, polarization)
        for roots, extent, fi in (
                (kx, dielectric.width_a_um, factor if polarization == "Ex" else 1.0),
                (ky, dielectric.height_b_um, factor if polarization == "Ey" else 1.0)):
            def f(k, p):
                return (k * extent - p * math.pi
                        + 2.0 * math.atan(fi * k / math.sqrt(k_lim**2 - k**2)))

            assert [p for p, _ in roots] == list(range(1, len(roots) + 1))
            assert roots and f(hi, len(roots) + 1) <= 0
            for p, k in roots:
                ref = optimize.brentq(f, lo, hi, args=(p,), xtol=1e-14)
                assert abs(k - ref) <= 2e-14 + 4 * eps * ref
