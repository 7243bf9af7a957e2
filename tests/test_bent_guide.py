import dataclasses
import math

import numpy as np
import pytest

from photonkit import numerics, special
from photonkit.bent_guide import (
    AZIMUTHAL_SCAN_STEP,
    BentGuideSpec,
    BentModeSolution,
    assemble_mode,
    azimuthal_numbers,
    count_vertical_modes,
    effective_index,
    mean_radius,
    qff_transform_check,
    radial_determinant,
    robustly_guided,
    solve_modes,
    vertical_roots,
)
from photonkit.errors import (
    BesselRange,
    BoundaryResidual,
    DomainError,
)


class TestSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            BentGuideSpec(1.5, 0.5, 0.25, 2.3, 1.0, 0.8)
        with pytest.raises(DomainError):
            BentGuideSpec(0.5, 1.5, 0.25, 1.0, 1.0, 0.8)
        with pytest.raises(DomainError):
            BentGuideSpec(0.5, 1.5, -0.25, 2.3, 1.0, 0.8)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(BentGuideSpec)])
    def test_nan_rejected_at_its_field(self, bent_reference_spec, field):
        with pytest.raises(DomainError) as info:
            dataclasses.replace(bent_reference_spec, **{field: math.nan})
        assert info.value.field == field

    def test_contrast_cap(self, bent_reference_spec):
        s = bent_reference_spec
        assert s.contrast_k_per_um == pytest.approx(
            s.k0_per_um * math.sqrt(s.core_index**2 - s.clad_index**2))


# Slabs beyond the golden spec for the shared slab solver: a thick multimode
# slab (11 roots), a weak-contrast one (n1 - n2 = 0.005) and one whose fourth
# root lies 4.8e-5 k_lim below cutoff.
SLAB_SPECS = {
    "thick": BentGuideSpec(0.5, 1.5, 1.0, 2.3, 1.0, 0.8),
    "weak": BentGuideSpec(0.5, 1.5, 4.0, 1.455, 1.45, 1.55),
    "near_cutoff": BentGuideSpec(0.5, 1.5, 0.2903, 2.3, 1.0, 0.8),
}


@pytest.fixture(params=["golden", *SLAB_SPECS])
def slab_spec(request, bent_reference_spec):
    return SLAB_SPECS.get(request.param, bent_reference_spec)


class TestVerticalRoots:
    def test_matching_condition(self, bent_reference_spec):
        # h^2 = k1^2 - beta_w^2 = k2^2 + beta_s^2 to 1e-12 relative
        s = bent_reference_spec
        k1 = s.k0_per_um * s.core_index
        k2 = s.k0_per_um * s.clad_index
        for root in vertical_roots(s):
            lhs = k1**2 - root.beta_w_per_um**2
            rhs = k2**2 + root.beta_s_per_um**2
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_closed_form_residuals(self, slab_spec):
        s = slab_spec
        z0 = s.half_height_um
        for root in vertical_roots(s):
            assert root.parity == ("even" if root.q % 2 else "odd")
            b, g = root.beta_w_per_um, root.beta_s_per_um
            if root.parity == "even":
                assert math.tan(b * z0) == pytest.approx(g / b, rel=1e-9)
            else:
                assert 1.0 / math.tan(b * z0) == pytest.approx(-g / b,
                                                               rel=1e-9)

    def test_ascending_q(self, bent_reference_spec):
        roots = vertical_roots(bent_reference_spec)
        assert [r.q for r in roots] == list(range(1, len(roots) + 1))
        betas = [r.beta_w_per_um for r in roots]
        assert betas == sorted(betas)

    def test_count_estimate(self, bent_reference_spec):
        n_tan, n_cot = count_vertical_modes(bent_reference_spec)
        roots = vertical_roots(bent_reference_spec)
        assert n_tan + n_cot == len(roots)

    def test_reference_counts(self, bent_reference_spec):
        assert count_vertical_modes(bent_reference_spec) == (2, 1)


    def test_spec_cases(self):
        # The cases the parametrized slab tests promise.
        assert len(vertical_roots(SLAB_SPECS["thick"])) >= 8
        weak = SLAB_SPECS["weak"]
        assert weak.core_index - weak.clad_index <= 0.01
        near = SLAB_SPECS["near_cutoff"]
        top = vertical_roots(near)[-1].beta_w_per_um
        assert 0 < 1 - top / near.contrast_k_per_um <= 1e-3

    def test_roots_agree_with_brentq(self, slab_spec):
        # scipy is the reference only, bracketing the tan/cot forms on a
        # 3200-point scan. Both stop within 1e-14 of the root (brentq within
        # 1e-14 + 4 eps beta), so they agree to twice that.
        from scipy import optimize

        eps = np.finfo(float).eps
        s = slab_spec
        cap, z0 = s.contrast_k_per_um, s.half_height_um
        gamma = lambda b: math.sqrt(cap**2 - b**2)
        families = {
            "even": lambda b: b * math.sin(b * z0) - gamma(b) * math.cos(b * z0),
            "odd": lambda b: b * math.cos(b * z0) + gamma(b) * math.sin(b * z0)}
        grid = np.linspace(cap * 1e-9, cap * (1 - 1e-12), 3200)
        ref = []
        for parity, f in families.items():
            sign = np.sign([f(b) for b in grid])
            ref += [(optimize.brentq(f, grid[i], grid[i + 1], xtol=1e-14), parity)
                    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]]
        ref.sort()
        roots = vertical_roots(s)
        assert [r.parity for r in roots] == [parity for _, parity in ref]
        for root, (beta, _) in zip(roots, ref):
            assert abs(root.beta_w_per_um - beta) <= 2e-14 + 4 * eps * beta


class TestAzimuthal:
    def test_determinant_zero_at_roots(self, bent_reference_spec):
        s = bent_reference_spec
        h = 15.0
        for p, m, gamma in azimuthal_numbers(s, h):
            scale = float(np.max(np.abs(radial_determinant(
                s, h, np.linspace(max(m - 0.5, 0.1), m + 0.5, 41)))))
            assert abs(float(radial_determinant(s, h, m))) < 1e-10 * scale

    def test_roots_agree_with_brentq(self, bent_reference_spec):
        # scipy is the reference only, on a scan 5x finer than the solver's.
        # Both stop within 1e-13 of the root (brentq within 1e-13 + 4 eps m),
        # so they agree to twice that.
        from scipy import optimize

        eps = np.finfo(float).eps
        s, h = bent_reference_spec, 15.0
        f = lambda m: float(radial_determinant(s, h, m))
        grid = np.arange(0.01, h * s.outer_radius_um, 0.01)
        sign = np.sign(radial_determinant(s, h, grid))
        ref = sorted((optimize.brentq(f, grid[i], grid[i + 1], xtol=1e-13)
                      for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]), reverse=True)
        ms = [m for _, m, _ in azimuthal_numbers(s, h)]
        assert len(ms) == len(ref) > 0
        for m, m_ref in zip(ms, ref):
            assert abs(m - m_ref) <= 2e-13 + 4 * eps * m_ref

    def test_brackets_take_few_evaluations(self, bent_reference_spec, monkeypatch):
        # The determinant gives no slope, so find_root takes false-position
        # steps: every scan bracket of the golden annulus, for each vertical
        # root, is done within 12 evaluations (bisection took 39-41). The
        # roots agree with a pure-bisection reference to 1e-13.
        s = bent_reference_spec
        solve = numerics.find_root
        evaluations = []

        def counted(f, bracket, **kwargs):
            calls = []
            root = solve(lambda m: calls.append(m) or f(m), bracket, **kwargs)
            evaluations.append(len(calls))
            return root

        verts = vertical_roots(s)
        monkeypatch.setattr(numerics, "find_root", counted)
        k1 = s.k0_per_um * s.core_index
        for vert in verts:
            h = math.sqrt(k1**2 - vert.beta_w_per_um**2)
            ms = [m for _, m, _ in azimuthal_numbers(s, h)]
            f = lambda m: float(radial_determinant(s, h, m))
            grid = np.arange(AZIMUTHAL_SCAN_STEP, h * s.outer_radius_um,
                             AZIMUTHAL_SCAN_STEP)
            sign = np.sign(radial_determinant(s, h, grid))
            ref = []
            for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
                lo, hi, f_lo = grid[i], grid[i + 1], f(grid[i])
                while hi - lo > 2 * np.spacing(hi):
                    mid = 0.5 * (lo + hi)
                    f_mid = f(mid)
                    if f_mid == 0.0:
                        lo = hi = mid
                    elif (f_mid > 0) == (f_lo > 0):
                        lo, f_lo = mid, f_mid
                    else:
                        hi = mid
                ref.append(lo)
            assert len(ms) == len(ref) > 0
            for m, m_ref in zip(ms, sorted(ref, reverse=True)):
                assert abs(m - m_ref) <= 1e-13
        assert len(evaluations) == len(verts)
        assert max(evaluations) <= 12

    def test_descending_m(self, bent_reference_spec):
        ms = [m for _, m, _ in azimuthal_numbers(bent_reference_spec, 15.0)]
        assert ms == sorted(ms, reverse=True)
        assert [p for p, _, _ in
                azimuthal_numbers(bent_reference_spec, 15.0)] == \
            list(range(1, len(ms) + 1))

    def test_bessel_range_guard(self, bent_reference_spec):
        with pytest.raises(BesselRange):
            azimuthal_numbers(bent_reference_spec, 100.0)

    def test_h_validation(self, bent_reference_spec):
        with pytest.raises(DomainError):
            azimuthal_numbers(bent_reference_spec, 0.0)


@pytest.fixture(scope="module")
def modes(bent_reference_spec):
    return solve_modes(bent_reference_spec)


class TestModes:
    def test_counts_per_family(self, modes):
        per_q = {}
        for m in modes:
            per_q[m.q] = per_q.get(m.q, 0) + 1
        assert per_q == {1: 5, 2: 4, 3: 3}

    def test_wall_residual_enforced(self, modes, bent_reference_spec):
        s = bent_reference_spec
        for mode in modes:
            prof = mode.radial_profile(
                np.array([s.inner_radius_um, s.outer_radius_um]))
            peak = float(np.max(np.abs(mode.radial_profile(
                np.linspace(s.inner_radius_um, s.outer_radius_um, 256)))))
            assert np.max(np.abs(prof)) < 1e-6 * peak

    def test_mean_radius_inside_annulus(self, modes, bent_reference_spec):
        s = bent_reference_spec
        for mode in modes:
            assert s.inner_radius_um < mode.mean_radius_um < s.outer_radius_um

    def test_effective_index_definition(self, modes, bent_reference_spec):
        s = bent_reference_spec
        for mode in modes:
            assert mode.n_eff == pytest.approx(
                mode.m / (s.k0_per_um * mode.mean_radius_um), rel=1e-12)

    def test_physical_flag_tracks_clad_index(self, modes, bent_reference_spec):
        for mode in modes:
            assert mode.physical == (mode.n_eff >
                                     bent_reference_spec.clad_index)

    def test_modes_are_complete_and_frozen(self, modes):
        for mode in modes:
            assert mode.mean_radius_um == mean_radius(mode)
            assert mode.n_eff == effective_index(mode)
        with pytest.raises(dataclasses.FrozenInstanceError):
            modes[0].n_eff = 0.0

    def test_mean_radius_evaluates_profile_once(self, modes, monkeypatch):
        calls = []
        profile = BentModeSolution.radial_profile
        monkeypatch.setattr(BentModeSolution, "radial_profile",
                            lambda mode, r: calls.append(r) or profile(mode, r))
        assert mean_radius(modes[0]) == modes[0].mean_radius_um
        assert len(calls) == 1

    def test_robust_guidance_band(self, modes, bent_reference_spec):
        flagged = {(m.p, m.q) for m in modes if not robustly_guided(m)}
        assert flagged == {(5, 1), (4, 2), (2, 3), (3, 3)}

    def test_margin_validation(self, modes):
        with pytest.raises(DomainError):
            robustly_guided(modes[0], margin=-0.1)

    def test_boundary_residual_on_mismatch(self, bent_reference_spec):
        # pairing a vertical root with an alien azimuthal root must fail
        verts = vertical_roots(bent_reference_spec)
        with pytest.raises(BoundaryResidual):
            assemble_mode(bent_reference_spec, verts[0], (1, 12.0, 0.3))

    def test_qff_residual(self, modes):
        out = qff_transform_check(modes[0])
        assert out["max_relative_residual"] < 1e-6


class TestAsymptotics:
    def test_large_order_profile_oscillates_like_slab(self):
        # far from the origin the radial solution approaches sin(h (r - r1))
        s = BentGuideSpec(9.5, 10.5, 0.25, 2.3, 1.0, 0.8)
        h = 5.5
        p, m, gamma = azimuthal_numbers(s, h)[0]
        lam = math.sqrt(m**2 + 1.0)
        r = np.linspace(s.inner_radius_um, s.outer_radius_um, 256)
        j, y = special.bessel_jy(lam, h * r)
        prof = math.sin(gamma) * j + math.cos(gamma) * y
        prof = prof / np.max(np.abs(prof))
        # effective local wavenumber from the quantum-form equation
        k_loc = np.sqrt(h**2 - (lam**2 - 0.25) / ((0.5 * (r[0] + r[-1]))**2))
        slab = np.sin(k_loc * (r - r[0]))
        slab = slab / np.max(np.abs(slab))
        assert np.max(np.abs(np.abs(prof) - np.abs(slab))) < 0.05
