import math

import numpy as np
import pytest

from photonkit.errors import DomainError, ZeroMean
from photonkit.photon_stats import (
    CountRecord,
    NumberMoments,
    branch,
    classify_g2,
    coherent_moments,
    fock_moments,
    g2_from_moments,
    simulate_poisson,
    thermal_moments,
    tmsv_moments,
)


class TestClosedFormG2:
    def test_single_photon(self):
        assert g2_from_moments(fock_moments(1)) == pytest.approx(0.0)

    def test_two_photon(self):
        assert g2_from_moments(fock_moments(2)) == pytest.approx(0.5)

    def test_coherent(self):
        for mean in (0.1, 1.0, 37.0):
            assert g2_from_moments(coherent_moments(mean)) == \
                pytest.approx(1.0, abs=1e-14)

    def test_thermal(self):
        for beta in (0.1, 1.0, 5.0):
            assert g2_from_moments(thermal_moments(beta)) == \
                pytest.approx(2.0, abs=1e-12)

    def test_zero_mean(self):
        with pytest.raises(ZeroMean):
            g2_from_moments(NumberMoments(mean=0.0, variance=0.0))

    def test_classify(self):
        assert classify_g2(0.0) == "sub-poissonian"
        assert classify_g2(1.0) == "poissonian"
        assert classify_g2(2.0) == "super-poissonian"

    def test_fock_validation(self):
        with pytest.raises(DomainError):
            fock_moments(0)

    # NaN or infinite parameters, and moments or a squared mean beyond the
    # float range, which g2 cannot divide by.
    @pytest.mark.parametrize("moments_of,param", [
        (coherent_moments, math.nan), (coherent_moments, math.inf),
        (coherent_moments, 1e200), (coherent_moments, 1e-320),
        (thermal_moments, math.nan), (thermal_moments, 1e6),
        (thermal_moments, 700.0), (thermal_moments, 1e-200),
        (tmsv_moments, math.nan), (tmsv_moments, math.inf), (tmsv_moments, 1e3),
        (tmsv_moments, 200.0),
        pytest.param(fock_moments, 10**160, id="fock_moments-10**160"),
        pytest.param(fock_moments, 10**400, id="fock_moments-10**400"),
    ])
    def test_unrepresentable_moments_rejected(self, moments_of, param):
        with pytest.raises(DomainError):
            moments_of(param)


class TestThermal:
    def test_bose_einstein_mean(self):
        # mean occupation 1 / (e^x - 1)
        assert thermal_moments(1.0).mean == pytest.approx(
            1.0 / math.expm1(1.0), rel=1e-15)

    def test_variance_formula(self):
        m = thermal_moments(0.5)
        assert m.variance == pytest.approx(m.mean**2 + m.mean, rel=1e-14)


class TestTmsv:
    def test_unit_squeezing_values(self):
        s = tmsv_moments(1.0)
        assert s.per_mode.mean == pytest.approx(1.3811, abs=5e-5)
        assert s.per_mode.variance == pytest.approx(3.28853, abs=5e-6)
        assert s.difference_variance == 0.0
        assert s.cross_pearson == 1.0

    def test_vacuum_edge(self):
        s = tmsv_moments(0.0)
        assert s.per_mode.mean == 0.0
        assert s.per_mode.variance == 0.0
        assert s.cross_pearson == 0.0

    def test_super_thermal_g2(self):
        # per-mode marginal of a TMSV is thermal: g2 = 2
        s = tmsv_moments(0.7)
        assert g2_from_moments(s.per_mode) == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            tmsv_moments(-0.1)


class TestPoissonSimulation:
    def test_frozen_vector(self):
        rec = simulate_poisson(1000.0, 0.1, seed=12345)
        assert len(rec) == 106
        first = rec.arrival_times_s[:5]
        assert first == pytest.approx([0.000289504721, 0.000678329942,
                                       0.00098614077, 0.00185300879,
                                       0.00264969682], rel=1e-8)

    def test_determinism(self):
        a = simulate_poisson(500.0, 0.2, seed=7)
        b = simulate_poisson(500.0, 0.2, seed=7)
        c = simulate_poisson(500.0, 0.2, seed=8)
        assert a == b
        assert a != c

    def test_times_within_horizon(self):
        rec = simulate_poisson(200.0, 0.5, seed=3)
        times = np.array(rec.arrival_times_s)
        assert np.all(times >= 0) and np.all(times < 0.5)
        assert np.all(np.diff(times) > 0)

    def test_count_near_expectation(self):
        # lam = 2000: a 5-sigma band is 2000 +/- 224
        rec = simulate_poisson(10000.0, 0.2, seed=99)
        assert abs(len(rec) - 2000) < 224

    def test_validation(self):
        with pytest.raises(DomainError):
            simulate_poisson(0.0, 1.0, seed=1)
        with pytest.raises(DomainError):
            simulate_poisson(1.0, 0.0, seed=1)


class TestBranch:
    def test_frozen_vector(self):
        rec = simulate_poisson(1000.0, 0.1, seed=12345)
        kept, dropped = branch(rec, 0.5, seed=777)
        assert len(kept) == 49
        assert len(dropped) == 57
        assert kept.arrival_times_s[:3] == pytest.approx(
            [0.000678329942, 0.00098614077, 0.00264969682], rel=1e-8)

    def test_partition_invariant(self):
        rec = simulate_poisson(800.0, 0.1, seed=11)
        kept, dropped = branch(rec, 0.3, seed=13)
        merged = sorted(kept.arrival_times_s + dropped.arrival_times_s)
        assert tuple(merged) == rec.arrival_times_s

    def test_extreme_probabilities(self):
        rec = simulate_poisson(800.0, 0.05, seed=2)
        kept, dropped = branch(rec, 1.0, seed=5)
        assert kept == rec and len(dropped) == 0
        kept, dropped = branch(rec, 0.0, seed=5)
        assert len(kept) == 0 and dropped == rec

    def test_empty_record(self):
        kept, dropped = branch(CountRecord(()), 0.5, seed=1)
        assert len(kept) == 0 and len(dropped) == 0

    def test_validation(self):
        with pytest.raises(DomainError):
            branch(CountRecord(()), 1.5, seed=1)


class TestCountRecord:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            CountRecord((0.2, 0.1))
        with pytest.raises(DomainError):
            CountRecord((0.1, 0.1))
        with pytest.raises(DomainError):
            CountRecord((-0.1, 0.1))

