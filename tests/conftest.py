import pytest

from photonkit import bent_guide, biphoton, phasematch
from photonkit.dispersion import builtin_crystal_path, load_crystal
from photonkit.phasematch import PhaseMatchQuery


@pytest.fixture(scope="session")
def kato_crystal():
    return load_crystal(builtin_crystal_path("ppktp_kato2002"))


@pytest.fixture(scope="session")
def telecom_crystal():
    return load_crystal(builtin_crystal_path("ppktp_type2_telecom"))


@pytest.fixture(scope="session")
def bent_reference_spec():
    """Annular guide used for the golden mode table."""
    return bent_guide.BentGuideSpec(
        inner_radius_um=0.5, outer_radius_um=1.5, half_height_um=0.25,
        core_index=2.3, clad_index=1.0, vacuum_wavelength_um=0.8)


@pytest.fixture(scope="session")
def vis_ir_setup(kato_crystal):
    """Degenerate-free VIS/IR source: pump sum frequency 4.7375 PHz, all-z.

    The grid is centred on the pair the crystal phase-matches collinearly at
    the pump centre, signal 541.97 nm (3.4756 PHz), so that its window holds
    the source rather than a far sinc lobe."""
    pump_sum_phz = 4.7375
    query = PhaseMatchQuery(
        pump_wavelength_nm=float(
            biphoton.wavelength_um_from_omega_phz(pump_sum_phz)) * 1e3,
        qpm_sign=-1)
    tau = biphoton.fwhm_omega_to_tau(0.01763, "fourier")
    pump = biphoton.PumpSpec(central_frequency_phz=pump_sum_phz,
                             pulse_duration_fs=tau, spatial_width_um=48.0)
    coupling = biphoton.CouplingSpec(signal_width_um=13.7, idler_width_um=48.0)
    matched = phasematch.solve_signal_wavelength(query, kato_crystal, (450.0, 700.0))
    signal_center = float(biphoton.omega_phz_from_wavelength_um(
        matched.signal_wavelength_nm * 1e-3))
    return {"crystal": kato_crystal, "query": query, "pump": pump,
            "coupling": coupling, "signal_center": signal_center,
            "idler_center": pump_sum_phz - signal_center}


@pytest.fixture(scope="session")
def telecom_setup(telecom_crystal):
    """Type-II telecom source: pump 780.1 nm on y, signal y, idler z."""
    query = PhaseMatchQuery(pump_wavelength_nm=780.1, pol_pump="y",
                            pol_signal="y", pol_idler="z", qpm_sign=1)
    coupling = biphoton.CouplingSpec(signal_width_um=48.75,
                                     idler_width_um=48.75)
    return {"crystal": telecom_crystal, "query": query, "coupling": coupling,
            "pump_sum_phz": 2.4148, "signal_center": 1.2209,
            "idler_center": 1.19404}
