import math

import pytest
import scipy.constants as sc

from coldchem import units


def test_hartree_in_kelvin():
    # CODATA: 1 hartree = 315775.02 K
    assert units.energy_to_kelvin(1.0) == pytest.approx(315775.02, rel=1e-4)


def test_amu_in_electron_masses():
    assert units.ELECTRON_MASS_PER_AMU == pytest.approx(1822.888486, rel=1e-8)


def test_debye_in_atomic_units():
    assert units.DEBYE_IN_AU == pytest.approx(0.393430, rel=1e-6)


def test_bohr_in_meters():
    assert units.BOHR_IN_METER == pytest.approx(0.529177210544e-10, rel=1e-9)


def test_rate_unit_magnitude():
    # a0^3 / atomic-time in cm^3/s, from the SI constants directly
    t0 = sc.physical_constants["atomic unit of time"][0]
    expected = (units.BOHR_IN_METER * 1e2) ** 3 / t0
    assert units.RATE_AU_IN_CM3S == pytest.approx(expected, rel=1e-14)


def test_literals_equal_scipy_constants():
    # the module holds float literals so that importing it loads no scipy;
    # each must be the very float its scipy.constants expression gives
    pc = sc.physical_constants
    assert units.HARTREE_PER_KELVIN == 1.0 / pc["hartree-kelvin relationship"][0]
    assert units.BOHR_IN_METER == pc["Bohr radius"][0]
    assert units.ELECTRON_MASS_PER_AMU == sc.atomic_mass / pc["atomic unit of mass"][0]
    assert units.DEBYE_IN_AU == (
        1e-21 / sc.c / pc["atomic unit of electric dipole mom."][0]
    )
    assert units.RATE_AU_IN_CM3S == (
        (pc["Bohr radius"][0] * 1e2) ** 3 / pc["atomic unit of time"][0]
    )


def test_convert_between_named_units():
    one_kelvin = units.energy_from_kelvin(1.0)
    assert units.energy_to_microkelvin(one_kelvin) == pytest.approx(1e6, rel=1e-12)
    assert units.energy_to_kelvin(units.energy_from_microkelvin(1e3)) == pytest.approx(
        1e-3, rel=1e-12
    )


def test_helper_round_trips():
    assert units.energy_to_kelvin(units.energy_from_kelvin(2.5)) == pytest.approx(
        2.5, rel=1e-14
    )
    assert units.energy_to_microkelvin(
        units.energy_from_microkelvin(0.25)
    ) == pytest.approx(0.25, rel=1e-14)
    assert units.dipole_to_debye(units.dipole_from_debye(0.2)) == pytest.approx(
        0.2, rel=1e-14
    )
    assert units.rate_from_cm3_per_s(units.rate_to_cm3_per_s(1e-12)) == pytest.approx(
        1e-12, rel=1e-14
    )


def test_energy_scale_sanity():
    # 1 uK must be a very small number of hartree (~3.17e-12)
    e = units.energy_from_microkelvin(1.0)
    assert 1e-12 < e < 1e-11
