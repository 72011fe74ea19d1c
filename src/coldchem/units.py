"""Unit conversions between atomic units and laboratory units.

All internal physics runs in Hartree atomic units (hbar = m_e = e = a0 = 1).
Temperatures are energies via E = kB * T, so "kelvin" is an energy unit here.
The five conversion factors are float literals copied from
scipy.constants 1.17.1 (CODATA 2022), so importing this module loads no
scipy; tests/test_units.py checks each one bit for bit against the
scipy.constants expression it stands for.
"""
from __future__ import annotations

# Every factor maps atomic units -> unit; rates are a0^3 per atomic time unit.
HARTREE_PER_KELVIN = 3.1668115634564775e-06
BOHR_IN_METER = 5.29177210544e-11
ELECTRON_MASS_PER_AMU = 1822.8884862827601
DEBYE_IN_AU = 0.3934302697862944
RATE_AU_IN_CM3S = 6.12615946706698e-09


def energy_from_kelvin(t: float) -> float:
    return t * HARTREE_PER_KELVIN


def energy_to_kelvin(e: float) -> float:
    return e / HARTREE_PER_KELVIN


def energy_from_microkelvin(t: float) -> float:
    return t * HARTREE_PER_KELVIN * 1e-6


def energy_to_microkelvin(e: float) -> float:
    return e / (HARTREE_PER_KELVIN * 1e-6)


def mass_from_amu(m: float) -> float:
    return m * ELECTRON_MASS_PER_AMU


def dipole_from_debye(d: float) -> float:
    return d * DEBYE_IN_AU


def dipole_to_debye(d: float) -> float:
    return d / DEBYE_IN_AU


def rate_to_cm3_per_s(k: float) -> float:
    return k * RATE_AU_IN_CM3S


def rate_from_cm3_per_s(k: float) -> float:
    return k / RATE_AU_IN_CM3S
