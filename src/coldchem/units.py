"""Unit conversions between atomic units and laboratory units.

All internal physics runs in Hartree atomic units (hbar = m_e = e = a0 = 1).
Temperatures are energies via E = kB * T, so "kelvin" is an energy unit here.
Conversion factors are derived from scipy.constants (CODATA) at import time
rather than hard-coded.
"""
from __future__ import annotations

import scipy.constants as _sc

# 1 hartree expressed in kelvin, etc.  All factors map atomic units -> unit.
HARTREE_PER_KELVIN = 1.0 / _sc.physical_constants["hartree-kelvin relationship"][0]
BOHR_IN_METER = _sc.physical_constants["Bohr radius"][0]
ELECTRON_MASS_PER_AMU = _sc.atomic_mass / _sc.physical_constants["atomic unit of mass"][0]

# 1 debye = 1e-21 / c coulomb meter; atomic dipole unit is e*a0.
_DEBYE_SI = 1e-21 / _sc.c
DEBYE_IN_AU = _DEBYE_SI / _sc.physical_constants["atomic unit of electric dipole mom."][0]

_ATOMIC_TIME = _sc.physical_constants["atomic unit of time"][0]
# Two-body rate coefficients: a0^3 per atomic time unit, in cm^3/s.
RATE_AU_IN_CM3S = (BOHR_IN_METER * 1e2) ** 3 / _ATOMIC_TIME


def energy_from_kelvin(t: float) -> float:
    return t * HARTREE_PER_KELVIN


def energy_to_kelvin(e: float) -> float:
    return e / HARTREE_PER_KELVIN


def energy_from_microkelvin(t: float) -> float:
    return t * HARTREE_PER_KELVIN * 1e-6


def energy_to_microkelvin(e: float) -> float:
    return e / (HARTREE_PER_KELVIN * 1e-6)


def length_from_nanometer(x: float) -> float:
    return x * 1e-9 / BOHR_IN_METER


def length_to_nanometer(x: float) -> float:
    return x * BOHR_IN_METER * 1e9


def mass_from_amu(m: float) -> float:
    return m * ELECTRON_MASS_PER_AMU


def mass_to_amu(m: float) -> float:
    return m / ELECTRON_MASS_PER_AMU


def dipole_from_debye(d: float) -> float:
    return d * DEBYE_IN_AU


def dipole_to_debye(d: float) -> float:
    return d / DEBYE_IN_AU


def rate_to_cm3_per_s(k: float) -> float:
    return k * RATE_AU_IN_CM3S


def rate_from_cm3_per_s(k: float) -> float:
    return k / RATE_AU_IN_CM3S
