"""Analytic quantum-defect layer for a single van der Waals channel.

The short-range physics is compressed into two dimensionless parameters:
``s``, the background scattering length in units of the mean scattering
length of the -C6/R^6 potential, and ``y`` in [0, 1], the probability
amplitude for irreversible loss of flux that reaches short range (y = 1 is
the universal black-sphere limit).  Threshold observables follow in closed
form; the propagator module reproduces them numerically from the same
boundary condition and extends them to finite field and energy.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SingularConversionError
from .potential import CollisionSystem

# Gamma(1/4), needed for the mean scattering lengths of a 1/R^6 tail.
_GAMMA_QUARTER = math.gamma(0.25)
_GAMMA_THREE_QUARTER = math.gamma(0.75)

# abar1 / abar for the p wave: Gamma(1/4)^6 / (144 pi^2 Gamma(3/4)^2).
P_WAVE_LENGTH_RATIO = _GAMMA_QUARTER**6 / (
    144.0 * math.pi**2 * _GAMMA_THREE_QUARTER**2
)


@dataclass(frozen=True)
class ShortRangeParams:
    """Short-range model: reduced length s = a/abar, absorption y, radius R_m.

    ``r_match`` is the boundary between unresolved short-range physics and
    the propagated long range; it must sit below the mean scattering length
    of the system it is used with (checked where the system is known).
    """

    s: float
    y: float
    r_match: float = 20.0

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError("s must be finite")
        if not 0.0 <= self.y <= 1.0:
            raise ValueError(f"y must lie in [0, 1], got {self.y}")
        if not 0 < self.r_match < math.inf:
            raise ValueError("r_match must be finite and positive")


def mean_scattering_length(reduced_mass: float, c6: float) -> float:
    """abar = 2 pi / Gamma(1/4)^2 * (2 mu C6)^(1/4), the s-wave vdW length."""
    if reduced_mass <= 0 or c6 <= 0:
        raise ValueError("reduced mass and C6 must be positive")
    return 2.0 * math.pi / _GAMMA_QUARTER**2 * (2.0 * reduced_mass * c6) ** 0.25


def p_wave_mean_scattering_length(reduced_mass: float, c6: float) -> float:
    """abar1, the p-wave analogue of the mean scattering length."""
    return P_WAVE_LENGTH_RATIO * mean_scattering_length(reduced_mass, c6)


class CharacteristicEnergies(NamedTuple):
    """Energy scales bounding the threshold regimes (hartree)."""

    e_swave: float  # E0 = 1 / (2 mu abar^2): s-wave vdW energy scale
    e_pwave: float  # E1 = sqrt(4 / (27 mu^3 C6)): d = 0 p-wave barrier height


def characteristic_energies(reduced_mass: float, c6: float) -> CharacteristicEnergies:
    abar = mean_scattering_length(reduced_mass, c6)
    e0 = 1.0 / (2.0 * reduced_mass * abar**2)
    e1 = math.sqrt(4.0 / (27.0 * reduced_mass**3 * c6))
    return CharacteristicEnergies(e_swave=e0, e_pwave=e1)


@dataclass(frozen=True)
class ComplexScatteringLength:
    """a_tilde = alpha - i beta with beta >= 0 (atomic units)."""

    alpha: float
    beta: float

    def __post_init__(self):
        scale = abs(self.alpha) + abs(self.beta) + 1.0
        if self.beta < -1e-12 * scale:
            raise ValueError(f"beta must be non-negative, got {self.beta}")

    @property
    def value(self) -> complex:
        return complex(self.alpha, -self.beta)

    @classmethod
    def from_complex(cls, a: complex) -> "ComplexScatteringLength":
        return cls(alpha=a.real, beta=-a.imag)


def swave_scattering_length(
    params: ShortRangeParams, system: CollisionSystem
) -> ComplexScatteringLength:
    """Threshold s-wave complex scattering length of the (s, y) model.

    a0_tilde = s abar + abar y (1 + (1 - s)^2) / (i + y (1 - s)).
    """
    abar = mean_scattering_length(system.reduced_mass, system.c6)
    s, y = params.s, params.y
    a = s * abar + abar * y * (1.0 + (1.0 - s) ** 2) / (1j + y * (1.0 - s))
    return ComplexScatteringLength.from_complex(a)


def pwave_scattering_volume_length(
    params: ShortRangeParams, system: CollisionSystem, k: float
) -> ComplexScatteringLength:
    """Energy-dependent p-wave complex scattering length of the (s, y) model.

    a1_tilde(k) = -2 abar1 (k abar)^2 (y + i (s - 1)) / (y s + i (s - 2)).
    Vanishes as k^2 at threshold (Wigner law for the length itself).
    """
    if k < 0:
        raise ValueError("wavenumber must be non-negative")
    abar = mean_scattering_length(system.reduced_mass, system.c6)
    abar1 = p_wave_mean_scattering_length(system.reduced_mass, system.c6)
    s, y = params.s, params.y
    den = y * s + 1j * (s - 2.0)
    if den == 0:
        # lossless shape resonance at threshold (y = 0, s = 2)
        raise SingularConversionError(
            "p-wave length diverges at y = 0, s = 2 (threshold bound state)"
        )
    a = -2.0 * abar1 * (k * abar) ** 2 * (y + 1j * (s - 1.0)) / den
    return ComplexScatteringLength.from_complex(a)


def complex_scattering_length(
    L: int, params: ShortRangeParams, system: CollisionSystem, k: float
) -> ComplexScatteringLength:
    """Analytic threshold scattering length for L = 0 or 1.

    Valid in the threshold regime k abar << 1; a warning is emitted beyond
    k abar = 0.3 where the closed forms degrade.
    """
    if k < 0:
        raise ValueError("wavenumber must be non-negative")
    abar = mean_scattering_length(system.reduced_mass, system.c6)
    if k * abar > 0.3:
        warnings.warn(
            f"k*abar = {k * abar:.3f} is outside the threshold regime; "
            "the analytic scattering length is unreliable",
            stacklevel=2,
        )
    if L == 0:
        return swave_scattering_length(params, system)
    if L == 1:
        return pwave_scattering_volume_length(params, system, k)
    raise ValueError(f"analytic scattering length supports L = 0, 1 only, got {L}")


def s_matrix_from_length(a: ComplexScatteringLength, k: float) -> complex:
    """S = (1 - i k a) / (1 + i k a); never singular for beta >= 0."""
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    ka = k * a.value
    return (1.0 - 1j * ka) / (1.0 + 1j * ka)


def length_from_s_matrix(s_el: complex, k: float) -> ComplexScatteringLength:
    """Inverse of s_matrix_from_length; singular at S = -1 (hard resonance)."""
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    denom = 1.0 + s_el
    if abs(denom) < 1e-14:
        raise SingularConversionError(
            "S = -1: scattering length diverges at this energy"
        )
    a = (1.0 - s_el) / (1j * k * denom)
    return ComplexScatteringLength.from_complex(a)


def low_energy_loss_probability(L: int, system: CollisionSystem, k: float | list):
    """Universal threshold loss probability P = 1 - exp(-4 k beta_L).

    beta_0 = abar and beta_1 = abar1 (k abar)^2 are the y = 1 absorption
    lengths, so this is the fully reactive limit; the exponent exhibits the
    Wigner threshold laws P ~ k (s wave) and P ~ k^3 (p wave).  A list ``k``
    gives a list of P.
    """
    ks = k if isinstance(k, list) else [k]
    if min(ks, default=0.0) < 0:
        raise ValueError("wavenumber must be non-negative")
    if L not in (0, 1):
        raise ValueError(f"threshold loss formula supports L = 0, 1 only, got {L}")
    abar = mean_scattering_length(system.reduced_mass, system.c6)
    abar1 = P_WAVE_LENGTH_RATIO * abar
    p = [-math.expm1(-4.0 * x * (abar if L == 0 else abar1 * (x * abar) ** 2)) for x in ks]
    return p if isinstance(k, list) else p[0]


def barrier_transmission_qt(energy: float | list, barrier_height: float, p_b: float = 0.37):
    """Quantum-threshold loss model P = p_b (E / V_b)^(3/2), capped at 1.

    The single number p_b encodes the short-range loss probability at the
    barrier top; the 3/2 power follows from the k^3 Wigner law with the
    barrier height as the only energy scale.  A list ``energy`` gives a list.
    """
    energies = energy if isinstance(energy, list) else [energy]
    if min(energies, default=0.0) < 0:
        raise ValueError("energy must be non-negative")
    if barrier_height <= 0:
        raise ValueError("barrier height must be positive")
    if not 0.0 <= p_b <= 1.0:
        raise ValueError("p_b must lie in [0, 1]")
    p = [min(1.0, p_b * (e / barrier_height) ** 1.5) for e in energies]
    return p if isinstance(energy, list) else p[0]


def inverse_morse_exponent(L: int, n: int) -> float:
    """f = sqrt(2 L (L+1) (n - 2)) / n for a -1/R^n tail crossed at the barrier.

    Controls the exact barrier-top transmission of the solvable inverse
    Morse profile that osculates the centrifugal-plus-attraction barrier.
    """
    if not isinstance(L, int) or L < 0:
        raise ValueError("L must be a non-negative integer")
    if not isinstance(n, int) or n < 3:
        raise ValueError("n must be an integer >= 3")
    return math.sqrt(2.0 * L * (L + 1) * (n - 2)) / n


def barrier_top_transmission(L: int, n: int) -> float:
    """Exact top-of-barrier transmission T = (1 - exp(-4 pi f)) / 2.

    For L = 1 both n = 3 and n = 6 give f = 2/3, so the dipolar and van der
    Waals barriers share the same top transmission.
    """
    f = inverse_morse_exponent(L, n)
    return 0.5 * -math.expm1(-4.0 * math.pi * f)


def resonance_position(
    n: int, scale: float, n_zero: float, n_infinity: float
) -> float:
    """Position of the n-th member of a confluent resonance series.

    x(n) = scale * sqrt((n_zero + n) / (n_infinity - n)); members accumulate
    at the point where the bound state count diverges (n -> n_infinity).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if n_zero + n < 0:
        raise ValueError("n_zero + n must be non-negative")
    if n >= n_infinity:
        raise ValueError("series index must be below the accumulation index")
    return scale * math.sqrt((n_zero + n) / (n_infinity - n))


@dataclass(frozen=True)
class ScatteringResult:
    """Single-curve scattering output at one energy and field."""

    L: int
    M: int
    energy: float
    wavenumber: float
    s_matrix: complex
    loss_probability: float
    elastic_rate: float
    quenching_rate: float
    n_points: int = 0
    match_spread: float = 0.0

    @property
    def scattering_length(self) -> ComplexScatteringLength:
        return length_from_s_matrix(self.s_matrix, self.wavenumber)
