import math

import numpy as np
import pytest

from coldchem import units
from coldchem.errors import SingularConversionError, UnitarityError
from coldchem.potential import Channel, CollisionSystem, Symmetry, single_channel_curve
from coldchem.propagator import RadialGrid, _rate_prefactor, build_table, evaluate, propagate
from coldchem.qdt import (
    P_WAVE_LENGTH_RATIO,
    ComplexScatteringLength,
    ShortRangeParams,
    barrier_top_transmission,
    barrier_transmission_qt,
    characteristic_energies,
    complex_scattering_length,
    inverse_morse_exponent,
    length_from_s_matrix,
    low_energy_loss_probability,
    mean_scattering_length,
    p_wave_mean_scattering_length,
    pwave_scattering_volume_length,
    resonance_position,
    s_matrix_from_length,
    swave_scattering_length,
)

MU = units.mass_from_amu(63.4968)
C6 = 16130.0


def krb(symmetry=Symmetry.FERMIONS, g_override=None):
    return CollisionSystem(
        reduced_mass=MU, c6=C6, symmetry=symmetry, g_override=g_override
    )


# --- characteristic scales ---------------------------------------------------


def test_mean_scattering_length_formula():
    # abar = [2 pi / Gamma(1/4)^2] (2 mu C6)^{1/4}
    expected = 2.0 * math.pi / math.gamma(0.25) ** 2 * (2.0 * MU * C6) ** 0.25
    assert mean_scattering_length(MU, C6) == pytest.approx(expected, rel=1e-14)
    assert mean_scattering_length(MU, C6) == pytest.approx(118.16, rel=1e-4)


def test_p_wave_ratio_constant():
    expected = math.gamma(0.25) ** 6 / (144.0 * math.pi**2 * math.gamma(0.75) ** 2)
    assert P_WAVE_LENGTH_RATIO == pytest.approx(expected, rel=1e-14)
    assert p_wave_mean_scattering_length(MU, C6) == pytest.approx(
        expected * mean_scattering_length(MU, C6), rel=1e-14
    )


def test_characteristic_energies_krb():
    e0, e1 = characteristic_energies(MU, C6)
    abar = mean_scattering_length(MU, C6)
    assert e0 == pytest.approx(1.0 / (2.0 * MU * abar**2), rel=1e-14)
    assert e1 == pytest.approx(math.sqrt(4.0 / (27.0 * MU**3 * C6)), rel=1e-14)
    assert units.energy_to_microkelvin(e0) == pytest.approx(97.7, rel=1e-3)
    assert units.energy_to_microkelvin(e1) == pytest.approx(24.3, rel=1e-3)


# --- complex scattering lengths ----------------------------------------------


def swave_reference(s, y, abar):
    """Independent transcription of the closed s-wave formula."""
    return abar * (s + y * (1.0 + (1.0 - s) ** 2) / (1j + y * (1.0 - s)))


def pwave_reference(s, y, abar1, k, abar):
    num = y + 1j * (s - 1.0)
    den = y * s + 1j * (s - 2.0)
    return -2.0 * abar1 * (k * abar) ** 2 * num / den


@pytest.mark.parametrize("s", [-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("y", [0.0, 0.1, 0.5, 0.83, 1.0])
def test_swave_length_matches_reference(s, y):
    system = krb()
    abar = mean_scattering_length(MU, C6)
    params = ShortRangeParams(s=s, y=y)
    got = swave_scattering_length(params, system)
    ref = swave_reference(s, y, abar)
    assert got.alpha == pytest.approx(ref.real, rel=1e-12, abs=1e-12)
    assert got.beta == pytest.approx(-ref.imag, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("s", [-2.0, -0.5, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("y", [0.05, 0.5, 1.0])
def test_pwave_length_matches_reference(s, y):
    system = krb()
    abar = mean_scattering_length(MU, C6)
    abar1 = p_wave_mean_scattering_length(MU, C6)
    k = 1e-4
    params = ShortRangeParams(s=s, y=y)
    got = pwave_scattering_volume_length(params, system, k)
    ref = pwave_reference(s, y, abar1, k, abar)
    assert got.alpha == pytest.approx(ref.real, rel=1e-12, abs=1e-20)
    assert got.beta == pytest.approx(-ref.imag, rel=1e-12, abs=1e-20)


def test_unit_loss_swave_beta_is_abar_for_any_s():
    system = krb()
    abar = mean_scattering_length(MU, C6)
    for s in (-5.0, -1.0, 0.0, 0.7, 3.0, 5.0):
        got = swave_scattering_length(ShortRangeParams(s=s, y=1.0), system)
        assert got.beta == pytest.approx(abar, rel=1e-12)
        # full absorption hides the short range: alpha = abar too
        assert got.alpha == pytest.approx(abar, rel=1e-12)


def test_unit_loss_pwave_beta_independent_of_s():
    system = krb()
    k = 2e-4
    betas = [
        pwave_scattering_volume_length(ShortRangeParams(s=s, y=1.0), system, k).beta
        for s in (-3.0, 0.0, 1.0, 4.0)
    ]
    assert np.ptp(betas) <= 1e-12 * abs(betas[0])


def test_beta_nonnegative_over_parameter_plane():
    system = krb()
    k = 1e-4
    for s in np.linspace(-5.0, 5.0, 41):
        for y in np.linspace(0.0, 1.0, 21):
            params = ShortRangeParams(s=float(s), y=float(y))
            assert swave_scattering_length(params, system).beta >= -1e-15
            if y == 0.0 and s == 2.0:
                with pytest.raises(SingularConversionError):
                    pwave_scattering_volume_length(params, system, k)
                continue
            assert (
                pwave_scattering_volume_length(params, system, k).beta >= -1e-25
            )


def test_dispatch_by_partial_wave():
    system = krb()
    params = ShortRangeParams(s=0.3, y=0.4)
    k = 1e-4
    s0 = complex_scattering_length(0, params, system, k)
    s1 = complex_scattering_length(1, params, system, k)
    assert s0.value == swave_scattering_length(params, system).value
    assert s1.value == pwave_scattering_volume_length(params, system, k).value
    with pytest.raises(ValueError):
        complex_scattering_length(2, params, system, k)


def test_long_wavelength_warning():
    system = krb()
    params = ShortRangeParams(s=0.0, y=1.0)
    abar = mean_scattering_length(MU, C6)
    with pytest.warns(UserWarning):
        complex_scattering_length(0, params, system, 0.5 / abar)


# --- S-matrix algebra ---------------------------------------------------------


def test_cayley_round_trip():
    k = 3e-4
    for a in (ComplexScatteringLength(50.0, 10.0), ComplexScatteringLength(-120.0, 0.0)):
        s = s_matrix_from_length(a, k)
        back = length_from_s_matrix(s, k)
        assert back.alpha == pytest.approx(a.alpha, rel=1e-12, abs=1e-12)
        assert back.beta == pytest.approx(a.beta, rel=1e-12, abs=1e-12)


def test_s_matrix_never_singular_for_physical_length():
    # beta >= 0 keeps |1 + i k a| >= 1, so S stays inside the unit circle
    k = 1e-3
    for alpha in np.linspace(-500, 500, 21):
        for beta in np.linspace(0.0, 500, 11):
            s = s_matrix_from_length(ComplexScatteringLength(alpha, beta), k)
            assert abs(s) <= 1.0 + 1e-12


def test_length_from_s_matrix_rejects_pole():
    with pytest.raises(SingularConversionError):
        length_from_s_matrix(-1.0 + 0.0j, 1e-3)


def test_unitary_s_no_loss():
    # a real scattering length is a lossless one: |S| = 1
    for alpha in (-300.0, 0.0, 80.0):
        s = s_matrix_from_length(ComplexScatteringLength(alpha, 0.0), 1e-4)
        assert 1.0 - abs(s) ** 2 == pytest.approx(0.0, abs=1e-14)


def test_rates_formulas():
    # K_el = g pi / (mu k) |1 - S|^2 and K_qu = g pi / (mu k) (1 - |S|^2)
    system = krb()
    params = ShortRangeParams(s=0.5, y=0.4)
    res = propagate(system, single_channel_curve(system, Channel(1, 0)), params, 1e-12, 1.1)
    pref = system.statistical_factor * math.pi / (MU * res.wavenumber)
    assert res.elastic_rate == pytest.approx(pref * abs(1.0 - res.s_matrix) ** 2, rel=1e-12)
    assert res.quenching_rate == pytest.approx(pref * res.loss_probability, rel=1e-12)
    assert res.loss_probability == pytest.approx(1.0 - abs(res.s_matrix) ** 2, abs=1e-12)


def test_statistical_factor_applied():
    k = 1e-4
    g1 = _rate_prefactor(krb(symmetry=Symmetry.FERMIONS), k)
    g2 = _rate_prefactor(krb(symmetry=Symmetry.DISTINGUISHABLE), k)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-14)
    g3 = _rate_prefactor(krb(symmetry=Symmetry.FERMIONS, g_override=2), k)
    assert g3 == pytest.approx(g2, rel=1e-14)


def test_superunitary_s_raises():
    # y < 0 makes the boundary a source of flux, so |S| > 1
    swave = single_channel_curve(krb(), Channel(0, 0)).basis
    table = build_table(krb(), [(swave, [0])], 20.0, 1e-12, 0.0, RadialGrid())
    with pytest.raises(UnitarityError):
        evaluate(table, -0.5, [1.0])


def test_wigner_threshold_exponents():
    """K_qu scales as E^0 for L=0 and E^1 for L=1 in the Wigner regime."""
    system = krb()
    params = ShortRangeParams(s=0.5, y=0.4)
    e0, _ = characteristic_energies(MU, C6)
    energies = np.geomspace(1e-7 * e0, 1e-5 * e0, 9)
    ks = np.sqrt(2.0 * MU * energies)
    for L, expected in ((0, 0.0), (1, 1.0)):
        rates = []
        for k in ks:
            a = complex_scattering_length(L, params, system, k)
            rates.append((1.0 - abs(s_matrix_from_length(a, k)) ** 2) / k)
        slope = np.polyfit(np.log(energies), np.log(rates), 1)[0]
        assert slope == pytest.approx(expected, abs=2e-3)


# --- threshold loss and transmission models -----------------------------------


def test_low_energy_loss_universal_swave():
    system = krb()
    abar = mean_scattering_length(MU, C6)
    k = 1e-5
    p = low_energy_loss_probability(0, system, k)
    assert p == pytest.approx(-math.expm1(-4.0 * k * abar), rel=1e-12)


def test_low_energy_loss_universal_pwave():
    system = krb()
    abar = mean_scattering_length(MU, C6)
    abar1 = p_wave_mean_scattering_length(MU, C6)
    k = 1e-5
    beta1 = abar1 * (k * abar) ** 2
    p = low_energy_loss_probability(1, system, k)
    assert p == pytest.approx(-math.expm1(-4.0 * k * beta1), rel=1e-12)


def test_low_energy_loss_rejects_high_l():
    with pytest.raises(ValueError):
        low_energy_loss_probability(2, krb(), 1e-5)


def test_qt_transmission():
    vb = 1e-10
    # exact scaling and the cap at unity
    assert barrier_transmission_qt(vb / 4.0, vb) == pytest.approx(
        0.37 * 0.125, rel=1e-12
    )
    assert barrier_transmission_qt(vb, vb) == pytest.approx(0.37, rel=1e-12)
    assert barrier_transmission_qt(100.0 * vb, vb) == 1.0
    assert barrier_transmission_qt(vb, vb, p_b=0.5) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        barrier_transmission_qt(vb, vb, p_b=1.5)


def test_inverse_morse_exponent_identity():
    # f = sqrt(2 L (L+1) (n-2)) / n; n=6 and n=3 coincide for L=1
    assert inverse_morse_exponent(1, 6) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert inverse_morse_exponent(1, 3) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert inverse_morse_exponent(0, 6) == 0.0
    assert inverse_morse_exponent(2, 6) == pytest.approx(
        math.sqrt(2.0 * 2.0 * 3.0 * 4.0) / 6.0, rel=1e-15
    )
    with pytest.raises(ValueError):
        inverse_morse_exponent(1, 2)
    with pytest.raises(ValueError):
        inverse_morse_exponent(-1, 6)


def test_barrier_top_transmission_value():
    # P = (1 - exp(-4 pi f)) / 2 with f = 2/3
    expected = 0.5 * -math.expm1(-8.0 * math.pi / 3.0)
    assert barrier_top_transmission(1, 6) == pytest.approx(expected, abs=1e-12)
    assert barrier_top_transmission(1, 3) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.5, abs=2e-4)  # nearly the classical half
    assert barrier_top_transmission(0, 6) == pytest.approx(0.0, abs=1e-15)


def test_resonance_position_series():
    scale, n0, ninf = 1.0, 0.3, 12.0
    xs = [resonance_position(n, scale, n0, ninf) for n in range(5)]
    assert xs == sorted(xs)
    assert xs[0] == pytest.approx(scale * math.sqrt(0.3 / 12.0), rel=1e-12)
    with pytest.raises(ValueError):
        resonance_position(12, scale, n0, ninf)  # at the accumulation index


# --- parameter validation ------------------------------------------------------


def test_short_range_params_validation():
    with pytest.raises(ValueError):
        ShortRangeParams(s=0.0, y=1.5)
    with pytest.raises(ValueError):
        ShortRangeParams(s=0.0, y=-0.1)
    with pytest.raises(ValueError):
        ShortRangeParams(s=math.nan, y=0.5)
    with pytest.raises(ValueError):
        ShortRangeParams(s=0.0, y=0.5, r_match=-3.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_short_range_params_reject_non_finite_r_match(value):
    with pytest.raises(ValueError, match="r_match must be finite"):
        ShortRangeParams(s=0.0, y=0.5, r_match=value)


def test_complex_length_validation():
    with pytest.raises(ValueError):
        ComplexScatteringLength(alpha=0.0, beta=-1.0)
    a = ComplexScatteringLength.from_complex(10.0 - 2.0j)
    assert a.alpha == 10.0
    assert a.beta == 2.0
    assert a.value == 10.0 - 2.0j
