"""Physical invariants of the propagation as properties over random inputs."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from coldchem import units
from coldchem.potential import Channel, CollisionSystem, single_channel_curve
from coldchem.propagator import RadialGrid, calibrate_phase, propagate
from coldchem.qdt import ShortRangeParams, characteristic_energies, mean_scattering_length

MU = units.mass_from_amu(63.4968)
C6 = 16130.0
KRB = CollisionSystem(reduced_mass=MU, c6=C6)
E0 = characteristic_energies(MU, C6).e_swave
ABAR = mean_scattering_length(MU, C6)

PROPERTY = settings(max_examples=50, deadline=None, database=None)

shorts = st.floats(-5.0, 5.0)
phases = st.floats(0.0, math.pi, exclude_max=True)
partial_waves = st.integers(0, 3)
log_energies = st.floats(-2.0, 2.0)  # log10(E / E0)


@PROPERTY
@given(s=shorts)
def test_calibration_round_trip(s):
    tolerance = 1e-3
    params = ShortRangeParams(s=s, y=0.0)
    delta = calibrate_phase(KRB, params, tolerance=tolerance)
    assert 0.0 <= delta < math.pi
    # the energy and grid calibrate_phase propagates on at its defaults
    e_cal = 1e-4 * E0
    cal_grid = RadialGrid(points_per_wavelength=160.0, tail_tolerance=1e-6)
    curve = single_channel_curve(KRB, Channel(0, 0))
    res = propagate(KRB, curve, params, e_cal, delta, cal_grid)
    a = -math.tan(math.atan2(res.s_matrix.imag, res.s_matrix.real) / 2.0) / res.wavenumber
    assert abs(a - s * ABAR) <= tolerance * ABAR * max(1.0, abs(s))


@PROPERTY
@given(delta1=phases, delta2=phases, L=partial_waves, log_e=log_energies)
def test_full_absorber_ignores_phase(delta1, delta2, L, log_e):
    params = ShortRangeParams(s=0.0, y=1.0)
    curve = single_channel_curve(KRB, Channel(L, 0))
    energy = E0 * 10.0**log_e
    s1 = propagate(KRB, curve, params, energy, delta1).s_matrix
    s2 = propagate(KRB, curve, params, energy, delta2).s_matrix
    assert s1 == s2


@PROPERTY
@given(s=shorts, y=st.floats(0.0, 1.0), L=partial_waves, log_e=log_energies)
def test_unitarity_bound(s, y, L, log_e):
    params = ShortRangeParams(s=s, y=y)
    delta = calibrate_phase(KRB, params)
    curve = single_channel_curve(KRB, Channel(L, 0))
    res = propagate(KRB, curve, params, E0 * 10.0**log_e, delta)
    assert abs(res.s_matrix) ** 2 <= 1.0 + 1e-9
