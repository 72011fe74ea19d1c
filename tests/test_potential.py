import math

import numpy as np
import pytest
from numpy.polynomial import legendre
from scipy.special import lpmv

from coldchem import units
from coldchem.errors import GridError
from coldchem.potential import (
    AdiabaticCurve,
    Channel,
    ChannelBasis,
    CollisionSystem,
    Symmetry,
    adiabatic_curves,
    build_basis,
    find_barrier,
    p2_matrix_element,
    potential_matrix,
    single_channel_curve,
    symmetry_blocks,
)

MU_KRB = units.mass_from_amu(63.4968)
C6_KRB = 16130.0


def krb(dipole=0.0, symmetry=Symmetry.FERMIONS):
    return CollisionSystem(
        reduced_mass=MU_KRB, c6=C6_KRB, dipole=dipole, symmetry=symmetry
    )


# --- angular matrix elements -------------------------------------------------


# The package's P2 couplings are closed forms; the Racah sum for the Wigner
# 3j symbols they came from before is kept here as their reference.


def wigner_3j_zero_m(l1: int, l2: int, l3: int) -> float:
    """Wigner 3j symbol (l1 l2 l3; 0 0 0)."""
    j = l1 + l2 + l3
    if j % 2 == 1:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    g = j // 2
    lf = math.lgamma
    # Racah closed form for all-zero projections.
    log_tri = 0.5 * (
        lf(j - 2 * l1 + 1) + lf(j - 2 * l2 + 1) + lf(j - 2 * l3 + 1) - lf(j + 2)
    )
    log_fac = lf(g + 1) - lf(g - l1 + 1) - lf(g - l2 + 1) - lf(g - l3 + 1)
    return (-1.0) ** g * math.exp(log_tri + log_fac)


def wigner_3j(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol via the Racah sum.  Safe for the small L used here."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0.0
    lf = math.lgamma
    log_tri = 0.5 * (
        lf(l1 + l2 - l3 + 1)
        + lf(l1 - l2 + l3 + 1)
        + lf(-l1 + l2 + l3 + 1)
        - lf(l1 + l2 + l3 + 2)
    )
    log_pre = 0.5 * (
        lf(l1 + m1 + 1)
        + lf(l1 - m1 + 1)
        + lf(l2 + m2 + 1)
        + lf(l2 - m2 + 1)
        + lf(l3 + m3 + 1)
        + lf(l3 - m3 + 1)
    )
    t_min = max(0, l2 - l3 - m1, l1 - l3 + m2)
    t_max = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    total = 0.0
    for t in range(t_min, t_max + 1):
        log_den = (
            lf(t + 1)
            + lf(l3 - l2 + m1 + t + 1)
            + lf(l3 - l1 - m2 + t + 1)
            + lf(l1 + l2 - l3 - t + 1)
            + lf(l1 - m1 - t + 1)
            + lf(l2 + m2 - t + 1)
        )
        total += (-1.0) ** t * math.exp(log_tri + log_pre - log_den)
    return (-1.0) ** (l1 - l2 - m3) * total


def racah_p2(L, Lp, M):
    """<L M| P2 |L' M> as the 3j product the closed forms reduce."""
    return (
        (-1.0) ** M
        * math.sqrt((2 * L + 1) * (2 * Lp + 1))
        * wigner_3j_zero_m(L, 2, Lp)
        * wigner_3j(L, 2, Lp, -M, 0, M)
    )


def test_p2_closed_forms_match_racah_sum():
    for L in range(30):
        for Lp in (L, L + 2):
            for M in range(-L, L + 1):
                assert abs(p2_matrix_element(L, Lp, M) - racah_p2(L, Lp, M)) < 1e-13
                assert abs(p2_matrix_element(Lp, L, M) - racah_p2(Lp, L, M)) < 1e-13


def p2_quadrature(l1, l2, m):
    """Independent oracle: <l1 m|P2(cos theta)|l2 m> by Gauss-Legendre quadrature.

    Uses associated Legendre functions with the spherical-harmonic norm.
    """
    nodes, weights = legendre.leggauss(200)

    def norm(l, m):
        return math.sqrt(
            (2 * l + 1)
            / 2.0
            * math.factorial(l - abs(m))
            / math.factorial(l + abs(m))
        )

    y1 = norm(l1, m) * lpmv(abs(m), l1, nodes)
    y2 = norm(l2, m) * lpmv(abs(m), l2, nodes)
    p2 = 0.5 * (3.0 * nodes**2 - 1.0)
    return float(np.sum(weights * y1 * p2 * y2))


@pytest.mark.parametrize("l1", range(0, 9))
@pytest.mark.parametrize("l2", range(0, 9))
def test_p2_against_quadrature(l1, l2):
    for m in range(-min(l1, l2), min(l1, l2) + 1):
        assert p2_matrix_element(l1, l2, m) == pytest.approx(
            p2_quadrature(l1, l2, m), abs=1e-10
        )


def test_p2_spot_values():
    assert p2_matrix_element(1, 1, 0) == pytest.approx(2.0 / 5.0, abs=1e-14)
    assert p2_matrix_element(1, 1, 1) == pytest.approx(-1.0 / 5.0, abs=1e-14)
    assert p2_matrix_element(1, 1, -1) == pytest.approx(-1.0 / 5.0, abs=1e-14)
    assert p2_matrix_element(0, 2, 0) == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-14)
    assert p2_matrix_element(0, 0, 0) == pytest.approx(0.0, abs=1e-14)


def test_p2_symmetry_and_selection_rules():
    for l1 in range(6):
        for l2 in range(6):
            for m in range(-min(l1, l2), min(l1, l2) + 1):
                a = p2_matrix_element(l1, l2, m)
                assert a == pytest.approx(p2_matrix_element(l2, l1, m), abs=1e-14)
                assert a == pytest.approx(p2_matrix_element(l1, l2, -m), abs=1e-14)
                if abs(l1 - l2) not in (0, 2) or (l1 == l2 == 0):
                    assert a == pytest.approx(0.0, abs=1e-14)


def test_wigner_3j_values():
    # closed-form references
    assert wigner_3j_zero_m(1, 2, 1) == pytest.approx(math.sqrt(2.0 / 15.0), abs=1e-14)
    assert wigner_3j(1, 2, 1, 0, 0, 0) == pytest.approx(
        wigner_3j_zero_m(1, 2, 1), abs=1e-14
    )
    # (1 2 1; -1 0 1) = <1,-1;2,0|1,-1>/sqrt(3) = (1/sqrt(10))/sqrt(3)
    assert wigner_3j(1, 2, 1, -1, 0, 1) == pytest.approx(
        math.sqrt(1.0 / 30.0), abs=1e-14
    )
    # odd sum of angular momenta vanishes in the zero-m case
    assert wigner_3j_zero_m(1, 2, 2) == 0.0


# --- channel basis -----------------------------------------------------------


def test_build_basis_fermionic_structure():
    basis = build_basis(m_projection=0, parity=1, l_max=7)
    ls = [c.L for c in basis.channels]
    assert ls == [1, 3, 5, 7]
    assert all(c.M == 0 for c in basis.channels)
    basis = build_basis(m_projection=2, parity=0, l_max=6)
    assert [c.L for c in basis.channels] == [2, 4, 6]


def test_build_basis_rejects_empty():
    with pytest.raises(ValueError):
        build_basis(m_projection=8, parity=1, l_max=7)


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(-1, 0)
    with pytest.raises(ValueError):
        Channel(1, 2)


def test_basis_requires_consistency():
    with pytest.raises(ValueError):
        ChannelBasis(
            channels=(Channel(1, 0), Channel(2, 0)), m_projection=0, parity=1, l_max=2
        )


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field, message", [("reduced_mass", "reduced mass"), ("c6", "C6"), ("dipole", "dipole")])
def test_system_rejects_non_finite_values(field, message, value):
    # a nan dipole ran to the end and returned loss_probability = nan
    values = {"reduced_mass": MU_KRB, "c6": C6_KRB, field: value}
    with pytest.raises(ValueError, match=message):
        CollisionSystem(**values)


def test_statistical_factor():
    assert krb(symmetry=Symmetry.FERMIONS).statistical_factor == 1
    assert krb(symmetry=Symmetry.BOSONS).statistical_factor == 1
    assert krb(symmetry=Symmetry.DISTINGUISHABLE).statistical_factor == 2
    forced = CollisionSystem(
        reduced_mass=MU_KRB, c6=C6_KRB, symmetry=Symmetry.FERMIONS, g_override=2
    )
    assert forced.statistical_factor == 2


def test_allowed_parities():
    assert krb(symmetry=Symmetry.FERMIONS).allowed_parities() == (1,)
    assert krb(symmetry=Symmetry.BOSONS).allowed_parities() == (0,)
    assert set(krb(symmetry=Symmetry.DISTINGUISHABLE).allowed_parities()) == {0, 1}


# --- potential matrix --------------------------------------------------------


def test_potential_matrix_zero_dipole_is_diagonal():
    system = krb()
    basis = build_basis(0, 1, 7)
    r = np.array([30.0, 100.0, 500.0])
    v = potential_matrix(system, basis, r)
    for i, ri in enumerate(r):
        for a, ca in enumerate(basis.channels):
            for b in range(len(basis.channels)):
                expected = 0.0
                if a == b:
                    expected = ca.L * (ca.L + 1) / (2 * MU_KRB * ri**2) - C6_KRB / ri**6
                assert v[i, a, b] == pytest.approx(expected, rel=1e-10, abs=1e-300)


def test_potential_matrix_dipole_block():
    d = 0.3
    system = krb(dipole=d)
    basis = build_basis(0, 1, 3)  # channels L=1,3
    r = 80.0
    v = potential_matrix(system, basis, r)
    c3 = 2.0 * d * d
    assert v[0, 0] == pytest.approx(
        2.0 / (2 * MU_KRB * r**2) - C6_KRB / r**6 - c3 * 0.4 / r**3, rel=1e-12
    )
    off = -c3 * p2_matrix_element(1, 3, 0) / r**3
    assert v[0, 1] == pytest.approx(off, rel=1e-12)
    assert v[1, 0] == pytest.approx(off, rel=1e-12)


def test_adiabatic_tail_second_order_perturbation():
    """Large-R tail of the lowest L=1, M=0 curve vs. perturbation theory.

    The dipole term shifts the curve by the diagonal element at first
    order; the nearest L=3 channel adds -|<1|V3|3>|^2 / dE at second
    order.  At R = 3000 bohr the third-order correction is negligible
    relative to the test tolerance.
    """
    d = units.dipole_from_debye(0.25)
    system = krb(dipole=d)
    basis = build_basis(0, 1, 9)
    r = np.geomspace(4000.0, 40000.0, 16)
    curves = adiabatic_curves(system, basis, r)
    low = next(c for c in curves if c.channel == Channel(1, 0))
    c3 = system.c3
    for i, ri in enumerate(r):
        first = (
            2.0 / (2 * MU_KRB * ri**2)
            - C6_KRB / ri**6
            - c3 * p2_matrix_element(1, 1, 0) / ri**3
        )
        coupling = -c3 * p2_matrix_element(1, 3, 0) / ri**3
        de = (12.0 - 2.0) / (2 * MU_KRB * ri**2)
        second = -(coupling**2) / de
        assert low.values[i] == pytest.approx(first + second, rel=2e-4)


def test_adiabatic_m0_below_m1():
    # attractive head-to-tail alignment favors M=0
    system = krb(dipole=units.dipole_from_debye(0.3))
    r = np.geomspace(30.0, 30000.0, 240)
    b0 = build_basis(0, 1, 7)
    b1 = build_basis(1, 1, 7)
    c0 = next(c for c in adiabatic_curves(system, b0, r) if c.channel == Channel(1, 0))
    c1 = next(c for c in adiabatic_curves(system, b1, r) if c.channel == Channel(1, 1))
    # inside the barrier region the M=0 curve lies below
    mask = (r > 50) & (r < 500)
    assert np.all(c0.values[mask] < c1.values[mask])


def test_adiabatic_no_crossing():
    system = krb(dipole=units.dipole_from_debye(0.35))
    basis = build_basis(0, 1, 7)
    r = np.geomspace(25.0, 30000.0, 300)
    curves = adiabatic_curves(system, basis, r)
    stack = np.array([c.values for c in sorted(curves, key=lambda c: c.index)])
    assert np.all(np.diff(stack, axis=0) >= 0)


def test_adiabatic_curve_call_matches_samples():
    system = krb(dipole=units.dipole_from_debye(0.2))
    basis = build_basis(0, 1, 5)
    r = np.geomspace(30.0, 30000.0, 50)
    curves = adiabatic_curves(system, basis, r)
    for curve in curves:
        mid = math.sqrt(r[10] * r[11])
        on_grid = curve(r[10])
        assert on_grid == pytest.approx(curve.values[10], rel=1e-13)
        # between samples the exact eigenvalue lies between neighbors for
        # these smooth monotone sections
        val = curve(mid)
        lo, hi = sorted((curve.values[10], curve.values[11]))
        assert lo - abs(lo) * 1e-6 <= val <= hi + abs(hi) * 1e-6


def test_asymptotic_labels_unique_and_complete():
    system = krb(dipole=units.dipole_from_debye(0.3))
    basis = build_basis(0, 1, 7)
    r = np.geomspace(25.0, 30000.0, 200)
    curves = adiabatic_curves(system, basis, r)
    labels = {c.channel for c in curves}
    assert labels == set(basis.channels)


# --- barriers ----------------------------------------------------------------


def test_pwave_barrier_analytic():
    system = krb()
    curve = single_channel_curve(system, Channel(1, 0))
    barrier = find_barrier(curve)
    assert barrier is not None
    vb_exact = math.sqrt(4.0 / (27.0 * MU_KRB**3 * C6_KRB))
    rb_exact = (3.0 * MU_KRB * C6_KRB) ** 0.25
    assert barrier.height == pytest.approx(vb_exact, rel=1e-6)
    assert barrier.r_top == pytest.approx(rb_exact, rel=1e-6)


def test_pwave_barrier_krb_microkelvin():
    system = krb()
    barrier = find_barrier(single_channel_curve(system, Channel(1, 0)))
    assert units.energy_to_microkelvin(barrier.height) == pytest.approx(24.3, rel=5e-3)


def test_swave_has_no_barrier():
    system = krb()
    curve = single_channel_curve(system, Channel(0, 0))
    assert find_barrier(curve) is None


def test_barrier_grid_too_short():
    # grid ends on the positive, still-rising flank of the barrier
    system = krb()
    channel = Channel(1, 0)
    r = np.geomspace(20.0, 250.0, 50)  # barrier top is near 273 bohr
    curve = single_channel_curve(system, channel, r)
    assert curve.values[-1] > 0
    with pytest.raises(GridError):
        find_barrier(curve)


def test_single_channel_curve_checks_its_grid_like_every_curve():
    # a decreasing grid put the KRb p-wave barrier at 273.37 bohr, not 273.57, and a
    # one-point grid ended in an IndexError; a valid grid keeps bitwise the exact values
    system = krb(dipole=units.dipole_from_debye(0.2))
    r = np.geomspace(20.0, 3000.0, 600)
    for bad in (r[::-1], r[:1], r.reshape(2, -1)):
        with pytest.raises(ValueError, match="r_grid"):
            single_channel_curve(system, Channel(1, 0), bad)
    curve = single_channel_curve(system, Channel(1, 0), r)
    basis = curve.basis
    assert (basis.channels, curve.index) == ((Channel(1, 0),), 0)
    assert np.array_equal(curve.values, potential_matrix(system, basis, r)[:, 0, 0])
    assert np.array_equal(curve.values, curve(r))


def test_barrier_height_decreases_with_dipole():
    heights = []
    r = np.geomspace(25.0, 30000.0, 400)
    for d in (0.0, 0.1, 0.2):
        system = krb(dipole=units.dipole_from_debye(d))
        basis = build_basis(0, 1, 7)
        curve = next(
            c for c in adiabatic_curves(system, basis, r) if c.channel == Channel(1, 0)
        )
        barrier = find_barrier(curve)
        assert barrier is not None
        heights.append(barrier.height)
    assert heights[0] > heights[1] > heights[2]


def test_lowest_curves_covers_every_projection():
    system = krb(dipole=units.dipole_from_debye(0.2))
    r = np.geomspace(25.0, 30000.0, 100)
    blocks = {
        (b.m_projection, b.parity): adiabatic_curves(system, b, r)
        for b in symmetry_blocks(system, l_max=5)
    }
    # fermions: only odd-parity blocks, one per projection
    assert set(blocks) == {(m, 1) for m in range(6)}
    labels = {c.channel for curves in blocks.values() for c in curves}
    assert labels == {
        Channel(L, M) for L in (1, 3, 5) for M in range(L + 1)
    }
