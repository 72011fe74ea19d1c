import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import spherical_jn, spherical_yn

from coldchem import potential, propagator, units
from coldchem.errors import CalibrationError, GridError, MatchingError, UnitarityError
from coldchem.potential import (
    Channel,
    ChannelBasis,
    CollisionSystem,
    Symmetry,
    build_basis,
    single_channel_curve,
    symmetry_blocks,
)
from coldchem.propagator import (
    RadialGrid,
    _riccati_bessel,
    _wkb_wavenumber,
    boundary_state,
    calibrate_phase,
    chain_product,
    evaluate,
    gauss_nodes,
    propagate,
    step_matrices,
)
from coldchem.qdt import (
    ShortRangeParams,
    characteristic_energies,
    mean_scattering_length,
)
from coldchem.scanfit import Dataset, fit_short_range, rate_point

MU = units.mass_from_amu(63.4968)
C6 = 16130.0


def krb(**kw):
    return CollisionSystem(reduced_mass=MU, c6=C6, **kw)


E0, E1 = characteristic_energies(MU, C6)
ABAR = mean_scattering_length(MU, C6)


def edge_values(curve, r):
    """The curve's potential at r and its central-difference slope."""
    dr = 1e-4 * r
    return float(curve(r)), float(curve(r + dr) - curve(r - dr)) / (2.0 * dr)


def log_derivative(y, delta, kappa, dkappa):
    """Log-derivative at R_m of the boundary state, -kappa p/q - kappa'/(2 kappa)."""
    p, q, _ = boundary_state(y, delta)
    return -kappa * p / q - dkappa / (2.0 * kappa)


def boundary(params, curve, energy, delta):
    """Boundary log-derivative at R_m from the curve's exact V and V' there, as
    W = 2 mu (V - E) and W' = 2 mu V'."""
    v, v_slope = edge_values(curve, params.r_match)
    two_mu = 2.0 * curve.system.reduced_mass
    kappa, dkappa = _wkb_wavenumber(
        np.array([energy]), [curve.system.c3], np.array([[two_mu * (v - energy)]]),
        two_mu * v_slope, params.r_match, curve.system.reduced_mass
    )
    return log_derivative(params.y, delta, kappa[0, 0], dkappa[0, 0])


def carry(steps, w1, w2, y0):
    """Image of the log-derivative y0 under the chained Magnus step matrices."""
    m, _ = chain_product(step_matrices(steps, w1, w2))
    return (m[1, 0] + m[1, 1] * y0) / (m[0, 0] + m[0, 1] * y0)


def reference_log_derivative(curve, energy, y0, a, b, rtol=1e-11):
    """Independent integration of psi'' = 2 mu (V - E) psi with scipy."""
    mu = curve.system.reduced_mass

    def rhs(r, u):
        w = 2.0 * mu * (float(curve(r)) - energy)
        return [u[1], w * u[0]]

    sol = solve_ivp(
        rhs, (a, b), [1.0 + 0.0j, complex(y0)], method="DOP853", rtol=rtol, atol=1e-14
    )
    assert sol.success
    return sol.y[1, -1] / sol.y[0, -1]


# --- core numerics against an independent integrator ---------------------------


def test_propagation_matches_solve_ivp():
    system = krb()
    params = ShortRangeParams(s=0.0, y=0.6)
    curve = single_channel_curve(system, Channel(0, 0))
    energy = E0 / 100.0
    delta = 1.234
    grid = RadialGrid()
    y0 = boundary(params, curve, energy, delta)
    r1 = grid.outer_radius(system, energy, params.r_match)
    starts, steps = grid.build_steps(system, 0, energy, params.r_match, r1,
                                     max_steps=propagator._MAX_STEPS)
    g1, g2 = gauss_nodes(starts, steps)
    w1 = 2.0 * MU * (np.asarray(curve(g1)) - energy)
    w2 = 2.0 * MU * (np.asarray(curve(g2)) - energy)
    y_prop = carry(steps, w1, w2, y0)
    y_ref = reference_log_derivative(curve, energy, y0, params.r_match, r1)
    assert abs(y_prop - y_ref) / abs(y_ref) < 5e-5


def test_propagation_matches_solve_ivp_high_resolution():
    system = krb()
    params = ShortRangeParams(s=0.0, y=0.6)
    curve = single_channel_curve(system, Channel(0, 0))
    energy = E0 / 100.0
    grid = RadialGrid(points_per_wavelength=120.0)
    y0 = boundary(params, curve, energy, 1.234)
    r1 = grid.outer_radius(system, energy, params.r_match)
    starts, steps = grid.build_steps(system, 0, energy, params.r_match, r1,
                                     max_steps=propagator._MAX_STEPS)
    g1, g2 = gauss_nodes(starts, steps)
    w1 = 2.0 * MU * (np.asarray(curve(g1)) - energy)
    w2 = 2.0 * MU * (np.asarray(curve(g2)) - energy)
    y_prop = carry(steps, w1, w2, y0)
    y_ref = reference_log_derivative(curve, energy, y0, params.r_match, r1)
    assert abs(y_prop - y_ref) / abs(y_ref) < 2e-6


def test_fourth_order_convergence():
    system = krb()
    curve = single_channel_curve(system, Channel(0, 0))
    energy = E0
    y0 = complex(-3.0, -7.0)
    a, b = 20.0, 100.0

    def run(n):
        starts = np.linspace(a, b, n, endpoint=False)
        steps = np.full(n, (b - a) / n)
        g1, g2 = gauss_nodes(starts, steps)
        w1 = 2.0 * MU * (np.asarray(curve(g1)) - energy)
        w2 = 2.0 * MU * (np.asarray(curve(g2)) - energy)
        return carry(steps, w1, w2, y0)

    ref = reference_log_derivative(curve, energy, y0, a, b, rtol=1e-13)
    errors = [abs(run(n) - ref) for n in (400, 800, 1600)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 3.7 < order < 4.6


def test_step_matrices_small_step_series():
    # a single tiny step must be I + O(h); the series branch handles om -> 0
    steps = np.array([1e-9])
    w = np.array([2.5])
    m = step_matrices(steps, w, w)  # planes first: m[i, j, step]
    assert m[..., 0] == pytest.approx(np.eye(2), abs=1e-8)
    assert m[0, 1, 0] == pytest.approx(1e-9, rel=1e-6)


def test_far_steps_give_no_nan_and_no_warning():
    # cosh(om) is sqrt(1 + om2 sinhc^2) only where |om2| <= 0.25; steps beyond it, such
    # as om2 = -60 where that radicand is negative, are masked before the square root
    h = np.full(2, 0.3)
    w = np.array([-60.0, 60.0]) / (h * h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = step_matrices(h, w, w)
    om = math.sqrt(60.0)
    assert m[0, 0] == pytest.approx([math.cos(om), math.cosh(om)], rel=1e-13)
    assert m[0, 1] == pytest.approx([0.3 * math.sin(om) / om, 0.3 * math.sinh(om) / om],
                                    rel=1e-13)


def test_chain_product_orders_factors():
    rng = np.random.default_rng(7)
    ms = rng.normal(size=(5, 2, 2))
    direct = np.eye(2)
    for m in ms:
        direct = m @ direct
    chained, exponent = chain_product(np.moveaxis(ms, 0, -1))
    # chain_product normalizes by powers of two and returns their sum
    assert np.allclose(np.ldexp(chained, exponent), direct, rtol=1e-12, atol=0)


# --- boundary condition --------------------------------------------------------


def test_boundary_reflection_magnitude():
    system = krb()
    curve = single_channel_curve(system, Channel(0, 0))
    energy = E0 / 50.0
    for y in (0.0, 0.3, 0.83, 1.0):
        params = ShortRangeParams(s=0.0, y=y)
        v, v_slope = edge_values(curve, params.r_match)
        kappa = math.sqrt(2.0 * MU * (energy - v))
        dkappa = -MU * v_slope / kappa
        y0 = log_derivative(y, 0.7, kappa, dkappa)
        # invert y0 = -i kappa (1 - R)/(1 + R) - kappa'/(2 kappa) for R
        u = 1j * (y0 + dkappa / (2.0 * kappa)) / kappa
        reflection = (1.0 - u) / (1.0 + u)
        assert abs(reflection) == pytest.approx((1.0 - y) / (1.0 + y), rel=1e-12)


def test_full_absorber_boundary_ignores_phase():
    system = krb()
    curve = single_channel_curve(system, Channel(0, 0))
    params = ShortRangeParams(s=0.0, y=1.0)
    y1 = boundary(params, curve, E0 / 50.0, 0.0)
    y2 = boundary(params, curve, E0 / 50.0, 2.5)
    assert y1 == y2
    # purely incoming wave: negative imaginary part carries flux inward
    assert y1.imag < 0


def test_lossless_boundary_is_real():
    system = krb()
    table = propagator.build_table(
        system, [(build_basis(0, 0, 0), [0])], 20.0, E0 / 50.0, 0.0, RadialGrid()
    )
    for delta in (0.0, 0.4, 1.1, 2.9):
        _, loss = propagator.evaluate(table, 0.0, delta)
        assert loss[0, 0] == 0.0  # the flux, 1 - rho^2, in closed form


def test_riccati_bessel_matches_scipy():
    L = np.arange(16)[:, None]
    x = np.geomspace(1e-3, 1e3, 1001)[None, :]
    j, yn = spherical_jn(L, x), spherical_yn(L, x)
    jp, ynp = spherical_jn(L, x, derivative=True), spherical_yn(L, x, derivative=True)
    reference = (x * j, j + x * jp, -x * yn, -(yn + x * ynp))
    amplitude = np.hypot(reference[0], reference[2])
    for got, want in zip(_riccati_bessel(L, x), reference):
        error = np.abs(got - want)
        assert np.all((error <= 1e-12 * np.abs(want)) | (error <= 1e-12 * amplitude))
    # scalars in, 0-d arrays out, as the calibration takes them
    assert [np.shape(f) for f in _riccati_bessel(0, 0.3)] == [()] * 4


def test_boundary_rejects_forbidden_region():
    # tiny model system where the centrifugal wall exceeds the energy at R_m
    system = CollisionSystem(reduced_mass=1.0, c6=1.0)
    curve = single_channel_curve(
        system, Channel(7, 0), np.geomspace(0.1, 50.0, 200)
    )
    params = ShortRangeParams(s=0.0, y=1.0, r_match=0.5)
    with pytest.raises(MatchingError):
        boundary(params, curve, 1e-6, 0.0)


def test_boundary_warns_when_wkb_marginal():
    system = CollisionSystem(reduced_mass=1.0, c6=1.0)
    curve = single_channel_curve(system, Channel(0, 0), np.geomspace(0.1, 50.0, 200))
    params = ShortRangeParams(s=0.0, y=1.0, r_match=0.5)
    with pytest.warns(UserWarning, match="WKB"):
        boundary(params, curve, 1e-6, 0.0)


# --- end-to-end observables ----------------------------------------------------


def test_universal_swave_loss_length():
    system = krb()
    params = ShortRangeParams(s=0.0, y=1.0)
    grid = RadialGrid()
    delta = calibrate_phase(system, params, grid)
    curve = single_channel_curve(system, Channel(0, 0))
    res = propagate(system, curve, params, E0 / 100.0, delta, grid)
    assert res.scattering_length.beta == pytest.approx(ABAR, rel=0.02)
    assert res.match_spread < 1e-2 * abs(res.scattering_length.value) * res.wavenumber


def test_universal_beta_insensitive_to_s():
    system = krb()
    grid = RadialGrid()
    curve = single_channel_curve(system, Channel(0, 0))
    betas = []
    for s in (0.0, 0.5):
        params = ShortRangeParams(s=s, y=1.0)
        delta = calibrate_phase(system, params, grid)
        res = propagate(system, curve, params, E0 / 100.0, delta, grid)
        betas.append(res.scattering_length.beta)
    assert abs(betas[1] - betas[0]) / betas[0] < 5e-3


def test_lossless_wall_is_unitary():
    system = krb()
    params = ShortRangeParams(s=0.5, y=0.0)
    grid = RadialGrid()
    delta = calibrate_phase(system, params, grid)
    curve = single_channel_curve(system, Channel(0, 0))
    for energy in (E0 / 100.0, E0, 10.0 * E0):
        res = propagate(system, curve, params, energy, delta, grid)
        assert abs(res.loss_probability) < 1e-9
        assert abs(abs(res.s_matrix) - 1.0) < 1e-9


def test_calibration_defining_property():
    system = krb()
    grid = RadialGrid()
    tolerance = 1e-3
    for s in (-0.5, 0.0, 0.5, 2.0):
        params = ShortRangeParams(s=s, y=0.0)
        delta = calibrate_phase(system, params, grid, tolerance=tolerance)
        e_cal = 1e-4 * E0
        k = math.sqrt(2.0 * MU * e_cal)
        curve = single_channel_curve(system, Channel(0, 0))
        res = propagate(system, curve, params, e_cal, delta, grid)
        a = -math.tan(math.atan2(res.s_matrix.imag, res.s_matrix.real) / 2.0) / k
        assert abs(a - s * ABAR) <= 2.0 * tolerance * ABAR * max(1.0, abs(s))


def test_calibration_energy_independence():
    # the residual drift is the physical effective-range shift of a(E),
    # linear in the calibration energy; 3e-3 rad on a pi period is ~1e-3
    system = krb()
    params = ShortRangeParams(s=0.5, y=0.0)
    grid = RadialGrid()
    d1 = calibrate_phase(system, params, grid, energy_fraction=1e-4)
    d2 = calibrate_phase(system, params, grid, energy_fraction=1e-3)
    assert abs(d1 - d2) < 3e-3


def test_result_insensitive_to_matching_radius():
    system = krb()
    grid = RadialGrid()
    betas = []
    for r_m in (15.0, 20.0, 26.0):
        params = ShortRangeParams(s=0.0, y=1.0, r_match=r_m)
        delta = calibrate_phase(system, params, grid)
        curve = single_channel_curve(system, Channel(0, 0))
        res = propagate(system, curve, params, E0 / 100.0, delta, grid)
        betas.append(res.scattering_length.beta)
    assert np.ptp(betas) / betas[1] < 0.01


def test_pwave_barrier_top_transmission():
    system = krb()
    params = ShortRangeParams(s=0.0, y=1.0)
    grid = RadialGrid()
    delta = calibrate_phase(system, params, grid)
    curve = single_channel_curve(system, Channel(1, 0))
    res = propagate(system, curve, params, E1, delta, grid)
    assert res.loss_probability == pytest.approx(0.37, abs=0.02)


def test_high_energy_pwave_transmits():
    system = krb()
    params = ShortRangeParams(s=0.0, y=1.0)
    grid = RadialGrid()
    delta = calibrate_phase(system, params, grid)
    curve = single_channel_curve(system, Channel(1, 0))
    res = propagate(system, curve, params, 100.0 * E1, delta, grid)
    assert res.loss_probability > 0.95


def test_grid_refinement_converged():
    system = krb()
    params = ShortRangeParams(s=0.3, y=0.7)
    coarse = RadialGrid()
    fine = RadialGrid(points_per_wavelength=80.0, scale_fraction=40.0)
    delta = calibrate_phase(system, params, coarse)
    curve = single_channel_curve(system, Channel(0, 0))
    p_coarse = propagate(system, curve, params, E0, delta, coarse).loss_probability
    p_fine = propagate(system, curve, params, E0, delta, fine).loss_probability
    assert abs(p_fine - p_coarse) / p_fine < 1e-3


def test_unitarity_bound_over_parameter_sweep():
    system = krb()
    grid = RadialGrid()
    for s, y in ((-0.5, 0.1), (0.0, 1.0), (0.5, 0.5), (2.0, 0.9)):
        params = ShortRangeParams(s=s, y=y)
        delta = calibrate_phase(system, params, grid)
        for channel in (Channel(0, 0), Channel(1, 0)):
            curve = single_channel_curve(system, channel)
            for energy in (E0 / 100.0, E0, 20.0 * E0):
                res = propagate(system, curve, params, energy, delta, grid)
                assert abs(res.s_matrix) ** 2 <= 1.0 + 1e-9
                assert res.loss_probability >= -1e-12


def test_block_propagation_matches_single_channel_at_zero_dipole():
    system = krb()
    params = ShortRangeParams(s=0.2, y=0.4)
    grid = RadialGrid()
    delta = calibrate_phase(system, params, grid)
    energy = E0 / 10.0
    block = rate_point(system, params, delta, energy, grid, l_max=5)
    assert set(block) == {Channel(L, M) for L in (1, 3, 5) for M in range(L + 1)}
    for channel, got in block.items():
        curve = single_channel_curve(system, channel)
        single = propagate(system, curve, params, energy, delta, grid)
        assert got.s_matrix == pytest.approx(single.s_matrix, rel=1e-6)
        assert got.loss_probability == pytest.approx(
            single.loss_probability, rel=1e-5
        )


def test_block_phase_overrides():
    system = krb()
    params = ShortRangeParams(s=0.2, y=0.4)
    grid = RadialGrid()
    delta = calibrate_phase(system, params, grid)
    energy = E0 / 10.0
    base = rate_point(system, params, delta, energy, grid, l_max=3)
    tweaked = rate_point(
        system, params, delta, energy, grid, l_max=3,
        phase_overrides={Channel(3, 0): delta + 0.3},
    )
    for channel, res in base.items():
        if channel == Channel(3, 0):
            assert tweaked[channel].s_matrix != res.s_matrix
        else:
            assert tweaked[channel].s_matrix == res.s_matrix


def test_evaluate_is_arithmetic_only(monkeypatch):
    # l_max = 1 fermions: the blocks |1, 0> and |1, 1>, at two dipoles
    system = krb()
    blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 1)]
    assert len(blocks) == 2
    d = units.dipole_from_debye(np.array([0.1, 0.3]))
    energy = units.energy_from_microkelvin(0.25)
    table = propagator.build_table(
        system, blocks, 20.0, np.full(len(d), energy), 2.0 * d**2, RadialGrid()
    )
    params = ShortRangeParams(s=0.5, y=0.4)
    delta = calibrate_phase(system, params)
    points = [
        rate_point(dataclasses.replace(system, dipole=float(x)), params, delta, energy, l_max=1)
        for x in d
    ]

    def no_call(*args, **kwargs):
        raise AssertionError("evaluate must use the table alone")

    monkeypatch.setattr(propagator, "_riccati_bessel", no_call)
    monkeypatch.setattr(propagator, "_block_eigenvalues", no_call)
    t, loss = propagator.evaluate(table, params.y, delta)
    s_matrix = (1.0 + 1j * t) / (1.0 - 1j * t)
    columns = [basis.channels[i] for basis, ranks in blocks for i in ranks]
    for i, point in enumerate(points):
        for j, channel in enumerate(columns):
            res = point[channel]
            assert s_matrix[i, j] == pytest.approx(res.s_matrix, rel=1e-12, abs=0.0)
            assert loss[i, j] == pytest.approx(res.loss_probability, rel=1e-12, abs=0.0)


def test_build_table_diagonalizes_nothing_exactly(monkeypatch):
    # the 4-channel block |1,3,5,7; M=0>: the steps and the R_m edge both read its
    # eigenvalue table, so no exact diagonalization or potential matrix is left
    system = krb()
    basis = build_basis(0, 1, 7)
    calls = []
    eigvalsh, matrix = np.linalg.eigvalsh, potential.potential_matrix
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda w: calls.append(1) or eigvalsh(w))
    monkeypatch.setattr(potential, "potential_matrix",
                        lambda *args: calls.append(2) or matrix(*args))
    d = units.dipole_from_debye(np.array([0.1, 0.3]))
    table = propagator.build_table(
        system, [(basis, range(4))], 20.0, np.full(2, E0 / 10.0), 2.0 * d**2, RadialGrid()
    )
    assert table.n_points.min() > 400  # hundreds of WKB and Magnus steps, many folds
    assert calls == []


def test_group_transfers_match_each_block_alone():
    # three envelopes (L = 1, 2, 3), each of a one-channel block and a rank subset of
    # a larger one, with their columns interleaved: all blocks together step in one
    # lockstep, in shorter folds than a block alone, each column on its own envelope
    system = krb()
    blocks = [
        (build_basis(0, 1, 3), range(2)), (build_basis(0, 0, 2), [1]),
        (build_basis(3, 1, 3), [0]), (build_basis(1, 1, 1), [0]),
        (build_basis(2, 0, 2), [0]), (build_basis(1, 1, 3), [0]),
    ]
    energy = np.full(3, units.energy_from_microkelvin(0.25))
    c3 = 2.0 * units.dipole_from_debye(np.array([0.0, 0.2, 0.5])) ** 2
    r_start = np.full(3, 20.0)
    r_stop = RadialGrid().outer_radius(system, energy, 20.0, c3)
    args = (energy, c3, RadialGrid(), r_start, r_stop, 2.0 * MU * c3.max() / 20.0)
    m, e, n = propagator._segment_transfers(system, blocks, *args)
    start = 0
    for block in blocks:
        m_alone, e_alone, n_alone = propagator._segment_transfers(system, [block], *args)
        cols = slice(start, start + len(block[1]))
        start = cols.stop
        # the same transfer m * 2**e, up to rounding
        together = np.ldexp(m[:, cols], (e[:, cols] - e_alone)[..., None, None])
        largest = np.abs(m_alone).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(together - m_alone) <= 1e-12 * largest)
        assert np.array_equal(n[:, cols], n_alone)
    assert start == m.shape[1]


@pytest.mark.parametrize("fold_size", [61, 97])
def test_transfers_do_not_depend_on_the_fold_length(monkeypatch, fold_size):
    # rows at three energies and dipoles leave the lockstep grid at different steps; the
    # small folds (4-8 steps) give odd chain rounds, short last folds and rows that drop
    # out of a group's buffers in mid-segment, with or without the WKB segment first
    system = krb()
    blocks = [(build_basis(0, 1, 3), range(2)), (build_basis(1, 1, 1), [0]),
              (build_basis(0, 0, 2), [0])]
    energy = units.energy_from_microkelvin(np.array([0.05, 0.25, 2.0]))
    c3 = 2.0 * units.dipole_from_debye(np.array([0.0, 0.2, 0.5])) ** 2
    grid = RadialGrid()
    r_stop = grid.outer_radius(system, energy, 20.0, c3)
    args = (energy, c3, grid, np.full(3, 20.0), r_stop, 2.0 * MU * c3.max() / 20.0)
    default = propagator._FOLD_SIZE
    for wkb in (False, True):
        monkeypatch.setattr(propagator, "_FOLD_SIZE", default)
        m, e, n = propagator._segment_transfers(system, blocks, *args, wkb)
        assert len(set(n[:, 0])) == 3
        monkeypatch.setattr(propagator, "_FOLD_SIZE", fold_size)
        m_small, e_small, n_small = propagator._segment_transfers(system, blocks, *args, wkb)
        assert np.array_equal(n_small, n)
        rescaled = np.ldexp(m_small, (e_small - e)[..., None, None])
        largest = np.abs(m).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(rescaled - m) <= 1e-12 * largest)


def test_envelopes_far_apart_step_together(monkeypatch):
    # rows at 0.002 and 2,400 uK in folds of 6 steps: the warm row's grids run many folds
    # past the cold row's, and the four envelopes (L = 0-3) of a row end in different
    # folds; one- and multi-channel columns step in the same folds
    monkeypatch.setattr(propagator, "_FOLD_SIZE", 97)
    system = krb()
    blocks = [(build_basis(0, 0, 0), [0]), (build_basis(0, 1, 3), [0, 1]),
              (build_basis(0, 0, 2), [1]), (build_basis(1, 1, 1), [0])]
    energy = units.energy_from_microkelvin(np.array([0.002, 2400.0]))
    c3 = 2.0 * units.dipole_from_debye(np.array([0.1, 0.2])) ** 2
    grid = RadialGrid()
    r_stop = grid.outer_radius(system, energy, 20.0, c3)
    args = (energy, c3, grid, np.full(2, 20.0), r_stop, 2.0 * MU * c3.max() / 20.0)
    m, e, n = propagator._segment_transfers(system, blocks, *args)
    assert n[1].min() - n[0].max() > 10 * 6
    assert len(set(n[0])) == len(set(n[1])) == 4
    start = 0
    for block in blocks:
        m_alone, e_alone, n_alone = propagator._segment_transfers(system, [block], *args)
        cols = slice(start, start + len(block[1]))
        start = cols.stop
        together = np.ldexp(m[:, cols], (e[:, cols] - e_alone)[..., None, None])
        largest = np.abs(m_alone).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(together - m_alone) <= 1e-12 * largest)
        assert np.array_equal(n[:, cols], n_alone)
    # a budget between the two rows' step counts stops the warm row, and names it
    monkeypatch.setattr(propagator, "_MAX_STEPS", (n[0].max() + n[1].min()) // 2)
    warm = r"at d = 0\.0786861 a\.u\., E = 7\.60035e-09 hartree"
    with pytest.raises(GridError, match=warm) as info:
        propagator._segment_transfers(system, blocks, *args)
    assert info.value.row == 1


def test_grids_are_built_for_live_rows_only(monkeypatch):
    # rows at 0.002 and 2,400 uK in folds of 6 steps: once every grid of the cold row has
    # ended, each fold builds the four lanes of the warm row alone, and each row's
    # transfers and step counts are bitwise those of the row alone in folds of 6 steps
    monkeypatch.setattr(propagator, "_FOLD_SIZE", 97)  # 97 // (2 rows x (5 + 3)) = 6
    system = krb()
    blocks = [(build_basis(0, 0, 0), [0]), (build_basis(0, 1, 3), [0, 1]),
              (build_basis(0, 0, 2), [1]), (build_basis(1, 1, 1), [0])]
    energy = units.energy_from_microkelvin(np.array([0.002, 2400.0]))
    c3 = 2.0 * units.dipole_from_debye(np.array([0.1, 0.2])) ** 2
    grid = RadialGrid()
    r_start, r_stop = np.full(2, 20.0), grid.outer_radius(system, energy, 20.0, c3)
    x_max = 2.0 * MU * c3.max() / 20.0
    lanes = []
    build_steps = RadialGrid.build_steps

    def counted_build_steps(self, *args, **kwargs):
        starts, steps = build_steps(self, *args, **kwargs)
        lanes.append(math.prod(steps.shape[1:]))
        return starts, steps

    monkeypatch.setattr(RadialGrid, "build_steps", counted_build_steps)
    m, e, n = propagator._segment_transfers(system, blocks, energy, c3, grid, r_start, r_stop,
                                            x_max)
    both, warm = -(-n[0].max() // 6), -(-n[1].max() // 6)  # folds each row takes
    assert warm - both > 10
    assert lanes == [4 * 2] * both + [4] * (warm - both)
    monkeypatch.setattr(propagator, "_FOLD_SIZE", 48)  # 48 // (1 row x (5 + 3)) = 6
    for i in range(2):
        row = [i]
        alone = propagator._segment_transfers(system, blocks, energy[row], c3[row], grid,
                                              r_start[row], r_stop[row], x_max)
        for got, want in zip((m, e, n), alone):
            assert np.array_equal(got[row], want)
    # the same with the WKB segment first, for a zero-field row beside a 0.5 D row, each
    # alone with its own x_max
    energy = np.full(2, units.energy_from_microkelvin(0.25))
    c3 = 2.0 * units.dipole_from_debye(np.array([0.0, 0.5])) ** 2
    r_stop = grid.outer_radius(system, energy, 20.0, c3)
    monkeypatch.setattr(propagator, "_FOLD_SIZE", 97)
    together = propagator._segment_transfers(system, blocks, energy, c3, grid, r_start, r_stop,
                                             2.0 * MU * c3.max() / 20.0, wkb=True)
    monkeypatch.setattr(propagator, "_FOLD_SIZE", 48)
    for i in range(2):
        row = [i]
        alone = propagator._segment_transfers(system, blocks, energy[row], c3[row], grid,
                                              r_start[row], r_stop[row],
                                              2.0 * MU * c3[i] / 20.0, wkb=True)
        for got, want in zip(together, alone):
            assert np.array_equal(got[row], want)


# --- the WKB segment of a row group at Chebyshev energies ------------------------------


PLOSS_BLOCKS = [(single_channel_curve(krb(), Channel(L, 0)).basis, [0]) for L in range(4)]


def ploss_table(energy, c3):
    """A ``ploss``-shaped table (one-channel columns L = 0-3), its t and its loss at y = 1."""
    table = propagator.build_table(krb(), PLOSS_BLOCKS, 20.0, energy, c3, RadialGrid())
    return (table, *evaluate(table, 1.0, 0.0))


def well_transfers(energy, c3):
    """The R_m -> r1 transfers (m, e) and step counts of ``ploss_table``'s columns."""
    c3 = np.broadcast_to(c3, np.shape(energy))
    r1 = RadialGrid().outer_radius(krb(), energy, 20.0, c3)
    return propagator._segment_transfers(krb(), PLOSS_BLOCKS, energy, c3, RadialGrid(),
                                         np.full(len(energy), 20.0), r1,
                                         2.0 * MU * c3.max() / 19.998, wkb=True)


def energy_cap(c3):
    """The largest E of a group at c3 with 2 mu E r_w^2 / _WKB_KAPPA_R^2 at _ENERGY_EPS."""
    r_w = propagator._wkb_radius(krb(), np.arange(4.0)[:, None], c3, 20.0, np.inf).max()
    return propagator._ENERGY_EPS * (propagator._WKB_KAPPA_R / r_w) ** 2 / (2.0 * MU)


def rows(energy, c3):
    """(t, loss) of ``ploss_table`` and the transfers of ``well_transfers``."""
    return ploss_table(energy, c3)[1:], well_transfers(energy, c3)


def assert_rows_agree(got, want, rtol=1e-12):
    """The loss and Im t of ``rows`` within rtol relative, the transfers within rtol of
    their largest entry, and the same step counts.

    Re t is checked through the transfers: at low k and high L it is the small difference
    of the match at r1, which the per-row path's own fold length moves by up to 3e-10.
    """
    ((t, loss), (m, e, n)), ((t0, loss0), (m0, e0, n0)) = got, want
    assert np.all(np.abs(loss - loss0) <= rtol * loss0)
    assert np.all(np.abs(t.imag - t0.imag) <= rtol * t0.imag)
    rescaled = np.ldexp(m, (e - e0)[..., None, None])
    assert np.all(np.abs(rescaled - m0) <= rtol * np.abs(m0).max(axis=(-2, -1), keepdims=True))
    assert np.array_equal(n, n0)


def sources(energy, c3):
    """``_wkb_sources`` of ``ploss_table``'s WKB segment."""
    c3 = np.broadcast_to(c3, np.shape(energy))
    r = np.full((4, len(energy)), 20.0)
    r_w = propagator._wkb_radius(krb(), np.arange(4.0)[:, None], c3, r, np.inf)
    return propagator._wkb_sources(krb(), energy, c3, r, r_w)


def test_energy_group_steps_the_well_at_its_nodes_only(monkeypatch):
    # 40 rows at zero field and 3 at 0.2 D in one chunk: the zero-field rows share one WKB
    # grid and step it at the 8 nodes alone; a row at a node energy, E_max included, and
    # every row outside the group keep bitwise the table row of the per-row path
    nodes = propagator._ENERGY_NODES
    e_max = units.energy_from_microkelvin(2400.0)
    unit = 0.5 - 0.5 * np.cos(np.pi * np.arange(nodes) / (nodes - 1))
    energy = np.concatenate([units.energy_from_microkelvin(np.geomspace(0.002, 2000.0, 37)),
                             e_max * unit[[2, 5]], [e_max], np.full(3, e_max / 3.0)])
    c3 = np.where(np.arange(len(energy)) < 40, 0.0, 2.0 * units.dipole_from_debye(0.2) ** 2)
    owner, e_src, _, between = sources(energy, c3)
    assert np.array_equal(owner, [39] * nodes + [40, 41, 42])
    assert np.array_equal(e_src[:nodes], e_max * unit) and e_src[nodes - 1] == e_max
    assert len(between) == 1 and len(between[0][0]) == 37
    grouped, table = rows(energy, c3), ploss_table(energy, c3)[0]
    monkeypatch.setattr(propagator, "_ENERGY_EPS", -1.0)  # no group: every row its own
    direct, direct_table = rows(energy, c3), ploss_table(energy, c3)[0]
    exact = np.arange(37, 43)
    for got, want in zip((*table, *grouped[0], *grouped[1]),
                         (*direct_table, *direct[0], *direct[1])):
        assert np.array_equal(got[exact], want[exact])
    assert not np.array_equal(grouped[1][0][:37], direct[1][0][:37])  # interpolated
    assert_rows_agree(grouped, direct)
    # a row's bits do not depend on the order of the rows or on the eigenvalue cache
    monkeypatch.undo()
    propagator._eigen_table.cache_clear()
    reverse, t, loss = ploss_table(energy[::-1], c3[::-1])
    for got, want in zip((*reverse, t, loss), (*table, *grouped[0])):
        assert np.array_equal(got[::-1], want)


@pytest.mark.parametrize("debye", [0.0, 0.3])
def test_energy_group_rows_match_each_row_alone(debye):
    # random energy sets up to the ceiling: every row of a group agrees with the row built
    # alone, a table of one row that steps the whole well itself
    c3 = 2.0 * units.dipole_from_debye(debye) ** 2
    rng = np.random.default_rng(11)
    for _ in range(2):
        energy = energy_cap(c3) * 10.0 ** rng.uniform(-7.0, 0.0, 20)
        assert len(sources(energy, c3)[0]) == propagator._ENERGY_NODES
        alone = [rows(energy[[i]], c3) for i in range(20)]
        want = [[np.concatenate(x) for x in zip(*(a[k] for a in alone))] for k in (0, 1)]
        assert_rows_agree(rows(energy, c3), want)


def test_energy_nodes_converge_at_the_ceiling(monkeypatch):
    # a group whose E_max sits just below the ceiling: 8 and 10 nodes agree within 1e-12,
    # and both with the per-row path
    energy = energy_cap(0.0) * np.geomspace(1e-7, 0.999, 60)
    assert len(sources(energy, 0.0)[0]) == propagator._ENERGY_NODES
    eight = rows(energy, 0.0)
    monkeypatch.setattr(propagator, "_ENERGY_NODES", propagator._ENERGY_NODES + 2)
    assert_rows_agree(rows(energy, 0.0), eight)
    monkeypatch.setattr(propagator, "_ENERGY_EPS", -1.0)
    assert_rows_agree(rows(energy, 0.0), eight)


def test_energy_group_above_the_ceiling_takes_the_per_row_path(monkeypatch):
    # ploss up to 1e6 uK, eps = 9: the group steps every row itself, bitwise; 8 nodes
    # there, with no ceiling, miss a loss by far more than the rounding
    energy = units.energy_from_microkelvin(np.geomspace(0.002, 1e6, 50))
    assert len(sources(energy, 0.0)[0]) == 50
    capped = ploss_table(energy, 0.0)
    monkeypatch.setattr(propagator, "_ENERGY_EPS", -1.0)
    direct = ploss_table(energy, 0.0)
    assert all(np.array_equal(a, b) for a, b in zip((*capped[0], *capped[1:]),
                                                     (*direct[0], *direct[1:])))
    monkeypatch.setattr(propagator, "_ENERGY_EPS", math.inf)
    assert np.max(np.abs(ploss_table(energy, 0.0)[2] / direct[2] - 1.0)) > 1e-3


def test_energy_group_failure_names_a_row_of_the_chunk(monkeypatch):
    # a step budget that the WKB segment alone exceeds: the node sources stand for the
    # group's top row, which the error names by its own index, d and E
    energy = units.energy_from_microkelvin(np.geomspace(0.002, 2400.0, 12))
    assert len(sources(energy, 0.0)[0]) == propagator._ENERGY_NODES
    monkeypatch.setattr(propagator, "_MAX_STEPS", 5)
    with pytest.raises(GridError, match=r"budget \(at d = 0 a\.u\., E = 7\.60035e-09") as info:
        ploss_table(energy, 0.0)
    assert info.value.row == 11


def test_a_rows_wall_is_free_of_its_chunk_and_of_the_cache():
    # the R_m edge reads the eigenvalue table, whose knots sit at a fixed spacing: a row's
    # det = k kappa is bitwise the same alone (a table up to its own x), beside a stronger
    # field (a longer table), and with every table cached or none
    system = krb()
    blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 3)]
    energy = np.full(3, units.energy_from_microkelvin(0.25))
    c3 = 2.0 * units.dipole_from_debye(np.array([0.0, 0.1, 0.5])) ** 2

    def det(rows):
        return propagator.build_table(system, blocks, 20.0, energy[rows], c3[rows],
                                      RadialGrid()).det

    propagator._eigen_table.cache_clear()
    alone = [det([i]) for i in range(3)]
    together, again = det([0, 1, 2]), [det([i]) for i in range(3)]
    for i in range(3):
        assert np.array_equal(together[i], alone[i][0])
        assert np.array_equal(again[i], alone[i])


def test_wkb_nodes_are_classically_allowed(monkeypatch):
    # every block of l_max = 7, both parities, up to 0.5 D, where the upper adiabats of a
    # block turn forbidden at 70-90 bohr: at every node of a WKB step kappa^2 > 0 and
    # kappa R > _WKB_KAPPA_R, by the lower bound that sets where the WKB segment ends
    system = krb(symmetry=Symmetry.DISTINGUISHABLE)
    blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 7)]
    seen, eigenvalues = [], propagator._block_eigenvalues

    def recorded(system, blocks, r, *args, **kwargs):
        w = eigenvalues(system, blocks, r, *args, **kwargs)
        if np.shape(r)[1] == propagator._WKB_NODES:  # (columns or 1, nodes, steps, rows)
            seen.append((np.broadcast_to(r, w.shape).copy(), w.copy()))
        return w

    monkeypatch.setattr(propagator, "_block_eigenvalues", recorded)
    d = units.dipole_from_debye(np.array([0.0, 0.3, 0.4, 0.5]))
    propagator.build_table(system, blocks, 20.0, np.full(4, units.energy_from_microkelvin(0.25)),
                           2.0 * d**2, RadialGrid())
    assert sum(w.shape[2] for _, w in seen) > 10
    for r, w in seen:
        assert np.all(w < 0)
        assert np.all(np.sqrt(-w) * r > propagator._WKB_KAPPA_R)


def test_step_counts_and_the_budget_take_both_kinds_of_step(monkeypatch):
    # n_points counts the WKB steps and the Magnus steps of a segment together, and the one
    # step budget counts both: a budget the Magnus steps alone would meet stops the row
    system = krb()
    blocks = [(build_basis(0, 1, 3), range(2))]
    energy = np.full(1, units.energy_from_microkelvin(0.25))
    c3 = 2.0 * units.dipole_from_debye(np.array([0.2])) ** 2
    grid = RadialGrid()
    args = (energy, c3, grid, np.full(1, 20.0), grid.outer_radius(system, energy, 20.0, c3),
            2.0 * MU * c3.max() / 20.0)
    counts = {"wkb": 0, "magnus": 0}
    wkb_grid, build_steps = propagator._wkb_grid, RadialGrid.build_steps

    def counted(kind, build):
        def call(*a, **kw):
            starts, steps = build(*a, **kw)
            counts[kind] += np.count_nonzero(steps)  # one envelope, one row
            return starts, steps
        return call

    monkeypatch.setattr(propagator, "_wkb_grid", counted("wkb", wkb_grid))
    monkeypatch.setattr(RadialGrid, "build_steps", counted("magnus", build_steps))
    _, _, n = propagator._segment_transfers(system, blocks, *args, wkb=True)
    assert counts["wkb"] > 10 and n.tolist() == [[counts["wkb"] + counts["magnus"]] * 2]
    monkeypatch.setattr(propagator, "_MAX_STEPS", n[0, 0])
    propagator._segment_transfers(system, blocks, *args, wkb=True)
    monkeypatch.setattr(propagator, "_MAX_STEPS", n[0, 0] - 1)
    with pytest.raises(GridError, match="step budget"):
        propagator._segment_transfers(system, blocks, *args, wkb=True)


@pytest.mark.parametrize("mixed", [False, True])
def test_zero_field_eigenvalues_equal_the_general_path(mixed):
    # at zero field W takes neither x = 2 mu c3 / r nor the P x term, and its one-channel
    # columns are L(L+1)/r^2 at once; rows at c3 = 0 beside a row at a dipole take the
    # general path, and must agree bitwise.  A mixed group still gathers at x = 0, so a
    # work buffer of ones would show an x left unwritten
    system = krb()
    blocks = [(single_channel_curve(system, Channel(L, 0)).basis, [0]) for L in range(4)]
    if mixed:
        blocks[1:1] = [(build_basis(0, 1, 3), [0, 1]), (build_basis(1, 0, 4), [1])]
    rng = np.random.default_rng(5)
    r = 20.0 * 10.0 ** rng.uniform(0.0, 3.0, (1, 2, 3, 64))  # (1, nodes, steps, rows)
    energy = E0 * 10.0 ** rng.uniform(-3.0, 2.0, 64)
    c3 = np.zeros(64)
    field = c3.copy()
    field[-1] = 2.0 * units.dipole_from_debye(0.3) ** 2
    x_max = 2.0 * MU * field.max() / 20.0
    columns = sum(len(ranks) for _, ranks in blocks)
    work = (columns * 2 + 1) * r.size

    def w(c3):
        return propagator._block_eigenvalues(system, blocks, r, c3, energy, x_max,
                                             work=np.ones(work))

    zero, general = w(c3), w(field)
    assert zero.shape == (columns, 2, 3, 64)
    assert np.array_equal(zero[..., :-1], general[..., :-1])
    assert not np.array_equal(zero[..., -1], general[..., -1])


def _traced_peak(build) -> int:
    build()  # fills the eigenvalue table's cache
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fold_buffers_bound_the_build_memory():
    # The folds of a segment run in buffers allocated once.  Measured peaks: 2.71 MB for
    # the 201-row l_max = 7 scan and 1.35 MB for 256 energies of one channel when each
    # envelope group had its own buffers (2.43 and 1.06 MB with one lockstep); the
    # bounds leave 11 % over the former.  With fresh arrays in every fold the same folds
    # read 5.45 and 2.14 MB.  The ploss_wide shape, 1,000 energies of L = 0-3 with one
    # channel each on four envelopes, read 2.68 MB when its bound was set with 12 % over
    # it, and 2.88 MB before each fold's grid was built in place for its live rows alone;
    # it read 2.80 MB.  With W and its gather fresh in every fold it read 3.73 MB.  The
    # WKB folds take fresh arrays before the Magnus buffers exist: 2.41, 1.04 and 2.76 MB.
    system = krb()
    scan = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 7)]
    d = units.dipole_from_debye(np.linspace(0.0, 0.5, 201))
    energies = units.energy_from_microkelvin(np.geomspace(0.002, 2400.0, 256))
    wide = units.energy_from_microkelvin(np.geomspace(0.002, 2400.0, 1000))
    partial_waves = [(single_channel_curve(system, Channel(L, 0)).basis, [0]) for L in range(4)]

    def rates():
        propagator.build_table(
            system, scan, 20.0, np.full(201, E0 / 10.0), 2.0 * d**2, RadialGrid()
        )

    def ploss():
        propagator.build_table(
            system, [(build_basis(0, 0, 0), [0])], 20.0, energies, 0.0, RadialGrid()
        )

    def ploss_wide():
        propagator.build_table(system, partial_waves, 20.0, wide, 0.0, RadialGrid())

    assert _traced_peak(rates) < 3.0e6
    assert _traced_peak(ploss) < 1.5e6
    assert _traced_peak(ploss_wide) < 3.0e6


def test_each_fold_steps_a_whole_group_at_once(monkeypatch):
    # l_max = 3 fermions: four blocks, six columns, one envelope (L = 3); each
    # non-empty fold of a segment takes one step_matrices call over all six, W at a node
    # laid out (steps, columns, rows)
    system = krb()
    blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 3)]
    assert len(blocks) == 4
    calls, folds = [], []
    step_matrices, build_steps = propagator.step_matrices, RadialGrid.build_steps

    def counted_step_matrices(h, w1, w2, **kwargs):
        calls.append(np.shape(w1))
        return step_matrices(h, w1, w2, **kwargs)

    def counted_build_steps(self, *args, **kwargs):
        starts, steps = build_steps(self, *args, **kwargs)
        folds.append(len(steps))
        return starts, steps

    monkeypatch.setattr(propagator, "step_matrices", counted_step_matrices)
    monkeypatch.setattr(RadialGrid, "build_steps", counted_build_steps)
    d = units.dipole_from_debye(np.linspace(0.1, 0.5, 20))
    propagator.build_table(system, blocks, 20.0, np.full(20, E0 / 10.0), 2.0 * d**2, RadialGrid())
    n_folds = sum(1 for n in folds if n > 0)
    assert n_folds > 2  # two segments, in several folds
    assert len(calls) == n_folds
    assert all(shape[1] == 6 for shape in calls)


def test_one_channel_group_reads_no_table(monkeypatch):
    # l_max = 1 fermions at zero field: the blocks |1, 0> and |1, 1> have one channel
    # each, so their group takes L(L+1) / r^2 and reads no table
    system = krb()
    blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 1)]
    assert [len(basis) for basis, _ in blocks] == [1, 1]

    def no_call(*args, **kwargs):
        raise AssertionError("a one-channel group at zero field must not read the table")

    monkeypatch.setattr(propagator, "_eigen_table", no_call)
    table = propagator.build_table(
        system, blocks, 20.0, np.array([E0 / 10.0, E0]), np.zeros(2), RadialGrid()
    )
    assert table.h1.shape == (2, 2, 2, 2)


def test_one_channel_columns_in_a_field_gather_their_matrix_element():
    # in a field a one-channel column reads its table row, L(L+1) - P x, like any other:
    # the gather must give that matrix element at the knots, midway between them and at
    # random x up to the x of 0.5 D at R_m = 20.  At r = 1 and E = -C6 the tail
    # 2 mu (-C6/r^6 - E) of W is exactly 0, so W is eps itself
    system = krb()
    channels = [Channel(L, M) for L in range(8) for M in range(L + 1)]
    blocks = [(single_channel_curve(system, c).basis, [0]) for c in channels]
    x_max = 2.0 * MU * 2.0 * units.dipole_from_debye(0.5) ** 2 / 20.0
    knots = np.arange(math.log1p(x_max) * propagator._KNOTS_PER_UNIT)
    x = np.concatenate([np.expm1(knots / propagator._KNOTS_PER_UNIT),
                        np.expm1((knots + 0.5) / propagator._KNOTS_PER_UNIT),
                        x_max * np.random.default_rng(3).uniform(size=1000)])
    x = x[x <= x_max]
    c3 = x / (2.0 * MU)
    x = 2.0 * MU * c3  # the x that W forms
    eps = propagator._block_eigenvalues(system, blocks, np.ones((1, len(x))), c3, -C6, x_max)
    for c, got in zip(channels, eps):
        p = propagator._coupling(single_channel_curve(system, c).basis)[0, 0]
        ll = c.L * (c.L + 1.0)
        assert np.all(np.abs(got - (ll - p * x)) <= 1e-12 * (ll + abs(p) * x)), c


def test_table_row_does_not_depend_on_its_chunk():
    # a larger dipole in the chunk lengthens the eigenvalue tables; the knots
    # keep their spacing, so the other row's numbers do not move at all
    system = krb()
    blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 3)]
    energy = units.energy_from_microkelvin(0.25)
    c3 = 2.0 * units.dipole_from_debye(np.array([0.1, 2.0])) ** 2
    alone = propagator.build_table(system, blocks, 20.0, energy, c3[0], RadialGrid())
    both = propagator.build_table(system, blocks, 20.0, [energy] * 2, c3, RadialGrid())
    assert np.array_equal(alone.h1[0], both.h1[0])
    assert np.array_equal(alone.h2[0], both.h2[0])


def test_build_table_rejects_negative_c3():
    system = krb()
    blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 3)]
    with pytest.raises(ValueError, match="c3"):
        propagator.build_table(system, blocks, 20.0, [E0, E0], [0.01, -0.01], RadialGrid())


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_build_table_rejects_non_finite_rows(value):
    # a nan energy gave loss_probability = nan with no grid steps, a nan c3 a table of nan
    system = krb()
    blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 1)]
    with pytest.raises(ValueError, match="energy must be finite"):
        rate_point(system, ShortRangeParams(s=0.0, y=1.0), 0.0, value, l_max=1)
    with pytest.raises(ValueError, match="c3 must be finite"):
        propagator.build_table(system, blocks, 20.0, [E0, E0], [0.01, value], RadialGrid())


def test_evaluate_labels_the_row_under_a_trial_axis():
    # a leading trial axis must not be read as the row: y = -0.5 breaks
    # unitarity at the table's only row
    system = krb()
    blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 1)]
    table = propagator.build_table(system, blocks, 20.0, E0, 0.0, RadialGrid())
    label = re.escape(f"at d = 0 a.u., E = {E0:.6g} hartree")
    with pytest.raises(UnitarityError, match=label) as info:
        propagator.evaluate(table, np.array([0.5, -0.5])[:, None, None], 1.0)
    assert info.value.row == 0


ROW_FAILURES = {
    "forbidden boundary": MatchingError,
    "step budget": GridError,
    "vanishing steps": GridError,
    "degenerate match": MatchingError,
    "unitarity": UnitarityError,
    "marginal WKB": UserWarning,
}


@pytest.mark.parametrize("case", ROW_FAILURES)
def test_row_failures_name_their_row_by_its_d_and_e(case, monkeypatch):
    # every failure of a table, and the marginal-WKB warning, names the failing row (here
    # row 1) by its own (d, E) in one format, and sets ``row`` to its index
    system, r_match, blocks = krb(), 20.0, [(build_basis(0, 0, 0), [0])]
    energy, c3 = np.array([E0, 2.0 * E0]), np.zeros(2)
    if case in ("forbidden boundary", "marginal WKB"):
        # a light model system at R_m = 0.5, where V = 48 for L = 7 and -64 for L = 0:
        # row 0 at E = 200 passes, row 1 at 1e-6 is forbidden or kappa R_m < 10
        system, r_match, energy = CollisionSystem(reduced_mass=1.0, c6=1.0), 0.5, [200.0, 1e-6]
        L = 7 if case == "forbidden boundary" else 0
        blocks = [(ChannelBasis((Channel(L, 0),), 0, L % 2, L), [0])]
    if case == "step budget":  # at 250 nK and L = 1: 568 steps at 0.5 D, 150 at 0 D
        monkeypatch.setattr(propagator, "_MAX_STEPS", 400)
        energy = np.full(2, units.energy_from_microkelvin(0.25))
        c3 = 2.0 * units.dipole_from_debye(np.array([0.0, 0.5])) ** 2
        blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, 1)]
    if case == "vanishing steps":  # every step of row 1 is below the rounding of R
        energy = np.array([1e-9, 1e200])
    label = f"(at d = {math.sqrt(c3[1] / 2.0):.6g} a.u., E = {energy[1]:.6g} hartree)"

    def call():
        table = propagator.build_table(system, blocks, r_match, energy, c3, RadialGrid())
        if case == "degenerate match":  # t's denominator vanishes at row 1
            table = table._replace(h1=table.h1 * np.array([1.0, 0.0])[:, None, None, None])
        if case == "unitarity":  # Im t < 0 at row 1
            table = table._replace(det=table.det * np.array([[1.0], [-1.0]]))
        propagator.evaluate(table, 1.0, 0.0)

    if case == "marginal WKB":
        with pytest.warns(UserWarning, match="marginal") as info:
            call()
        (found,) = [w.message for w in info if "marginal" in str(w.message)]
    else:
        with pytest.raises(ROW_FAILURES[case]) as info:
            call()
        found = info.value
        if case == "forbidden boundary":  # V = E + W / (2 mu) of the failing entry
            assert "is classically forbidden (V = 4.800e+01 hartree)" in str(found)
    assert str(found).endswith(f" {label}")
    assert found.row == 1


def test_loss_probability_carries_no_rounding_of_the_phase():
    # a 5e-15 rad shift of delta_sr only perturbs rounding; P_loss from the
    # conserved flux follows it smoothly, while 4 Im t / |1 - i t|^2 of the
    # complex Moebius chain moved |3,3> (P ~ 1e-12) by 2e-4
    system = krb(dipole=units.dipole_from_debye(0.2))
    params = ShortRangeParams(s=0.0, y=0.5)
    delta = calibrate_phase(krb(), ShortRangeParams(s=0.0, y=0.0))
    energy = units.energy_from_microkelvin(0.25)
    base = rate_point(system, params, delta, energy, l_max=3)
    shifted = rate_point(system, params, delta + 5e-15, energy, l_max=3)
    assert set(shifted) == set(base)
    for channel, res in base.items():
        assert res.loss_probability > 0.0
        assert shifted[channel].loss_probability == pytest.approx(
            res.loss_probability, rel=1e-10, abs=0.0
        )


def test_validation_errors():
    system = krb()
    params = ShortRangeParams(s=0.0, y=1.0)
    curve = single_channel_curve(system, Channel(0, 0))
    with pytest.raises(ValueError, match="energy must be finite and positive"):
        propagate(system, curve, params, -1e-10, 0.0)
    with pytest.raises(ValueError):
        propagate(
            system, curve, ShortRangeParams(s=0.0, y=1.0, r_match=200.0), E0, 0.0
        )
    with pytest.raises(ValueError):
        calibrate_phase(system, params, energy_fraction=0.5)


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan])
def test_calibration_rejects_a_non_positive_tolerance(tolerance):
    # a tolerance of -1 ended in a CalibrationError "within -1.0e+00 relative"
    system, params = krb(), ShortRangeParams(s=0.0, y=0.5)
    with pytest.raises(ValueError, match="calibration tolerance must be positive"):
        calibrate_phase(system, params, tolerance=tolerance)
    data = Dataset(d_debye=np.array([0.05, 0.1]), rate_cm3s=np.array([1e-12, 2e-12]))
    for fit in (("y",), ("s", "y")):
        with pytest.raises(ValueError, match="calibration tolerance must be positive"):
            fit_short_range(data, system, E0, params, fit=fit, l_max=1, tolerance=tolerance)


def test_grid_policies():
    grid = RadialGrid()
    system = krb()
    r_out = grid.outer_radius(system, E0, 20.0)
    assert (C6 / r_out**6) <= grid.tail_tolerance * E0 * (1.0 + 1e-12)
    dip = krb(dipole=units.dipole_from_debye(0.4))
    r_dip = grid.outer_radius(dip, E0 / 1000.0, 20.0)
    assert (dip.c3 / r_dip**3) <= grid.tail_tolerance * (E0 / 1000.0) * (1.0 + 1e-12)
    assert r_dip > r_out
    with pytest.raises(ValueError):
        RadialGrid(points_per_wavelength=10.0)
    with pytest.raises(ValueError):
        RadialGrid(tail_tolerance=1e-3)
    with pytest.raises(ValueError):
        RadialGrid(match_factor=0.9)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field", ["points_per_wavelength", "scale_fraction", "tail_tolerance", "match_factor"])
def test_grid_rejects_non_finite_values(field, value):
    # nan or inf made every step nan or zero, and the grid had no steps
    with pytest.raises(ValueError, match=field):
        RadialGrid(**{field: value})


def whole_grid(grid, system, L, energy, r_start, r_stop, c3, fold=1024):
    """A whole grid chained from folds of ``fold`` steps, each from the last one's end
    radius, as ``_segment_transfers`` takes them."""
    folds, r = [], r_start
    while True:
        starts, steps = grid.build_steps(system, L, energy, r, r_stop, c3, max_steps=fold)
        folds.append((starts, steps))
        if len(steps) < fold:
            return tuple(map(np.concatenate, zip(*folds)))
        r = starts[-1] + steps[-1]


def test_build_steps_without_max_steps_is_a_type_error():
    # a grid is built fold by fold only; the step budget is _segment_transfers' to enforce
    with pytest.raises(TypeError, match="max_steps"):
        RadialGrid().build_steps(krb(), 0, E0, 20.0, 2000.0)


def test_build_steps_cover_interval():
    grid = RadialGrid()
    system = krb()
    starts, steps = grid.build_steps(system, 0, E0, 20.0, 2000.0, max_steps=propagator._MAX_STEPS)
    assert starts[0] == 20.0
    assert starts[-1] + steps[-1] == pytest.approx(2000.0, rel=1e-12)
    assert np.all(steps > 0)
    # step ceiling: never more than r/scale_fraction
    assert np.all(steps <= starts / grid.scale_fraction + 1e-12)


def test_lockstep_grid_rows_equal_single_rows():
    # wide batches step in numpy lockstep, few grid rows in Python floats; the same
    # correctly rounded operations must give the same grid, per envelope as for one L
    grid = RadialGrid()
    system = krb()
    energy = E0 * np.geomspace(1e-3, 10.0, 20)
    c3 = np.linspace(0.0, 0.05, 20)
    r_out = grid.outer_radius(system, energy, 20.0, c3)
    envelopes = np.array([[1], [3], [6]])
    starts, steps = whole_grid(grid, system, envelopes, energy, 20.0, r_out, c3)
    assert starts.shape == steps.shape == (len(steps), 3, 20)
    few = [0, 19]  # 3 envelopes x 2 rows take the row-by-row path
    few_starts, few_steps = grid.build_steps(system, envelopes, energy[few], 20.0, r_out[few],
                                             c3[few], max_steps=propagator._MAX_STEPS)
    assert few_steps.shape[1:] == (3, 2)
    for g, L in enumerate(envelopes[:, 0]):
        for i in (0, 7, 19):
            row_starts, row_steps = grid.build_steps(system, L, energy[i], 20.0, r_out[i], c3[i],
                                                     max_steps=propagator._MAX_STEPS)
            n = len(row_steps)
            assert np.array_equal(starts[:n, g, i], row_starts)
            assert np.array_equal(steps[:n, g, i], row_steps)
            # a row that has stopped is padded with zero steps at its end radius
            assert np.all(steps[n:, g, i] == 0.0)
            assert np.all(starts[n:, g, i] == row_starts[-1] + row_steps[-1])
            if i in few:
                j = few.index(i)
                assert np.array_equal(few_starts[:n, g, j], row_starts)
                assert np.array_equal(few_steps[:n, g, j], row_steps)
                assert np.all(few_steps[n:, g, j] == 0.0)


@pytest.mark.parametrize("k", [1, 4, 7])
def test_grid_folds_chain_to_the_whole_grid(monkeypatch, k):
    # folds of k steps, each started at the last one's end radius, give bitwise the one
    # whole grid: rows of eight outer radii, which stop in different folds and are padded
    # with zero steps until every row has stopped.  Three envelopes (24 grid rows) step in
    # numpy lockstep, two (16) in Python floats, whose whole grid is one fold
    grid = RadialGrid()
    system = krb()
    energy = E0 * np.geomspace(1e-3, 10.0, 8)
    c3 = np.linspace(0.0, 0.05, 8)
    r_stop = 20.0 * np.geomspace(1.5, 4.0, 8)
    calls = []
    next_radius = propagator._next_radius
    monkeypatch.setattr(propagator, "_next_radius", lambda *a: calls.append(1) or next_radius(*a))
    for envelopes, lockstep in ((np.array([[1], [3], [6]]), True), (np.array([[1], [6]]), False)):
        assert (envelopes.size * 8 > propagator._SCALAR_ROWS) == lockstep
        starts, steps = whole_grid(grid, system, envelopes, energy, 20.0, r_stop, c3,
                                   fold=1024 if lockstep else propagator._MAX_STEPS)
        assert steps.shape == (len(steps), len(envelopes), 8)
        folds, r = [], np.full((len(envelopes), 8), 20.0)
        while True:
            calls.clear()
            fold = grid.build_steps(system, envelopes, energy, r, r_stop, c3, max_steps=k)
            # exactly max_steps numpy steps, no probe for the end; none in Python floats
            assert len(calls) == (k if lockstep else 0)
            if len(fold[1]) == 0:
                break
            folds.append(fold)
            r = fold[0][-1] + fold[1][-1]
            if len(fold[1]) < k:
                break
        assert all(len(h) == k for _, h in folds[:-1])
        assert np.array_equal(np.concatenate([s for s, _ in folds]), starts)
        assert np.array_equal(np.concatenate([h for _, h in folds]), steps)
        n = np.count_nonzero(steps, axis=0)
        assert len(np.unique((n - 1) // k)) > 2  # rows take their last steps in several folds
        assert np.any(steps == 0.0)


def test_calibration_forward_check_raises():
    # the closed form is exact only to rounding; a tighter bound must fail
    with pytest.raises(CalibrationError):
        calibrate_phase(krb(), ShortRangeParams(s=0.5, y=0.0), tolerance=1e-300)


def test_calibration_rejects_when_no_root():
    # an r_match beyond abar is caught before any propagation
    system = krb()
    with pytest.raises(ValueError):
        calibrate_phase(system, ShortRangeParams(s=0.0, y=0.0, r_match=150.0))
