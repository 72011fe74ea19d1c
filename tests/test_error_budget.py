"""The engine's error budget: how far four numerical sources move the total rates.

One scan (KRb fermions, 250 nK, l_max = 3, 41 dipoles over 0-0.5 D, s = 0 and
y in {1, 0.1}) is built at the defaults, and each source is tightened alone:

- step: an all-Magnus table from R_m, 160 points per wavelength and
  scale_fraction = 80, composed here from ``_segment_transfers`` so that it does
  not depend on how the engine steps the well;
- tail: ``tail_tolerance = 1e-7``;
- calibration: delta_sr calibrated at 1e-6 E0 instead of 1e-4 E0;
- wall: the spread of the y = 1 totals when R_m moves from 20 to 15 or 25 bohr.

Each value is the largest relative change of a total rate; the test prints the
four and bounds each at about twice its value on the engine that set it.
"""

from unittest import mock

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from coldchem import potential, propagator, units
from coldchem.potential import CollisionSystem
from coldchem.propagator import RadialGrid, _phase_calibration, build_table, evaluate
from coldchem.scanfit import _blocks, _rate_curve

KRB = CollisionSystem(reduced_mass=units.mass_from_amu(63.4968), c6=16130.0)
ENERGY = units.energy_from_microkelvin(0.25)
D = units.dipole_from_debye(np.linspace(0.0, 0.5, 41))
BLOCKS, COLUMNS = _blocks(KRB, 3)
REFERENCE = RadialGrid(points_per_wavelength=160.0, scale_fraction=80.0)
# source: (y = 1, y = 0.1) bounds, about twice the measured values (step 2.0e-7 and 9.2e-6
# since the WKB segment, 2.6e-7 and 2.8e-5 before; tail 2.1e-5 and 2.1e-5; calibration 0
# and 8.3e-4; wall 4.2e-5, at y = 1 alone); at y = 1 the boundary state does not depend on
# delta_sr, so the calibration moves nothing
BOUNDS = {"step": (4e-7, 2e-5), "tail": (5e-5, 5e-5), "calibration": (0.0, 1.7e-3),
          "wall": (9e-5, None)}


def magnus_table(r_match, grid):
    """The table of ``build_table`` at r1, every segment stepped by Magnus from R_m."""
    energy, c3 = np.full(len(D), ENERGY), 2.0 * D**2
    mu = KRB.reduced_mass
    dr = 1e-4 * r_match
    edge = np.array([r_match - dr, r_match, r_match + dr])[:, None]
    walls = []
    for basis, ranks in BLOCKS:
        v = potential._block_eigenvalues(KRB, basis, edge, c3)[..., list(ranks)]
        w, w_slope = 2.0 * mu * (v[1] - energy[:, None]), 2.0 * mu * (v[2] - v[0]) / (2.0 * dr)
        walls.append(propagator._wkb_wavenumber(energy, c3, w, w_slope, r_match, mu))
    kappa, dkappa = np.concatenate(walls, axis=-1)
    ell = np.array([c.L for c in COLUMNS])
    k = np.sqrt(2.0 * mu * energy)[:, None]
    r1 = grid.outer_radius(KRB, energy, r_match, c3)
    m1, e1, n1 = propagator._segment_transfers(KRB, BLOCKS, energy, c3, grid,
                                               np.full(len(D), r_match), r1,
                                               2.0 * mu * c3.max() / r_match)
    wall = np.stack([np.zeros_like(kappa), np.ones_like(kappa), -kappa,
                     -dkappa / (2.0 * kappa)], axis=-1).reshape(kappa.shape + (2, 2))
    h1 = propagator._match_matrix(ell, k, r1) @ m1 @ wall
    return propagator._Table(k, h1, e1, h1, e1, k * kappa, n1, energy, c3)


def totals(table, y, delta):
    _, loss = evaluate(table, y, delta)
    return _rate_curve("dipole", D, KRB, COLUMNS, loss, table.energy, None, ENERGY,
                       None).total


def largest_change(a, b):
    return float(np.max(np.abs(a / b - 1.0)))


@pytest.fixture(scope="module")
def budget():
    energy, c3 = np.full(len(D), ENERGY), 2.0 * D**2
    default = build_table(KRB, BLOCKS, 20.0, energy, c3, RadialGrid())
    fine = magnus_table(20.0, REFERENCE)
    tail = build_table(KRB, BLOCKS, 20.0, energy, c3, RadialGrid(tail_tolerance=1e-7))
    delta = _phase_calibration(KRB, 20.0)[0](0.0)
    delta_cold = _phase_calibration(KRB, 20.0, energy_fraction=1e-6)[0](0.0)
    values = {}
    for j, y in enumerate((1.0, 0.1)):
        base = totals(default, y, delta)
        values[("step", j)] = largest_change(base, totals(fine, y, delta))
        values[("tail", j)] = largest_change(base, totals(tail, y, delta))
        values[("calibration", j)] = largest_change(base, totals(default, y, delta_cold))
    base = totals(default, 1.0, 0.0)
    values[("wall", 0)] = max(
        largest_change(totals(build_table(KRB, BLOCKS, r_match, energy, c3, RadialGrid()),
                              1.0, 0.0), base)
        for r_match in (15.0, 25.0)
    )
    return values


@pytest.mark.parametrize("source", list(BOUNDS))
def test_error_budget(budget, source, capfd):
    measured = [budget.get((source, j)) for j in range(2)]
    with capfd.disabled():
        print(f"\nERROR BUDGET {source}: y = 1 {measured[0]:.2e}"
              + ("" if measured[1] is None else f", y = 0.1 {measured[1]:.2e}"), flush=True)
    for value, bound in zip(measured, BOUNDS[source]):
        if bound is not None:
            assert value <= bound


# --- an independent step reference ------------------------------------------------------
#
# scipy's DOP853 on psi'' = W psi, W = 2 mu (V - E) from the exact eigenvalues, carries two
# solutions from R_m to r1 at rtol 1e-12 (within 1.3e-10 in the loss of a run at 1e-13); the
# table's own wall and match compose them.  Points: single columns L = 0, 1 and 2 at 0 D and
# the L = 1 rank of the l_max = 7 block alone at 0.3 and 0.5 D, the columns of ``ploss``,
# each at y = 1 and at y = 0.1 with delta_sr = 1.  A 320/160 all-Magnus build converges on
# it as h^4 (1.1e-9 at y = 1 and 1.5e-8 at y = 0.1 measured, 160/80 reads 2.3e-7); the
# default build's distance is printed and bounded at about twice its largest measured value
# (4.5e-6 at y = 1 and 3.1e-5 at y = 0.1, both on a 0 D column), each as (y = 1, y = 0.1).
FINE = RadialGrid(points_per_wavelength=320.0, scale_fraction=160.0)
SEGMENT = propagator._segment_transfers
FINE_BOUNDS = (1e-8, 3e-8)
DEFAULT_BOUNDS = (1e-5, 6e-5)
RTOL = 1e-12


def reference_points():
    """(label, blocks of one column, c3) of every reference point, as ``ploss`` builds them."""
    points = [(f"L = {L}, 0 D", [(potential.ChannelBasis((potential.Channel(L, 0),), 0, L % 2,
                                                         L), [0])], 0.0) for L in range(3)]
    basis = potential.build_basis(0, 1, 7)
    rank = basis.index(potential.Channel(1, 0))
    return points + [(f"L = 1 of l_max = 7, {debye} D", [(basis, [rank])],
                      2.0 * units.dipole_from_debye(debye) ** 2) for debye in (0.3, 0.5)]


def dop853_well(blocks):
    """A ``_segment_transfers`` whose R_m -> r1 segment is DOP853 at ``RTOL``."""
    ((basis, (rank,)),) = blocks

    def transfers(system, blocks, energy, c3, grid, r_start, r_stop, x_max, wkb=False):
        if not wkb:
            return SEGMENT(system, blocks, energy, c3, grid, r_start, r_stop, x_max)

        def rhs(r, u):
            v = potential._block_eigenvalues(system, basis, r, c3[0])[rank]
            w = 2.0 * system.reduced_mass * (v - energy[0])
            return [u[1], w * u[0], u[3], w * u[2]]

        sol = solve_ivp(rhs, (r_start[0], r_stop[0]), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                        rtol=RTOL, atol=1e-16)
        assert sol.success
        m = sol.y[:, -1].reshape(2, 2).T  # columns: the two solutions (psi, psi')
        return m[None, None], np.zeros((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=int)

    return transfers


def all_magnus_well(system, blocks, energy, c3, grid, r_start, r_stop, x_max, wkb=False):
    """A ``_segment_transfers`` whose R_m -> r1 segment is Magnus alone on the FINE grid."""
    return SEGMENT(system, blocks, energy, c3, FINE if wkb else grid, r_start, r_stop, x_max)


def point_loss(blocks, c3, well=None):
    """The loss at (y = 1) and (y = 0.1, delta_sr = 1) of one column, R_m -> r1 by ``well``."""
    with mock.patch.object(propagator, "_segment_transfers", well or SEGMENT):
        table = build_table(KRB, blocks, 20.0, ENERGY, c3, RadialGrid())
    return np.array([evaluate(table, y, delta)[1][0, 0] for y, delta in ((1.0, 0.0), (0.1, 1.0))])


def test_steps_against_an_independent_reference(capfd):
    for label, blocks, c3 in reference_points():
        reference = point_loss(blocks, c3, dop853_well(blocks))
        fine = np.abs(point_loss(blocks, c3, all_magnus_well) / reference - 1.0)
        default = np.abs(point_loss(blocks, c3) / reference - 1.0)
        with capfd.disabled():
            print(f"\nSTEP REFERENCE {label}: y = 1 {default[0]:.2e}, y = 0.1 {default[1]:.2e}"
                  f" (320/160 all-Magnus {fine[0]:.1e}, {fine[1]:.1e})", flush=True)
        assert np.all(fine <= FINE_BOUNDS)
        assert np.all(default <= DEFAULT_BOUNDS)
