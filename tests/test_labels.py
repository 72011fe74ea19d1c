"""Rank labelling of adiabatic curves against the eigenvector labeller.

``adiabatic_curves`` labels curve i of a block with ``basis.channels[i]``.
The reference below is the labeller the package used before: it assigns
each curve the partial wave that holds most of its eigenvector's weight at
the outermost radius, and refuses when that weight is below 0.99 or two
curves claim the same wave.  (Its eigenvector gauge fixing is left out:
labels depend only on squared components.)  Both must agree on every grid
the other tests label on and wherever the reference returns in a sweep.
"""
import numpy as np
import pytest

from coldchem import units
from coldchem.errors import GridError
from coldchem.potential import (
    CollisionSystem,
    Symmetry,
    adiabatic_curves,
    build_basis,
    potential_matrix,
    symmetry_blocks,
)
from coldchem.propagator import RadialGrid

MU = units.mass_from_amu(63.4968)
C6 = 16130.0
R_MATCH = 20.0
E_250NK = units.energy_from_microkelvin(0.25)


def krb(d_debye, symmetry=Symmetry.FERMIONS):
    return CollisionSystem(
        reduced_mass=MU, c6=C6, dipole=units.dipole_from_debye(d_debye), symmetry=symmetry
    )


def eigenvector_labels(system, basis, r_grid, min_weight=0.99):
    """Channel of each eigenvalue rank by its asymptotic eigenvector weight."""
    _, vecs = np.linalg.eigh(potential_matrix(system, basis, r_grid))
    weights = vecs[-1] ** 2  # (component, curve) at the outermost radius
    labels = []
    for idx in range(len(basis)):
        comp = int(np.argmax(weights[:, idx]))
        if weights[comp, idx] < min_weight:
            raise GridError(f"curve {idx} has only {weights[comp, idx]:.3f} weight")
        if basis.channels[comp] in labels:
            raise GridError("two curves map to the same asymptotic channel")
        labels.append(basis.channels[comp])
    return labels


def check_rank_labels(system, basis, r_grid):
    ranks = [curve.channel for curve in adiabatic_curves(system, basis, r_grid)]
    assert ranks == list(basis.channels)
    assert ranks == eigenvector_labels(system, basis, r_grid)
    _, vecs = np.linalg.eigh(potential_matrix(system, basis, r_grid[-1]))
    # the rank-i eigenvector lives on channel i at the outer radius
    assert np.all(np.diag(vecs) ** 2 >= 0.99)


def rate_point_grid(system, energy):
    """The grid the scans labelled on: R_m to the tail radius, 240 samples."""
    r_out = RadialGrid().outer_radius(system, energy, R_MATCH)
    return np.geomspace(R_MATCH, r_out, 240)


def adiabats_grid(system):
    """The labelling grid of the ``adiabats`` command at the default r_max."""
    r_label = max(3000.0, 3.0 * system.c3 * system.reduced_mass, 3.0 * R_MATCH)
    return np.geomspace(R_MATCH, r_label, 240)


def odd(ms, l_max):
    return [build_basis(m, 1, l_max) for m in ms]


def _test_grids():
    geo = np.geomspace
    yield "tail", krb(0.25), odd([0], 9), geo(4000.0, 40000.0, 16)
    yield "m0-below-m1", krb(0.3), odd([0, 1], 7), geo(30.0, 30000.0, 240)
    yield "no-crossing", krb(0.35), odd([0], 7), geo(25.0, 30000.0, 300)
    yield "call-samples", krb(0.2), odd([0], 5), geo(30.0, 30000.0, 50)
    yield "labels", krb(0.3), odd([0], 7), geo(25.0, 30000.0, 200)
    for d in (0.0, 0.1, 0.2):
        yield f"barrier-{d}", krb(d), odd([0], 7), geo(25.0, 30000.0, 400)
    every = krb(0.2)
    yield "every-projection", every, symmetry_blocks(every, 5), geo(25.0, 30000.0, 100)
    yield "block-l5", krb(0.0), odd([0], 5), geo(R_MATCH, 1e5, 80)
    yield "block-l3", krb(0.0), odd([0], 3), geo(R_MATCH, 1e5, 60)
    cli = krb(0.5)
    yield "cli-adiabats", cli, symmetry_blocks(cli, 3), adiabats_grid(cli)
    # the dipoles of the rates, resonances and fit commands in test_cli.py
    scan_d = set(np.linspace(0.0, 0.2, 3)) | set(np.linspace(0.0, 0.15, 25))
    scan_d |= {0.05, 0.1, 0.15, 0.2}
    for d in sorted(scan_d):
        system = krb(float(d))
        yield f"cli-scan-{d:.5f}", system, symmetry_blocks(system, 3), rate_point_grid(
            system, E_250NK
        )


TEST_GRIDS = list(_test_grids())


@pytest.mark.parametrize(
    "system, bases, r_grid", [c[1:] for c in TEST_GRIDS], ids=[c[0] for c in TEST_GRIDS]
)
def test_rank_labels_match_eigenvectors_on_test_grids(system, bases, r_grid):
    for basis in bases:
        check_rank_labels(system, basis, r_grid)


@pytest.mark.parametrize("symmetry", list(Symmetry), ids=lambda s: s.value)
def test_rank_labels_match_eigenvectors_over_field_and_energy(symmetry):
    checked = refused = 0
    for d in (0.0, 0.2, 0.35, 0.5, 1.0):
        system = krb(d, symmetry)
        for e_uk in (0.002, 0.25, 24.0, 2400.0):
            r_grid = rate_point_grid(system, units.energy_from_microkelvin(e_uk))
            for basis in symmetry_blocks(system, 7):
                try:
                    eigenvector_labels(system, basis, r_grid)
                except GridError:
                    refused += 1  # ambiguous for the reference; ranks still apply
                    continue
                check_rank_labels(system, basis, r_grid)
                checked += 1
    assert checked > 0
    if symmetry is Symmetry.FERMIONS:
        assert refused > 0  # e.g. 0.5 D at 2400 uK, where scans used to fail
