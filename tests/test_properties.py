"""Physical invariants of the propagation as properties over random inputs."""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldchem import potential, propagator, scanfit, units
from coldchem.potential import (
    Channel,
    CollisionSystem,
    Symmetry,
    potential_matrix,
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
    propagate,
    step_matrices,
)
from coldchem.qdt import ShortRangeParams, characteristic_energies, mean_scattering_length
from coldchem.scanfit import Dataset, fit_short_range, rate_point, scan_dipole

MU = units.mass_from_amu(63.4968)
C6 = 16130.0
KRB = CollisionSystem(reduced_mass=MU, c6=C6)
E0 = characteristic_energies(MU, C6).e_swave
ABAR = mean_scattering_length(MU, C6)

PROPERTY = settings(max_examples=50, deadline=None, database=None)
SCAN_PROPERTY = settings(max_examples=8, deadline=None, database=None)

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


# --- the batched core: a row does not depend on the rows beside it -------------

SCAN_PARAMS = ShortRangeParams(s=0.3, y=0.4)
SCAN_DELTA = calibrate_phase(KRB, SCAN_PARAMS)
E_250NK = units.energy_from_microkelvin(0.25)
# strictly increasing dipole grids up to 0.3 D, in steps of 1 mD
dipole_sets = st.lists(st.integers(0, 300), min_size=2, max_size=6, unique=True).map(
    lambda ms: units.dipole_from_debye(1e-3 * np.array(sorted(ms)))
)


def scan(d):
    return scan_dipole(KRB, SCAN_PARAMS, E_250NK, d, l_max=3, delta_sr=SCAN_DELTA)


@SCAN_PROPERTY
@given(d=dipole_sets)
def test_scan_rows_equal_rate_point(d):
    curve = scan(d)
    for i, d_i in enumerate(d):
        point = rate_point(
            dataclasses.replace(KRB, dipole=float(d_i)), SCAN_PARAMS, SCAN_DELTA,
            E_250NK, l_max=3,
        )
        assert set(point) == set(curve.per_channel)
        for channel, res in point.items():
            weight = 2 if channel.M > 0 else 1
            assert curve.per_channel[channel][i] == pytest.approx(
                weight * res.quenching_rate, rel=1e-12, abs=0.0
            )
            assert curve.loss[channel][i] == pytest.approx(
                res.loss_probability, rel=1e-12, abs=0.0
            )


@SCAN_PROPERTY
@given(d=dipole_sets, cut=st.floats(0.0, 1.0))
def test_scan_equals_concatenated_halves(d, cut):
    split = 1 + int(cut * (len(d) - 2))
    # two-row chunks put chunk boundaries inside the whole scan as well
    with mock.patch.object(propagator, "_CHUNK_ROWS", 2):
        whole = scan(d)
    first, second = scan(d[:split]), scan(d[split:])
    assert np.allclose(whole.total, np.concatenate([first.total, second.total]),
                       rtol=1e-12, atol=0.0)
    for channel, rates in whole.per_channel.items():
        halves = np.concatenate([first.per_channel[channel], second.per_channel[channel]])
        assert np.allclose(rates, halves, rtol=1e-12, atol=0.0)


# --- the long-range table: built once, evaluated at any (s, y) -----------------

TABLE_D = units.dipole_from_debye(np.array([0.0, 0.07, 0.15, 0.3]))
TABLE_BLOCKS = [(basis, range(len(basis))) for basis in symmetry_blocks(KRB, 3)]
TABLE = propagator.build_table(
    KRB, TABLE_BLOCKS, 20.0, np.full(len(TABLE_D), E_250NK), 2.0 * TABLE_D**2, RadialGrid()
)
# the same table matched at r2: evaluate's t there
TABLE_FAR = TABLE._replace(h1=TABLE.h2, e1=TABLE.e2)
unit_y = st.floats(0.0, 1.0)


@SCAN_PROPERTY
@given(s=shorts, y=unit_y)
def test_table_evaluation_equals_rate_point(s, y):
    params = ShortRangeParams(s=s, y=y)
    delta = calibrate_phase(KRB, params)
    t, loss = propagator.evaluate(TABLE, y, delta)
    t_far, _ = propagator.evaluate(TABLE_FAR, y, delta)
    s_matrix, size = (1.0 + 1j * t) / (1.0 - 1j * t), 1.0 + np.abs(t) + np.abs(t_far)
    columns = [basis.channels[j] for basis, ranks in TABLE_BLOCKS for j in ranks]
    for i, d_i in enumerate(TABLE_D):
        point = rate_point(
            dataclasses.replace(KRB, dipole=float(d_i)), params, delta, E_250NK, l_max=3
        )
        for j, channel in enumerate(columns):
            res = point[channel]
            assert s_matrix[i, j] == pytest.approx(res.s_matrix, rel=1e-12, abs=0.0)
            assert loss[i, j] == pytest.approx(res.loss_probability, rel=1e-12, abs=0.0)
            # the point API's spread is |t(r2) - t(r1)|, rounded as t is
            assert abs(res.match_spread - abs(t_far[i, j] - t[i, j])) <= 1e-12 * size[i, j]


def reference_parts(system, blocks, r_match, energy, c3, grid):
    """What the maps are composed of: kappa and kappa' at R_m, k, the transfers
    (m, e) from R_m to r1 and from r1 to r2, and s_L, s_L', c_L, c_L' at k r1 and k r2."""
    mu = system.reduced_mass
    dr = 1e-4 * r_match
    edge = np.array([r_match - dr, r_match, r_match + dr])[:, None]
    walls = []
    for basis, ranks in blocks:
        v = potential._block_eigenvalues(system, basis, edge, c3)[..., list(ranks)]
        walls.append(_wkb_wavenumber(energy, c3, v[1], (v[2] - v[0]) / (2.0 * dr), r_match, mu))
    kappa, dkappa = np.concatenate(walls, axis=-1)
    ell = np.array([basis.channels[i].L for basis, ranks in blocks for i in ranks])
    k = np.sqrt(2.0 * mu * energy)[:, None]
    r1 = grid.outer_radius(system, energy, r_match, c3)
    r2 = grid.match_factor * r1
    x_max = 2.0 * mu * float(c3.max()) / r_match
    start = np.full(len(energy), r_match)
    m1, e1, _ = propagator._segment_transfers(system, blocks, energy, c3, grid, start, r1, x_max,
                                              wkb=True)
    m2, e2, _ = propagator._segment_transfers(system, blocks, energy, c3, grid, r1, r2, x_max)
    f1, f2 = (np.stack(_riccati_bessel(ell, k * r[:, None]), axis=-1) for r in (r1, r2))
    return kappa, dkappa, k, (m1, e1, f1), (m2, e2, f2)


def reference_evaluate(parts, y, delta):
    """S, loss and spread in two steps: the boundary log-derivative carried to r1
    and on to r2, each time with its imaginary part carried by the flux, and
    matched to Riccati-Bessel functions at both.  Also 1 + |t1| + |t2|, the scale
    of the spread's rounding."""
    kappa, dkappa, k, *segments = parts
    rho = (1.0 - y) / (1.0 + y)
    refl = rho * np.exp(2j * np.asarray(delta, dtype=float))
    ld = (-1j * kappa * (1.0 - refl) / (1.0 + refl)).real - dkappa / (2.0 * kappa)
    ld = ld - 1j * kappa * (1.0 - rho * rho) / np.abs(1.0 + refl) ** 2
    t = []
    for m, e, f in segments:
        den = m[..., 0, 0] + m[..., 0, 1] * ld
        ld = ((m[..., 1, 0] + m[..., 1, 1] * ld) / den).real + 1j * np.ldexp(
            ld.imag / np.abs(den) ** 2, -2 * e)
        s, s_p, c, c_p = np.moveaxis(f, -1, 0)
        den = ld * c - k * c_p
        t.append(((k * s_p - ld * s) / den).real - 1j * k * ld.imag / np.abs(den) ** 2)
    t1, t2 = t
    s_matrix = (1.0 + 1j * t1) / (1.0 - 1j * t1)
    loss = 4.0 * t1.imag / np.abs(1.0 - 1j * t1) ** 2
    return s_matrix, loss, np.abs(t2 - t1), 1.0 + np.abs(t1) + np.abs(t2)


TABLE_PARTS = reference_parts(
    KRB, TABLE_BLOCKS, 20.0, np.full(len(TABLE_D), E_250NK), 2.0 * TABLE_D**2, RadialGrid()
)
N_COLS = TABLE.h1.shape[1]


@PROPERTY
@given(
    y=unit_y,
    delta=st.one_of(
        phases,
        st.lists(phases, min_size=N_COLS, max_size=N_COLS).map(np.array),
        # under a leading trial axis, as the fit evaluates
        st.lists(phases, min_size=2 * N_COLS, max_size=2 * N_COLS).map(
            lambda d: np.reshape(d, (2, 1, N_COLS))),
    ),
)
def test_table_maps_equal_the_two_step_reference(y, delta):
    y = np.array([y, 1.0 - y])[:, None, None] if np.ndim(delta) == 3 else y
    t, loss = propagator.evaluate(TABLE, y, delta)
    t_far, _ = propagator.evaluate(TABLE_FAR, y, delta)
    s_matrix, spread = (1.0 + 1j * t) / (1.0 - 1j * t), np.abs(t_far - t)
    want_s, want_loss, want_spread, size = reference_evaluate(TABLE_PARTS, y, delta)
    assert s_matrix.shape == loss.shape == spread.shape == want_s.shape
    assert np.all(np.abs(s_matrix - want_s) <= 1e-12 * np.abs(want_s))
    assert np.all(np.abs(loss - want_loss) <= 1e-12 * want_loss)
    # t = tan(delta_L) is rounded as delta_L is, absolutely: a spread |t2 - t1| of
    # 1e-9 may differ by 1e-19 where t itself is 1e-8
    assert np.all(np.abs(spread - want_spread) <= 1e-12 * size)


@PROPERTY
@given(delta=st.floats(-1e3, 1e3))
def test_boundary_state_exact_limits(delta):
    # y = 1 is the purely incoming wave whatever delta_sr; y = 0 carries no flux
    p, q, flux = boundary_state(1.0, delta)
    assert (p, q, flux) == (1j, 1.0, 1.0)
    assert boundary_state(0.0, delta)[2] == 0.0


# the dataset of acceptance criterion 9, without noise
FIT_D_DEBYE = np.linspace(0.04, 0.24, 8)
FIT_DATA = Dataset(
    d_debye=FIT_D_DEBYE,
    rate_cm3s=units.rate_to_cm3_per_s(scan(units.dipole_from_debye(FIT_D_DEBYE)).total),
    sigma_cm3s=None,
)


def fit_objective():
    """The batched chi2(y, delta) fit_short_range minimizes, and its calibration phase(s)."""
    captured = []
    objective = scanfit._fit_objective

    def capture(*args):
        captured.append(objective(*args))
        return captured[-1]

    with mock.patch.object(scanfit, "_fit_objective", capture):
        fit_short_range(FIT_DATA, KRB, E_250NK, SCAN_PARAMS, fit=("s", "y"), l_max=3)
    return captured[0][:2]


FIT_CHI2, FIT_PHASE = fit_objective()


@SCAN_PROPERTY
@given(s=shorts, y=unit_y)
def test_fit_chi2_equals_fresh_calibration_and_scan(s, y):
    params = ShortRangeParams(s=s, y=y)
    curve = scan_dipole(
        KRB, params, E_250NK, units.dipole_from_debye(FIT_D_DEBYE), l_max=3,
        delta_sr=calibrate_phase(KRB, params),
    )
    # the fit floors the model rate at 1e-300 before the log; at y = 0 it is 0
    r = np.log(np.maximum(curve.total, 1e-300)) - np.log(
        units.rate_from_cm3_per_s(FIT_DATA.rate_cm3s)
    )
    # one trial of a batch of two
    chi2 = FIT_CHI2(np.array([0.5, y]), np.array([0.0, FIT_PHASE(s)]))
    assert chi2[1] == pytest.approx(float(r @ r), rel=1e-12, abs=1e-24)


@SCAN_PROPERTY
@given(s=shorts, y=unit_y, d=st.floats(0.0, 0.5), log_e=log_energies)
def test_unitarity_bound_at_finite_field(s, y, d, log_e):
    params = ShortRangeParams(s=s, y=y)
    system = dataclasses.replace(KRB, dipole=units.dipole_from_debye(d))
    results = rate_point(system, params, calibrate_phase(KRB, params), E0 * 10.0**log_e, l_max=3)
    assert all(abs(res.s_matrix) ** 2 <= 1.0 + 1e-9 for res in results.values())


@PROPERTY
@given(
    l_max=st.integers(1, 9),
    picks=st.lists(st.integers(0, 19), min_size=1, max_size=3),
    r_match=st.floats(5.0, 100.0),
    d_max=st.floats(0.0, 3.0),  # debye
    seed=st.integers(0, 2**32 - 1),
)
def test_eigenvalue_table_matches_diagonalization(l_max, picks, r_match, d_max, seed):
    # a group of one to three (M, parity) blocks, each with a random subset of
    # its ranks, radii beyond R_m out to the tails, and dipoles up to 3 D; the
    # scale is the size of a block's terms, with L its largest partial wave,
    # which is the scale of eigvalsh's own rounding
    either = dataclasses.replace(KRB, symmetry=Symmetry.DISTINGUISHABLE)
    blocks = symmetry_blocks(either, l_max)
    rng = np.random.default_rng(seed)
    group = []
    for pick in picks:
        basis = blocks[pick % len(blocks)]
        ranks = np.flatnonzero(rng.uniform(size=len(basis)) < 0.7)
        group.append((basis, list(ranks) if len(ranks) else [int(rng.integers(len(basis)))]))
    c3_max = 2.0 * units.dipole_from_debye(d_max) ** 2
    r = r_match * 10.0 ** rng.uniform(0.0, 3.0, 64)
    r[0] = r_match
    c3 = c3_max * rng.uniform(0.0, 1.0, 64)
    c3[0] = c3_max
    x_max = 2.0 * MU * c3_max / r_match
    # W = 2 mu (V - E): at E = 0 it is the eigenvalues times 2 mu, and at a random
    # energy per point the energy enters the scale
    energy = E0 * 10.0 ** rng.uniform(-3.0, 2.0, 64)
    for e in (0.0, energy):
        w = propagator._block_eigenvalues(KRB, group, r[None], c3, e, x_max)
        assert w.shape == (sum(len(ranks) for _, ranks in group), 64)
        table = w / (2.0 * MU) + e
        start = 0
        for basis, ranks in group:
            columns = table[start:start + len(ranks)].T
            start += len(ranks)
            exact = np.linalg.eigvalsh(potential_matrix(KRB, basis, r, c3))[:, ranks]
            ell = basis.channels[-1].L
            scale = ell * (ell + 1) / (2.0 * MU * r**2) + C6 / r**6 + c3 / r**3 + e
            assert np.all(np.abs(columns - exact) <= 1e-11 * scale[:, None])
            assert np.all(np.diff(columns, axis=-1) > 0)


# --- the Magnus transfers: step matrices and their chain product -------------

batch_shapes = st.lists(st.integers(1, 3), max_size=2).map(tuple)


def scaled_factors(n, batch, seed):
    """Random 2x2 factors (n, *batch, 2, 2), exponents k with |k| <= 400, and
    the factors times 2**k laid out as chain_product takes them."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(n, *batch, 2, 2))
    k = rng.integers(-400, 401, size=(n, *batch))
    planes = np.moveaxis(np.ldexp(factors, k[..., None, None]), (-2, -1), (0, 1))
    return factors, k, planes


def sequential_products(factors, absolute=False):
    """M[n-1] @ ... @ M[0] by a plain matmul loop, on |M| if absolute."""
    out = np.broadcast_to(np.eye(2), factors.shape[1:]).copy()
    for m in factors:
        out = (np.abs(m) if absolute else m) @ out
    return out


@PROPERTY
@given(n=st.integers(0, 17), batch=batch_shapes, seed=st.integers(0, 2**32 - 1))
def test_chain_product_matches_sequential_matmul(n, batch, seed):
    # 2**(400 n) overflows float64: only the exponent bookkeeping carries it
    factors, k, planes = scaled_factors(n, batch, seed)
    m, e = chain_product(planes)
    assert m.shape == (2, 2, *batch) and e.shape == batch
    product = np.moveaxis(np.ldexp(m, e - k.sum(axis=0)), (0, 1), (-2, -1))
    # rounding of any order of the product is bounded by |M[n-1]| ... |M[0]|
    scale = sequential_products(factors, absolute=True)
    assert np.all(np.abs(product - sequential_products(factors)) <= 1e-12 * scale)


@PROPERTY
@given(n=st.integers(0, 17), batch=batch_shapes, seed=st.integers(0, 2**32 - 1))
def test_chain_product_determinant_bookkeeping(n, batch, seed):
    factors, k, planes = scaled_factors(n, batch, seed)
    m, e = chain_product(planes)
    # det(m) 4**e is the product of det(2**k M) = 4**k det(M) over the factors
    det = np.ldexp(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0], 2 * (e - k.sum(axis=0)))
    # rounding is bounded by the permanent of |M[n-1]| ... |M[0]|, which is at
    # least the product of the factors' permanents
    s = sequential_products(factors, absolute=True)
    scale = s[..., 0, 0] * s[..., 1, 1] + s[..., 0, 1] * s[..., 1, 0]
    assert np.all(np.abs(det - np.prod(np.linalg.det(factors), axis=0)) <= 1e-12 * scale)


def per_round_chain_product(matrices):
    """The chain product as the package formed it before: every round divides each
    pair product by the power of two nearest its largest entry."""
    m, batch = matrices, matrices.shape[3:]
    e = np.zeros(batch, dtype=np.int64)
    if m.shape[2] == 0:
        return np.multiply.outer(np.eye(2), np.ones(batch)), e
    while (n := m.shape[2]) > 1:
        pairs = np.einsum("ikn...,kjn...->ijn...", m[:, :, 1::2], m[:, :, 0:n - 1:2])
        _, exps = np.frexp(np.abs(pairs).max(axis=(0, 1)))
        e += exps.sum(axis=0)
        m = np.concatenate([np.ldexp(pairs, -exps), m[:, :, 2 * (n // 2):]], axis=2)
    return m[:, :, 0], e


def unimodular_factors(n, batch, seed):
    """Random 2x2 factors of determinant 1, as every Magnus step is, in the planes
    layout (2, 2, n, *batch)."""
    rng = np.random.default_rng(seed)
    a, b, c = np.exp(rng.normal(size=(n, *batch))), *rng.normal(size=(2, n, *batch))
    return np.stack([np.stack([a, b]), np.stack([c, (1.0 + b * c) / a])])


@PROPERTY
@given(n=st.integers(0, 17), batch=batch_shapes, seed=st.integers(0, 2**32 - 1),
       unimodular=st.booleans())
def test_chain_product_equals_per_round_normalization(n, batch, seed, unimodular):
    # normal-range factors, odd and even counts: normalizing in the last round alone
    # gives bitwise the (m, e) of normalizing in every round
    if unimodular:
        planes = unimodular_factors(n, batch, seed)
    else:
        planes = np.moveaxis(np.random.default_rng(seed).normal(size=(n, *batch, 2, 2)),
                             (-2, -1), (0, 1))
    m, e = chain_product(planes.copy())
    m_ref, e_ref = per_round_chain_product(planes)
    assert np.array_equal(m, m_ref) and np.array_equal(e, e_ref)


@pytest.mark.parametrize("scale", [70, -70])
def test_chain_product_normalizes_a_middle_round_out_of_range(scale):
    # eight factors with entries near 2**(+-70): round 1's products stay within
    # [2**-256, 2**256] and are left as they are, round 2's near 2**(+-280) leave it and
    # are normalized there, and round 3 is the last; (m, e) is still bitwise the same
    planes = np.ldexp(unimodular_factors(8, (3,), 5), scale)
    with mock.patch.object(np, "frexp", wraps=np.frexp) as frexp:
        m, e = chain_product(planes.copy())
    assert frexp.call_count == 2
    m_ref, e_ref = per_round_chain_product(planes)
    assert np.array_equal(m, m_ref) and np.array_equal(e, e_ref)
    with mock.patch.object(np, "frexp", wraps=np.frexp) as frexp:
        chain_product(unimodular_factors(8, (3,), 5))
    assert frexp.call_count == 1  # in range throughout: the last round alone


@PROPERTY
@given(
    h=st.floats(0.0, 1.0),
    w_mean=st.floats(0.0, 4.0),
    w_spread=st.floats(0.0, 1.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_step_matrices_are_unimodular(h, w_mean, w_spread, sign):
    # om2 = h^2 (h^2 (W1 - W2)^2 / 48 + (W1 + W2) / 2) takes the sign of W's
    # mean here, so both the oscillatory and the growing branch are drawn;
    # the table's determinant k kappa 2**(-2 e) relies on det = 1
    w1, w2 = sign * w_mean * (1.0 + w_spread), sign * w_mean * (1.0 - w_spread)
    m = step_matrices(np.array([h]), np.array([w1]), np.array([w2]))[..., 0]
    assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) <= 1e-13


def closed_form_steps(h, w1, w2):
    """The step matrices from cos/sin or cosh/sinh, planes first, and the size
    of the terms of each entry."""
    a = math.sqrt(3.0) / 12.0 * h * h * (w1 - w2)
    c = 0.5 * h * (w1 + w2)
    om2 = a * a + h * c
    om = np.sqrt(np.abs(om2))
    with np.errstate(invalid="ignore"):
        ch = np.where(om2 < 0, np.cos(om), np.cosh(om))
        sc = np.where(om == 0, 1.0, np.where(om2 < 0, np.sin(om), np.sinh(om)) / om)
    m = np.array([[ch + sc * a, sc * h], [sc * c, ch - sc * a]])
    size = np.abs(np.array([[ch, sc * h], [sc * c, ch]])) + np.abs(sc * a) * np.eye(2)[..., None]
    return m, om2, size


@PROPERTY
@given(
    om2=st.one_of(st.floats(-0.25, 0.25), st.floats(-40.0, 40.0)),
    h=st.floats(1e-4, 2.0),
    skew=st.floats(-1.0, 1.0),
)
def test_step_matrices_match_the_closed_form(om2, h, skew):
    # W1 - W2 = skew * 2 / h^2 and W1 + W2 chosen so that a^2 + h c = om2: the
    # series where |om2| <= 0.25 and the closed form beyond it agree with the
    # cos/sinh formula to 1e-15 of each entry's terms, and det = 1 to the
    # rounding of the permanent, which grows as cosh(om)^2 beyond the series
    diff = skew * 2.0 / (h * h)
    a = math.sqrt(3.0) / 12.0 * h * h * diff
    total = 2.0 * (om2 - a * a) / (h * h)
    w1, w2 = np.array([(total + diff) / 2.0]), np.array([(total - diff) / 2.0])
    m = step_matrices(np.array([h]), w1, w2)
    ref, om2_used, size = closed_form_steps(h, w1, w2)
    assert abs(om2_used[0] - om2) <= 1e-12 * max(1.0, abs(om2))
    assert np.all(np.abs(m - ref) <= 1e-15 * size)
    diagonal, cross = m[0, 0, 0] * m[1, 1, 0], m[0, 1, 0] * m[1, 0, 0]
    assert abs(diagonal - cross - 1.0) <= 1e-14 * (abs(diagonal) + abs(cross))


def test_step_matrices_match_the_closed_form_across_the_series_edge():
    # om2 densely over [-1, 1], through both edges of the series at |om2| = 0.25
    h = np.full(20001, 0.3)
    w = np.linspace(-1.0, 1.0, h.size) / (h * h)
    m = step_matrices(h, w, w)
    ref, om2, size = closed_form_steps(h, w, w)
    assert np.abs(om2).max() >= 0.99 and np.any(np.abs(om2) <= 0.25)
    assert np.all(np.abs(m - ref) <= 1e-15 * size)


@PROPERTY
@given(w1=st.floats(-1e6, 1e6), w2=st.floats(-1e6, 1e6))
def test_zero_length_step_is_the_exact_identity(w1, w2):
    m = step_matrices(np.zeros(3), np.full(3, w1), np.full(3, w2))
    assert m.shape == (2, 2, 3)
    assert np.all(m == np.eye(2)[..., None])
