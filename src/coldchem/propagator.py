"""Radial propagation with an absorbing short-range boundary.

The wave function on one adiabatic curve is carried from the short-range
matching radius R_m to the asymptotic region by a fourth-order Magnus
log-derivative scheme: each step maps the pair (psi, psi') through the
exponential of a 2x2 traceless matrix built from the potential at the two
Gauss-Legendre nodes of the step.  The boundary condition at R_m is the
log-derivative of a WKB wave with unit incoming flux and reflected
amplitude (1 - y)/(1 + y) * exp(2 i delta_sr); y = 1 is a perfect
absorber, y = 0 a lossless wall.  The phase delta_sr is not a free input:
it is calibrated so that the y = 0 zero-energy s-wave scattering length
equals s * abar, after which the same (s, y, delta_sr) triple is reused
at every field, energy and partial wave.

One path propagates every curve: the eigenvalue ranks of one (M, parity)
block on a shared grid.  A single curve is a block with one rank.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import spherical_jn, spherical_yn

from .errors import CalibrationError, GridError, MatchingError
from .potential import (
    AdiabaticCurve,
    Channel,
    ChannelBasis,
    CollisionSystem,
    _block_eigenvalues,
    build_basis,
)
from .qdt import (
    ScatteringResult,
    ShortRangeParams,
    characteristic_energies,
    mean_scattering_length,
    rates_from_s_matrix,
)

_SQRT3 = math.sqrt(3.0)
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class RadialGrid:
    """Adaptive radial-step policy between R_m and the matching radius.

    The local step obeys two ceilings: a fixed number of points per local
    de Broglie wavelength (computed from an envelope wavenumber that
    over-counts every attractive term, so it is pessimistic in both the
    allowed and forbidden regions) and a fixed fraction of the radius
    itself (the scale on which the power-law potentials vary).  The outer
    radius is chosen so every residual potential term is below
    ``tail_tolerance`` times the collision energy.
    """

    points_per_wavelength: float = 40.0
    scale_fraction: float = 20.0
    tail_tolerance: float = 1e-4
    match_factor: float = 1.2

    def __post_init__(self):
        if self.points_per_wavelength < 20:
            raise ValueError("points_per_wavelength must be at least 20")
        if self.scale_fraction < 4:
            raise ValueError("scale_fraction must be at least 4")
        if not 0 < self.tail_tolerance <= 1e-4:
            raise ValueError("tail_tolerance must lie in (0, 1e-4]")
        if self.match_factor <= 1.0:
            raise ValueError("match_factor must exceed 1")

    def outer_radius(
        self, system: CollisionSystem, energy: float, r_match: float
    ) -> float:
        """Smallest radius beyond which all potential tails are negligible."""
        if energy <= 0:
            raise ValueError("energy must be positive")
        cut = self.tail_tolerance * energy
        r6 = (system.c6 / cut) ** (1.0 / 6.0)
        r3 = (system.c3 / cut) ** (1.0 / 3.0) if system.c3 > 0 else 0.0
        return max(r6, r3, 3.0 * r_match)

    def build_steps(
        self,
        system: CollisionSystem,
        L: int,
        energy: float,
        r_start: float,
        r_stop: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step starts and sizes covering [r_start, r_stop]."""
        if r_stop <= r_start:
            raise GridError(
                f"outer radius {r_stop:.3g} does not exceed inner radius {r_start:.3g}"
            )
        two_mu = 2.0 * system.reduced_mass
        c6, c3 = system.c6, system.c3
        ll = float(L * (L + 1))
        two_pi = 2.0 * math.pi
        ppw, frac = self.points_per_wavelength, self.scale_fraction
        starts: list[float] = []
        steps: list[float] = []
        r = r_start
        while r < r_stop:
            if len(starts) >= _MAX_STEPS:
                raise GridError("radial grid exceeds the step budget")
            q2 = two_mu * (energy + c6 / r**6 + c3 / r**3) + ll / (r * r)
            h = min(two_pi / (ppw * math.sqrt(q2)), r / frac, r_stop - r)
            if r + h <= r:
                break  # step underflow at the very last point
            starts.append(r)
            steps.append(h)
            r += h
        return np.asarray(starts), np.asarray(steps)


def gauss_nodes(starts: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-point Gauss-Legendre nodes of every step."""
    return (
        starts + steps * (0.5 - _SQRT3 / 6.0),
        starts + steps * (0.5 + _SQRT3 / 6.0),
    )


def step_matrices(steps: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Exponentials of the fourth-order Magnus generator for every step.

    For psi'' = W(R) psi the generator over one step h is the traceless
    matrix [[a, h], [h (W1+W2)/2, -a]] with a = sqrt(3) h^2 (W1 - W2) / 12,
    where W1, W2 are samples at the Gauss nodes.  The exponential is closed
    form because the square of a traceless 2x2 matrix is scalar.
    """
    h = steps
    a = _SQRT3 / 12.0 * h * h * (w1 - w2)
    b = h
    c = 0.5 * h * (w1 + w2)
    om2 = a * a + b * c
    om = np.sqrt(np.abs(om2))
    oscillatory = om2 < 0
    ch = np.where(oscillatory, np.cos(om), np.cosh(om))
    with np.errstate(invalid="ignore", divide="ignore"):
        sc = np.where(oscillatory, np.sin(om), np.sinh(om)) / om
    # sinhc(om) -> 1 + om^2/6 for small argument, same series both branches
    sc = np.where(om < 1e-8, 1.0 + om2 / 6.0, sc)
    m = np.empty(h.shape + (2, 2))
    m[..., 0, 0] = ch + sc * a
    m[..., 0, 1] = sc * b
    m[..., 1, 0] = sc * c
    m[..., 1, 1] = ch - sc * a
    return m


def chain_product(matrices: np.ndarray) -> np.ndarray:
    """Ordered product M[n-1] @ ... @ M[0] by pairwise reduction.

    Each round multiplies adjacent pairs and renormalizes by the largest
    entry magnitude; the positive scale factor cancels in the Moebius map
    of the log-derivative, so only overflow protection is at stake.
    """
    m = matrices
    if m.shape[0] == 0:
        return np.eye(2)
    while m.shape[0] > 1:
        n = m.shape[0]
        even = n - (n % 2)
        prod = m[1:even:2] @ m[0:even:2]
        if n % 2:
            prod = np.concatenate([prod, m[-1:]], axis=0)
        scale = np.max(np.abs(prod), axis=(-2, -1), keepdims=True)
        m = prod / scale
    return m[0]


def apply_log_derivative(m: np.ndarray, y: complex) -> complex:
    """Moebius action of a (psi, psi') transfer matrix on y = psi'/psi."""
    if not np.isfinite(abs(y)):
        # boundary at a node of psi: the image is m[1,1]/m[0,1]
        num, den = m[1, 1], m[0, 1]
    else:
        num = m[1, 0] + m[1, 1] * y
        den = m[0, 0] + m[0, 1] * y
    if den == 0:
        raise MatchingError("log-derivative pole exactly at the matching radius")
    return num / den


def _wkb_wavenumber(
    energy: float, v: float, v_slope: float, r_match: float, reduced_mass: float
) -> tuple[float, float]:
    """Local wavenumber kappa at R_m and its radial derivative kappa'."""
    if energy <= v:
        raise MatchingError(
            f"short-range boundary at R = {r_match:.3g} is classically forbidden "
            f"(E = {energy:.3e}, V = {v:.3e})"
        )
    kappa = math.sqrt(2.0 * reduced_mass * (energy - v))
    if kappa * r_match < 10.0:
        warnings.warn(
            f"kappa * R_m = {kappa * r_match:.2f} is small; the WKB boundary "
            "condition is marginal",
            stacklevel=3,
        )
    return kappa, -reduced_mass * v_slope / kappa


def boundary_log_derivative(
    params: ShortRangeParams,
    delta_sr: float,
    energy: float,
    v: float,
    v_slope: float,
    reduced_mass: float,
) -> complex:
    """Complex log-derivative at R_m of the absorbing WKB wave.

    ``v`` and ``v_slope`` are the adiabatic potential and its radial
    derivative at R_m.  The wave carries unit incoming flux and the
    reflected amplitude (1 - y)/(1 + y) * exp(2 i delta_sr).
    """
    kappa, dkappa = _wkb_wavenumber(energy, v, v_slope, params.r_match, reduced_mass)
    refl = (1.0 - params.y) / (1.0 + params.y) * complex(
        math.cos(2.0 * delta_sr), math.sin(2.0 * delta_sr)
    )
    # psi = exp(-i int kappa)/sqrt(kappa) + refl * exp(+i int kappa)/sqrt(kappa)
    return -1j * kappa * (1.0 - refl) / (1.0 + refl) - dkappa / (2.0 * kappa)


def _riccati_bessel(L: int, x: float) -> tuple[float, float, float, float]:
    """s_L = x j_L(x), its derivative, c_L = -x y_L(x) and its derivative."""
    j = spherical_jn(L, x)
    jp = spherical_jn(L, x, derivative=True)
    yn = spherical_yn(L, x)
    ynp = spherical_yn(L, x, derivative=True)
    return x * j, j + x * jp, -x * yn, -(yn + x * ynp)


def match_free_solution(y_out: complex, k: float, L: int, r: float) -> complex:
    """Tangent of the (complex) phase shift from the log-derivative at r.

    Matches psi to s_L(kr) + t c_L(kr) with Riccati-Bessel functions
    s_L = x j_L(x), c_L = -x y_L(x).
    """
    sf, sf_p, cf, cf_p = _riccati_bessel(L, k * r)
    num = k * sf_p - y_out * sf
    den = y_out * cf - k * cf_p
    if abs(den) < 1e-300:
        raise MatchingError("degenerate asymptotic match (irregular solution absent)")
    return num / den


def _result_from_t(
    t: complex,
    k: float,
    energy: float,
    channel: Channel,
    system: CollisionSystem,
    n_points: int,
    match_spread: float,
) -> ScatteringResult:
    s_el = (1.0 + 1j * t) / (1.0 - 1j * t)
    # algebraically identical to 1 - |S|^2 but immune to cancellation
    p_loss = 4.0 * t.imag / abs(1.0 - 1j * t) ** 2
    rates = rates_from_s_matrix(s_el, k, system)
    return ScatteringResult(
        L=channel.L,
        M=channel.M,
        energy=energy,
        wavenumber=k,
        s_matrix=s_el,
        loss_probability=p_loss,
        elastic_rate=rates.elastic,
        quenching_rate=rates.quenching,
        n_points=n_points,
        match_spread=match_spread,
    )


def _check_r_match(params: ShortRangeParams, system: CollisionSystem) -> None:
    abar = mean_scattering_length(system.reduced_mass, system.c6)
    if not params.r_match < abar:
        raise ValueError(
            f"r_match = {params.r_match:.3g} must lie below the mean scattering "
            f"length abar = {abar:.3g}"
        )


def _edge_values(
    system: CollisionSystem, basis: ChannelBasis, r_match: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every rank's potential at R_m and its central-difference slope."""
    dr = 1e-4 * r_match
    v = _block_eigenvalues(system, basis, np.array([r_match - dr, r_match, r_match + dr]))
    return v[1], (v[2] - v[0]) / (2.0 * dr)


def _segment_transfers(
    system: CollisionSystem,
    basis: ChannelBasis,
    ranks: Sequence[int],
    l_env: int,
    energy: float,
    grid: RadialGrid,
    r_start: float,
    r_stop: float,
) -> tuple[list[np.ndarray], int]:
    """(psi, psi') transfer matrix of each rank over [r_start, r_stop].

    All ranks share one grid, built for partial wave ``l_env``, and one
    batched diagonalization per Gauss node.  Also returns the step count.
    """
    starts, steps = grid.build_steps(system, l_env, energy, r_start, r_stop)
    g1, g2 = gauss_nodes(starts, steps)
    v1 = _block_eigenvalues(system, basis, g1)
    v2 = _block_eigenvalues(system, basis, g2)
    two_mu = 2.0 * system.reduced_mass
    transfers = [
        chain_product(
            step_matrices(steps, two_mu * (v1[:, i] - energy), two_mu * (v2[:, i] - energy))
        )
        for i in ranks
    ]
    return transfers, len(steps)


def _propagate_ranks(
    system: CollisionSystem,
    basis: ChannelBasis,
    ranks: Sequence[int],
    params: ShortRangeParams,
    energy: float,
    deltas: Sequence[float],
    grid: RadialGrid,
) -> list[ScatteringResult]:
    """Scattering results for the given eigenvalue ranks of one block.

    Rank i is the adiabat of channel ``basis.channels[i]``: the adiabats of
    one (M, parity) block do not cross, and at large R the centrifugal term
    orders them by L.  ``deltas`` holds the short-range phase of each rank.
    The grid is built for the largest L among the ranks, which slightly
    over-resolves the lower ones; matching is as described in ``propagate``.
    """
    if energy <= 0:
        raise ValueError("collision energy must be positive")
    _check_r_match(params, system)
    channels = [basis.channels[i] for i in ranks]
    l_env = max(c.L for c in channels)
    k = math.sqrt(2.0 * system.reduced_mass * energy)
    v, v_slope = _edge_values(system, basis, params.r_match)
    y = [
        boundary_log_derivative(
            params, delta, energy, float(v[i]), float(v_slope[i]), system.reduced_mass
        )
        for i, delta in zip(ranks, deltas)
    ]
    r1 = grid.outer_radius(system, energy, params.r_match)
    t_values = []
    n_points = 0
    r_start = params.r_match
    for r_stop in (r1, grid.match_factor * r1):
        transfers, n_steps = _segment_transfers(
            system, basis, ranks, l_env, energy, grid, r_start, r_stop
        )
        y = [apply_log_derivative(m, y_i) for m, y_i in zip(transfers, y)]
        t_values.append(
            [match_free_solution(y_i, k, c.L, r_stop) for y_i, c in zip(y, channels)]
        )
        n_points += n_steps
        r_start = r_stop
    return [
        _result_from_t(t1, k, energy, c, system, n_points, abs(t2 - t1))
        for c, t1, t2 in zip(channels, *t_values)
    ]


def propagate(
    system: CollisionSystem,
    curve: AdiabaticCurve,
    params: ShortRangeParams,
    energy: float,
    delta_sr: float,
    grid: RadialGrid | None = None,
) -> ScatteringResult:
    """Scattering observables for one adiabatic curve at one energy.

    Propagates the log-derivative from R_m to the tail-criterion radius,
    matches to Riccati-Bessel functions there and once more ``match_factor``
    further out; the spread between the two extractions is reported in
    ``match_spread`` as an error estimate.  The curve enters only through
    its block and rank: it is propagated as a block of one rank.
    """
    (result,) = _propagate_ranks(
        system, curve.basis, [curve.index], params, energy, [delta_sr],
        grid or RadialGrid(),
    )
    return result


# --- short-range phase calibration -----------------------------------------


def _calibration_grid(grid: RadialGrid) -> RadialGrid:
    return dataclasses.replace(
        grid,
        points_per_wavelength=max(grid.points_per_wavelength, 160.0),
        tail_tolerance=min(grid.tail_tolerance, 1e-6),
    )


def calibrate_phase(
    system: CollisionSystem,
    params: ShortRangeParams,
    grid: RadialGrid | None = None,
    energy_fraction: float = 1e-4,
    tolerance: float = 1e-3,
) -> float:
    """Short-range phase delta_sr in [0, pi) reproducing a = s * abar at zero field.

    The bare van der Waals s wave is taken with y = 0 at a near-threshold
    energy.  There the boundary log-derivative is real,
    -kappa tan(delta_sr) - kappa'/(2 kappa), and both the transfer matrix to
    the matching radius and the Riccati-Bessel match are Moebius maps.  The
    scattering length is therefore a Moebius function of tan(delta_sr) (the
    quantum-defect separation of Idziaszek and Julienne, PRL 104, 113202
    (2010)), which is inverted in closed form.  One forward evaluation
    checks the result and raises CalibrationError if it misses s * abar by
    more than ``tolerance`` relative.  Only ``params.s`` and
    ``params.r_match`` matter here.
    """
    if not 0 < energy_fraction <= 1e-2:
        raise ValueError("energy_fraction must lie in (0, 1e-2]")
    _check_r_match(params, system)
    grid = _calibration_grid(grid or RadialGrid())
    bare = dataclasses.replace(system, dipole=0.0)
    mu, r_match = bare.reduced_mass, params.r_match
    abar = mean_scattering_length(mu, bare.c6)
    e_cal = energy_fraction * characteristic_energies(mu, bare.c6).e_swave
    k = math.sqrt(2.0 * mu * e_cal)
    swave = build_basis(0, 0, 0)
    r1 = grid.outer_radius(bare, e_cal, r_match)
    (m_total,), _ = _segment_transfers(bare, swave, [0], 0, e_cal, grid, r_match, r1)
    v, v_slope = (float(x[0]) for x in _edge_values(bare, swave, r_match))
    kappa, dkappa = _wkb_wavenumber(e_cal, v, v_slope, r_match, mu)
    sf, sf_p, cf, cf_p = _riccati_bessel(0, k * r1)
    # with tau = tan(delta_sr) the wall state is (psi, psi') = wall @ (tau, 1);
    # m_total carries it to r1 and match gives (num, den) of t = -k a, so
    # t = (g00 tau + g01) / (g10 tau + g11)
    wall = np.array([[0.0, 1.0], [-kappa, -dkappa / (2.0 * kappa)]])
    match = np.array([[k * sf_p, -sf], [-k * cf_p, cf]])
    g = match @ m_total @ wall
    target = params.s * abar
    t = -k * target
    delta = math.atan2(t * g[1, 1] - g[0, 1], g[0, 0] - t * g[1, 0]) % math.pi
    delta = delta if delta < math.pi else 0.0  # a tiny negative angle rounds to pi

    probe = ShortRangeParams(s=params.s, y=0.0, r_match=r_match)
    y_out = apply_log_derivative(
        m_total, boundary_log_derivative(probe, delta, e_cal, v, v_slope, mu)
    )
    a = float((-match_free_solution(y_out, k, 0, r1) / k).real)
    if not abs(a - target) <= tolerance * abar * max(1.0, abs(params.s)):
        raise CalibrationError(
            f"delta_sr = {delta:.6g} gives a = {a / abar:.6g} * abar instead of "
            f"{params.s:.4g} * abar within {tolerance:.1e} relative; check R_m and "
            "the radial grid"
        )
    return delta
