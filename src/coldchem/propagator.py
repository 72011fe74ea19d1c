"""Radial propagation with an absorbing short-range boundary.

The wave function on one adiabatic curve is carried from the short-range
matching radius R_m to the asymptotic region in two kinds of step, each a map
of the pair (psi, psi') through the exponential of a 2x2 traceless matrix.  In
the deep van der Waals well, up to a radius r_w where a lower bound on kappa R
falls to 17, the steps are r / scale_fraction long and work in the frame of the
second-order WKB pair, whose phase is known, so their length does not depend on
the wavelength.  From r_w on, a fourth-order Magnus scheme takes steps of a
fixed fraction of the local wavelength, with the potential at the two
Gauss-Legendre nodes of each step.  The boundary condition at R_m is a WKB
wave with unit incoming flux and reflected amplitude (1 - y)/(1 + y) *
exp(2 i delta_sr); y = 1 is a perfect absorber, y = 0 a lossless wall.  The
phase delta_sr is not a free input: it is calibrated so that the y = 0
zero-energy s-wave scattering length equals s * abar, after which the same
(s, y, delta_sr) triple is reused at every field, energy and partial wave.

One batched core propagates every curve, in two steps.  ``build_table``
propagates and keeps all that (y, delta_sr) do not touch: at each matching
radius, one real Moebius map from the boundary state to t = tan(delta_L).
``evaluate`` applies it to any (y, delta_sr) in closed form.  A row
is one point, an (energy, c3) pair; a block is the eigenvalue ranks of one
(M, parity) basis, and a column of the table is one rank of one block.
Rows are built in chunks.  Each segment of a chunk is one lockstep grid with
an axis for the envelopes, the largest L of each block, stepped in folds that
each take every column at once.  The well depends on E only analytically, so rows
on one WKB grid (one c3) step it at eight Chebyshev energies, and each takes the
interpolant in E of those transfers.  The finished table is flat, so ``evaluate``
is arithmetic on (rows, columns) arrays.  A single curve at a single point is
a table of one row and one column.  Scans, ``ploss``, the fit and the phase
calibration all use these two steps; the calibration inverts the map at r1 in
closed form.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError, ColdchemError, GridError, MatchingError, UnitarityError
from .potential import (
    C6_SIGN,
    AdiabaticCurve,
    ChannelBasis,
    CollisionSystem,
    _coupling,
    build_basis,
)
from .qdt import (
    ScatteringResult,
    ShortRangeParams,
    characteristic_energies,
    mean_scattering_length,
)

_SQRT3 = math.sqrt(3.0)
_MAX_STEPS = 10_000_000
# Rows per chunk, and steps times rows times (columns + _GRID_COLUMNS) per fold, counted
# over all columns of a segment.  The chunk bounds the per-row arrays.  A fold holds about
# six float64 per step, row and column in its buffers, and the grid's one buffer of radii
# and steps weighs about as much as _GRID_COLUMNS columns, which matters for few columns.
_CHUNK_ROWS = 1024
_FOLD_SIZE = 32768
_GRID_COLUMNS = 3
# Up to this many rows a grid is faster built row by row in Python floats.  The 1-row
# calibration (391 steps) takes 2 ms this way and 9 ms in a lockstep that stops once
# every row has; the fit tables 8 rows, and scans take the lockstep.
_SCALAR_ROWS = 16
CALIBRATION_ENERGY_FRACTION = 1e-4  # default energy of the phase calibration, over E0
CALIBRATION_TOLERANCE = 1e-3  # default relative tolerance of its a = s abar check
# Knots per unit of log1p(x) in a block's eigenvalue table.  The spacing is fixed,
# so a row's eigenvalues do not depend on the other rows of its chunk.
_KNOTS_PER_UNIT = 288
# Nodes per WKB-frame step, and the kappa R that a lower bound keeps at every node of them
_WKB_NODES = 5
_WKB_KAPPA_R = 17.0
# Energies at which a group of rows on one WKB grid steps it, while 2 mu E_max r_w^2 /
# _WKB_KAPPA_R^2, the energy's share of kappa^2 at r_w, is at most _ENERGY_EPS
_ENERGY_NODES, _ENERGY_EPS = 8, 0.1
# om2^k coefficients of sinh(om)/om; at |om2| <= _SERIES_OM2 the rest is < 1e-18
_SERIES_OM2 = 0.25
_SINHC_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in range(7))


@dataclass(frozen=True)
class RadialGrid:
    """Adaptive radial-step policy between R_m and the matching radius.

    From R_m to the end r_w of the WKB frame (``_wkb_radius``) a step is a
    fixed fraction of the radius itself (the scale on which the power-law
    potentials vary), whatever the wavelength.  Beyond r_w the Magnus step
    obeys two ceilings: that fraction of the radius, and a fixed number of
    points per local de Broglie wavelength (computed from an envelope
    wavenumber that over-counts every attractive term, so it is pessimistic in
    both the allowed and forbidden regions), ramped from half length at r_w.
    The outer radius is chosen so every residual potential term is below
    ``tail_tolerance`` times the collision energy.
    """

    points_per_wavelength: float = 40.0
    scale_fraction: float = 20.0
    tail_tolerance: float = 1e-4
    match_factor: float = 1.2

    def __post_init__(self):
        if not 20 <= self.points_per_wavelength < math.inf:
            raise ValueError("points_per_wavelength must be finite and at least 20")
        if not 4 <= self.scale_fraction < math.inf:
            raise ValueError("scale_fraction must be finite and at least 4")
        if not 0 < self.tail_tolerance <= 1e-4:
            raise ValueError("tail_tolerance must lie in (0, 1e-4]")
        if not 1.0 < self.match_factor < math.inf:
            raise ValueError("match_factor must be finite and exceed 1")

    def outer_radius(
        self,
        system: CollisionSystem,
        energy: float | np.ndarray,
        r_match: float,
        c3: float | np.ndarray | None = None,
    ) -> float | np.ndarray:
        """Smallest radius beyond which all potential tails are negligible.

        ``energy`` and ``c3`` (by default the system's) may hold one value
        per row.
        """
        energy = np.asarray(energy, dtype=float)
        if not np.all(energy > 0):
            raise ValueError("energy must be positive")
        cut = self.tail_tolerance * energy
        r6 = (system.c6 / cut) ** (1.0 / 6.0)
        r3 = (np.asarray(system.c3 if c3 is None else c3, dtype=float) / cut) ** (1.0 / 3.0)
        return np.maximum(np.maximum(r6, r3), 3.0 * r_match)

    def build_steps(
        self,
        system: CollisionSystem,
        L: int | np.ndarray,
        energy: float | np.ndarray,
        r_start: float | np.ndarray,
        r_stop: float | np.ndarray,
        c3: float | np.ndarray | None = None,
        *,
        max_steps: int,
        seam: float | np.ndarray = 0.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One fold of step starts and sizes from r_start toward r_stop, in lockstep over rows.

        ``L``, ``energy``, ``r_start``, ``r_stop`` and ``c3`` (by default the system's)
        broadcast to one value per grid row, so ``L`` as (envelopes, 1) against values
        per row gives a grid per envelope and row.  The arrays returned have shape
        (steps,) + that shape, and a grid row that has reached its r_stop is padded with
        zero-length steps there.  The fold takes ``max_steps`` steps, in one buffer, less
        the trailing ones on which no row moves: fewer than ``max_steps`` means every row
        has stopped.  Wide folds step in place, through one scratch of three arrays.  A long
        grid is taken fold by fold, each from the last one's end radius; ``_segment_transfers``
        does so, for the rows still short of r_stop, and enforces the step budget.  A grid that
        goes on from a WKB segment's end ``seam`` (broadcast like r_start) scales its wavelength
        ceiling by 1 - (seam / R)^2 / 2: a Magnus grid that starts at full length where the
        wavelength is long against R reflects a spurious wave, so the steps start at half length
        and grow smoothly to it.
        """
        c3 = system.c3 if c3 is None else c3
        ll = np.multiply(L, np.add(L, 1.0))
        shape = np.broadcast_shapes(*map(np.shape, (ll, energy, r_start, r_stop, c3, seam)))
        r = np.broadcast_to(np.asarray(r_start, dtype=float), shape)
        # q^2 = a + b/r^6 + c/r^3 + ll/r^2 with a, b, c = 2 mu (E, C6, C3), by Horner in 1/r
        two_mu = 2.0 * system.reduced_mass
        terms = (two_mu * np.asarray(energy), two_mu * system.c6, two_mu * np.asarray(c3), ll,
                 2.0 * math.pi / self.points_per_wavelength, self.scale_fraction, seam)
        if r.size <= _SCALAR_ROWS:
            # a few grid rows step faster one by one in Python floats; the same
            # correctly rounded operations give the same grid as the lockstep
            rows = [_row_radii(*args, max_steps) for args in zip(
                *(np.broadcast_to(x, shape).ravel().tolist() for x in (*terms, r, r_stop)))]
            n = max(map(len, rows), default=1)
            radii = np.array([x + x[-1:] * (n - len(x)) for x in rows]).T.reshape((n,) + shape)
            return radii[:-1], np.diff(radii, axis=0)
        radii, steps = np.empty((2, max_steps + 1) + shape)
        radii[0] = r
        work = np.empty((3,) + shape)
        for i in range(max_steps):
            _next_radius(*terms, radii[i], r_stop, radii[i + 1], work)
        steps = np.subtract(radii[1:], radii[:-1], out=steps[:-1])
        n = np.count_nonzero(steps.reshape(max_steps, -1).any(axis=1))
        return radii[:n], steps[:n]


def _next_radius(a, b, c, ll, wave, frac, seam, r, r_stop, out, work):
    """Every row's next grid radius into ``out``; a row stays put once it has stopped.

    ``work`` holds three arrays of r's shape.
    """
    inv, inv2, q2 = work
    np.divide(1.0, r, out=inv)
    np.multiply(inv, inv, out=inv2)
    # q2 = ((b (inv2 inv) + c) inv + ll) inv2 + a, the rounding of _row_radii
    np.multiply(inv2, inv, out=q2)
    q2 *= b
    q2 += c
    q2 *= inv
    q2 += ll
    q2 *= inv2
    q2 += a
    # h = min(min(wave / sqrt(q2) (1 - (seam / r)^2 / 2), r / frac), r_stop - r)
    np.divide(wave, np.sqrt(q2, out=q2), out=q2)
    np.multiply(seam, inv, out=inv2)
    inv2 *= inv2
    inv2 *= -0.5
    inv2 += 1.0
    q2 *= inv2
    np.minimum(q2, np.divide(r, frac, out=inv), out=q2)
    np.minimum(q2, np.subtract(r_stop, r, out=inv), out=q2)
    # stopping at r_stop, or on step underflow at the very last point
    np.maximum(np.add(r, q2, out=out), r, out=out)


def _row_radii(a, b, c, ll, wave, frac, seam, r, r_stop, limit):
    """``_next_radius`` for one row in Python floats: its radii, r first, up to
    ``limit`` steps or until the row stops."""
    radii = [r]
    for _ in range(limit):
        inv = 1.0 / r
        inv2 = inv * inv
        q2 = ((b * (inv2 * inv) + c) * inv + ll) * inv2 + a
        s = seam * inv
        r_next = r + min(wave / math.sqrt(q2) * (s * s * -0.5 + 1.0), r / frac, r_stop - r)
        if not r_next > r:
            break
        radii.append(r_next)
        r = r_next
    return radii


def gauss_nodes(starts: np.ndarray, steps: np.ndarray, out=None) -> np.ndarray:
    """Two-point Gauss-Legendre nodes of every step on a new leading axis, in ``out`` if given."""
    nodes = np.multiply.outer([0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0], steps,
                              out=_buffer(out, (2,) + np.shape(steps)))
    return np.add(nodes, starts, out=nodes)


def _buffer(flat, shape) -> np.ndarray:
    """A contiguous array of ``shape`` at the start of the flat buffer ``flat``, or a fresh one."""
    return np.empty(shape) if flat is None else flat[:math.prod(shape)].reshape(shape)


def step_matrices(steps, w1, w2, out=None, work=None) -> np.ndarray:
    """Exponentials of the fourth-order Magnus generator for every step.

    For psi'' = W(R) psi the generator over one step h is the traceless matrix
    G = [[a, h], [h (W1+W2)/2, -a]] with a = sqrt(3) h^2 (W1 - W2) / 12, where W1, W2 are
    samples at the Gauss nodes (``_expm_traceless``).  The planes m[i, j] lead, each of
    the arguments' broadcast shape; h = 0 gives exactly I.  They are written to ``out``,
    and om2 to the flat buffer ``work``, which may share memory with w1 and w2; by default
    both are fresh.
    """
    h = np.asarray(steps, dtype=float)
    shape = np.broadcast_shapes(h.shape, np.shape(w1), np.shape(w2))
    m = np.empty((2, 2) + shape) if out is None else out
    np.subtract(w1, w2, out=m[0, 0])
    m[0, 0] *= _SQRT3 / 12.0 * h * h
    np.add(w1, w2, out=m[1, 0])
    m[1, 0] *= 0.5 * h
    return _expm_traceless(m, h, work)


def _expm_traceless(m, b, work=None) -> np.ndarray:
    """exp(G) in place for G = [[a, b], [c, -a]], a in m[0, 0] and c in m[1, 0] on entry.

    ``b`` broadcasts against them, and om2 = a^2 + b c goes to the flat buffer ``work``
    (by default fresh).  G^2 = om2 I, so exp(G) = cosh(om) I + sinhc G, sinhc =
    sinh(om)/om: where |om2| <= _SERIES_OM2 (nearly every step) sinhc by Horner in om2
    and cosh(om) = sqrt(1 + om2 sinhc^2) > 0, elsewhere both in closed form.  G = 0
    gives exactly I.
    """
    a, sc, c, ch = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    om2 = _buffer(work, a.shape)
    np.multiply(b, c, out=om2)
    om2 += np.multiply(a, a, out=ch)
    far = None
    if max(om2.max(initial=0.0), -om2.min(initial=0.0)) > _SERIES_OM2:  # rare; no mask otherwise
        far = np.abs(om2) > _SERIES_OM2
        x = om2[far]
        om2[far] = 0.0  # the series and the square root see om = 0 there
    sc.fill(_SINHC_SERIES[-1])
    for coeff in _SINHC_SERIES[-2::-1]:  # Horner
        sc *= om2
        sc += coeff
    np.multiply(np.multiply(sc, sc, out=ch), om2, out=ch)
    np.sqrt(np.add(ch, 1.0, out=ch), out=ch)  # cosh(om)
    if far is not None:
        om = np.sqrt(np.abs(x))
        ch[far] = np.where(x < 0, np.cos(om), np.cosh(om))
        sc[far] = np.where(x < 0, np.sin(om), np.sinh(om)) / om
    c *= sc
    sa = np.multiply(sc, a, out=om2)
    np.add(ch, sa, out=a)
    ch -= sa
    sc *= b
    return m


def chain_product(matrices: np.ndarray, work=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Ordered product M[n-1] @ ... @ M[0] by pairwise reduction, as (m, e).

    The factors are planes (2, 2, n, batch...), and the product is m * 2**e with
    m (2, 2, batch...) and e an integer per batch index.  Each round multiplies adjacent
    pairs and finds each product's largest entry; the last round, and any where one leaves
    [2**-256, 2**256], divides each product by the power of two nearest it.  That is exact,
    so (m, e) is bitwise that of dividing in every round and the scale pure bookkeeping:
    the Moebius map ignores it, and as every Magnus step has determinant 1, det(m) = 2**(-2 e).
    The rounds alternate between the two flat buffers of ``work``, by default fresh; the
    first takes half the factors' size, the second a quarter and may hold the factors
    themselves, which it then overwrites.  m is a view.
    """
    m = matrices
    batch = m.shape[3:]
    e = np.zeros(batch, dtype=np.int64)
    if m.shape[2] == 0:
        return np.multiply.outer(np.eye(2), np.ones(batch)), e
    while (n := m.shape[2]) > 1:
        half, (out, other) = n // 2, work
        prod = _buffer(out, (2, 2, n - half) + batch)
        pairs = prod[:, :, :half]
        np.einsum("ikn...,kjn...->ijn...", m[:, :, 1::2], m[:, :, 0:n - 1:2], out=pairs)
        prod[:, :, half:] = m[:, :, 2 * half:]  # an odd factor out carries over
        # the other buffer, free once m is spent, takes each product's largest entry
        top, spare = _buffer(other, (2, half) + batch)
        np.abs(pairs[0, 0], out=top)
        for plane in (pairs[0, 1], pairs[1, 0], pairs[1, 1]):
            np.maximum(top, np.abs(plane, out=spare), out=top)
        if n == 2 or not (2.0**-256 <= top.min(initial=1.0) and top.max(initial=1.0) <= 2.0**256):
            exps = spare.reshape(-1).view(np.int32)[:top.size].reshape(top.shape)
            np.frexp(top, out=(top, exps))
            e += exps.sum(axis=0)
            np.ldexp(pairs, np.negative(exps, out=exps), out=pairs)
        m, work = prod, work[::-1]
    return m[:, :, 0], e


def _row_failure(cls: type[Exception], message: str, bad, energy, c3) -> Exception:
    """``cls(message)`` naming the first row where ``bad`` holds by its own (d, E).

    The row is axis 0 of a 1-D mask and axis -2 of any other, as in evaluate's (trials,
    rows, cols); ``energy`` and ``c3`` hold one value per row, and ``row`` is its index.
    """
    row = int(np.argwhere(bad)[0][-min(np.ndim(bad), 2)])
    energy, c3 = energy[row], c3[row]
    exc = cls(f"{message} (at d = {math.sqrt(c3 / 2.0):.6g} a.u., E = {energy:.6g} hartree)")
    exc.row = row
    return exc


def _wkb_wavenumber(energy, c3, w, w_slope, r_match: float, reduced_mass: float):
    """Local wavenumber kappa = sqrt(-W) at R_m and its radial derivative -W'/(2 kappa).

    ``energy`` and ``c3`` hold one value per row, W = 2 mu (V - E) and its slope W' one
    per row and column; a forbidden boundary (W >= 0) or a marginal WKB condition names
    its row, and the former its V = E + W / (2 mu).
    """
    forbidden = w >= 0
    if np.any(forbidden):
        i = tuple(np.argwhere(forbidden)[0])
        raise _row_failure(
            MatchingError,
            f"short-range boundary at R = {r_match:.3g} is classically forbidden "
            f"(V = {energy[i[0]] + w[i] / (2.0 * reduced_mass):.3e} hartree)",
            forbidden, energy, c3,
        )
    kappa = np.sqrt(-w)
    marginal = kappa * r_match < 10.0
    if np.any(marginal):
        i = tuple(np.argwhere(marginal)[0])
        warnings.warn(_row_failure(
            UserWarning,
            f"kappa * R_m = {kappa[i] * r_match:.2f} is small; the WKB boundary "
            "condition is marginal",
            marginal, energy, c3,
        ), stacklevel=3)
    return kappa, -0.5 * w_slope / kappa


def boundary_state(y, delta_sr):
    """The absorbing WKB wave at R_m as a homogeneous pair (p, q), and its flux.

    With refl = rho exp(2 i delta_sr), rho = (1 - y)/(1 + y), the reflected amplitude
    of a unit incoming wave, p = i (1 - refl) and q = 1 + refl: the log-derivative at
    R_m is -kappa p/q - kappa'/(2 kappa) (``_wkb_wavenumber``).  The flux Im(p q*) =
    1 - rho^2 is in closed form, exactly 0 at y = 0; at y = 1 the pair is exactly
    (i, 1) whatever delta_sr.  Arguments broadcast.
    """
    two_delta = 2.0 * np.asarray(delta_sr, dtype=float)
    rho = (1.0 - y) / (1.0 + y)
    # psi = exp(-i int kappa)/sqrt(kappa) + refl * exp(+i int kappa)/sqrt(kappa)
    refl = rho * (np.cos(two_delta) + 1j * np.sin(two_delta))
    return 1j * (1.0 - refl), 1.0 + refl, 1.0 - rho * rho


def _riccati_bessel(L, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """s_L = x j_L(x), its derivative, c_L = -x y_L(x) and its derivative.

    ``L`` and ``x`` broadcast, so one call serves every rank and row.  Both
    functions obey f_{L+1} = (2L+1)/x f_L - f_{L-1} upward from s_0 = sin x,
    c_0 = cos x (s_{-1} = cos x, c_{-1} = -sin x).  That is stable for c, and
    for s while L < x; where x < L + 1, s_L and s_{L-1} come from the power
    series instead.  Derivatives are f_L' = f_{L-1} - L f_L / x.
    """
    shape = np.broadcast_shapes(np.shape(L), np.shape(x))
    L, x = (np.broadcast_to(a, shape).ravel() for a in (L, np.asarray(x, dtype=float)))
    s, c = [np.cos(x), np.sin(x)], [-np.sin(x), np.cos(x)]  # l = -1, 0
    for ell in range(int(L.max(initial=0))):
        u = (2 * ell + 1) / x
        s.append(u * s[-1] - s[-2])
        c.append(u * c[-1] - c[-2])
    s, c, at = np.stack(s), np.stack(c), np.arange(x.size)
    # l sits at index l + 1
    s_l, s_m, c_l, c_m = s[L + 1, at], s[L, at], c[L + 1, at], c[L, at]
    # s_0 and s_{-1} are sin x and cos x as they stand
    low = (x < L + 1) & (L > 0)
    if low.any():
        n = L[low]
        s_l[low], s_m[low] = _regular_series(
            np.concatenate([n, n - 1]), np.tile(x[low], 2)
        ).reshape(2, -1)
    return tuple(
        f.reshape(shape) for f in (s_l, s_m - L * s_l / x, c_l, c_m - L * c_l / x)
    )


def _regular_series(n, x):
    """s_n(x) = x^(n+1)/(2n+1)!! sum_k (-x^2/2)^k / (k! (2n+3) ... (2n+2k+1)), n >= -1.

    Summed until a term no longer changes the sum; ``x`` must be finite.
    """
    z, d = -0.5 * x * x, 2.0 * n + 1.0
    term, total, k = np.ones_like(x), np.ones_like(x), 1
    while True:
        d += 2.0
        term *= z / (k * d)
        if (total + term == total).all():
            odd = np.cumprod(np.arange(-1.0, 2 * n.max() + 2, 2).clip(1.0))  # (2m - 1)!!
            return x ** (n + 1) / odd[n + 1] * total
        total += term
        k += 1


def match_free_solution(table, p, q, flux):
    """Tangent t of the (complex) phase shift at r1 of ``table``.

    The map h1 * 2**e1 takes the boundary state (p, q) to the numerator and
    denominator of t, psi matched there to s_L(kr) + t c_L(kr), and ``det`` times
    2**(-2 e1) is its determinant.  Im t is the flux of (p, q) carried by that
    determinant, free of the cancellation in the quotient.  (p, q, flux) broadcast
    against the table's (rows, cols).
    """
    h = table.h1
    den = h[..., 1, 0] * p + h[..., 1, 1] * q
    degenerate = np.abs(den) < 1e-300
    if np.any(degenerate):
        raise _row_failure(
            MatchingError, "degenerate asymptotic match (irregular solution absent)",
            degenerate, table.energy, table.c3,
        )
    num = h[..., 0, 0] * p + h[..., 0, 1] * q
    return (num / den).real + 1j * np.ldexp(table.det * flux / np.abs(den) ** 2, -2 * table.e1)


@functools.lru_cache(maxsize=64)
def _eigen_table(blocks: tuple[tuple[ChannelBasis, tuple[int, ...]], ...], u_max: int):
    """Eigenvalues eps of diag(L(L+1)) - x P at the knots of u = log1p(x) up to u_max.

    Shape (2, columns, knots), a column per rank in ``blocks`` and none without blocks: the
    values, and the slopes d eps / du = -(v^T P v) (1 + x) (Hellmann-Feynman) times the knot
    spacing.  A one-channel column is a row like any other: L(L+1) - P x and slope -P (1 + x).
    """
    x = np.expm1(np.arange(u_max * _KNOTS_PER_UNIT + 2) / _KNOTS_PER_UNIT)
    parts = [np.empty((2, len(x), 0))]
    for basis, ranks in blocks:
        ell, p = np.array([c.L for c in basis.channels], dtype=float), _coupling(basis)
        eps, vec = np.linalg.eigh(np.diag(ell * (ell + 1.0)) - x[:, None, None] * p)
        slope = -((p @ vec) * vec).sum(axis=-2) * (1.0 + x[:, None]) / _KNOTS_PER_UNIT
        parts.append(np.stack([eps, slope])[..., list(ranks)])
    table = np.concatenate(parts, axis=-1).transpose(0, 2, 1).copy()
    table.setflags(write=False)  # one cached array serves every caller
    return table


def _block_eigenvalues(system, blocks, r, c3, energy, x_max, out=None, work=None) -> np.ndarray:
    """W = 2 mu (V - E) of the columns of ``blocks``, shape (columns,) + broadcast(r[0], c3).

    The leading axis of ``r`` holds the radii of each column, or of all if its length is
    1, and ``energy`` broadcasts against r[0].  With x = 2 mu c3 / r <= ``x_max``, W is
    eps / r^2 + 2 mu (-C6/r^6 - E), eps the cubic Hermite interpolant of ``_eigen_table``
    in log1p(x), from each column's own row of the flat table.  At zero field (every c3
    0) a group of one-channel columns reads no table: eps is L(L+1), in one pass, and the
    bits are those of the gather at x = 0.  ``out`` is a flat buffer for the result, and
    ``work`` one of twice its size plus broadcast(r, c3) for the gather and x; by default
    both are fresh.
    """
    bases = [basis for basis, ranks in blocks for _ in ranks]
    column = (-1,) + (1,) * (np.ndim(r) - 1)
    points = np.broadcast_shapes(np.shape(r), np.shape(c3))
    eps = _buffer(out, np.broadcast_shapes(points, (len(bases),) + column[1:]))
    work = np.empty(2 * eps.size + math.prod(points)) if work is None else work
    term, knot = _buffer(work, eps.shape), _buffer(work[eps.size:], eps.shape).view(np.intp)
    x = _buffer(work[2 * eps.size:], points)
    bare = not np.any(c3) and all(len(basis) == 1 for basis in bases)
    if not bare:
        np.divide(2.0 * system.reduced_mass * c3, r, out=x)
        table = _eigen_table(tuple((basis, tuple(ranks)) for basis, ranks in blocks),
                             max(1, math.ceil(math.log1p(x_max))))
        t = np.log1p(x) * _KNOTS_PER_UNIT
        i = t.astype(np.intp)  # at most u_max * _KNOTS_PER_UNIT, the last knot but one
        t -= i
        t1 = 1.0 - t
        np.add(i, (np.arange(len(bases)) * table.shape[-1]).reshape(column), out=knot)
        values, slopes = table.reshape(2, -1)
        # eps = y0 + (y1 - y0) (t^2 (3 - 2t)) + a (t t1^2) - b (t^2 t1), a and b the slopes
        np.take(values[1:], knot, out=eps, mode="clip")
        eps -= np.take(values, knot, out=term, mode="clip")
        eps *= t * t * (3.0 - 2.0 * t)
        eps += term
        eps += np.multiply(np.take(slopes, knot, out=term, mode="clip"), t * t1 * t1, out=term)
        eps -= np.multiply(np.take(slopes[1:], knot, out=term, mode="clip"), t * t * t1, out=term)
    # eps / r^2 + 2 mu (-C6/r^6 - E), with the spent terms for scratch
    inv = np.reciprocal(np.multiply(r, r, out=x), out=x)
    tail = np.multiply(inv, inv, out=_buffer(work, points))
    tail *= inv
    tail *= 2.0 * system.reduced_mass * C6_SIGN * system.c6
    tail -= 2.0 * system.reduced_mass * np.asarray(energy)
    if bare:
        ll = [b.channels[0].L * (b.channels[0].L + 1.0) for b in bases]
        np.multiply(np.reshape(ll, column), inv, out=eps)
    else:
        eps *= inv
    eps += tail
    return eps


@functools.lru_cache(maxsize=4)
def _wkb_rules(n: int):
    """Linear rules on values at the n Chebyshev-Lobatto nodes t of [-1, 1], as matrices.

    From the Legendre coefficients of the interpolant (``inv``): the second derivative at
    every node, the first at t = -1 and 1, the integral from -1 less its chord at the inner
    nodes (zero at the ends), the quadrature weights, and the Filon rows: the integral of
    P_k(t) exp(i om t) is 2 i^k j_k(om), so weights sum these rows times j_k(om), the even
    k for the real part and the odd k for the imaginary part.
    """
    t = -np.cos(np.pi * np.arange(n) / (n - 1))
    p, dp, d2p = [np.ones(n), t], [np.zeros(n), np.ones(n)], [np.zeros(n), np.zeros(n)]
    for k in range(1, n):
        p.append(((2 * k + 1) * t * p[k] - k * p[k - 1]) / (k + 1))
        dp.append(dp[k - 1] + (2 * k + 1) * p[k])
        d2p.append(d2p[k - 1] + (2 * k + 1) * dp[k])
    inv = np.linalg.inv(np.array(p[:n]).T)
    integral = np.array([t + 1.0] + [(p[k + 1] - p[k - 1]) / (2 * k + 1) for k in range(1, n)])
    weights = 2.0 * inv[0]
    phase = integral.T @ inv - np.outer((1.0 + t) / 2.0, weights)
    filon = 2.0 * inv * np.array([1.0, 1.0, -1.0, -1.0] * n)[:n, None]  # Re or Im of i^k
    d2 = np.array(d2p[:n]).T @ inv
    ends = (np.array(dp[:n]).T @ inv)[[0, -1]]
    return t, d2, np.vstack([d2, ends]), np.vstack([weights, phase[1:-1]]), weights[None], filon


def _nodal(rule, x) -> np.ndarray:
    """``rule`` @ x over the leading (node) axis of x, term by term, so that every row
    rounds alike whatever the rows beside it (BLAS and einsum do not)."""
    out = np.multiply.outer(rule[:, 0], x[0])
    for k in range(1, len(x)):
        out += np.multiply.outer(rule[:, k], x[k])
    return out


def _spherical_bessel(x, n) -> np.ndarray:
    """j_k(x) for k < n on a new leading axis, x > 0: upward from j_0 and j_1 where x >= 0.1,
    from the power series of s_k = x j_k (``_regular_series``) below."""
    j = np.empty((n,) + x.shape)
    j[0] = np.sin(x) / x
    j[1] = (j[0] - np.cos(x)) / x
    for k in range(1, n - 1):
        np.subtract((2 * k + 1) / x * j[k], j[k - 1], out=j[k + 1])
    low = x < 0.1
    if low.any():
        x = x[low]
        for k in range(1, n):  # where the upward recurrence loses digits
            j[k, low] = _regular_series(np.full(x.shape, k), x) / x
    return j


def _wkb_radius(system, ell, c3, r_start, r_stop) -> np.ndarray:
    """End of the WKB frame, (envelopes, rows) for envelopes ``ell`` (envelopes, 1).

    An adiabat of rank L or lower has eps <= ell (ell + 1) + x / 2 (P2 >= -1/2), so
    kappa^2 R^2 >= 2 mu C6 / R^4 - ell (ell + 1) - mu c3 / R, which falls with R until
    it is negative.  The end is where that bound falls to _WKB_KAPPA_R^2, clipped into
    [r_start, r_stop]: every node before it lies where kappa R > _WKB_KAPPA_R.
    """
    mu = system.reduced_mass
    a, b, c = _WKB_KAPPA_R**2 + ell * (ell + 1.0), 2.0 * mu * system.c6, mu * np.asarray(c3)
    r = np.broadcast_to((b / a) ** 0.25, np.broadcast_shapes(a.shape, c.shape))
    for _ in range(30):  # from the C6 root down to the root, at a rate below 1/4
        r = (b / (a + c / r)) ** 0.25
    return np.clip(r, r_start, r_stop)


def _wkb_grid(frac, r, r_stop, max_steps):
    """One fold of steps r / frac from r toward r_stop, as ``RadialGrid.build_steps`` returns."""
    radii = [r]
    while len(radii) <= max_steps and (r < r_stop).any():
        radii.append(r := r + np.minimum(r / frac, r_stop - r))
    radii = np.array(radii)
    steps = np.diff(radii, axis=0)
    n = np.count_nonzero(steps.reshape(len(steps), -1).any(axis=1))
    return radii[:n], steps[:n]


def _wkb_steps(system, blocks, starts, steps, c3, energy, x_max, pick, out) -> np.ndarray:
    """(psi, psi') transfers of the steps in a WKB frame, into ``out`` (2, 2, steps, cols, rows).

    The frame is the second-order WKB pair v (cos theta, sin theta): v = q^(-1/2), theta =
    int q from the step's start, q^2 = kappa^2 + eps and eps = u''/u for u = kappa^(-1/2).
    psi = v (z1 cos theta + z2 sin theta) gives z' = g B z, g = v''/v - eps of fourth order
    in the slopes, B = [[sin 2 theta, 1 - cos 2 theta], [-1 - cos 2 theta, -sin 2 theta]] /
    (2 q).  A step is A(h) Rot(theta) exp(Omega) A(0)^-1, A = [[v, 0], [v', 1/v]] and Omega
    the integral of g B, from kappa at _WKB_NODES Chebyshev-Lobatto nodes: u'', v' and v''
    by nodal derivatives, theta by the nodal integral, and the entries in cos and sin 2 theta
    by a Filon rule in the step's own chord of theta.  Zero-length steps are exactly I.
    """
    n = _WKB_NODES
    t, d2, on_v, on_q, weights, filon = _wkb_rules(n)
    nodes = starts + np.multiply.outer((1.0 + t) / 2.0, steps)  # (nodes, steps, env, rows)
    w = _block_eigenvalues(system, blocks, nodes.transpose(2, 0, 1, 3)[pick], c3, energy, x_max)
    k2 = np.negative(w, out=w).transpose(1, 2, 0, 3)  # kappa^2, (nodes, steps, cols, rows)
    h = steps[:, pick]
    moves = h > 0
    inv_h = np.divide(1.0, h, out=np.zeros(h.shape), where=moves)
    u = np.reciprocal(np.sqrt(np.sqrt(k2)))
    eps = _nodal(d2, u)
    eps /= u  # h^2 eps / 4, in t
    q = np.multiply(eps, 4.0 * inv_h * inv_h, out=u)
    q += k2
    np.sqrt(q, out=q)
    v = np.reciprocal(np.sqrt(q, out=k2), out=k2)
    f, dv = np.split(_nodal(on_v, v), [n])  # v'' and, at the ends, v', in t
    f *= v
    eps *= v
    eps *= v
    f -= eps
    f *= inv_h  # h g / (4 q), the integrand in t
    theta, phi = np.split(_nodal(on_q, q), [1])
    theta = 0.5 * h * theta[0]
    phi *= h  # 2 theta less its chord, at the inner nodes
    del q, u
    i0 = _nodal(weights, f)[0]
    fs = eps  # f sin 2 phi, then f cos 2 phi in f
    fs[0] = fs[-1] = 0.0
    np.multiply(f[1:-1], np.sin(phi), out=fs[1:-1])
    f[1:-1] *= np.cos(phi, out=phi)
    del phi
    # the Filon sums: Legendre coefficients of f and fs against 2 i^k j_k(theta), the real
    # parts from the even k and the imaginary parts from the odd k
    jk = _spherical_bessel(np.where(moves, theta, 1.0), n)
    cf, cs = _nodal(filon, f), _nodal(filon, fs)
    cf *= jk
    cs *= jk
    j_re = cf[0::2].sum(axis=0) - cs[1::2].sum(axis=0)
    j_im = cs[0::2].sum(axis=0) + cf[1::2].sum(axis=0)
    del jk, cf, cs, f, fs, eps
    cos, sin = np.cos(theta), np.sin(theta)
    i_cos, i_sin = cos * j_re - sin * j_im, sin * j_re + cos * j_im
    m = out
    m[0, 0], m[1, 0] = i_sin, -i0 - i_cos
    _expm_traceless(m, i0 - i_cos)
    # Rot(theta) exp(Omega), then A(0)^-1 on the right and A(h) on the left
    m[0], m[1] = cos * m[0] + sin * m[1], cos * m[1] - sin * m[0]
    v0, v1 = v[0], v[-1]
    dv0, dv1 = 2.0 * inv_h * dv
    m[:, 0] = m[:, 0] / v0 - m[:, 1] * dv0
    m[:, 1] *= v0
    m[1] = dv1 * m[0] + m[1] / v1
    m[0] *= v1
    np.copyto(m, np.eye(2).reshape(2, 2, 1, 1, 1), where=~moves)
    return m


def _wkb_sources(system, energy, c3, r, r_w):
    """The WKB segment's sources from ``r`` to ``r_w`` (``_segment_transfers``): the row
    each stands for and its energy, each row's source, and each group's interpolation."""
    rows, n = len(energy), _ENERGY_NODES
    owner, e_src, between, alone = [], [], [], np.ones(rows, dtype=bool)
    source = np.empty(rows, dtype=np.intp)
    if rows > n and np.any(r_w > r):
        _, group, count = np.unique(np.vstack([c3, r, r_w]).T, axis=0, return_inverse=True,
                                    return_counts=True)
        cap = _ENERGY_EPS * (_WKB_KAPPA_R / r_w.max(axis=0)) ** 2 / (2.0 * system.reduced_mass)
        j = np.arange(n)
        weight = np.where(j % 2, -1.0, 1.0) * np.where((j == 0) | (j == n - 1), 0.5, 1.0)
        for at in (np.flatnonzero(group == g) for g in np.flatnonzero(count > n)):
            top = at[np.argmax(energy[at])]
            if energy[top] <= cap[top]:
                first, alone[at] = n * len(owner), False
                owner.append(np.full(n, top))
                e_src.append(energy[top] * (0.5 - 0.5 * np.cos(np.pi * j / (n - 1))))
                d = energy[at, None] - e_src[-1]
                on = (d == 0).any(axis=1)
                source[at] = first + np.where(on, (d == 0).argmax(axis=1), n - 1)
                w = weight / d[~on]
                between.append((at[~on], slice(first, first + n), w / w.sum(1, keepdims=True)))
    source[alone] = n * len(owner) + np.arange(np.count_nonzero(alone))
    owner.append(np.flatnonzero(alone))
    return np.concatenate(owner), np.concatenate(e_src + [energy[alone]]), source, between


def _segment_transfers(system, blocks, energy, c3, grid, r_start, r_stop, x_max, wkb=False):
    """(psi, psi') transfer (m, e) of every column over [r_start, r_stop], one per row.

    ``blocks`` pairs each basis with the ranks to propagate, and the columns are those
    ranks in block order; m is (rows, columns, 2, 2) and the transfer is m * 2**e.  A
    column steps on the grid of its envelope, the largest L of its block, which slightly
    over-resolves the lower ranks.  One lockstep grid (steps, envelopes, rows) is built
    in folds of _FOLD_SIZE // (rows * (columns + _GRID_COLUMNS)) steps, each one pass over
    every column.  With ``wkb``, each envelope first takes the WKB-frame steps of
    ``_wkb_steps``, r / scale_fraction long, from r_start to its ``_wkb_radius``, in folds
    _WKB_NODES times shorter; the Magnus steps go on from there, in one product and one
    step count.  The WKB folds step source rows (``_wkb_sources``): more than _ENERGY_NODES
    rows with the same c3, r_start and r_w of every envelope, and 2 mu E_max r_w^2 <=
    _ENERGY_EPS _WKB_KAPPA_R^2 at their largest E and r_w, step only at the _ENERGY_NODES
    Chebyshev-Lobatto energies of [0, E_max], the top one E_max.  A row at a node takes its
    transfer, the rest the barycentric interpolant in E (Berrut & Trefethen, SIAM Rev. 46,
    501 (2004)).  Any other row is its own source, bitwise as with no group: the fold length
    is the chunk's.  Folds run while any row is short of the segment's end, each building
    the grid of these live rows alone.  GridError names the row, by its index among all
    rows, that takes a step past _MAX_STEPS, the grid's one budget check, or that no longer
    moves in a fold where no live row can step.  Each Magnus fold takes views of buffers
    made once: the step planes (the running product as factor 0), which first hold the
    gather of W, and an arena for W and the nodes, then om2 or the chain's first round.
    ``x_max`` bounds 2 mu c3 / R.  Also returns the step counts.
    """
    rows = len(energy)
    ell = [max(basis.channels[i].L for i in ranks) for basis, ranks in blocks for _ in ranks]
    envelopes, env = np.unique(ell, return_inverse=True)
    n = len(env)
    # a column's steps and nodes: a view where all share one envelope or each has its own
    pick = slice(None) if len(envelopes) == 1 or np.array_equal(env, np.arange(n)) else env
    fold = max(1, _FOLD_SIZE // (rows * (n + _GRID_COLUMNS)))
    node_columns = 1 if len(envelopes) == 1 else n  # of the nodes, x and the C6/r^6 term
    r = np.broadcast_to(r_start, (len(envelopes), rows)).copy()
    seam = _wkb_radius(system, envelopes[:, None], c3, r, r_stop) if wkb else np.zeros(r.shape)
    r_w = np.maximum(seam, r)
    owner, e_src, source, between = _wkb_sources(system, energy, c3, r, r_w)
    run_m = np.multiply.outer(np.eye(2), np.ones((n, len(owner))))
    run_e = np.zeros((n, len(owner)), dtype=np.int64)
    n_steps = np.zeros((len(envelopes), len(owner)), dtype=np.int64)
    phases = ((owner, e_src, c3[owner], r[:, owner], r_w[:, owner], True),
              (np.arange(rows), energy, c3, r_w, np.broadcast_to(r_stop, r.shape), False))
    for own, e_rows, c3_rows, r, stop, wkb in phases:
        if not wkb:  # each row's WKB transfer: its source's, or its nodes' interpolant
            m, e, n_steps = run_m, run_e, n_steps[:, source]
            run_m, run_e = m[..., source], e[:, source]
            for at, nodes, w in between:
                values = np.moveaxis(np.ldexp(m[..., nodes], e[:, nodes]), -1, 0)
                run_m[..., at], run_e[:, at] = np.moveaxis(_nodal(w, values), 0, -1), 0
        # the buffers of the Magnus folds; a WKB fold takes fresh arrays, of about their size
        planes = None if wkb else np.empty(
            max(4 * n * (fold + 1), 2 * fold * (2 * n + node_columns)) * rows)
        arena = None if wkb else np.empty(
            2 * max(n * (fold + 2), fold * (n + len(envelopes))) * rows)
        while (going := (r < stop).any(axis=0)).any():  # rows whose grid goes on
            live = slice(None) if going.all() else np.flatnonzero(going)
            e_live, c3_live = e_rows[live], c3_rows[live]
            if wkb:
                starts, steps = _wkb_grid(grid.scale_fraction, r[:, live], stop[:, live],
                                          max(1, fold // _WKB_NODES))
            else:
                starts, steps = grid.build_steps(system, envelopes[:, None], e_live,
                                                 r[:, live], stop[:, live], c3_live,
                                                 max_steps=fold, seam=seam[:, live])
            if len(steps) == 0:
                raise _row_failure(GridError, "radial grid steps fall below the rounding of R",
                                   np.isin(np.arange(rows), own[going]), energy, c3)
            r[:, live] = starts[-1] + steps[-1]
            n_steps[:, live] += np.count_nonzero(steps, axis=0)
            if n_steps.max() > _MAX_STEPS:
                raise _row_failure(GridError, "radial grid exceeds the step budget", np.isin(
                    np.arange(rows), own[(n_steps > _MAX_STEPS).any(axis=0)]), energy, c3)
            # factor 0 is the running product, then the steps, each (columns, rows)
            shape = (2, 2, len(steps) + 1, n, steps.shape[-1])
            if wkb:
                m = np.empty(shape)
                _wkb_steps(system, blocks, starts, steps, c3_live, e_live, x_max, pick,
                           m[:, :, 1:])
            else:
                # (columns or 1, 2, steps, rows), the nodes after W in the arena
                nodes = gauss_nodes(starts, steps,
                                    out=arena[2 * n * len(steps) * steps.shape[-1]:])
                nodes = nodes.transpose(2, 0, 1, 3)[pick]
                w = _block_eigenvalues(system, blocks, nodes, c3_live, e_live, x_max,
                                       out=arena, work=planes)
                m = _buffer(planes, shape)
                w1, w2 = (w[:, k].swapaxes(0, 1) for k in (0, 1))
                step_matrices(steps[:, pick], w1, w2, out=m[:, :, 1:], work=arena)
            m[:, :, 0] = run_m[..., live]
            run_m[..., live], e = chain_product(m, work=(arena, planes))
            run_e[:, live] += e
    return run_m.transpose(3, 2, 0, 1), run_e.T, n_steps[env].T


class _Table(NamedTuple):
    """The long-range response: all that (y, delta_sr) do not touch.

    A column is one rank of one block, the blocks in the order given.  The map at
    r1 or r2 takes the boundary state (p, q) to the numerator and denominator of t.
    """

    k: np.ndarray  # (rows, 1): asymptotic wavenumber
    h1: np.ndarray  # (rows, cols, 2, 2): the map at r1 is h1 * 2**e1
    e1: np.ndarray  # (rows, cols)
    h2: np.ndarray  # (rows, cols, 2, 2): the map at r2 is h2 * 2**e2
    e2: np.ndarray  # (rows, cols)
    det: np.ndarray  # (rows, cols): k kappa; a map's determinant is det * 2**(-2 e)
    n_points: np.ndarray  # (rows, cols): grid steps of both segments
    energy: np.ndarray  # (rows,): the row's collision energy, which with c3 names it
    c3: np.ndarray  # (rows,)


def _match_matrix(ell, k, r) -> np.ndarray:
    """(num, den) of t from (psi, psi') at r, psi = s_L(kr) + t c_L(kr) there, per column."""
    s, s_p, c, c_p = _riccati_bessel(ell, k * r[:, None])
    return np.stack([k * s_p, -s, -k * c_p, c], axis=-1).reshape(s.shape + (2, 2))


def _build_chunk(system, blocks, r_match, energy, c3, grid) -> _Table:
    mu = system.reduced_mass
    # every boundary first, from the steps' table: a forbidden one fails before any propagation
    dr = 1e-4 * r_match
    x_max = 2.0 * mu * float(c3.max()) / (r_match - dr)  # every radius lies beyond R_m - dr
    edge = np.array([r_match - dr, r_match, r_match + dr])[None, :, None]
    w = _block_eigenvalues(system, blocks, edge, c3, energy, x_max).transpose(1, 2, 0)
    kappa, dkappa = _wkb_wavenumber(energy, c3, w[1], (w[2] - w[0]) / (2.0 * dr), r_match, mu)
    ell = np.array([basis.channels[i].L for basis, ranks in blocks for i in ranks], dtype=int)
    k = np.sqrt(2.0 * mu * energy)[:, None]
    r1 = grid.outer_radius(system, energy, r_match, c3)
    r2 = grid.match_factor * r1
    m1, e1, n1 = _segment_transfers(
        system, blocks, energy, c3, grid, np.full(len(energy), r_match), r1, x_max, wkb=True
    )
    m2, e2, n2 = _segment_transfers(system, blocks, energy, c3, grid, r1, r2, x_max)
    # (psi, psi') at R_m of the boundary state (p, q), formed past the propagation's peak
    wall = np.stack([np.zeros_like(kappa), np.ones_like(kappa), -kappa, -dkappa / (2.0 * kappa)],
                    axis=-1).reshape(kappa.shape + (2, 2))
    h1 = _match_matrix(ell, k, r1) @ m1 @ wall
    h2 = _match_matrix(ell, k, r2) @ (m2 @ m1) @ wall
    return _Table(k, h1, e1, h2, e1 + e2, k * kappa, n1 + n2, energy, c3)


def build_table(system, blocks, r_match, energy, c3, grid) -> _Table:
    """Long-range table of every block's ranks at every row (energy[i], c3[i]).

    ``blocks`` pairs each basis with its ranks; rank i is the adiabat of
    ``basis.channels[i]`` (the adiabats of one (M, parity) block do not
    cross, and at large R the centrifugal term orders them by L).  The
    columns of the table are these ranks in block order.  Each rank is
    propagated from R_m to the tail-criterion radius r1 and on to r2 =
    ``match_factor`` * r1, once, _CHUNK_ROWS rows at a time, and the table keeps
    the composed map from the boundary state to t at r1 and r2 (``_Table``):
    ``evaluate`` then gives the scattering at any (y, delta_sr) in closed form.
    Failures and warnings of the long range (forbidden boundary, marginal
    WKB, step budget, vanishing steps) are raised here.  Each names its row
    by its own (d, E) and carries its index as ``row``, as in ``evaluate``.
    """
    energy = np.atleast_1d(np.asarray(energy, dtype=float))
    c3 = np.broadcast_to(np.asarray(c3, dtype=float), energy.shape)
    if not np.all((0 < energy) & (energy < np.inf)):
        raise ValueError("collision energy must be finite and positive")
    if not np.all((0 <= c3) & (c3 < np.inf)):
        raise ValueError("c3 must be finite and non-negative")
    abar = mean_scattering_length(system.reduced_mass, system.c6)
    if not r_match < abar:
        raise ValueError(
            f"r_match = {r_match:.3g} must lie below the mean scattering length "
            f"abar = {abar:.3g}"
        )
    parts = []
    for start in range(0, len(energy), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        try:
            parts.append(_build_chunk(system, blocks, r_match, energy[rows], c3[rows], grid))
        except ColdchemError as exc:  # each names its row within the chunk
            exc.row += start
            raise
    return _Table(*map(np.concatenate, zip(*parts)))


def evaluate(table: _Table, y: float, delta) -> tuple[np.ndarray, np.ndarray]:
    """t = tan(delta_L) at r1 and the loss, each (rows, cols), of a table at (y, delta_sr).

    ``delta`` is delta_sr, one value or one per column.  The boundary state,
    which no row changes, goes through the table's map at r1 to t, and the loss
    comes from the conserved flux.  This is arithmetic on the table alone; the
    table's r2 view, ``table._replace(h1=table.h2, e1=table.e2)``, gives t at r2.
    """
    t = match_free_solution(table, *boundary_state(y, delta))
    # algebraically identical to 1 - |S|^2, S = (1 + i t)/(1 - i t), but immune to cancellation
    loss = 4.0 * t.imag / np.abs(1.0 - 1j * t) ** 2
    if np.any(loss < -1e-9):
        raise _row_failure(UnitarityError, "|S|^2 exceeds unity", loss < -1e-9, table.energy,
                           table.c3)
    return t, loss


def _rate_prefactor(system: CollisionSystem, k):
    """g pi / (mu k): rates are this times |1 - S|^2 (elastic) and P_loss."""
    return system.statistical_factor * math.pi / (system.reduced_mass * k)


def _point_results(system, blocks, delta, params, energy, grid) -> list[ScatteringResult]:
    """Every column's result at one point, a table of one row: S and |t(r2) - t(r1)| from t."""
    table = build_table(system, blocks, params.r_match, energy, system.c3, grid)
    k = math.sqrt(2.0 * system.reduced_mass * energy)
    pref = _rate_prefactor(system, k)
    t, loss = (x[0] for x in evaluate(table, params.y, delta))
    t_far, _ = evaluate(table._replace(h1=table.h2, e1=table.e2), params.y, delta)
    s_matrix, spread = (1.0 + 1j * t) / (1.0 - 1j * t), np.abs(t_far[0] - t)
    channels = [basis.channels[i] for basis, ranks in blocks for i in ranks]
    return [
        ScatteringResult(
            L=channel.L,
            M=channel.M,
            energy=energy,
            wavenumber=k,
            s_matrix=complex(s_matrix[j]),
            loss_probability=float(loss[j]),
            elastic_rate=pref * abs(1.0 - complex(s_matrix[j])) ** 2,
            quenching_rate=pref * float(loss[j]),
            n_points=int(table.n_points[0, j]),
            match_spread=float(spread[j]),
        )
        for j, channel in enumerate(channels)
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

    The curve enters only through its block and rank: it is the one column
    at the one row of ``build_table`` and ``evaluate``.  The spread between
    the matches at r1 and r2 is reported in ``match_spread`` as an error
    estimate.
    """
    (result,) = _point_results(
        system, [(curve.basis, [curve.index])], delta_sr, params, energy,
        grid or RadialGrid(),
    )
    return result


# --- short-range phase calibration -----------------------------------------


def _phase_calibration(
    system: CollisionSystem,
    r_match: float,
    grid: RadialGrid | None = None,
    energy_fraction: float = CALIBRATION_ENERGY_FRACTION,
    tolerance: float = CALIBRATION_TOLERANCE,
):
    """``phase(s)``, the delta_sr of ``calibrate_phase``, and its inverse.

    The inverse ``s_of(delta)`` is the Moebius map ``phase`` inverts; it broadcasts.
    """
    if not 0 < energy_fraction <= 1e-2:
        raise ValueError("energy_fraction must lie in (0, 1e-2]")
    if not tolerance > 0:
        raise ValueError("calibration tolerance must be positive")
    bare = dataclasses.replace(system, dipole=0.0)
    mu = bare.reduced_mass
    abar = mean_scattering_length(mu, bare.c6)
    e_cal = energy_fraction * characteristic_energies(mu, bare.c6).e_swave
    grid = grid or RadialGrid()
    grid = dataclasses.replace(
        grid, points_per_wavelength=max(grid.points_per_wavelength, 160.0),
        tail_tolerance=min(grid.tail_tolerance, 1e-6),
    )
    table = build_table(bare, [(build_basis(0, 0, 0), [0])], r_match, e_cal, 0.0, grid)
    k = float(table.k[0, 0])
    # at y = 0 the boundary state is (tau, 1) times a phase, tau = tan(delta_sr),
    # so t = -k a = (g00 tau + g01) / (g10 tau + g11)
    g = table.h1[0, 0]

    def phase(s: float) -> float:
        target = s * abar
        t = -k * target
        delta = math.atan2(t * g[1, 1] - g[0, 1], g[0, 0] - t * g[1, 0]) % math.pi
        delta = delta if delta < math.pi else 0.0  # a tiny negative angle rounds to pi
        a = -float(evaluate(table, 0.0, delta)[0][0, 0].real) / k
        if not abs(a - target) <= tolerance * abar * max(1.0, abs(s)):
            raise CalibrationError(
                f"delta_sr = {delta:.6g} gives a = {a / abar:.6g} * abar instead of "
                f"{s:.4g} * abar within {tolerance:.1e} relative; check R_m and "
                "the radial grid"
            )
        return delta

    def s_of(delta):
        sin, cos = np.sin(delta), np.cos(delta)
        return -(g[0, 0] * sin + g[0, 1] * cos) / ((g[1, 0] * sin + g[1, 1] * cos) * k * abar)

    return phase, s_of


def calibrate_phase(
    system: CollisionSystem,
    params: ShortRangeParams,
    grid: RadialGrid | None = None,
    energy_fraction: float = CALIBRATION_ENERGY_FRACTION,
    tolerance: float = CALIBRATION_TOLERANCE,
) -> float:
    """Short-range phase delta_sr in [0, pi) reproducing a = s * abar at zero field.

    The bare van der Waals s wave is tabulated (``build_table``) at a
    near-threshold energy.  With y = 0 the boundary state is real, (tan(delta_sr), 1)
    up to a phase, and the table's map at r1 takes it to t = -k a.  The
    scattering length is therefore a Moebius function of tan(delta_sr) (the
    quantum-defect separation of Idziaszek and Julienne, PRL 104, 113202
    (2010)) whose coefficients are that map, and it is inverted in closed
    form.  ``evaluate`` at y = 0 checks the result, and
    CalibrationError is raised if it misses s * abar by more than
    ``tolerance`` (> 0) relative.  Only ``params.s`` and ``params.r_match``
    matter here.
    """
    phase, _ = _phase_calibration(system, params.r_match, grid, energy_fraction, tolerance)
    return phase(params.s)
