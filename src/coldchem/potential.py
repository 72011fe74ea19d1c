"""Long-range interaction and single-field adiabatic potential curves.

The collision channels are partial waves |L, M> with M the conserved
projection of L on the dipole polarization axis.  Two polarized point
dipoles interact through the P2(cos theta) anisotropy,

    V(R) = [L(L+1)/(2 mu R^2)] delta_LL' - (C6/R^6) delta_LL'
           - (2 d^2 / R^3) <L M| P2 |L' M>,

which couples partial waves with |L - L'| = 0, 2 and the same parity.
Diagonalizing the coupled matrix at fixed R yields adiabatic curves; for
identical fermions the lowest ones develop a dipole-induced barrier whose
height controls the loss rate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GridError, NumericalError

C6_SIGN = -1.0  # dispersion is attractive: coefficient enters as -C6/R^6


class Symmetry(Enum):
    FERMIONS = "fermions"
    BOSONS = "bosons"
    DISTINGUISHABLE = "distinguishable"


@dataclass(frozen=True, order=True)
class Channel:
    """A single partial wave |L, M>."""

    L: int
    M: int

    def __post_init__(self):
        if not isinstance(self.L, int) or not isinstance(self.M, int):
            raise TypeError("channel quantum numbers must be integers")
        if self.L < 0:
            raise ValueError(f"L must be non-negative, got {self.L}")
        if abs(self.M) > self.L:
            raise ValueError(f"|M| must not exceed L, got L={self.L}, M={self.M}")


@dataclass(frozen=True)
class CollisionSystem:
    """Reduced mass, dispersion coefficient, dipole and exchange symmetry.

    All quantities in atomic units.  ``dipole`` is the induced lab-frame
    dipole moment of each molecule.  ``g_override`` forces the rate
    prefactor g for users who prefer the opposite indistinguishability
    convention.
    """

    reduced_mass: float
    c6: float
    dipole: float = 0.0
    symmetry: Symmetry = Symmetry.FERMIONS
    g_override: int | None = None

    def __post_init__(self):
        if not 0 < self.reduced_mass < math.inf:
            raise ValueError("reduced mass must be positive and finite")
        if not 0 < self.c6 < math.inf:
            raise ValueError("C6 must be positive and finite")
        if not 0 <= self.dipole < math.inf:
            raise ValueError("dipole must be non-negative and finite")
        if not isinstance(self.symmetry, Symmetry):
            raise TypeError("symmetry must be a Symmetry enum member")
        if self.g_override is not None and self.g_override not in (1, 2):
            raise ValueError("g_override must be 1 or 2")

    @property
    def c3(self) -> float:
        """Overall strength of the R^-3 term, V3 = -c3 * P2 element / R^3."""
        return 2.0 * self.dipole**2

    @property
    def statistical_factor(self) -> int:
        """Rate-coefficient prefactor g: 1 for identical particles, 2 otherwise."""
        if self.g_override is not None:
            return self.g_override
        return 2 if self.symmetry is Symmetry.DISTINGUISHABLE else 1

    def allowed_parities(self) -> tuple[int, ...]:
        """L parities present in the basis: (1,) odd, (0,) even, or both."""
        if self.symmetry is Symmetry.FERMIONS:
            return (1,)
        if self.symmetry is Symmetry.BOSONS:
            return (0,)
        return (0, 1)


def p2_matrix_element(L: int, Lp: int, M: int) -> float:
    """<L M| P2(cos theta) |L' M> for real spherical-harmonic partial waves.

    Nonzero only for L' = L or L' = L +/- 2 (same parity, rank-2 coupling);
    both are closed forms of the Wigner 3j product, and the coupling to
    L + 2 is positive.
    """
    for name, v in (("L", L), ("Lp", Lp)):
        if not isinstance(v, (int, np.integer)):
            raise TypeError(f"{name} must be an integer")
        if v < 0:
            raise ValueError(f"{name} must be non-negative")
    if abs(M) > min(L, Lp):
        raise ValueError("|M| must not exceed both L and L'")
    if (L + Lp) % 2 == 1 or abs(L - Lp) > 2:
        return 0.0
    if L == Lp:
        return (L * (L + 1) - 3 * M * M) / ((2 * L - 1) * (2 * L + 3))
    lo = min(L, Lp)
    return 3.0 / (2 * (2 * lo + 3)) * math.sqrt(
        ((lo + 1) ** 2 - M * M) * ((lo + 2) ** 2 - M * M) / ((2 * lo + 1) * (2 * lo + 5))
    )


@dataclass(frozen=True)
class ChannelBasis:
    """Channels sharing conserved M and L parity, ordered by increasing L."""

    channels: tuple[Channel, ...]
    m_projection: int
    parity: int
    l_max: int

    def __post_init__(self):
        if not self.channels:
            raise ValueError("basis must contain at least one channel")
        ells = [c.L for c in self.channels]
        if any(c.M != self.m_projection for c in self.channels):
            raise ValueError("all channels must share the basis projection M")
        if any(l % 2 != self.parity for l in ells):
            raise ValueError("all channels must share the basis parity")
        if any(b <= a for a, b in zip(ells, ells[1:])):
            raise ValueError("channel L values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.channels)

    def index(self, channel: Channel) -> int:
        return self.channels.index(channel)


def build_basis(m_projection: int, parity: int, l_max: int) -> ChannelBasis:
    """All |L, M> with L <= l_max, L parity fixed, |M| <= L."""
    if parity not in (0, 1):
        raise ValueError("parity must be 0 (even L) or 1 (odd L)")
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    l_start = max(parity, abs(m_projection))
    if (l_start % 2) != parity:
        l_start += 1
    channels = tuple(
        Channel(L, m_projection) for L in range(l_start, l_max + 1, 2)
    )
    if not channels:
        raise ValueError(
            f"empty basis: no L in [{parity}, {l_max}] with parity {parity} "
            f"supports M={m_projection}"
        )
    return ChannelBasis(channels, m_projection, parity, l_max)


@functools.lru_cache(maxsize=64)
def _coupling(basis: ChannelBasis) -> np.ndarray:
    n = len(basis)
    w = np.zeros((n, n))
    for i, ci in enumerate(basis.channels):
        for j in range(i, n):
            cj = basis.channels[j]
            w[i, j] = w[j, i] = p2_matrix_element(ci.L, cj.L, basis.m_projection)
    w.setflags(write=False)  # one cached array serves every caller
    return w


def potential_matrix(
    system: CollisionSystem,
    basis: ChannelBasis,
    r: float | np.ndarray,
    c3: float | np.ndarray | None = None,
) -> np.ndarray:
    """Interaction matrix W(R) in hartree, batched over radii and field.

    ``c3`` overrides the system's R^-3 strength, one value per point;
    ``r`` and ``c3`` broadcast against each other, and the result has
    their broadcast shape + (n, n): (n, n) for scalars, (len(r), n, n)
    for a 1-D r.
    """
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr > 0):
        raise ValueError("radius must be positive")
    c3_arr = np.asarray(system.c3 if c3 is None else c3, dtype=float)
    n = len(basis)
    ell = np.array([c.L for c in basis.channels], dtype=float)
    diag = (
        ell * (ell + 1.0) / (2.0 * system.reduced_mass * r_arr[..., None] ** 2)
        + C6_SIGN * system.c6 / r_arr[..., None] ** 6
    )
    w = -c3_arr[..., None, None] * _coupling(basis) / r_arr[..., None, None] ** 3
    w[..., np.arange(n), np.arange(n)] += diag
    return w


def symmetry_blocks(system: CollisionSystem, l_max: int) -> list[ChannelBasis]:
    """All non-empty (M >= 0, parity) blocks allowed by the exchange symmetry."""
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    out = []
    for parity in system.allowed_parities():
        for m in range(0, l_max + 1):
            try:
                out.append(build_basis(m, parity, l_max))
            except ValueError:
                continue  # no L of this parity supports this M
    return out


def _block_eigenvalues(
    system: CollisionSystem,
    basis: ChannelBasis,
    r: float | np.ndarray,
    c3: float | np.ndarray | None = None,
) -> np.ndarray:
    """Sorted eigenvalues of the block, shape broadcast(r, c3) + (n,).

    ``c3`` overrides the system's R^-3 strength per point, as in
    ``potential_matrix``; one batched diagonalization covers every point.
    A one-channel block needs none: its eigenvalue is the matrix element.
    """
    w = potential_matrix(system, basis, r, c3)
    return w[..., 0, :] if len(basis) == 1 else np.linalg.eigvalsh(w)


@dataclass
class AdiabaticCurve:
    """One adiabatic eigenvalue branch of a (M, parity) block.

    ``index`` is the rank of the eigenvalue within the block (0 = lowest);
    since curves of one block do not cross, the rank labels the curve at
    every radius.  As R -> infinity the centrifugal term orders the curves
    by L, so rank i correlates with the partial wave ``basis.channels[i]``.
    """

    system: CollisionSystem
    basis: ChannelBasis
    index: int
    r_grid: np.ndarray
    values: np.ndarray

    @property
    def channel(self) -> Channel:
        """The partial wave the curve correlates to as R -> infinity."""
        return self.basis.channels[self.index]

    def __call__(self, r: float | np.ndarray) -> float | np.ndarray:
        """Exact eigenvalue at arbitrary radius (re-diagonalizes the block)."""
        return _block_eigenvalues(self.system, self.basis, r)[..., self.index]


def adiabatic_curves(
    system: CollisionSystem, basis: ChannelBasis, r_grid: np.ndarray
) -> list[AdiabaticCurve]:
    """Diagonalize the block on a grid; curve i is the i-th lowest eigenvalue."""
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or len(r_grid) < 2:
        raise ValueError("r_grid must be a 1-D array with at least two points")
    if not np.all(np.diff(r_grid) > 0):
        raise ValueError("r_grid must be strictly increasing")
    try:
        vals = _block_eigenvalues(system, basis, r_grid)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on the block sampling: {exc}") from exc
    return [
        AdiabaticCurve(system, basis, idx, r_grid, vals[:, idx].copy())
        for idx in range(len(basis))
    ]


def single_channel_curve(
    system: CollisionSystem, channel: Channel, r_grid: np.ndarray | None = None
) -> AdiabaticCurve:
    """A one-channel adiabatic curve (exact, no diagonalization); by default on a grid
    wide enough for barrier bracketing."""
    basis = ChannelBasis((channel,), channel.M, channel.L % 2, channel.L)
    grid = np.geomspace(10.0, 10000.0, 800) if r_grid is None else r_grid
    (curve,) = adiabatic_curves(system, basis, grid)
    return curve


@dataclass(frozen=True)
class Barrier:
    """Location and height of a potential maximum (atomic units)."""

    r_top: float
    height: float


def find_barrier(curve: AdiabaticCurve, refine_iterations: int = 60) -> Barrier | None:
    """Locate the outermost positive maximum of an adiabatic curve.

    Returns None when the sampled curve has no positive local maximum (no
    barrier).  The maximum is refined by golden-section search on the exact
    eigenvalue, so the result is limited by machine precision, not by the
    sampling grid.
    """
    v = curve.values
    if v[-1] > v[-2] and v[-1] > 0:
        # a purely attractive tail rising toward zero is fine; a positive
        # rising edge means the grid stops before the barrier top
        raise GridError("curve still rising at the outer grid edge; extend the grid")
    inner = np.nonzero(
        (v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:]) & (v[1:-1] > 0)
    )[0]
    if len(inner) == 0:
        return None
    i = int(inner[-1]) + 1
    lo, hi = curve.r_grid[i - 1], curve.r_grid[i + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = curve(x1), curve(x2)
    for _ in range(refine_iterations):
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = curve(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = curve(x2)
        if hi - lo < 1e-12 * hi:
            break
    r_top = 0.5 * (lo + hi)
    return Barrier(r_top=r_top, height=float(curve(r_top)))
