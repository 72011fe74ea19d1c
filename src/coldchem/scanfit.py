"""Grid sweeps over dipole and energy, resonance detection, and fitting.

A dipole scan propagates every eigenvalue rank of every symmetry-allowed
(M, parity) block at every grid point, rank i standing for the block's
channel i, and sums the quenching rates into a total loss rate versus
induced dipole moment.  The points of a scan are the rows of one batched
propagation, run in-process.  On top of the scans sit three analysis stages:
peak detection against a running-median baseline, the confluent-series fit
for resonance positions, and the (s, y) short-range fit to measured
rate-versus-dipole data.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import units
from .errors import ColdchemError, FitError, ScanError
from .potential import Channel, CollisionSystem, symmetry_blocks
from .propagator import (
    RadialGrid,
    _phase_calibration,
    _point_results,
    _rate_prefactor,
    build_table,
    calibrate_phase,
    evaluate,
)
from .qdt import ScatteringResult, ShortRangeParams

DEFAULT_L_MAX = 7


def _channel_weight(channel: Channel) -> int:
    # blocks are built for M >= 0 only; M > 0 stands for the +/-M pair
    return 2 if channel.M > 0 else 1


def _blocks(system, l_max):
    """Every (M, parity) block with all its ranks, and the channel of each column."""
    blocks = [(basis, range(len(basis))) for basis in symmetry_blocks(system, l_max)]
    return blocks, [basis.channels[i] for basis, ranks in blocks for i in ranks]


def _phases(columns, delta_sr, phase_overrides):
    """Each column's delta_sr: ``phase_overrides`` where it names the channel."""
    overrides = phase_overrides or {}
    return np.array([overrides.get(c, delta_sr) for c in columns], dtype=float)


def rate_point(
    system: CollisionSystem,
    params: ShortRangeParams,
    delta_sr: float,
    energy: float,
    grid: RadialGrid | None = None,
    l_max: int = DEFAULT_L_MAX,
    phase_overrides: dict[Channel, float] | None = None,
) -> dict[Channel, ScatteringResult]:
    """Scattering results for every channel (M >= 0) at one (E, d) point.

    The point is a batch of one row: every (M, parity) block is propagated
    over all its eigenvalue ranks, rank i standing for
    ``basis.channels[i]``; ``phase_overrides`` replaces delta_sr for the
    channels it names.  Rates in the returned results are per channel; the
    +/-M degeneracy weight is applied by the scan aggregation, not here.
    """
    blocks, columns = _blocks(system, l_max)
    results = _point_results(
        system, blocks, _phases(columns, delta_sr, phase_overrides), params, energy,
        grid or RadialGrid(),
    )
    return {Channel(res.L, res.M): res for res in results}


@dataclass
class RateCurve:
    """Total and per-channel quenching rates along a scan axis.

    ``x`` is the dipole moment in atomic units for axis "dipole" and the
    collision energy in hartree for axis "energy".  Channels are keyed with
    M >= 0 and their rates include the factor 2 for the +/-M degeneracy, so
    the total is the plain sum of the per-channel arrays.  ``loss`` stores
    the unweighted single-channel loss probabilities.
    """

    axis: str
    x: np.ndarray
    total: np.ndarray
    per_channel: dict[Channel, np.ndarray]
    loss: dict[Channel, np.ndarray] = field(default_factory=dict)
    energy: float | None = None
    dipole: float | None = None

    def validate(self) -> None:
        s = sum(self.per_channel.values())
        if not np.allclose(s, self.total, rtol=1e-12, atol=0):
            raise AssertionError("per-channel rates do not sum to the total")
        if np.any(self.total < 0):
            raise AssertionError("negative total rate")

    def channels(self) -> list[Channel]:
        return sorted(self.per_channel)


def _rate_curve(axis, x, system, columns, loss, energies, channels, energy, dipole):
    """RateCurve of a scan from the loss of every column (channel) at every row."""
    pref = _rate_prefactor(system, np.sqrt(2.0 * system.reduced_mass * energies))
    kept = sorted((
        (c, loss[:, j]) for j, c in enumerate(columns) if channels is None or c in channels
    ), key=lambda column: column[0])
    per_channel = {c: _channel_weight(c) * (pref * p_loss) for c, p_loss in kept}
    total = sum(per_channel.values()) if per_channel else np.zeros(len(x))
    return RateCurve(
        axis=axis,
        x=np.asarray(x, dtype=float),
        total=total,
        per_channel=per_channel,
        loss=dict(kept),
        energy=energy,
        dipole=dipole,
    )


def _run_scan(
    axis, x, system, params, l_max, delta_sr, phase_overrides, energies, c3, grid, where,
    channels=None, energy=None, dipole=None,
) -> RateCurve:
    """Every point of a scan as one batch; a failure keeps the points before it."""
    blocks, columns = _blocks(system, l_max)
    delta = _phases(columns, delta_sr, phase_overrides)

    def curve(stop: int) -> RateCurve:
        table = build_table(
            system, blocks, params.r_match, energies[:stop], c3[:stop], grid, where[:stop]
        )
        _, loss, _ = evaluate(table, params.y, delta)
        return _rate_curve(
            axis, x[:stop], system, columns, loss, energies[:stop], channels, energy, dipole
        )

    try:
        result = curve(len(x))
    except ColdchemError as exc:
        failure, partial = exc, None
        while failure.row:  # the points before the failing one may still complete
            try:
                partial = curve(failure.row)
                break
            except ColdchemError as earlier:
                failure = earlier
        done = 0 if partial is None else len(partial.x)
        raise ScanError(
            f"{axis} scan aborted after {done} of {len(x)} points: {failure}",
            partial=partial,
        ) from failure
    result.validate()
    return result


def scan_dipole(
    system: CollisionSystem,
    params: ShortRangeParams,
    energy: float,
    d_values,
    grid: RadialGrid | None = None,
    l_max: int = DEFAULT_L_MAX,
    threads: int = 1,
    delta_sr: float | None = None,
    phase_overrides: dict[Channel, float] | None = None,
) -> RateCurve:
    """Total loss rate versus induced dipole moment at fixed energy.

    ``d_values`` are in atomic units, non-negative and increasing; the
    system's own dipole field is ignored and replaced point by point.
    ``threads`` is accepted for compatibility and ignored: the points run
    as the rows of one in-process batch.
    """
    d_values = np.asarray(d_values, dtype=float)
    if d_values.ndim != 1 or len(d_values) == 0:
        raise ValueError("d_values must be a non-empty 1-D array")
    if np.any(d_values < 0) or np.any(np.diff(d_values) <= 0):
        raise ValueError("d_values must be non-negative and strictly increasing")
    if energy <= 0:
        raise ValueError("collision energy must be positive")
    grid = grid or RadialGrid()
    if delta_sr is None:
        delta_sr = calibrate_phase(system, params, grid)
    return _run_scan(
        "dipole", d_values, system, params, l_max, delta_sr, phase_overrides,
        np.full(len(d_values), float(energy)), 2.0 * d_values**2, grid,
        [f"d = {d:.6g} a.u." for d in d_values], energy=energy,
    )


def scan_energy(
    system: CollisionSystem,
    params: ShortRangeParams,
    e_values,
    grid: RadialGrid | None = None,
    l_max: int = DEFAULT_L_MAX,
    delta_sr: float | None = None,
    channels: list[Channel] | None = None,
    phase_overrides: dict[Channel, float] | None = None,
) -> RateCurve:
    """Per-channel loss probabilities and rates over an energy grid."""
    e_values = np.asarray(e_values, dtype=float)
    if e_values.ndim != 1 or len(e_values) == 0:
        raise ValueError("e_values must be a non-empty 1-D array")
    if np.any(e_values <= 0) or np.any(np.diff(e_values) <= 0):
        raise ValueError("e_values must be positive and strictly increasing")
    grid = grid or RadialGrid()
    if delta_sr is None:
        delta_sr = calibrate_phase(system, params, grid)
    return _run_scan(
        "energy", e_values, system, params, l_max, delta_sr, phase_overrides,
        e_values, np.full(len(e_values), system.c3), grid,
        [f"E = {e:.6g} hartree" for e in e_values],
        channels=None if channels is None else set(channels), dipole=system.dipole,
    )


# --- resonance detection and series fitting ---------------------------------


@dataclass(frozen=True)
class Resonance:
    """A detected rate peak: refined position, prominence, grid index."""

    position: float
    prominence: float
    index: int


def detect_resonances(
    curve: RateCurve,
    prominence_factor: float = 1.5,
    baseline_window: int = 15,
) -> list[Resonance]:
    """Local maxima of the total rate standing above a running-median baseline.

    The median window makes the baseline follow the steep universal
    background without being dragged up by narrow peaks; positions are
    refined by a parabola through the three log-rate samples around each
    maximum.  An empty list is a perfectly valid outcome (washed-out
    spectra).
    """
    from scipy import ndimage

    if prominence_factor <= 1.0:
        raise ValueError("prominence_factor must exceed 1")
    v = np.asarray(curve.total, dtype=float)
    if len(v) < baseline_window:
        raise ValueError("curve has fewer points than the baseline window")
    x = np.asarray(curve.x, dtype=float)
    floor = np.max(v) * 1e-300 if np.max(v) > 0 else 1e-300
    v = np.maximum(v, floor)
    baseline = ndimage.median_filter(v, size=baseline_window, mode="nearest")
    out = []
    for i in range(1, len(v) - 1):
        if not (v[i] > v[i - 1] and v[i] >= v[i + 1]):
            continue
        prominence = v[i] / baseline[i]
        if prominence < prominence_factor:
            continue
        y0, y1, y2 = np.log(v[i - 1 : i + 2])
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            shift = 0.5 * (y0 - y2) / denom
            shift = min(0.5, max(-0.5, shift))
        else:
            shift = 0.0
        spacing = 0.5 * (x[i + 1] - x[i - 1])
        out.append(Resonance(position=x[i] + shift * spacing,
                             prominence=float(prominence), index=i))
    return out


@dataclass(frozen=True)
class SeriesFit:
    """Parameters of the confluent resonance-position series."""

    scale: float
    n_zero: float
    n_infinity: float
    residual_rms: float


def fit_resonance_series(positions) -> SeriesFit:
    """Fit x(n) = scale * sqrt((n_zero + n)/(n_infinity - n)) to positions.

    Positions are assigned consecutive integers n = 0, 1, ... in order; the
    fit minimizes relative residuals with several starts of the accumulation
    index to escape its shallow valley.
    """
    from scipy import optimize

    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 1 or len(pos) < 4:
        raise ValueError("need at least 4 resonance positions")
    if np.any(pos <= 0) or np.any(np.diff(pos) <= 0):
        raise ValueError("positions must be positive and strictly increasing")
    count = len(pos)
    n = np.arange(count, dtype=float)

    def residuals(p):
        scale, n_zero, tail = p
        model = scale * np.sqrt((n_zero + n) / (count - 1 + tail - n))
        return model / pos - 1.0

    best = None
    for tail0 in (0.5, 1.0, 3.0, 8.0, 20.0, 60.0):
        root0 = math.sqrt(0.5 / (count - 1 + tail0))
        p0 = np.array([pos[0] / root0, 0.5, tail0])
        try:
            res = optimize.least_squares(
                residuals,
                p0,
                bounds=([1e-300, 0.0, 1e-9], [np.inf, 1e3, 1e9]),
                xtol=1e-14,
                ftol=1e-14,
                gtol=1e-14,
            )
        except Exception:  # noqa: BLE001 - a failed start is not fatal
            continue
        if not np.all(np.isfinite(res.x)):
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise FitError("resonance-series fit failed from every starting point")
    scale, n_zero, tail = best.x
    rms = float(np.sqrt(np.mean(best.fun**2)))
    return SeriesFit(
        scale=float(scale),
        n_zero=float(n_zero),
        n_infinity=float(count - 1 + tail),
        residual_rms=rms,
    )


# --- dataset ingestion and the (s, y) fit ------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Measured loss rates versus dipole moment, in laboratory units."""

    d_debye: np.ndarray
    rate_cm3s: np.ndarray
    sigma_cm3s: np.ndarray | None = None
    provenance: str = ""

    def __post_init__(self):
        d = np.asarray(self.d_debye, dtype=float)
        k = np.asarray(self.rate_cm3s, dtype=float)
        object.__setattr__(self, "d_debye", d)
        object.__setattr__(self, "rate_cm3s", k)
        if d.ndim != 1 or len(d) == 0 or k.shape != d.shape:
            raise ValueError("dataset needs matching non-empty d and K columns")
        if np.any(d < 0):
            raise ValueError("dipole moments must be non-negative")
        if np.any(k <= 0):
            raise ValueError("rates must be positive")
        if self.sigma_cm3s is not None:
            s = np.asarray(self.sigma_cm3s, dtype=float)
            object.__setattr__(self, "sigma_cm3s", s)
            if s.shape != d.shape:
                raise ValueError("sigma column length mismatch")
            if np.any(s <= 0):
                raise ValueError("uncertainties must be positive")

    def __len__(self) -> int:
        return len(self.d_debye)


def load_dataset(path: str) -> Dataset:
    """Read a `d_debye,K_cm3_s[,sigma]` CSV; `#` lines are comments."""
    rows = []
    header = None
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (raw[0].lstrip().startswith("#")):
                continue
            cells = [c.strip() for c in raw]
            if header is None:
                header = cells
                if header[:2] != ["d_debye", "K_cm3_s"] or len(header) > 3 or (
                    len(header) == 3 and header[2] != "sigma"
                ):
                    raise ValueError(
                        f"{path}: expected header d_debye,K_cm3_s[,sigma], got "
                        + ",".join(header)
                    )
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}:{lineno}: wrong number of columns")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if header is None or not rows:
        raise ValueError(f"{path}: no data rows found")
    data = np.asarray(rows, dtype=float)
    sigma = data[:, 2] if data.shape[1] == 3 else None
    return Dataset(
        d_debye=data[:, 0], rate_cm3s=data[:, 1], sigma_cm3s=sigma, provenance=path
    )


@dataclass(frozen=True)
class ShortRangeFit:
    """Outcome of the (s, y) fit: best parameters and quality measures."""

    params: ShortRangeParams
    fitted: tuple[str, ...]
    values: np.ndarray
    covariance: np.ndarray
    chi2: float
    n_points: int
    n_evaluations: int
    on_bound: bool


def fit_short_range(
    dataset: Dataset,
    system: CollisionSystem,
    energy: float,
    initial: ShortRangeParams,
    fit: tuple[str, ...] = ("y",),
    grid: RadialGrid | None = None,
    l_max: int = DEFAULT_L_MAX,
    max_iterations: int = 200,
    energy_fraction: float = 1e-4,
    tolerance: float = 1e-3,
) -> ShortRangeFit:
    """Weighted least squares of (a subset of) s and y on log rates.

    The long range is propagated once: ``build_table`` at the dataset's
    dipole values, and the bare s wave that calibrates delta_sr.  Each
    objective evaluation takes delta_sr(s) in closed form and evaluates the
    table at (y, delta_sr), with no propagation.  Chi-squared is minimized by
    the Nelder-Mead simplex (``_nelder_mead``) from a simplex of steps 0.25
    in s and 0.1 in y, to 1e-4 in the parameters and 1e-6 in chi-squared.
    The objective reflects y into [0, 1], y -> 1 - |1 - (y mod 2)|, so the
    optimizer meets a mirror image at each bound rather than a plateau
    beyond it; a best fit sitting on a bound is flagged.  The covariance
    comes from a finite-difference Hessian of chi-squared at the optimum
    (scaled by the reduced chi-squared when the dataset carries no
    uncertainties).  ``energy_fraction`` and ``tolerance`` are those of
    ``calibrate_phase``.
    """
    if not fit or any(name not in ("s", "y") for name in fit):
        raise ValueError("fit must be a non-empty subset of ('s', 'y')")
    if len(set(fit)) != len(fit):
        raise ValueError("fit names must be unique")
    grid = grid or RadialGrid()
    d_au = units.dipole_from_debye(dataset.d_debye)
    d_unique, inverse = np.unique(d_au, return_inverse=True)
    log_obs = np.log(units.rate_from_cm3_per_s(dataset.rate_cm3s))
    if dataset.sigma_cm3s is not None:
        weights = dataset.sigma_cm3s / dataset.rate_cm3s  # sigma of log K
    else:
        weights = np.ones(len(dataset))
    blocks, columns = _blocks(system, l_max)
    energies = np.full(len(d_unique), float(energy))
    where = [f"d = {d:.6g} a.u." for d in d_unique]
    try:
        table = build_table(
            system, blocks, initial.r_match, energies, 2.0 * d_unique**2, grid, where
        )
        phase = _phase_calibration(system, initial.r_match, grid, energy_fraction)
    except ColdchemError as exc:
        raise FitError(f"long-range propagation failed: {exc}") from exc
    evaluations = 0

    def chi2_at(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        trial = {"s": initial.s, "y": initial.y}
        for name, val in zip(fit, x):
            trial[name] = float(val)
        params = ShortRangeParams(
            s=trial["s"], y=_reflect_unit(trial["y"]), r_match=initial.r_match
        )
        try:
            _, loss, _ = evaluate(table, params.y, phase(params.s, tolerance))
        except ColdchemError as exc:
            raise FitError(
                f"objective evaluation failed at s = {params.s:.6g}, "
                f"y = {params.y:.6g}: {exc}"
            ) from exc
        curve = _rate_curve(
            "dipole", d_unique, system, columns, loss, energies, None, energy, None
        )
        log_model = np.log(np.maximum(curve.total[inverse], 1e-300))
        r = (log_model - log_obs) / weights
        return float(np.dot(r, r))

    x0 = np.array([getattr(initial, name) for name in fit], dtype=float)
    best = _nelder_mead(chi2_at, _initial_simplex(x0, fit), max_iterations, 1e-4, 1e-6)
    names = dict(zip(fit, best))
    if "y" in names:
        names["y"] = _reflect_unit(names["y"])
        best[fit.index("y")] = names["y"]
    params_best = ShortRangeParams(
        s=float(names.get("s", initial.s)), y=float(names.get("y", initial.y)),
        r_match=initial.r_match,
    )
    chi2_min = chi2_at(best)
    on_bound = "y" in names and (names["y"] < 1e-3 or names["y"] > 1.0 - 1e-3)
    cov = _fd_covariance(chi2_at, best, chi2_min, len(dataset), dataset.sigma_cm3s is not None)
    return ShortRangeFit(
        params=params_best,
        fitted=tuple(fit),
        values=best,
        covariance=cov,
        chi2=chi2_min,
        n_points=len(dataset),
        n_evaluations=evaluations,
        on_bound=on_bound,
    )


def _reflect_unit(y: float) -> float:
    """y reflected into [0, 1] at both ends; values inside are kept exactly."""
    y = y % 2.0
    return 2.0 - y if y > 1.0 else y


def _nelder_mead(f, simplex: np.ndarray, max_iterations: int, xatol: float, fatol: float):
    """Minimum of f by the Nelder-Mead simplex (Nelder and Mead, Comput. J. 7, 308 (1965)).

    Reflection, expansion, contraction and shrink coefficients are 1, 2, 1/2
    and 1/2.  The vertex order, the stopping test and the max_iterations - 1
    iterations follow scipy.optimize's Nelder-Mead step for step, so f is
    evaluated at the same points; it gets a copy of each.
    """
    sim = np.array(simplex, dtype=float)
    fsim = np.array([f(v.copy()) for v in sim])

    def vertex(t):  # (1 + t) * centroid - t * worst, and f there
        x = (1.0 + t) * xbar - t * sim[-1]
        return x, f(x.copy())

    for i in range(max_iterations + 1):
        order = np.argsort(fsim)  # the first simplex is sorted twice, as in scipy
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
        if i == 0:
            continue
        if i == max_iterations or (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                                   and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / (len(sim) - 1)
        trial = xr, fxr = vertex(1.0)
        if fxr < fsim[0]:
            xe, fxe = vertex(2.0)
            trial = (xe, fxe) if fxe < fxr else trial
        elif fxr >= fsim[-2]:  # contraction, outside or inside
            outside = fxr < fsim[-1]
            xc, fxc = vertex(0.5 if outside else -0.5)
            trial = (xc, fxc) if (fxc <= fxr if outside else fxc < fsim[-1]) else None
        if trial is None:  # shrink towards the best vertex
            for j in range(1, len(sim)):
                sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                fsim[j] = f(sim[j].copy())
        else:
            sim[-1], fsim[-1] = trial
    return sim[0]


def _initial_simplex(x0: np.ndarray, fit: tuple[str, ...]) -> np.ndarray:
    steps = {"s": 0.25, "y": 0.1}
    simplex = np.tile(x0, (len(x0) + 1, 1))
    for i, name in enumerate(fit):
        step = steps[name]
        if name == "y" and x0[i] + step > 1.0:
            step = -step
        simplex[i + 1, i] += step
    return simplex


def _fd_covariance(
    objective, x: np.ndarray, f0: float, n_points: int, has_sigma: bool
) -> np.ndarray:
    """Covariance from a central-difference Hessian of chi-squared."""
    p = len(x)
    h = np.maximum(0.02, 0.02 * np.abs(x))
    hess = np.empty((p, p))
    f_plus = np.empty(p)
    f_minus = np.empty(p)
    for i in range(p):
        e = np.zeros(p)
        e[i] = h[i]
        f_plus[i] = objective(x + e)
        f_minus[i] = objective(x - e)
        hess[i, i] = (f_plus[i] - 2.0 * f0 + f_minus[i]) / h[i] ** 2
    for i in range(p):
        for j in range(i + 1, p):
            ei = np.zeros(p)
            ej = np.zeros(p)
            ei[i] = h[i]
            ej[j] = h[j]
            fpp = objective(x + ei + ej)
            fpm = objective(x + ei - ej)
            fmp = objective(x - ei + ej)
            fmm = objective(x - ei - ej)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    try:
        cov = 2.0 * np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        cov = 2.0 * np.linalg.pinv(hess)
    if not has_sigma:
        # the reduced chi-squared estimates the data variance; an exact fit
        # bounds it only by the rounding of the log rates
        dof = max(n_points - p, 1)
        cov = cov * max(f0 / dof, np.finfo(float).eps ** 2)
    return cov
