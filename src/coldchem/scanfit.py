"""Grid sweeps over dipole and energy, resonance detection, and fitting.

A dipole scan propagates every eigenvalue rank of every symmetry-allowed
(M, parity) block at every grid point, rank i standing for the block's
channel i, and sums the quenching rates into a total loss rate versus
induced dipole moment; the points of a scan are the rows of one batched
in-process propagation.  Three analysis stages sit on top, on numpy alone:
peak detection against a running-median baseline, the confluent-series fit
for resonance positions (linear least squares refined by damped Gauss-Newton),
and the (s, y) short-range fit to measured rate-versus-dipole data.
"""
from __future__ import annotations

import csv
import itertools
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
# Each zoom of the fit's (delta_sr, y) grid divides its spacing by _ZOOM, down to _FINEST.
_ZOOM = 4
_FINEST = 1e-6
# Trials x rows x columns per chi2 evaluation of the table; each cell takes a few complex
# temporaries in ``evaluate``.
_TRIAL_CELLS = 8192


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
        (c, loss[..., j]) for j, c in enumerate(columns) if channels is None or c in channels
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
    axis, x, system, params, l_max, delta_sr, phase_overrides, energies, c3, grid,
    channels=None, energy=None, dipole=None,
) -> RateCurve:
    """Every point of a scan as one batch; a failure keeps the points before it.  The grid
    and delta_sr (by ``calibrate_phase``) are defaulted here, after the channel check."""
    blocks, columns = _blocks(system, l_max)
    if missing := sorted(set(channels or ()) - set(columns)):
        raise ValueError(f"channels {missing} are in no block of this system at l_max = {l_max}")
    grid = grid or RadialGrid()
    if delta_sr is None:
        delta_sr = calibrate_phase(system, params, grid)
    delta = _phases(columns, delta_sr, phase_overrides)

    def curve(stop: int) -> RateCurve:
        table = build_table(system, blocks, params.r_match, energies[:stop], c3[:stop], grid)
        _, loss = evaluate(table, params.y, delta)
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
    as the rows of one in-process batch.  The energy is checked before
    delta_sr is calibrated.
    """
    if not 0 < energy < math.inf:
        raise ValueError("collision energy must be finite and positive")
    d_values = np.asarray(d_values, dtype=float)
    if d_values.ndim != 1 or len(d_values) == 0:
        raise ValueError("d_values must be a non-empty 1-D array")
    if not np.all((0 <= d_values) & (d_values < np.inf)) or np.any(np.diff(d_values) <= 0):
        raise ValueError("d_values must be finite, non-negative and strictly increasing")
    return _run_scan(
        "dipole", d_values, system, params, l_max, delta_sr, phase_overrides,
        np.full(len(d_values), float(energy)), 2.0 * d_values**2, grid, energy=energy,
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
    if not np.all((0 < e_values) & (e_values < np.inf)) or np.any(np.diff(e_values) <= 0):
        raise ValueError("e_values must be finite, positive and strictly increasing")
    return _run_scan(
        "energy", e_values, system, params, l_max, delta_sr, phase_overrides,
        e_values, np.full(len(e_values), system.c3), grid,
        channels=None if channels is None else set(channels), dipole=system.dipole,
    )


# --- resonance detection and series fitting ---------------------------------


@dataclass(frozen=True)
class Resonance:
    """A detected rate peak: refined position, prominence, grid index."""

    position: float
    prominence: float
    index: int


def _running_median(v, window):
    """Upper median of the ``window`` samples from ``window // 2`` before each point, the
    end values repeated beyond the ends: ``scipy.ndimage.median_filter``, mode "nearest"."""
    half = window // 2
    padded = np.pad(v, (half, (window - 1) // 2), mode="edge")
    return np.partition(np.lib.stride_tricks.sliding_window_view(padded, window), half, 1)[:, half]


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
    if not prominence_factor > 1.0:
        raise ValueError("prominence_factor must exceed 1")
    if baseline_window < 1:
        raise ValueError("baseline_window must be a positive integer")
    v = np.asarray(curve.total, dtype=float)
    if len(v) < baseline_window:
        raise ValueError("curve has fewer points than the baseline window")
    x = np.asarray(curve.x, dtype=float)
    floor = np.max(v) * 1e-300 if np.max(v) > 0 else 1e-300
    v = np.maximum(v, floor)
    baseline = _running_median(v, baseline_window)
    out = []
    for i in range(1, len(v) - 1):
        if not (v[i] > v[i - 1] and v[i] >= v[i + 1]):
            continue
        prominence = v[i] / baseline[i]
        if prominence < prominence_factor:
            continue
        y0, y1, y2 = np.log(v[i - 1 : i + 2])
        denom = y0 - 2.0 * y1 + y2
        shift = min(0.5, max(-0.5, 0.5 * (y0 - y2) / denom)) if denom < 0 else 0.0
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

    Positions are assigned consecutive integers n = 0, 1, ... in order.  The fit
    minimizes the relative residuals x(n)/position - 1 with scale > 0, n_zero in
    [0, 1e3] and tail = n_infinity - n_last in [1e-9, 1e9].  It starts from the
    best of 181 tails on a log grid over the bounds, each with the least-squares
    (A, B) = (scale^2, scale^2 n_zero) of x^2 (n_infinity - n) = A n + B, weighted
    to relative residuals.  Damped Gauss-Newton (Levenberg-Marquardt) steps
    refine it, each clipped into the bounds.  FitError if the fit ends non-finite.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 1 or len(pos) < 4:
        raise ValueError("need at least 4 resonance positions")
    if not np.all(np.isfinite(pos) & (pos > 0)) or np.any(np.diff(pos) <= 0):
        raise ValueError("positions must be finite, positive and strictly increasing")
    n = np.arange(len(pos), dtype=float)
    bounds = np.array([[1e-300, 0.0, 1e-9], [np.inf, 1e3, 1e9]])  # of scale, n_zero, tail

    def residuals(p):  # relative; p is one parameter row or a stack of rows
        scale, n_zero, tail = p.T[..., None]
        return scale * np.sqrt((n_zero + n) / (n[-1] + tail - n)) / pos - 1.0

    try:
        with np.errstate(all="ignore"):  # a start or step off the domain costs nan and loses
            tail = np.logspace(-9, 9, 181)[:, None]
            w = 1.0 / (pos**2 * (n[-1] + tail - n))  # (A n + B) w = 1 at a perfect fit
            a, b = (np.linalg.pinv(np.stack([n * w, w], axis=-1)) @ np.ones_like(pos)).T
            start = np.clip(np.column_stack([np.sqrt(a), b / a, tail[:, 0]]), *bounds)
            p = start[np.argmin(np.nan_to_num(np.sum(residuals(start) ** 2, axis=1), nan=np.inf))]
            r, damping = residuals(p), 1e-3
            for _ in range(200):
                jac = (r + 1.0) * np.array(np.broadcast_arrays(  # row k: d r / d p[k]
                    1.0 / p[0], 0.5 / (p[1] + n), -0.5 / (n[-1] + p[2] - n)))
                hess = jac @ jac.T * (1.0 + damping * np.eye(3))  # Marquardt's scaled damping
                trial = np.clip(p - np.linalg.solve(hess, jac @ r), *bounds)
                gain = r @ r - (r_trial := residuals(trial)) @ r_trial
                if gain > 0:
                    p, r = trial, r_trial
                damping = max(damping / 10, 1e-12) if gain > 0 else damping * 10
                if 0 < gain <= 1e-15 * (r @ r) or damping > 1e12:
                    break
    except np.linalg.LinAlgError as exc:  # weights or steps beyond float range
        raise FitError(f"resonance-series fit failed: {exc}") from exc
    if not np.all(np.isfinite(r)):
        raise FitError("resonance-series fit ended non-finite")
    return SeriesFit(scale=float(p[0]), n_zero=float(p[1]), n_infinity=float(n[-1] + p[2]),
                     residual_rms=float(np.sqrt(np.mean(r**2))))


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
        if not np.all((d >= 0) & np.isfinite(d)):
            raise ValueError("dipole moments must be finite and non-negative")
        if not np.all((k > 0) & np.isfinite(k)):
            raise ValueError("rates must be finite and positive")
        if self.sigma_cm3s is not None:
            s = np.asarray(self.sigma_cm3s, dtype=float)
            object.__setattr__(self, "sigma_cm3s", s)
            if s.shape != d.shape:
                raise ValueError("sigma column length mismatch")
            if not np.all((s > 0) & np.isfinite(s)):
                raise ValueError("uncertainties must be finite and positive")

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
    energy_fraction: float = 1e-4,
    tolerance: float = 1e-3,
) -> ShortRangeFit:
    """Weighted least squares of (a subset of) s and y on log rates.

    s enters only through delta_sr(s), which maps it onto [0, pi), and y lies
    in [0, 1], so ``_grid_search`` covers the whole model, each grid one
    batched evaluation of the long-range table (``_fit_objective``).  The
    initial values of the fitted parameters are not used as a start; the
    others are held fixed.  The best delta_sr is reported as s by the forward
    map of the calibration, whose round-trip check (``tolerance``) guards
    every s evaluated after the search.  The covariance is twice the inverse
    Hessian at the minimum of the quadratic through chi-squared on a 3 x 3
    (s, y) patch of steps max(0.02, 0.02 |x|), one-sided in y within a step of
    a bound; the quadratics of the axes are multiplied out, so on a centred
    patch these are central differences.  It is scaled by the reduced
    chi-squared when the dataset carries no uncertainties.  A best y within
    1e-3 of a bound is flagged.  ``energy_fraction`` and ``tolerance`` are
    those of ``calibrate_phase``.
    """
    if not fit or any(name not in ("s", "y") for name in fit):
        raise ValueError("fit must be a non-empty subset of ('s', 'y')")
    if len(set(fit)) != len(fit):
        raise ValueError("fit names must be unique")
    chi2, phase, s_of = _fit_objective(
        dataset, system, energy, initial.r_match, grid or RadialGrid(), l_max, energy_fraction,
        tolerance,
    )
    delta, y, evaluations = _grid_search(
        chi2, None if "s" in fit else phase(initial.s),
        None if "y" in fit else initial.y,
    )
    best = {"s": float(s_of(delta)) if "s" in fit else initial.s, "y": y}
    x = np.array([best[name] for name in fit])
    h = np.maximum(0.02, 0.02 * np.abs(x))
    u = np.array(list(itertools.product(*(
        np.arange(-1, 2) + (name == "y") * (int(xi < hi) - int(xi > 1.0 - hi))
        for name, xi, hi in zip(fit, x, h)
    ))))
    patch = {**best, **dict(zip(fit, (x + u * h).T))}
    s_patch, back = np.unique(np.broadcast_to(patch["s"], len(u)), return_inverse=True)
    values = chi2(np.broadcast_to(patch["y"], len(u)),
                  np.array([phase(s) for s in s_patch])[back])
    chi2_min = float(values[~u.any(axis=1)][0])
    powers = np.array(list(itertools.product(range(3), repeat=len(fit))))
    coef = np.linalg.solve(np.prod(u[:, None] ** powers, axis=-1), values)
    coef = coef.reshape((3,) * len(fit))
    unit = np.eye(len(fit), dtype=int)
    hess = np.array([[coef[tuple(i + j)] for j in unit] for i in unit])
    hess = (hess + np.diag(np.diag(hess))) / np.outer(h, h)
    cov = 2.0 * np.linalg.pinv(hess)
    if dataset.sigma_cm3s is None:
        # the reduced chi-squared estimates the data variance; an exact fit
        # bounds it only by the rounding of the log rates
        cov = cov * max(chi2_min / max(len(dataset) - len(fit), 1), np.finfo(float).eps ** 2)
    return ShortRangeFit(
        params=ShortRangeParams(s=best["s"], y=y, r_match=initial.r_match),
        fitted=tuple(fit),
        values=x,
        covariance=cov,
        chi2=chi2_min,
        n_points=len(dataset),
        n_evaluations=evaluations + len(values),
        on_bound="y" in fit and not 1e-3 <= y <= 1.0 - 1e-3,
    )


def _fit_objective(dataset, system, energy, r_match, grid, l_max, energy_fraction, tolerance):
    """``chi2(y, delta)`` of 1-D arrays of trials, and ``_phase_calibration``'s maps.

    The long range is propagated once, at the dataset's dipoles and for the
    calibration; ``chi2`` evaluates the table at most _TRIAL_CELLS trials x
    rows x columns at a time.
    """
    d_unique, inverse = np.unique(units.dipole_from_debye(dataset.d_debye), return_inverse=True)
    log_obs = np.log(units.rate_from_cm3_per_s(dataset.rate_cm3s))
    if dataset.sigma_cm3s is not None:
        weights = dataset.sigma_cm3s / dataset.rate_cm3s  # sigma of log K
    else:
        weights = np.ones(len(dataset))
    blocks, columns = _blocks(system, l_max)
    energies = np.full(len(d_unique), float(energy))
    try:  # the table first, so that it checks the energy before any calibration
        table = build_table(system, blocks, r_match, energies, 2.0 * d_unique**2, grid)
        phase, s_of = _phase_calibration(system, r_match, grid, energy_fraction, tolerance)
    except ColdchemError as exc:
        raise FitError(f"long-range propagation failed: {exc}") from exc
    chunk = max(1, _TRIAL_CELLS // (len(d_unique) * len(columns)))

    def chi2(y: np.ndarray, delta: np.ndarray) -> np.ndarray:
        out = []
        for start in range(0, len(y), chunk):
            trials = slice(start, start + chunk)
            try:
                _, loss = evaluate(table, y[trials, None, None], delta[trials, None, None])
            except ColdchemError as exc:
                raise FitError(f"objective evaluation failed: {exc}") from exc
            total = _rate_curve(
                "dipole", d_unique, system, columns, loss, energies, None, energy, None
            ).total
            r = (np.log(np.maximum(total[:, inverse], 1e-300)) - log_obs) / weights
            out.append(np.einsum("ij,ij->i", r, r))
        return np.concatenate(out)

    return chi2, phase, s_of


def _grid_search(chi2, delta, y):
    """Best (delta_sr, y) of ``chi2`` and the number of trials; a value given is held fixed.

    The coarse grid spans delta_sr over [0, pi) in 60 points and y over [0, 1]
    in 21.  Each zoom spans the last spacing either side of the best point in
    2 _ZOOM + 1 points per fitted axis, y clipped into [0, 1]; a best point on
    the edge of a zoom, and not on a bound of y, moves it at the same spacing.
    Zooming stops at spacings of _FINEST.  chi2 is pi-periodic in delta_sr.
    """
    fitted = [delta is None, y is None]
    step = np.array([math.pi / 60, 1.0 / 20]) * fitted
    best = np.array([delta or 0.0, y or 0.0])
    offsets = [np.arange(n) if f else np.zeros(1) for n, f in zip((60, 21), fitted)]
    zoom = [np.arange(-_ZOOM, _ZOOM + 1) if f else np.zeros(1) for f in fitted]
    centre, evaluations = -math.inf, 0
    while True:
        axes = [best[0] + step[0] * offsets[0], np.clip(best[1] + step[1] * offsets[1], 0.0, 1.0)]
        d, yy = np.meshgrid(*axes, indexing="ij")
        values = chi2(yy.ravel(), d.ravel())
        evaluations += values.size
        index = np.unravel_index(np.argmin(values), d.shape)
        best, offsets = np.array([d[index], yy[index]]), zoom
        edge = [0 < len(a) - 1 and i in (0, len(a) - 1) for a, i in zip(axes, index)]
        if values.min() < centre and (edge[0] or edge[1] and 0.0 < best[1] < 1.0):
            centre = values.min()  # the minimum lies beyond this zoom
        elif step.max() <= _FINEST:
            return float(best[0]), float(best[1]), evaluations
        else:
            centre, step = values.min(), step / _ZOOM
