"""The three benchmark workloads: seeded inputs and output checks.

Every workload is one ``coldchem`` CLI command on ``configs/krb.conf``.
The seed moves the dipole and energy grids by a sub-step offset, which is
zero at ``DEFAULT_SEED``, and draws the noise of the ``fit_sy`` dataset.
At the default seed the grids are the shipped ones and the ``fit_sy``
dataset is the one of acceptance criterion 9, and the ``rates_krb`` and
``ploss_wide`` data rows are compared with references recorded from the
same commands.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 7
CONFIG = "configs/krb.conf"
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# gate 10's bound for step halving, used for the reference comparison
REFERENCE_RTOL = 1e-3
REFERENCE_FLOOR = 1e-6  # cells below this share of the row total are skipped
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# the fit dataset of acceptance criterion 9
FIT_TRUTH = (0.5, 0.83)
FIT_START = (0.5, 0.5)
FIT_NOISE = 0.1


def grid_offset(seed: int) -> float:
    """Sub-step shift of the scan grids in [0, 1), zero at the default seed."""
    return ((seed - DEFAULT_SEED) * _GOLDEN) % 1.0


@dataclass
class Inputs:
    """What one operation of a workload sends to the program."""

    sets: list
    expected: dict


# --- input generation ---------------------------------------------------------


def rates_inputs(seed: int, smoke: bool) -> Inputs:
    n, d_max, l_max = (21, 0.5, 3) if smoke else (201, 0.5, 7)
    step = d_max / (n - 1)
    d_min = grid_offset(seed) * step
    d = [d_min + i * step for i in range(n)]
    sets = [
        f"d_min_debye={d_min!r}",
        f"d_max_debye={d_min + d_max!r}",
        f"n_dipole={n}",
        f"l_max={l_max}",
    ]
    return Inputs(sets, {"d": d})


def ploss_inputs(seed: int, smoke: bool) -> Inputs:
    n = 20 if smoke else 1000
    e_min, e_max = 0.002, 2400.0
    ratio = (e_max / e_min) ** (1.0 / (n - 1))
    shift = ratio ** grid_offset(seed)
    sets = [
        "dipole_debye=0.0",
        "ploss_l_values=0,1,2,3",
        f"e_min_uk={e_min * shift!r}",
        f"e_max_uk={e_max * shift!r}",
        f"n_energy={n}",
    ]
    return Inputs(sets, {"rows": 4 * n})


class FixedInputs:
    """The same inputs for every operation of a run."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs

    def next_inputs(self, path: str) -> Inputs:
        return self.inputs


class FitData:
    """Truth rates of the fit dataset; each operation draws fresh noise.

    The truth is computed by the package under test at (s, y) = FIT_TRUTH
    before any timing, exactly as ``coldchem fit`` evaluates its model.
    """

    def __init__(self, seed: int, smoke: bool):
        from coldchem import ShortRangeParams, scan_dipole, units
        from coldchem.cli import resolve_config

        n, l_max = (4, 1) if smoke else (8, 3)
        self.l_max = l_max
        step = 0.2 / 7
        offset = grid_offset(seed) * step
        self.d = [float(x) + offset for x in np.linspace(0.04, 0.24, n)]
        config = resolve_config(CONFIG, [])
        params = ShortRangeParams(s=FIT_TRUTH[0], y=FIT_TRUTH[1], r_match=config["_params"].r_match)
        energy = units.energy_from_microkelvin(config["energy_nk"] * 1e-3)
        curve = scan_dipole(
            config["_system"], params, energy, units.dipole_from_debye(np.array(self.d)),
            grid=config["_grid"], l_max=l_max, threads=1,
        )
        self.k_true = units.rate_to_cm3_per_s(curve.total)
        self.rng = np.random.default_rng(seed)

    def next_inputs(self, path: str) -> Inputs:
        k_obs = self.k_true * (1.0 + FIT_NOISE * self.rng.standard_normal(len(self.d)))
        rows = [(repr(d), repr(float(k)), repr(float(FIT_NOISE * k))) for d, k in zip(self.d, k_obs)]
        with open(path, "w") as fh:
            fh.write("d_debye,K_cm3_s,sigma\n")
            fh.writelines(",".join(r) + "\n" for r in rows)
        # chi-squared of the truth against this dataset, as the program defines it
        obs = np.array([float(r[1]) for r in rows])
        sigma = np.array([float(r[2]) for r in rows])
        resid = (np.log(self.k_true) - np.log(obs)) / (sigma / obs)
        sets = [
            f"s={FIT_START[0]!r}",
            f"y={FIT_START[1]!r}",
            "fit_parameters=s,y",
            f"l_max={self.l_max}",
            f"dataset_csv={path}",
        ]
        return Inputs(sets, {"chi2_truth": float(resid @ resid)})


# --- output checks ------------------------------------------------------------


class CheckError(Exception):
    """An output failed a correctness check."""


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        lines = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    if not lines:
        raise CheckError(f"{os.path.basename(path)}: no header")
    return lines[0], [[float(c) for c in row] for row in lines[1:]]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def count_peaks(values, prominence: float = 1.5, window: int = 15) -> int:
    """Interior maxima standing ``prominence`` above a running median.

    The same rule as criterion 7 (running median with edge padding), kept
    independent of the package's own detector.
    """
    v = np.asarray(values, dtype=float)
    window = min(window, len(v) - (1 - len(v) % 2))
    half = window // 2
    padded = np.concatenate([np.full(half, v[0]), v, np.full(half, v[-1])])
    baseline = np.median(np.lib.stride_tricks.sliding_window_view(padded, window), axis=1)
    inner = np.arange(1, len(v) - 1)
    peak = (v[inner] > v[inner - 1]) & (v[inner] >= v[inner + 1])
    return int(np.sum(peak & (v[inner] >= prominence * baseline[inner])))


def compare_reference(name: str, header, rows, value_columns, row_total) -> None:
    """Data rows within REFERENCE_RTOL of the recorded reference.

    Value cells below REFERENCE_FLOOR of ``row_total(reference_row)`` are
    skipped; every other cell, inputs included, is compared.
    """
    ref_header, ref_rows = read_csv(os.path.join(REFERENCE_DIR, f"{name}.csv"))
    _require(header == ref_header, f"{name}: header differs from the reference")
    _require(len(rows) == len(ref_rows), f"{name}: {len(rows)} rows, reference {len(ref_rows)}")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        total = row_total(ref)
        for j, (a, b) in enumerate(zip(row, ref)):
            if math.isnan(a) or math.isnan(b):
                _require(math.isnan(a) and math.isnan(b), f"{name} row {i} col {header[j]}: nan mismatch")
                continue
            if j in value_columns and abs(b) < REFERENCE_FLOOR * total:
                continue
            _require(
                abs(a - b) <= REFERENCE_RTOL * abs(b),
                f"{name} row {i} col {header[j]}: {a!r} vs reference {b!r}",
            )


def check_rates(path: str, inputs: Inputs, reference: bool) -> dict:
    header, rows = read_csv(path)
    _require(header[:2] == ["d_debye", "K_total_cm3_s"], "rates: unexpected header")
    d = inputs.expected["d"]
    _require(len(rows) == len(d), f"rates: {len(rows)} rows, expected {len(d)}")
    data = np.array(rows)
    _require(bool(np.all(np.isfinite(data))), "rates: non-finite value")
    _require(bool(np.allclose(data[:, 0], d, rtol=0, atol=1e-12)), "rates: dipole grid differs")
    total, parts = data[:, 1], data[:, 2:]
    _require(bool(np.all(parts >= 0) and np.all(total > 0)), "rates: negative rate")
    _require(
        bool(np.allclose(parts.sum(axis=1), total, rtol=1e-10, atol=0)),
        "rates: per-channel rates do not sum to the total",
    )
    rise = float(total[-1] / total[0])
    peaks = count_peaks(total)
    _require(rise >= 10.0, f"rates: rise x{rise:.3g} below x10 (criterion 7)")
    _require(peaks == 0, f"rates: {peaks} resonances in the y = 1 scan (criterion 7)")
    if reference:
        compare_reference("rates_krb", header, rows, range(1, len(header)), lambda r: r[1])
    return {"rise": rise, "resonances": peaks}


def check_ploss(path: str, inputs: Inputs, reference: bool) -> dict:
    header, rows = read_csv(path)
    _require(header[:4] == ["E_uK", "L", "M", "P_loss_numeric"], "ploss: unexpected header")
    n = inputs.expected["rows"]
    _require(len(rows) == n, f"ploss: {len(rows)} rows, expected {n}")
    p = np.array([row[3] for row in rows])
    _require(bool(np.all(np.isfinite(p))), "ploss: non-finite P_loss")
    _require(bool(np.all((p >= 0.0) & (p <= 1.0))), "ploss: P_loss outside [0, 1]")
    if reference:
        compare_reference(
            "ploss_wide", header, rows, range(3, len(header)),
            lambda r: sum(v for v in r[3:] if not math.isnan(v)),
        )
    return {"p_min": float(p.min()), "p_max": float(p.max())}


def check_fit(path: str, inputs: Inputs, reference: bool) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line and not line.startswith("#"):
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    try:
        result = {
            key: float(values[key])
            for key in ("best_s", "best_y", "sigma_s", "sigma_y", "chi2", "n_evaluations")
        }
    except (KeyError, ValueError) as exc:
        raise CheckError(f"fit: unreadable result ({exc})") from None
    _require(all(math.isfinite(v) for v in result.values()), "fit: non-finite result")
    truth = inputs.expected["chi2_truth"]
    _require(
        result["chi2"] <= truth * (1.0 + 1e-9),
        f"fit: chi2_min {result['chi2']:.6g} above chi2(truth) {truth:.6g}",
    )
    _require(values.get("on_bound") == "False", "fit: best y on its bound")
    result["chi2_truth"] = truth
    return result


# --- the workloads ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A CLI command, its input source and its output check.

    ``pool`` says whether the command takes the ``threads`` key;
    ``source(seed, smoke)`` returns an object whose ``next_inputs(path)``
    gives each operation's inputs, writing any input file to ``path``.
    """

    name: str
    why: str
    command: str
    pool: bool
    source: Callable
    check: Callable

    def argv(self, inputs: Inputs, out: str, threads: int) -> list[str]:
        sets = list(inputs.sets)
        if self.pool:
            sets.append(f"threads={threads}")
        argv = [self.command, "--config", CONFIG]
        for item in sets:
            argv += ["--set", item]
        return argv + ["--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rates_krb",
            "coldchem rates on the shipped KRb dipole scan: per-point engine work "
            "dominates and the 2-worker process pool pays off",
            "rates", True,
            lambda seed, smoke: FixedInputs(rates_inputs(seed, smoke)),
            check_rates,
        ),
        Workload(
            "fit_sy",
            "coldchem fit of s and y to a seeded 8-point dataset: a pool start, a small "
            "scan and a phase calibration per chi-squared evaluation",
            "fit", True, FitData, check_fit,
        ),
        Workload(
            "ploss_wide",
            "coldchem ploss over 1000 energies at zero field: serial single-channel "
            "propagation on unique grids, bypassing pool, blocks and grid reuse",
            "ploss", False,
            lambda seed, smoke: FixedInputs(ploss_inputs(seed, smoke)),
            check_ploss,
        ),
    )
}
