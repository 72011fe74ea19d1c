"""Command-line front end.

Subcommands: adiabats, ploss, rates, resonances, fit, selfcheck.  All
physical inputs come from a flat key=value config file plus repeated
--set overrides (flags win); every output file starts with comment lines
carrying the package version, a hash of the resolved config, and the
config itself, so a run is reproducible from its own artifact.

Exit codes: 0 success, 2 configuration/validation error or unwritable output,
3 numerical or runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import math
import sys

import numpy as np

from . import __version__, units
from .errors import ColdchemError
from .potential import (
    Channel,
    CollisionSystem,
    Symmetry,
    adiabatic_curves,
    build_basis,
    find_barrier,
    single_channel_curve,
    p2_matrix_element,
    symmetry_blocks,
)
from .propagator import RadialGrid, build_table, calibrate_phase, evaluate, propagate
from .qdt import (
    ShortRangeParams,
    barrier_top_transmission,
    barrier_transmission_qt,
    characteristic_energies,
    inverse_morse_exponent,
    low_energy_loss_probability,
    mean_scattering_length,
    p_wave_mean_scattering_length,
)
from .scanfit import (
    detect_resonances,
    fit_resonance_series,
    fit_short_range,
    load_dataset,
    scan_dipole,
)

_SYMMETRY_NAMES = {symmetry.value: symmetry for symmetry in Symmetry}

# key -> (converter, default-as-string or None when required/optional)
_CONFIG_KEYS: dict[str, tuple] = {
    # system
    "c6_au": (float, None),
    "reduced_mass_amu": (float, None),
    "mass_amu_1": (float, None),
    "mass_amu_2": (float, None),
    "symmetry": (str, None),
    "g_override": (int, ""),
    # short range
    "s": (float, "0.0"),
    "y": (float, "1.0"),
    "r_match_bohr": (float, "20.0"),
    # numerics
    "l_max": (int, "7"),
    "points_per_wavelength": (float, "40.0"),
    "scale_fraction": (float, "20.0"),
    "tail_tolerance": (float, "1e-4"),
    "match_factor": (float, "1.2"),
    "threads": (int, "0"),
    "calibration_energy_fraction": (float, "1e-4"),
    "calibration_tolerance": (float, "1e-3"),
    # shared task inputs
    "dipole_debye": (float, "0.0"),
    "energy_nk": (float, "250.0"),
    # adiabats
    "r_max_bohr": (float, "3000.0"),
    "n_r": (int, "400"),
    # ploss
    "e_min_uk": (float, "0.002"),
    "e_max_uk": (float, "2400.0"),
    "n_energy": (int, "50"),
    "ploss_l_values": (str, "0,1"),
    # rates / resonances
    "d_min_debye": (float, "0.0"),
    "d_max_debye": (float, "0.5"),
    "n_dipole": (int, "201"),
    "prominence_factor": (float, "1.5"),
    "baseline_window": (int, "15"),
    # fit
    "dataset_csv": (str, ""),
    "fit_parameters": (str, "y"),
}

_REQUIRED_ALWAYS = ("c6_au", "symmetry")


class ConfigError(Exception):
    """Raised with the full list of validation problems."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _read_config_file(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc}"]) from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError([f"{path}:{lineno}: expected key=value, got {line!r}"])
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(config_path: str | None, overrides: list[str]) -> dict:
    """Merge defaults, file, and --set pairs; convert and validate everything.

    All problems are collected and reported together.
    """
    problems: list[str] = []
    raw: dict[str, str] = {
        key: default
        for key, (_, default) in _CONFIG_KEYS.items()
        if default is not None
    }
    if config_path:
        raw.update(_read_config_file(config_path))
    for item in overrides:
        if "=" not in item:
            problems.append(f"--set {item!r} is not of the form key=value")
            continue
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()

    config: dict = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            problems.append(f"unknown config key {key!r}")
            continue
        conv, _ = _CONFIG_KEYS[key]
        if value == "":
            config[key] = None
            continue
        try:
            config[key] = conv(value)
            if conv is float and not math.isfinite(config[key]):
                problems.append(f"config key {key!r}: {value!r} is not a finite number")
        except ValueError:
            problems.append(f"config key {key!r}: cannot parse {value!r} as {conv.__name__}")

    for key in _REQUIRED_ALWAYS:
        if config.get(key) is None:
            problems.append(f"missing required config key {key!r}")

    has_reduced = config.get("reduced_mass_amu") is not None
    has_pair = (
        config.get("mass_amu_1") is not None and config.get("mass_amu_2") is not None
    )
    if not has_reduced and not has_pair:
        problems.append(
            "missing mass: provide reduced_mass_amu or both mass_amu_1 and mass_amu_2"
        )
    if has_reduced and (
        config.get("mass_amu_1") is not None or config.get("mass_amu_2") is not None
    ):
        problems.append("provide either reduced_mass_amu or the mass_amu pair, not both")

    symmetry_name = config.get("symmetry")
    if symmetry_name is not None and symmetry_name not in _SYMMETRY_NAMES:
        problems.append(
            f"symmetry must be one of {sorted(_SYMMETRY_NAMES)}, got {symmetry_name!r}"
        )

    if problems:
        raise ConfigError(problems)

    # build the physics objects; their validators produce the remaining checks
    if has_reduced:
        mu_amu = config["reduced_mass_amu"]
    else:
        m1, m2 = config["mass_amu_1"], config["mass_amu_2"]
        if m1 <= 0 or m2 <= 0:
            raise ConfigError(["molecule masses must be positive"])
        mu_amu = m1 * m2 / (m1 + m2)
    try:
        system = CollisionSystem(
            reduced_mass=units.mass_from_amu(mu_amu),
            c6=config["c6_au"],
            dipole=units.dipole_from_debye(config["dipole_debye"]),
            symmetry=_SYMMETRY_NAMES[symmetry_name],
            g_override=config.get("g_override"),
        )
        params = ShortRangeParams(
            s=config["s"], y=config["y"], r_match=config["r_match_bohr"]
        )
        grid = RadialGrid(
            points_per_wavelength=config["points_per_wavelength"],
            scale_fraction=config["scale_fraction"],
            tail_tolerance=config["tail_tolerance"],
            match_factor=config["match_factor"],
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError([str(exc)]) from exc
    if config["l_max"] < 0:
        raise ConfigError(["l_max must be non-negative"])
    if config["threads"] < 0:
        raise ConfigError(["threads must be >= 0"])

    config["_system"] = system
    config["_params"] = params
    config["_grid"] = grid
    return config


def _config_lines(config: dict) -> list[str]:
    pairs = sorted(
        (k, v) for k, v in config.items() if not k.startswith("_") and v is not None
    )
    body = [f"{k} = {v!r}" if isinstance(v, str) else f"{k} = {v}" for k, v in pairs]
    digest = hashlib.sha256("\n".join(body).encode()).hexdigest()[:16]
    lines = [
        f"# generated-by: coldchem {__version__}",
        f"# config-hash: {digest}",
    ]
    lines.extend(f"# {entry}" for entry in body)
    return lines


def _write_csv(path: str | None, config: dict, header: list[str] | None, rows, lines=()) -> None:
    """The config lines, then ``lines``, then the CSV of ``header`` and ``rows``, to ``path``
    or else to stdout.  With ``header`` None there is no CSV part."""
    stream = open(path, "w", newline="") if path else sys.stdout
    try:
        for line in [*_config_lines(config), *lines]:
            stream.write(line + "\n")
        if header is not None:
            csv.writer(stream, lineterminator="\n").writerows([header, *rows])
    finally:
        if path:
            stream.close()


def _format(x: float) -> str:
    return repr(float(x))


# --- subcommands -------------------------------------------------------------


def _calibrate(config: dict, params: ShortRangeParams) -> float:
    """``calibrate_phase`` of ``params`` with the configured system, grid and settings."""
    return calibrate_phase(
        config["_system"], params, config["_grid"],
        energy_fraction=config["calibration_energy_fraction"],
        tolerance=config["calibration_tolerance"],
    )


def _cmd_adiabats(config: dict, out: str | None) -> int:
    system: CollisionSystem = config["_system"]
    params: ShortRangeParams = config["_params"]
    r_grid = np.geomspace(params.r_match, config["r_max_bohr"], config["n_r"])
    rows = []
    for basis in symmetry_blocks(system, config["l_max"]):
        for curve in adiabatic_curves(system, basis, r_grid):
            label = f"L{curve.channel.L}_M{curve.channel.M}"
            rows.extend(
                (_format(r), label, _format(v)) for r, v in zip(r_grid, curve.values)
            )
    _write_csv(out or "adiabats.csv", config, ["R_bohr", "curve_label", "V_hartree"], rows)
    return 0


def _ploss_curve(system, params, config, L):
    """Adiabatic curve correlating to |L, 0> at the configured dipole."""
    channel = Channel(L, 0)
    r_grid = np.geomspace(params.r_match, max(3000.0, 20 * params.r_match), 600)
    if system.c3 == 0.0:
        return single_channel_curve(system, channel, r_grid)
    basis = build_basis(0, L % 2, max(config["l_max"], L))
    return adiabatic_curves(system, basis, r_grid)[basis.index(channel)]


def _cmd_ploss(config: dict, out: str | None) -> int:
    system: CollisionSystem = config["_system"]
    params: ShortRangeParams = config["_params"]
    grid: RadialGrid = config["_grid"]
    try:
        l_values = sorted({int(tok) for tok in config["ploss_l_values"].split(",")})
    except ValueError:
        raise ConfigError(["ploss_l_values must be a comma-separated integer list"])
    if any(l < 0 for l in l_values):
        raise ConfigError(["ploss_l_values must be non-negative"])
    if config["n_energy"] < 2 or config["e_min_uk"] <= 0 or (
        config["e_max_uk"] <= config["e_min_uk"]
    ):
        raise ConfigError(["ploss energy grid needs 0 < e_min_uk < e_max_uk, n_energy >= 2"])
    energies = units.energy_from_microkelvin(
        np.geomspace(config["e_min_uk"], config["e_max_uk"], config["n_energy"])
    )
    delta_sr = _calibrate(config, params)
    curves = [_ploss_curve(system, params, config, L) for L in l_values]
    table = build_table(system, [(curve.basis, [curve.index]) for curve in curves],
                        params.r_match, energies, system.c3, grid)
    _, loss = evaluate(table, params.y, delta_sr)
    e_uk = list(map(repr, units.energy_to_microkelvin(energies).tolist()))
    k, nan = np.sqrt(2.0 * system.reduced_mass * energies).tolist(), [math.nan] * len(energies)
    rows = []
    for L, curve, p_loss in zip(l_values, curves, loss.T.tolist()):
        barrier, qt = find_barrier(curve), nan
        analytic = low_energy_loss_probability(L, system, k) if L <= 1 else nan
        if barrier is not None:
            p_b = 0.37 if L == 1 else barrier_top_transmission(L, 6)
            qt = barrier_transmission_qt(energies.tolist(), barrier.height, p_b)
        columns = (map(repr, c) for c in (p_loss, analytic, qt))
        rows.extend(zip(e_uk, [L] * len(k), [0] * len(k), *columns))
    _write_csv(out or "ploss.csv", config,
               ["E_uK", "L", "M", "P_loss_numeric", "P_loss_analytic_lowE", "P_loss_qt"], rows)
    return 0


def _dipole_grid(config: dict) -> np.ndarray:
    if config["n_dipole"] < 2 or config["d_min_debye"] < 0 or (
        config["d_max_debye"] <= config["d_min_debye"]
    ):
        raise ConfigError(["dipole grid needs 0 <= d_min_debye < d_max_debye, n_dipole >= 2"])
    return np.linspace(config["d_min_debye"], config["d_max_debye"], config["n_dipole"])


def _run_dipole_scan(config: dict):
    system: CollisionSystem = config["_system"]
    params: ShortRangeParams = config["_params"]
    d_debye = _dipole_grid(config)
    energy = units.energy_from_microkelvin(config["energy_nk"] * 1e-3)
    curve = scan_dipole(
        system,
        params,
        energy,
        units.dipole_from_debye(d_debye),
        grid=config["_grid"],
        l_max=config["l_max"],
        delta_sr=_calibrate(config, params),
    )
    return d_debye, curve


def _cmd_rates(config: dict, out: str | None) -> int:
    d_debye, curve = _run_dipole_scan(config)
    channels = curve.channels()
    header = ["d_debye", "K_total_cm3_s"] + [f"K_{c.L}_{c.M}" for c in channels]
    rows = []
    for i, d in enumerate(d_debye):
        row = [_format(d), _format(units.rate_to_cm3_per_s(curve.total[i]))]
        row.extend(
            _format(units.rate_to_cm3_per_s(curve.per_channel[c][i])) for c in channels
        )
        rows.append(row)
    _write_csv(out or "rates.csv", config, header, rows)
    return 0


def _cmd_resonances(config: dict, out: str | None) -> int:
    d_debye, curve = _run_dipole_scan(config)
    found = detect_resonances(
        curve,
        prominence_factor=config["prominence_factor"],
        baseline_window=config["baseline_window"],
    )
    # positions are in atomic units on the scan axis; report in debye
    rows = [
        (_format(units.dipole_to_debye(r.position)), _format(r.prominence), r.index)
        for r in found
    ]
    extra = []
    if len(found) >= 4:
        series = fit_resonance_series([r.position for r in found])
        extra = [
            f"# series_scale_debye = {units.dipole_to_debye(series.scale)!r}",
            f"# series_n_zero = {series.n_zero!r}",
            f"# series_n_infinity = {series.n_infinity!r}",
            f"# series_residual_rms = {series.residual_rms!r}",
        ]
    header = ["position_debye", "prominence", "index"]
    _write_csv(out or "resonances.csv", config, header, rows, extra)
    return 0


def _cmd_fit(config: dict, out: str | None) -> int:
    if not config.get("dataset_csv"):
        raise ConfigError(["fit requires dataset_csv pointing at d_debye,K_cm3_s data"])
    try:
        dataset = load_dataset(config["dataset_csv"])
    except (OSError, ValueError) as exc:
        raise ConfigError([str(exc)]) from exc
    fit_names = tuple(tok.strip() for tok in config["fit_parameters"].split(",") if tok.strip())
    system: CollisionSystem = config["_system"]
    params: ShortRangeParams = config["_params"]
    energy = units.energy_from_microkelvin(config["energy_nk"] * 1e-3)
    try:
        result = fit_short_range(
            dataset,
            system,
            energy,
            initial=params,
            fit=fit_names,
            grid=config["_grid"],
            l_max=config["l_max"],
            energy_fraction=config["calibration_energy_fraction"],
            tolerance=config["calibration_tolerance"],
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    lines = [f"best_s = {result.params.s!r}"]
    lines.append(f"best_y = {result.params.y!r}")
    lines.append(f"fitted = {','.join(result.fitted)}")
    for i, ni in enumerate(result.fitted):
        for j, nj in enumerate(result.fitted):
            if j < i:
                continue
            lines.append(f"cov_{ni}_{nj} = {float(result.covariance[i, j])!r}")
        sigma = math.sqrt(abs(result.covariance[i, i]))
        lines.append(f"sigma_{ni} = {sigma!r}")
    lines.append(f"chi2 = {float(result.chi2)!r}")
    lines.append(f"n_points = {result.n_points}")
    lines.append(f"n_evaluations = {result.n_evaluations}")
    lines.append(f"on_bound = {result.on_bound}")
    _write_csv(out, config, None, (), lines)
    return 0


def _cmd_selfcheck(config: dict, out: str | None) -> int:
    system: CollisionSystem = config["_system"]
    params: ShortRangeParams = config["_params"]
    grid: RadialGrid = config["_grid"]
    abar = mean_scattering_length(system.reduced_mass, system.c6)
    abar1 = p_wave_mean_scattering_length(system.reduced_mass, system.c6)
    e0, e1 = characteristic_energies(system.reduced_mass, system.c6)
    print(f"coldchem {__version__} selfcheck")
    print(f"abar = {abar:.4f} bohr")
    print(f"abar1 = {abar1:.4f} bohr ({abar1 / abar:.6f} abar)")
    print(f"E0 = {units.energy_to_microkelvin(e0):.4g} uK")
    print(f"E1 = {units.energy_to_microkelvin(e1):.4g} uK")

    gates = []

    ratio = abar1 / abar
    expected_ratio = (
        math.gamma(0.25) ** 6 / (144.0 * math.pi**2 * math.gamma(0.75) ** 2)
    )
    gates.append(("abar1/abar identity", abs(ratio - expected_ratio) < 1e-12))

    gates.append(
        (
            "p2 closed forms",
            abs(p2_matrix_element(1, 1, 0) - 0.4) < 1e-12
            and abs(p2_matrix_element(1, 1, 1) + 0.2) < 1e-12
            and abs(p2_matrix_element(0, 2, 0) - 1.0 / math.sqrt(5.0)) < 1e-12,
        )
    )

    f_val = inverse_morse_exponent(1, 6)
    gates.append(("inverse-Morse f(1,6) = f(1,3)", f_val == inverse_morse_exponent(1, 3)))

    back = units.energy_to_kelvin(units.energy_from_kelvin(1.0))
    gates.append(("unit round trip", abs(back - 1.0) < 1e-12))

    bare = dataclasses.replace(system, dipole=0.0)
    curve = single_channel_curve(
        bare, Channel(1, 0), np.geomspace(params.r_match, 3000.0, 600)
    )
    barrier = find_barrier(curve)
    gates.append(
        (
            "p-wave barrier height = E1",
            barrier is not None and abs(barrier.height - e1) < 1e-3 * e1,
        )
    )

    universal = ShortRangeParams(s=params.s, y=1.0, r_match=params.r_match)
    res = propagate(bare, single_channel_curve(bare, Channel(0, 0)), universal, e0 / 100.0,
                    _calibrate(config, universal), grid)
    beta = res.scattering_length.beta
    gates.append(("universal s-wave beta within 2% of abar", abs(beta / abar - 1) < 0.02))

    failed = [name for name, ok in gates if not ok]
    for name, ok in gates:
        print(f"gate {'PASS' if ok else 'FAIL'}: {name}")
    if failed:
        print(f"{len(failed)} gate(s) failed", file=sys.stderr)
        return 3
    print("all gates passed")
    return 0


_COMMANDS = {
    "adiabats": _cmd_adiabats,
    "ploss": _cmd_ploss,
    "rates": _cmd_rates,
    "resonances": _cmd_resonances,
    "fit": _cmd_fit,
    "selfcheck": _cmd_selfcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldchem",
        description="Ultracold molecular collision rates from a short-range "
        "(s, y) model with propagated long-range physics.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable, wins over the file)",
    )
    parser.add_argument("--out", help="output path (default depends on the subcommand)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](resolve_config(args.config, args.set), args.out)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # parameter combinations that only fail once the physics objects
        # meet each other (e.g. r_match above abar)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ColdchemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # an output path that cannot be written: the readers report their own files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
