import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coldchem
import coldchem.cli as cli_module
from coldchem import propagator, units
from coldchem.cli import main, resolve_config, ConfigError
from coldchem.potential import CollisionSystem
from coldchem.qdt import (
    ShortRangeParams,
    low_energy_loss_probability,
)
from coldchem.propagator import RadialGrid
from coldchem.scanfit import scan_dipole

MU_AMU = 63.4968
C6 = 16130.0
ROOT = Path(__file__).resolve().parents[1]

BASE = [
    "--set",
    f"c6_au={C6}",
    "--set",
    f"reduced_mass_amu={MU_AMU}",
    "--set",
    "symmetry=fermions",
]


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def comment_lines(path):
    with open(path) as fh:
        return [line for line in fh if line.startswith("#")]


# --- config resolution -----------------------------------------------------------


def test_resolve_config_defaults():
    config = resolve_config(None, [f"c6_au={C6}", f"reduced_mass_amu={MU_AMU}",
                                   "symmetry=fermions"])
    assert config["s"] == 0.0
    assert config["y"] == 1.0
    assert config["l_max"] == 7
    assert config["_system"].c6 == C6
    assert config["_params"].r_match == 20.0
    assert isinstance(config["_grid"], RadialGrid)


def test_resolve_config_collects_all_problems():
    with pytest.raises(ConfigError) as excinfo:
        resolve_config(None, ["l_max=not_an_int", "nonsense_key=3"])
    problems = " | ".join(excinfo.value.problems)
    assert "c6_au" in problems
    assert "symmetry" in problems
    assert "mass" in problems
    assert "nonsense_key" in problems
    assert "l_max" in problems


def test_resolve_config_mass_pair():
    config = resolve_config(
        None,
        [f"c6_au={C6}", "mass_amu_1=127.0", "mass_amu_2=127.0", "symmetry=fermions"],
    )
    assert config["_system"].reduced_mass == pytest.approx(units.mass_from_amu(63.5))


def test_resolve_config_rejects_both_mass_forms():
    with pytest.raises(ConfigError, match="not both"):
        resolve_config(
            None,
            [
                f"c6_au={C6}",
                f"reduced_mass_amu={MU_AMU}",
                "mass_amu_1=127.0",
                "mass_amu_2=127.0",
                "symmetry=fermions",
            ],
        )


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "sys.conf"
    cfg.write_text(
        "# a comment\n"
        f"c6_au = {C6}\n"
        f"reduced_mass_amu = {MU_AMU}\n"
        "symmetry = fermions\n"
        "y = 0.5\n"
    )
    config = resolve_config(str(cfg), ["y=0.9"])
    assert config["y"] == 0.9  # --set wins over the file


def test_calibration_defaults_are_the_engine_constants():
    # one home for the defaults; the config lines print them as they always have
    config = resolve_config(None, [f"c6_au={C6}", f"reduced_mass_amu={MU_AMU}",
                                   "symmetry=fermions"])
    assert config["calibration_energy_fraction"] == propagator.CALIBRATION_ENERGY_FRACTION
    assert config["calibration_tolerance"] == propagator.CALIBRATION_TOLERANCE
    assert [line for line in cli_module._config_lines(config) if "calibration" in line] == [
        "# calibration_energy_fraction = 0.0001", "# calibration_tolerance = 0.001"]


def test_missing_required_key_exit_code(capsys):
    code = main(
        ["selfcheck", "--set", f"reduced_mass_amu={MU_AMU}", "--set",
         "symmetry=fermions"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "c6_au" in err


def test_bad_symmetry_exit_code(capsys):
    code = main(BASE[:4] + ["--set", "symmetry=anyons"] + ["selfcheck"])
    assert code == 2
    assert "symmetry" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [k for k, (conv, _) in cli_module._CONFIG_KEYS.items()
                                 if conv is float])
def test_non_finite_float_key_is_one_config_error(capsys, key, value):
    # a nan or infinite value never reaches the physics: one line names the key
    code = main(["rates", "--config", str(ROOT / "configs" / "krb.conf"),
                 "--set", f"{key}={value}"])
    assert code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if repr(key) in line] == [
        f"config error: config key {key!r}: {value!r} is not a finite number"]


def test_runtime_value_error_is_config_error(capsys):
    # r_match above abar only surfaces when the physics objects meet
    code = main(["selfcheck"] + BASE + ["--set", "r_match_bohr=500"])
    assert code == 2
    assert "abar" in capsys.readouterr().err


NO_MASS = ["--set", f"c6_au={C6}", "--set", "symmetry=fermions"]
CONFIG_ERRORS = {
    "missing file": (["rates", "--config", "{tmp}/absent.conf"], "cannot read config file"),
    "line without =": (["rates", "--config", "{tmp}/bad.conf"], "expected key=value"),
    "bare --set": (["rates", *BASE, "--set", "l_max"], "is not of the form key=value"),
    "negative mass": (["rates", *NO_MASS, "--set", "mass_amu_1=-1", "--set", "mass_amu_2=127"],
                      "molecule masses must be positive"),
    "negative C6": (["rates", *BASE, "--set", "c6_au=-1"], "C6 must be positive and finite"),
    "negative l_max": (["rates", *BASE, "--set", "l_max=-1"], "l_max must be non-negative"),
    "negative threads": (["rates", *BASE, "--set", "threads=-1"], "threads must be >= 0"),
    "ploss L not an integer": (["ploss", *BASE, "--set", "ploss_l_values=a"],
                               "ploss_l_values must be a comma-separated integer list"),
    "negative ploss L": (["ploss", *BASE, "--set", "ploss_l_values=-1"],
                         "ploss_l_values must be non-negative"),
    "one energy": (["ploss", *BASE, "--set", "n_energy=1"],
                   "ploss energy grid needs 0 < e_min_uk < e_max_uk, n_energy >= 2"),
    "one dipole": (["rates", *BASE, "--set", "n_dipole=1"],
                   "dipole grid needs 0 <= d_min_debye < d_max_debye, n_dipole >= 2"),
    # an empty value unsets only a key that may be unset; any other key needs a value
    **{f"empty {key}": ([command, *BASE, "--set", f"{key}="],
                        f"config key {key!r} needs a value")
       for command, key in [("rates", "threads"), ("rates", "energy_nk"),
                            ("rates", "d_max_debye"), ("ploss", "ploss_l_values"),
                            ("rates", "s"), ("rates", "r_match_bohr"),
                            ("ploss", "dipole_debye")]},
}


def test_empty_value_unsets_an_optional_key():
    config = resolve_config(None, [*BASE[1::2], "g_override=", "dataset_csv="])
    assert config["g_override"] is None and config["dataset_csv"] is None


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_errors_exit_2_with_their_message(case, tmp_path, capsys):
    (tmp_path / "bad.conf").write_text(f"c6_au = {C6}\nsymmetry fermions\n")
    args, message = CONFIG_ERRORS[case]
    code = main([arg.replace("{tmp}", str(tmp_path)) for arg in args]
                + ["--out", str(tmp_path / "out.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out.csv").exists()


# --- selfcheck ---------------------------------------------------------------------


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"] + BASE) == 0
    out = capsys.readouterr().out
    assert "97.7" in out
    assert "24.3" in out
    assert "all gates passed" in out


def test_selfcheck_honours_calibration_tolerance(capsys):
    # at s != 0 no calibration meets a tolerance of 1e-300
    code = main(["selfcheck"] + BASE + ["--set", "s=0.5", "--set", "calibration_tolerance=1e-300"])
    assert code == 3
    assert "within 1.0e-300 relative" in capsys.readouterr().err


# --- ploss -------------------------------------------------------------------------


def test_ploss_csv(tmp_path, capsys):
    out = tmp_path / "ploss.csv"
    code = main(
        ["ploss"]
        + BASE
        + [
            "--set", "n_energy=5",
            "--set", "e_min_uk=0.01",
            "--set", "e_max_uk=10.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(str(out))
    assert header == ["E_uK", "L", "M", "P_loss_numeric", "P_loss_analytic_lowE",
                      "P_loss_qt"]
    system = CollisionSystem(reduced_mass=units.mass_from_amu(MU_AMU), c6=C6)
    for row in rows:
        e_uk, L, M = float(row[0]), int(row[1]), int(row[2])
        p_num, p_ana = float(row[3]), float(row[4])
        k = math.sqrt(2.0 * system.reduced_mass * units.energy_from_microkelvin(e_uk))
        assert p_ana == pytest.approx(
            low_energy_loss_probability(L, system, k), rel=1e-9
        )
        assert 0.0 <= p_num <= 1.0
        # in this deep-threshold window the analytic form tracks numerics
        if e_uk < 1.0:
            assert p_num == pytest.approx(p_ana, rel=0.05)
    ls = {int(r[1]) for r in rows}
    assert ls == {0, 1}
    # s-wave rows carry no QT column, p-wave rows do
    for row in rows:
        if int(row[1]) == 0:
            assert math.isnan(float(row[5]))
        else:
            assert float(row[5]) >= 0.0


@pytest.mark.parametrize("dipole", [0.0, 0.2])
def test_ploss_is_one_table_equal_to_single_partial_waves(tmp_path, monkeypatch, dipole):
    # all partial waves step in one table; each agrees with a run of its L alone, on
    # one-channel columns at zero field and on rank columns of larger blocks at 0.2 D
    builds = []

    def counted(module):
        build_table = module.build_table

        def wrapper(*args, **kwargs):
            builds.append(module.__name__)
            return build_table(*args, **kwargs)

        monkeypatch.setattr(module, "build_table", wrapper)

    counted(cli_module)
    counted(propagator)

    def run(l_values):
        out = tmp_path / f"ploss_{l_values}.csv"
        sets = [f"dipole_debye={dipole}", f"ploss_l_values={l_values}", "l_max=3",
                "n_energy=12", "e_min_uk=0.01", "e_max_uk=50.0"]
        assert main(["ploss"] + BASE + [a for x in sets for a in ("--set", x)]
                    + ["--out", str(out)]) == 0
        return read_csv(str(out))

    header, rows = run("0,1,2,3")
    # the scan is one table, and the phase calibration builds the other
    assert builds == ["coldchem.propagator", "coldchem.cli"]
    alone = [row for L in range(4) for row in run(str(L))[1]]
    assert len(rows) == len(alone) == 48
    for row, ref in zip(rows, alone):
        assert row[:3] == ref[:3] and row[4:] == ref[4:]
        assert float(row[3]) == pytest.approx(float(ref[3]), rel=1e-12, abs=0.0)


# --- rates -------------------------------------------------------------------------


def rates_args(out_path, n=3, l_max=3, d_max=0.2):
    return (
        ["rates"]
        + BASE
        + [
            "--set", f"n_dipole={n}",
            "--set", f"d_max_debye={d_max}",
            "--set", f"l_max={l_max}",
            "--out", str(out_path),
        ]
    )


def test_rates_csv_matches_library(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(rates_args(out)) == 0
    header, rows = read_csv(str(out))
    assert header[:2] == ["d_debye", "K_total_cm3_s"]
    assert header[2:] == ["K_1_0", "K_1_1", "K_3_0", "K_3_1", "K_3_2", "K_3_3"]
    system = CollisionSystem(reduced_mass=units.mass_from_amu(MU_AMU), c6=C6)
    params = ShortRangeParams(s=0.0, y=1.0)
    d_debye = np.array([float(r[0]) for r in rows])
    curve = scan_dipole(
        system,
        params,
        units.energy_from_microkelvin(0.25),
        units.dipole_from_debye(d_debye),
        l_max=3,
    )
    for i, row in enumerate(rows):
        assert float(row[1]) == pytest.approx(
            units.rate_to_cm3_per_s(curve.total[i]), rel=1e-9
        )
        # channel columns add up to the total
        assert sum(float(v) for v in row[2:]) == pytest.approx(
            float(row[1]), rel=1e-9
        )


def test_rates_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(rates_args(out1)) == 0
    assert main(rates_args(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_output_header_carries_config(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(rates_args(out)) == 0
    comments = "".join(comment_lines(str(out)))
    assert "generated-by: coldchem" in comments
    assert "config-hash:" in comments
    assert "c6_au = 16130.0" in comments
    assert "symmetry = 'fermions'" in comments


def test_rates_runtime_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = main(
        ["rates"]
        + BASE
        + [
            "--set", "n_dipole=2",
            "--set", "d_max_debye=500",
            "--set", "l_max=1",
            "--out", str(out),
        ]
    )
    assert code == 3
    assert "forbidden" in capsys.readouterr().err


def test_rates_lossless_short_range_is_exactly_zero(tmp_path):
    # at y = 0 the boundary carries no flux, so every loss rate is exactly 0
    out = tmp_path / "rates.csv"
    code = main([
        "rates", "--config", str(ROOT / "configs" / "krb.conf"),
        "--set", "y=0", "--set", "s=0", "--set", "l_max=3", "--set", "n_dipole=8",
        "--set", "d_min_debye=0.04", "--set", "d_max_debye=0.24", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(str(out))
    assert len(rows) == 8 and header[1] == "K_total_cm3_s"
    assert all(float(v) == 0.0 for row in rows for v in row[1:])


def run_python(code):
    """Run ``code`` in a fresh interpreter at the repository root, on this package."""
    src = str(Path(coldchem.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True,
    )


def test_cli_import_loads_no_scipy(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("d_debye,K_cm3_s\n0.05,1e-12\n0.1,2e-12\n")
    fit = ["fit", "--config", "configs/krb.conf", "--set", "l_max=1", "--set",
           "fit_parameters=s,y", "--set", f"dataset_csv={data}", "--out", str(tmp_path / "f.txt")]
    code = (
        "import sys, coldchem.cli\n"
        "coldchem.cli.resolve_config('configs/krb.conf', [])\n"
        f"assert coldchem.cli.main({fit!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert run_python(code).stdout.strip() == "[]"


def test_resonances_and_series_fit_run_without_scipy(tmp_path):
    # scipy made unimportable: detection and the series fit use numpy alone
    out = tmp_path / "res.csv"
    res = ["resonances", "--config", "configs/krb.conf", "--set", "y=0.1", "--set", "l_max=3",
           "--out", str(out)]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import coldchem, coldchem.cli\n"
        f"assert coldchem.cli.main({res!r}) == 0\n"
        "fit = coldchem.fit_resonance_series([0.1, 0.2, 0.26, 0.3, 0.33])\n"
        "assert fit.residual_rms < 0.1, fit\n"
    )
    run_python(code)
    _, rows = read_csv(str(out))
    assert len(rows) >= 4
    assert any(line.startswith("# series_residual_rms") for line in comment_lines(out))


# --- resonances ----------------------------------------------------------------------


def test_resonances_smooth_universal_case(tmp_path):
    out = tmp_path / "res.csv"
    code = main(
        ["resonances"]
        + BASE
        + [
            "--set", "n_dipole=25",
            "--set", "d_max_debye=0.15",
            "--set", "l_max=3",
            "--set", "baseline_window=7",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(str(out))
    assert header == ["position_debye", "prominence", "index"]
    assert rows == []  # y = 1 washes out every resonance


@pytest.mark.parametrize("window", ["0", "-3"])
def test_resonances_rejects_a_non_positive_baseline_window(tmp_path, capsys, window):
    out = tmp_path / "res.csv"
    code = main(["resonances"] + BASE + [
        "--set", "l_max=1", "--set", "n_dipole=20", "--set", f"baseline_window={window}",
        "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: baseline_window must be a positive integer"]
    assert not out.exists()


# --- fit -----------------------------------------------------------------------------


def test_fit_end_to_end(tmp_path):
    system = CollisionSystem(reduced_mass=units.mass_from_amu(MU_AMU), c6=C6)
    true = ShortRangeParams(s=0.5, y=0.8)
    d_debye = np.array([0.05, 0.1, 0.15, 0.2])
    curve = scan_dipole(
        system,
        true,
        units.energy_from_microkelvin(0.25),
        units.dipole_from_debye(d_debye),
        l_max=3,
    )
    data = tmp_path / "data.csv"
    lines = ["d_debye,K_cm3_s"]
    for d, k in zip(d_debye, units.rate_to_cm3_per_s(curve.total)):
        lines.append(f"{d},{k}")
    data.write_text("\n".join(lines) + "\n")

    out = tmp_path / "fit.txt"
    code = main(
        ["fit"]
        + BASE
        + [
            "--set", "s=0.5",
            "--set", "y=0.6",
            "--set", "l_max=3",
            "--set", f"dataset_csv={data}",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    values = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    assert float(values["best_y"]) == pytest.approx(0.8, abs=0.01)
    assert float(values["chi2"]) < 1e-8
    assert values["fitted"] == "y"
    assert float(values["cov_y_y"]) > 0
    assert values["on_bound"] == "False"


def test_fit_to_stdout_equals_its_out_file(tmp_path, capsys, monkeypatch):
    # both go through the one writer, and give the same bytes
    data = tmp_path / "data.csv"
    data.write_text("d_debye,K_cm3_s\n0.05,1e-12\n0.1,2e-12\n")
    writes, write_csv = [], cli_module._write_csv
    monkeypatch.setattr(cli_module, "_write_csv", lambda *a: writes.append(a[0]) or write_csv(*a))
    argv = ["fit"] + BASE + ["--set", "l_max=1", "--set", f"dataset_csv={data}"]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "fit.txt")]) == 0
    assert printed.encode() == (tmp_path / "fit.txt").read_bytes()
    assert "best_y = " in printed and not printed.endswith("\n\n")
    assert writes == [None, str(tmp_path / "fit.txt")]


def test_fit_honours_calibration_tolerance(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("d_debye,K_cm3_s\n0.05,1e-12\n0.1,2e-12\n")
    for fitted in ("y", "s"):  # s is checked at the best fit, after the search
        code = main(["fit"] + BASE + [
            "--set", "s=0.5", "--set", "l_max=1", "--set", "calibration_tolerance=1e-300",
            "--set", f"fit_parameters={fitted}", "--set", f"dataset_csv={data}",
            "--out", str(tmp_path / "fit.txt"),
        ])
        assert code == 3
        assert "within 1.0e-300 relative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rates", "fit"])
@pytest.mark.parametrize("tolerance", ["-1", "0"])
def test_non_positive_calibration_tolerance_is_a_config_error(tmp_path, capsys, command,
                                                              tolerance):
    # exit 2 as for calibration_energy_fraction=-1; -1 was a failed calibration, exit 3
    data = tmp_path / "data.csv"
    data.write_text("d_debye,K_cm3_s\n0.05,1e-12\n0.1,2e-12\n")
    code = main([command] + BASE + [
        "--set", "l_max=1", "--set", f"calibration_tolerance={tolerance}",
        "--set", "fit_parameters=s,y", "--set", f"dataset_csv={data}",
        "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "config error: calibration tolerance must be positive\n"


def test_two_parameter_fit_writes_its_covariance_and_sigmas(tmp_path):
    # the lines perfbench's fit check reads: every covariance entry once, and
    # sigma_i = sqrt(|cov_ii|)
    data = tmp_path / "data.csv"
    data.write_text("d_debye,K_cm3_s,sigma\n0.05,1e-12,1e-13\n0.1,2e-12,2e-13\n"
                    "0.15,4e-12,4e-13\n")
    out = tmp_path / "fit.txt"
    assert main(["fit"] + BASE + [
        "--set", "l_max=1", "--set", "fit_parameters=s,y", "--set", f"dataset_csv={data}",
        "--out", str(out),
    ]) == 0
    values = dict(line.split(" = ") for line in out.read_text().splitlines()
                  if not line.startswith("#"))
    assert values["fitted"] == "s,y"
    cov = {key: float(value) for key, value in values.items() if key.startswith("cov_")}
    assert sorted(cov) == ["cov_s_s", "cov_s_y", "cov_y_y"]
    assert all(math.isfinite(value) for value in cov.values())
    assert sorted(key for key in values if key.startswith("sigma_")) == ["sigma_s", "sigma_y"]
    for name in ("s", "y"):
        assert float(values[f"sigma_{name}"]) == math.sqrt(abs(cov[f"cov_{name}_{name}"]))


@pytest.mark.parametrize("body", [
    "d_debye,K_cm3_s\n0.05,1e-12\nnan,inf\n", "d_debye,K_cm3_s\n0.1,nan\n",
    "d_debye,K_cm3_s\ninf,1e-12\n", "d_debye,K_cm3_s,sigma\n0.1,1e-12,nan\n",
])
def test_fit_rejects_non_finite_data(tmp_path, capsys, body):
    data = tmp_path / "data.csv"
    data.write_text(body)
    code = main(["fit"] + BASE + [
        "--set", "l_max=1", "--set", f"dataset_csv={data}", "--out", str(tmp_path / "fit.txt"),
    ])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "fit.txt").exists()


def test_fit_requires_dataset(capsys):
    code = main(["fit"] + BASE)
    assert code == 2
    assert "dataset_csv" in capsys.readouterr().err


# --- adiabats ------------------------------------------------------------------------


def test_adiabats_csv(tmp_path):
    # default r_max is shorter than the decoupling radius at 0.5 debye;
    # the labeling must not depend on the output grid
    out = tmp_path / "adiabats.csv"
    code = main(
        ["adiabats"]
        + BASE
        + [
            "--set", "dipole_debye=0.5",
            "--set", "l_max=3",
            "--set", "n_r=20",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(str(out))
    assert header == ["R_bohr", "curve_label", "V_hartree"]
    labels = {r[1] for r in rows}
    assert labels == {
        f"L{L}_M{M}" for L in (1, 3) for M in range(L + 1)
    }
    by_label = {}
    for r in rows:
        by_label.setdefault(r[1], []).append(float(r[0]))
    for radii in by_label.values():
        assert len(radii) == 20
        assert radii == sorted(radii)


@pytest.mark.parametrize("command", ["adiabats", "fit"])
def test_unwritable_out_is_one_line_and_exit_2(tmp_path, capsys, command):
    # the CSV writer and fit's text writer: no traceback, the path named
    data = tmp_path / "data.csv"
    data.write_text("d_debye,K_cm3_s\n0.05,1e-12\n0.1,2e-12\n")
    out = tmp_path / "no" / "such" / "dir" / "out.txt"
    code = main([command] + BASE + [
        "--set", "l_max=1", "--set", "n_r=20", "--set", f"dataset_csv={data}",
        "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err
    assert "Traceback" not in err
