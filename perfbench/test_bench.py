"""Tests of the benchmark itself: python3 -m pytest perfbench"""
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import run
import workloads as wl
from tracer import Target, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in wl.WORKLOADS.items()
    }


def test_tracer_self_time_and_absent_targets(monkeypatch):
    module = types.ModuleType("coldchem_fake")
    clock = iter(range(100))

    def inner():
        return (None, [1, 2, 3])

    def outer():
        return module.inner()

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "coldchem_fake", module)
    targets = (
        Target("outer", "coldchem_fake", "outer"),
        Target("inner", "coldchem_fake", "inner", unique=True, work=lambda a, r: len(r[1])),
        Target("gone", "coldchem_fake", "renamed_away"),
        Target("nomodule", "coldchem_no_such_module", "f"),
    )
    with Tracer(targets, clock=lambda: next(clock)) as tracer:
        module.outer()
        module.outer()
    assert module.outer is outer and module.inner is inner
    layers = tracer.summary()["layers"]
    # each inner span takes one tick, each outer span three
    assert layers["inner"] == {"calls": 2, "total_s": 2, "self_s": 2, "work": 6, "unique": 1}
    assert layers["gone"]["calls"] == 0
    assert layers["outer"]["total_s"] == 6 and layers["outer"]["self_s"] == 4
    assert tracer.absent == ["gone", "nomodule"]


def test_count_peaks():
    x = np.linspace(0.0, 1.0, 101)
    smooth = np.exp(5.0 * x)
    assert wl.count_peaks(smooth) == 0
    bumped = smooth.copy()
    bumped[50] *= 3.0
    assert wl.count_peaks(bumped) == 1


def test_reference_comparison_catches_a_changed_cell():
    header, rows = wl.read_csv(os.path.join(wl.REFERENCE_DIR, "rates_krb.csv"))
    wl.compare_reference("rates_krb", header, rows, range(1, len(header)), lambda r: r[1])
    rows[100][1] *= 1.01
    with pytest.raises(wl.CheckError):
        wl.compare_reference("rates_krb", header, rows, range(1, len(header)), lambda r: r[1])


def test_smoke_runs_every_workload_in_both_modes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke", "--seconds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (name, trace) for name in wl.WORKLOADS for trace in (0, 1)
    }
    assert all(r["failed"] == 0 and r["attempted"] >= 1 for r in results)
    names = {0: sorted(run.END_TO_END), 1: sorted(run.per_layer_names())}
    assert all(r["metrics"] == names[r["trace"]] for r in results)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rates_krb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
