"""Layout rules of the package source, and the names the benchmark traces in it."""
import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from coldchem import cli

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "coldchem"
MAX_LINE = 99
# traced layers of earlier versions of the package, reported as absent
ABSENT_LAYERS = {"propagator.propagate_block", "qdt.rates_from_s_matrix"}


def test_source_lines_fit_the_limit():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, "\n".join(long_lines)


def test_benchmark_layers_resolve(monkeypatch):
    # a renamed function would silently drop its per-layer metric from the benchmark
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    absent = {t.name for t in tracer.TARGETS if tracer._resolve(t) is None}
    assert absent == ABSENT_LAYERS


def test_benchmark_argv_resolves(monkeypatch, tmp_path):
    # every key the benchmark's commands set must stay a config key, threads included
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(ROOT)  # the argv names the shipped config by a relative path
    for workload in workloads.WORKLOADS.values():
        inputs = workload.source(workloads.DEFAULT_SEED, True).next_inputs(str(tmp_path / "in"))
        args = cli.build_parser().parse_args(workload.argv(inputs, str(tmp_path / "out"), 2))
        assert args.command == workload.command
        cli.resolve_config(args.config, args.set)


def test_package_imports_no_scipy():
    # the package runs on numpy alone; scipy is a test-only reference
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, "\n".join(found)


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
