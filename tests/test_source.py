"""Layout rules of the package source, and the names the benchmark traces in it."""
import importlib.util
import sys
from pathlib import Path

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
