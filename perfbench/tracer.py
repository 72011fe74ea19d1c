"""Spans around calls into coldchem's layers, recorded from outside the program.

The tracer replaces module attributes by name with timing wrappers.  A
target whose module or attribute does not exist is reported as absent, so
the same benchmark keeps running when a later version of the package
merges, renames or deletes a function.  Every binding of the original
function in the loaded ``coldchem`` modules is replaced, because
``from .x import f`` copies the reference into the importing module.

A span's self time is its duration minus the part covered by child spans.
Spans are kept in memory and summarised when the pass ends.
"""
from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """One traced layer boundary.

    ``work`` maps (args, result) to a work count added per call;
    ``unique`` marks targets whose distinct-argument share is reported;
    ``keep_durations`` keeps every span's duration for percentiles; and
    ``s_matrix`` records the largest |S| among the returned results.
    """

    name: str
    module: str
    attr: str
    unique: bool = False
    work: object = None
    keep_durations: bool = False
    s_matrix: bool = False


def _steps_built(args, result):
    return len(result[1])


TARGETS = (
    Target("cli.resolve_config", "coldchem.cli", "resolve_config"),
    Target("cli.write", "coldchem.cli", "_write_csv"),
    Target("scanfit.scan_dipole", "coldchem.scanfit", "scan_dipole"),
    Target(
        "scanfit.rate_point", "coldchem.scanfit", "rate_point",
        keep_durations=True, s_matrix=True,
    ),
    Target("potential.adiabatic_curves", "coldchem.potential", "adiabatic_curves"),
    Target("potential.block_eigen", "coldchem.propagator", "_block_eigenvalues"),
    Target("propagator.propagate", "coldchem.propagator", "propagate"),
    Target("propagator.propagate_block", "coldchem.propagator", "propagate_block"),
    Target(
        "propagator.build_steps", "coldchem.propagator", "RadialGrid.build_steps",
        unique=True, work=_steps_built,
    ),
    Target("propagator.step_matrices", "coldchem.propagator", "step_matrices"),
    Target("propagator.chain_product", "coldchem.propagator", "chain_product"),
    Target("propagator.match", "coldchem.propagator", "match_free_solution"),
    Target("propagator.calibrate_phase", "coldchem.propagator", "calibrate_phase",
           unique=True),
    Target("qdt.rates_from_s_matrix", "coldchem.qdt", "rates_from_s_matrix"),
)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    keys: set = field(default_factory=set)
    durations: list = field(default_factory=list)


def _resolve(target: Target):
    """(owner, leaf name, original) or None when the target is absent."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(
        owner, leaf, None
    )
    if not callable(original):
        return None
    return owner, leaf, original


class Tracer:
    """Installs the wrappers for the lifetime of a ``with`` block."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.stats = {t.name: LayerStats() for t in targets}
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self.max_abs_s = None  # largest |S| seen in rate_point results
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target.name)
                continue
            owner, leaf, original = found
            wrapper = self._wrap(target, original)
            self._replace(owner, leaf, original, wrapper)
            if not isinstance(owner, type):
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if name.startswith("coldchem") and module is not owner and (
                        module.__dict__.get(leaf) is original
                    ):
                        self._replace(module, leaf, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()
        return False

    def _replace(self, owner, leaf, original, wrapper):
        setattr(owner, leaf, wrapper)
        self._undo.append((owner, leaf, original))

    def _wrap(self, target: Target, fn):
        stats = self.stats[target.name]
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[0]
                if target.keep_durations:
                    stats.durations.append(dt)
            if target.unique:
                stats.keys.add(repr((args, sorted(kwargs.items()))))
            if target.work is not None:
                try:
                    stats.work += target.work(args, result)
                except (TypeError, IndexError, KeyError):
                    self.uncounted.add(target.name)  # the result changed shape
            if target.s_matrix:
                self._observe_s_matrix(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_s_matrix(self, result):
        try:
            values = [abs(r.s_matrix) for r in result.values()]
        except AttributeError:
            return
        if values:
            top = max(values)
            self.max_abs_s = top if self.max_abs_s is None else max(self.max_abs_s, top)

    def summary(self) -> dict:
        layers = {}
        for target in self.targets:
            st = self.stats[target.name]
            entry = {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
            if target.work is not None:
                entry["work"] = st.work
            if target.unique:
                entry["unique"] = len(st.keys)
            if target.keep_durations:
                entry["durations"] = st.durations
            layers[target.name] = entry
        return {
            "layers": layers,
            "absent": self.absent,
            "uncounted": sorted(self.uncounted),
            "max_abs_s": self.max_abs_s,
        }


class PoolCounter:
    """Counts process-pool starts and submitted tasks in ``coldchem.scanfit``."""

    def __init__(self):
        self.starts = 0
        self.tasks = 0
        self.absent = False
        self._undo = None

    def __enter__(self):
        try:
            scanfit = importlib.import_module("coldchem.scanfit")
        except ImportError:
            self.absent = True
            return self
        base = getattr(scanfit, "ProcessPoolExecutor", None)
        if not isinstance(base, type):
            self.absent = True
            return self
        counter = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counter.starts += 1
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                counter.tasks += 1
                return super().submit(fn, *args, **kwargs)

        scanfit.ProcessPoolExecutor = CountingPool
        self._undo = (scanfit, base)
        return self

    def __exit__(self, *exc):
        if self._undo is not None:
            module, base = self._undo
            module.ProcessPoolExecutor = base
        return False
