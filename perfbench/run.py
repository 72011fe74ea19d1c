"""coldchem benchmark: end-to-end timings of three CLI workloads and a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload rates_krb --seed 7 --seconds 30 --trace 0

One closed-loop client runs one CLI operation at a time, each in a fresh
interpreter, until ``--seconds`` have passed; ``rates_krb`` and ``fit_sy``
use a process pool of ``min(2, nproc)`` workers.  Every output is
checked, and a non-zero exit or a failed check counts as a failed
operation.  With ``--trace 0`` the last stdout line carries the medians of
the end-to-end metrics; with ``--trace 1`` it carries per-layer metrics
from serial traced passes (``threads = 1``, so every span stays in the
traced process), plus pool starts and tasks counted in one pass at the
workload's own thread setting.  The line before it is a JSON record of
the environment, the sample counts and the accuracy witnesses.

The seed sets the inputs (see ``workloads.py``); the default seed, 7,
reproduces the shipped scan grids and the criterion-9 fit dataset, and
only there are the data rows compared with ``perfbench/reference``.
``--smoke`` runs every workload (or the one given) at toy size in both
modes.  ``--write-reference`` re-records the references.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # the whole run, set-up probes and checks included
SETUP_PROBES = 4

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: the fields reported for each traced layer
LAYER_METRICS = {
    "cli.resolve_config": ("self_s",),
    "cli.write": ("self_s",),
    "scanfit.rate_point": ("calls", "p50_ms", "p95_ms"),
    "scanfit.scan_dipole": ("calls", "self_s"),
    "potential.block_eigen": ("calls", "self_s"),
    "potential.adiabatic_curves": ("calls", "self_s"),
    "propagator.build_steps": ("calls", "self_s", "steps", "unique_ratio"),
    "propagator.match": ("calls", "self_s"),
    "propagator.step_matrices": ("calls", "self_s"),
    "propagator.chain_product": ("calls", "self_s"),
    "propagator.calibrate_phase": ("calls", "self_s", "total_s", "unique_ratio"),
    "propagator.propagate": ("calls", "self_s"),
    "propagator.propagate_block": ("calls", "self_s"),
    "qdt.rates_from_s_matrix": ("calls", "self_s"),
}
FIELD_UNITS = {
    "calls": "count", "steps": "count", "self_s": "s", "total_s": "s",
    "p50_ms": "ms", "p95_ms": "ms", "unique_ratio": "ratio",
}
POOL_METRICS = ("starts", "tasks")


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    out = {
        f"{layer}.{field}": FIELD_UNITS[field]
        for layer, fields in LAYER_METRICS.items()
        for field in fields
    }
    out.update({f"scanfit.pool.{name}": "count" for name in POOL_METRICS})
    return out


# --- child processes ----------------------------------------------------------


class Runner:
    """Starts the child interpreters, one at a time, within the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in PINNED})
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
        )

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def child(self, mode: str, argv: list[str]) -> dict:
        """Run one child: its report plus ``setup_s``, or ``{"error": ...}``."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"error": "run deadline reached"}
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, CHILD, mode, json.dumps(argv)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": "timed out"}
        if proc.returncode != 0:
            last = (err.strip().splitlines() or ["no message"])[-1]
            return {"error": f"exit code {proc.returncode}: {last}"}
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": "unreadable child report"}
        report["setup_s"] = report["ready"] - start
        return report


class Operations:
    """Seeded inputs, runs and output checks for one workload.

    Every operation counts as attempted; a non-zero exit, a missing report
    or a failed check counts it as failed.
    """

    def __init__(self, workload: wl.Workload, seed: int, smoke: bool, work: str):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.source = workload.source(seed, smoke)
        self.attempted = self.failed = 0
        self.details: list[dict] = []
        self.errors: list[str] = []
        self._count = 0

    def new(self) -> tuple[wl.Inputs, str]:
        """Fresh inputs and output path for the next operation."""
        self._count += 1
        inputs = self.source.next_inputs(os.path.join(self.work, f"data{self._count}.csv"))
        return inputs, os.path.join(self.work, f"out{self._count}.txt")

    def argv(self, op: tuple[wl.Inputs, str], threads: int) -> list[str]:
        return self.workload.argv(op[0], op[1], threads)

    def run(self, runner: "Runner", mode: str, threads: int, op=None):
        """(report, op) of one operation; report is None if the child failed.

        A report whose output fails a check is returned, so its timings
        still count, but the operation is counted as failed.
        """
        op = op or self.new()
        report = runner.child(mode, self.argv(op, threads))
        self.attempted += 1
        if "error" in report:
            self._fail(report["error"])
            return None, op
        reference = self.seed == wl.DEFAULT_SEED and not self.smoke
        try:
            self.details.append(self.workload.check(op[1], op[0], reference))
        except (OSError, ValueError, wl.CheckError) as exc:
            self._fail(str(exc))
        return report, op

    def _fail(self, error: str) -> None:
        self.failed += 1
        self.errors.append(error)


# --- statistics ---------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of ``values``."""
    ordered = sorted(values)
    return ordered[round(q * (len(ordered) - 1))]


def describe(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values), "tail": None}
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            out["tail"] = {"p": p, "value": quantile(values, p / 100)}
            break
    return out


def environment(pool: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "pool": pool,
        "pinned": {name: "1" for name in PINNED},
    }


def step_halving_witness() -> dict:
    """Gate 10's step-halving check on rate_point: KRb, 0.2 D, l_max = 3."""
    try:
        from coldchem import RadialGrid, ShortRangeParams, calibrate_phase, rate_point, units
        from coldchem.cli import resolve_config

        config = resolve_config(wl.CONFIG, [])
        system = dataclasses.replace(config["_system"], dipole=units.dipole_from_debye(0.2))
        params = ShortRangeParams(s=0.0, y=0.5)
        delta = calibrate_phase(system, ShortRangeParams(s=0.0, y=0.0))
        energy = units.energy_from_microkelvin(0.25)
        coarse = rate_point(system, params, delta, energy, l_max=3)
        fine = rate_point(
            system, params, delta, energy, l_max=3,
            grid=RadialGrid(points_per_wavelength=80.0, scale_fraction=40.0),
        )
        drift = max(
            abs(fine[ch].loss_probability / coarse[ch].loss_probability - 1.0) for ch in coarse
        )
    except Exception as exc:  # noqa: BLE001 - a witness never stops the run
        return {"unavailable": f"{type(exc).__name__}: {exc}"}
    return {"step_halving_dp": drift}


# --- the two modes ------------------------------------------------------------


def timed_run(ops: Operations, runner: Runner, seconds: float, pool: int, probes: int):
    """Closed loop of fresh-interpreter operations for ``seconds``."""
    op = ops.new()
    setup = [runner.child("setup", ops.argv(op, pool)).get("setup_s") for _ in range(probes)]
    samples = {name: [] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    t_end = time.monotonic() + seconds
    while ops.attempted == 0 or (time.monotonic() < t_end and not runner.expired()):
        report, _ = ops.run(runner, "run", pool, op)
        op = None
        if report is not None:
            setup.append(report["setup_s"])
            for name in samples:
                samples[name].append(report[name])
    samples["setup_s"] = [s for s in setup if s is not None]
    return samples


def traced_run(ops: Operations, runner: Runner, seconds: float, pool: int):
    """Serial traced passes for ``seconds``, then one counted pool pass.

    Every pass repeats the inputs of the first, so counts are per pass.  A
    workload without a pool is serial untraced too, so there each traced
    pass follows an untraced one and the pairs give the tracing overhead.
    """
    traces, walls, overheads, first = [], [], [], None
    t_end = time.monotonic() + seconds
    while not traces or time.monotonic() < t_end:
        untraced = None
        if not ops.workload.pool:
            untraced, first = ops.run(runner, "run", 1, first)
        report, first = ops.run(runner, "trace", 1, first)
        if report is None:
            break
        traces.append(report["trace"])
        walls.append(report["wall_s"])
        if untraced is not None:
            overheads.append(report["wall_s"] / untraced["wall_s"] - 1.0)
    record = {"traced_wall_s": statistics.median(walls)} if walls else {}
    if overheads:
        record["trace_overhead"] = statistics.median(overheads)
    pool_counts = dict.fromkeys(POOL_METRICS, 0)
    if ops.workload.pool and pool > 1:
        # the same inputs as the first traced pass, at the workload's threads
        report, _ = ops.run(runner, "pool", pool, first)
        if report is not None:
            pool_counts = {name: report["pool"][name] for name in POOL_METRICS}
            record["pool_absent"] = report["pool"]["absent"]
    return traces, pool_counts, record


def layer_metrics(traces: list[dict], pool_counts: dict) -> tuple[dict, dict]:
    """Per-pass means of every per-layer metric, and trace facts for the record."""
    units = per_layer_names()
    passes = len(traces)
    values = {}
    for layer, fields in LAYER_METRICS.items():
        entries = [t["layers"].get(layer, {}) for t in traces]
        durations = [d for e in entries for d in e.get("durations", [])]
        for field in fields:
            if field == "unique_ratio":
                ratios = [e["unique"] / e["calls"] for e in entries if e.get("calls")]
                value = statistics.fmean(ratios) if ratios else 0.0
            elif field in ("p50_ms", "p95_ms"):
                q = 0.5 if field == "p50_ms" else 0.95
                value = 1e3 * quantile(durations, q) if durations else 0.0
            else:
                key = "work" if field == "steps" else field
                value = sum(e.get(key, 0) for e in entries) / passes
            values[f"{layer}.{field}"] = value
    for name in POOL_METRICS:
        values[f"scanfit.pool.{name}"] = pool_counts[name]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    tops = [t["max_abs_s"] for t in traces if t["max_abs_s"] is not None]
    facts = {
        "passes": passes,
        "absent": sorted({name for t in traces for name in t["absent"]}),
        "uncounted": sorted({name for t in traces for name in t["uncounted"]}),
        "total_steps": values["propagator.build_steps.steps"],
        "max_abs_s": max(tops) if tops else None,
    }
    return metrics, facts


# --- entry point --------------------------------------------------------------


def run_workload(args, name: str, pool: int) -> dict:
    workload = wl.WORKLOADS[name]
    work = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    try:
        ops = Operations(workload, args.seed, args.smoke, work)
        record = {"workload": name, "seed": args.seed, "environment": environment(pool)}
        if args.trace:
            traces, pool_counts, facts = traced_run(ops, runner, args.seconds, pool)
            if not traces:
                raise SystemExit(f"{name}: no traced pass completed: {ops.errors}")
            metrics, trace_facts = layer_metrics(traces, pool_counts)
            record["trace"] = {**facts, **trace_facts}
        else:
            probes = 1 if args.smoke else SETUP_PROBES
            samples = timed_run(ops, runner, args.seconds, pool, probes)
            if not samples["wall_s"]:
                raise SystemExit(f"{name}: no operation completed: {ops.errors}")
            summary = {metric: describe(values) for metric, values in samples.items()}
            metrics = {
                metric: {"value": summary[metric]["median"], "unit": unit}
                for metric, unit in END_TO_END.items()
            }
            record["samples"] = summary
            record["witnesses"] = step_halving_witness()
        record["outputs"] = ops.details
        record["errors"] = ops.errors
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"record": record, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}


def write_references(pool: int) -> None:
    """Record the default-seed data rows of rates_krb and ploss_wide."""
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, f"reference-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = Runner(time.monotonic() + 600.0)
    try:
        for name in ("rates_krb", "ploss_wide"):
            ops = Operations(wl.WORKLOADS[name], wl.DEFAULT_SEED, False, work)
            inputs, out = ops.new()
            report = runner.child("run", ops.argv((inputs, out), pool))
            if "error" in report:
                raise SystemExit(f"{name}: {report['error']}")
            header, rows = wl.read_csv(out)
            with open(os.path.join(wl.REFERENCE_DIR, f"{name}.csv"), "w") as fh:
                fh.write(f"# {name} data rows at seed {wl.DEFAULT_SEED}, 7 significant digits\n")
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(f"{v:.7g}" for v in row) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, every workload and mode")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    for needed in ("src/coldchem/cli.py", wl.CONFIG):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))  # untimed truth and witness
    pool = min(2, os.cpu_count() or 1)

    if args.write_reference:
        write_references(pool)
        return 0
    if args.smoke:
        ok = True
        for name in [args.workload] if args.workload else list(wl.WORKLOADS):
            for trace in (0, 1):
                args.trace = trace
                result = run_workload(args, name, pool)
                print(json.dumps({
                    "workload": name,
                    "trace": trace,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": sorted(result["metrics"]),
                }))
                ok = ok and result["failed"] == 0
        return 0 if ok else 1

    result = run_workload(args, args.workload, pool)
    print(json.dumps(result["record"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
