"""One coldchem CLI invocation in a fresh interpreter, timed from inside.

Usage: python3 perfbench/child.py MODE ARGV_JSON

ARGV_JSON is the JSON list of arguments for ``coldchem.cli.main``.  MODE:

- ``setup``: import ``coldchem.cli`` and resolve the config, then stop;
- ``run``: as ``setup``, then time ``cli.main(argv)`` with its CPU time and
  peak RSS, pool workers included, and exit with its exit code;
- ``trace``: as ``run`` with the layer tracer installed;
- ``pool``: as ``run`` while counting process-pool starts and tasks.

The parent puts ``src`` on PYTHONPATH.  The last stdout line is one JSON
object.  ``ready`` is the CLOCK_MONOTONIC reading once set-up is done,
which the parent compares with its own reading taken just before it
started this process.
"""
import contextlib
import json
import resource
import sys
import time


def _config_args(argv):
    config, sets = None, []
    for flag, value in zip(argv, argv[1:]):
        if flag == "--config":
            config = value
        elif flag == "--set":
            sets.append(value)
    return config, sets


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    mode, argv = sys.argv[1], json.loads(sys.argv[2])
    from coldchem import cli

    config, sets = _config_args(argv)
    cli.resolve_config(config, sets)
    report = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    context = contextlib.nullcontext()
    if mode in ("trace", "pool"):
        import tracer

        context = tracer.Tracer() if mode == "trace" else tracer.PoolCounter()

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with context:
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    report.update(
        wall_s=wall,
        cpu_s=_cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
        # ru_maxrss is in KiB on Linux; for children it is the largest one
        peak_rss_mb=max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
    )
    if mode == "trace":
        report["trace"] = context.summary()
    elif mode == "pool":
        report["pool"] = {
            "starts": context.starts, "tasks": context.tasks, "absent": context.absent
        }
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
