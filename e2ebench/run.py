"""End-to-end benchmark of the repro graph query stack.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload serve-mixed --seed 1 --seconds 15 \\
        --trace 0

Workloads (see each module's docstring for why it exists):

- ``serve-mixed``      one library session: reads, write bursts, view re-reads
- ``cold-cli``         one ``python -m repro.cli`` process per query
- ``batch-analytics``  heavy distinct queries through a forked worker pool

Each run builds its inputs from ``--seed``, sets the program up
``SETUP_REPS`` times (``setup_s`` is the median), drives a closed loop for
``--seconds``, then checks every answer against a scalar reference.  The
last stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``; with
``--trace 1`` the per-layer metrics of a run that alternates untraced and
traced blocks (see ``TRACE_PHASES``).  A readable report goes to stderr
and the run is appended to ``e2ebench/history.jsonl``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5
#: ``--trace 1`` phases after a discarded warm-up of two units, as
#: ``(traced, units)``: untraced and traced blocks in the order ABBA ABBA,
#: so both kinds centre on the same moment and a steady drift (warm-up, a
#: slow spell of the host) weighs on both alike.
TRACE_PHASES = ((False, 1), (True, 2), (False, 2), (True, 2), (False, 1))
TRACE_UNITS = 2 + sum(units for _, units in TRACE_PHASES)
WORKLOADS = ("serve-mixed", "cold-cli", "batch-analytics")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def workload_class(name: str):
    if name == "serve-mixed":
        from serve_mixed import ServeMixed
        return ServeMixed
    if name == "cold-cli":
        from cold_cli import ColdCli
        return ColdCli
    from batch_analytics import BatchAnalytics
    return BatchAnalytics


def run(args, workdir: str, plant: bool = False) -> tuple[dict, int, int,
                                                           dict]:
    """Set up, measure and verify one run; return ``(metrics, attempted,
    failed, history record)``.  ``plant`` plants a wrong expected answer
    (self-test of the correctness accounting)."""
    import inputs
    import layers
    import report

    data = inputs.build(args.workload, args.seed)
    input_digest = inputs.digest(args.workload, args.seed, data)
    workload = workload_class(args.workload)(data, workdir)
    try:
        setup_times = []
        for _ in range(SETUP_REPS if args.trace == 0 else 1):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        targets = layers.standard_targets()
        print("# measuring", file=sys.stderr, flush=True)
        if args.trace == 0:
            samples = report.Samples()
            workload.measure(args.seconds, samples)
            kinds = workload.kind_metrics(samples)
            metrics = report.end_to_end(samples, setup_times, workload)
        else:
            unit = args.seconds / TRACE_UNITS
            workload.measure(2 * unit, report.Samples())
            untraced, traced = report.Samples(), report.Samples()
            tracer = layers.LayerTracer(targets)
            for with_tracer, units in TRACE_PHASES:
                if not with_tracer:
                    workload.measure(units * unit, untraced)
                    continue
                with tracer:
                    workload.begin_traced(tracer)
                    workload.measure(units * unit, traced)
                    workload.end_traced(tracer)
            kinds = workload.kind_metrics(untraced)
            metrics = report.layer_metrics(
                tracer, kinds=kinds, extra=workload.layer_extra(tracer),
                overhead=report.ratio(traced.ops_per_s,
                                      untraced.ops_per_s))
        attempted, failed = workload.verify(plant=plant)
    finally:
        workload.close()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "input_digest": input_digest, "attempted": attempted,
              "failed": failed, "metrics": {**metrics, **kinds}}
    return metrics, attempted, failed, record


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def sweep_stale_workdirs(root: str) -> None:
    """Remove the ``<workload>-<pid>`` work directories of runs that are
    gone: a run killed with SIGKILL never reaches its own clean-up."""
    if not os.path.isdir(root):
        return
    for name in os.listdir(root):
        workload, _, pid = name.rpartition("-")
        if workload in WORKLOADS and pid.isdigit() and not _alive(int(pid)):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"e2ebench: no repro sources at {os.path.join(ROOT, 'src')}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import procs
    import report

    procs.install()
    sweep_stale_workdirs(os.path.join(HERE, ".work"))
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        metrics, attempted, failed, record = run(args, workdir)
    finally:
        procs.kill_children()
        shutil.rmtree(workdir, ignore_errors=True)
    report.append_history(os.path.join(HERE, "history.jsonl"), ROOT, record)
    report.print_metrics(f"{args.workload} seed={args.seed} "
                         f"attempted={attempted} failed={failed}",
                         record["metrics"])
    print(report.result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
