"""Latency summaries, the result line and the run history."""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import statistics
import sys

#: A tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that has at least
    :data:`TAIL_BEYOND` samples beyond it, and never below the median:
    with fewer than ``2 * TAIL_BEYOND`` samples the tail is the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Samples:
    """Latencies in seconds, grouped by operation kind."""

    def __init__(self) -> None:
        self.by_kind: dict[str, list[float]] = {}
        self.elapsed = 0.0
        self.ops = 0

    def add(self, kind: str, seconds: float) -> None:
        self.by_kind.setdefault(kind, []).append(seconds)

    def of(self, *kinds) -> list[float]:
        if not kinds:
            kinds = tuple(self.by_kind)
        return [value for kind in kinds for value in self.by_kind.get(kind, ())]

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed if self.elapsed else 0.0


def metric(value: float, unit: str, samples: int | None = None,
           percentile: float | None = None) -> dict:
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    if percentile is not None:
        entry["percentile"] = round(percentile, 2)
    return entry


def p50_ms(values) -> dict:
    return metric(1000.0 * median(values), "ms", len(values), 50.0)


def tail_ms(values) -> dict:
    value, percentile = tail(values)
    return metric(1000.0 * value, "ms", len(values), percentile)


def end_to_end(samples: Samples, setup_times: list[float], workload) -> dict:
    """The gated metrics, the same four on every workload.  ``workload``
    supplies ``p50_s(samples)`` and ``tail_values(samples)``."""
    return {
        "setup_s": metric(median(setup_times), "s", len(setup_times), 50.0),
        "ops_per_s": metric(samples.ops_per_s, "1/s", samples.ops),
        "p50_ms": metric(1000.0 * workload.p50_s(samples), "ms",
                         len(samples.of()), 50.0),
        "tail_ms": tail_ms(workload.tail_values(samples)),
    }


def print_metrics(title: str, metrics: dict) -> None:
    """Human-readable lines on stderr: name, value, unit, samples, pct."""
    print(f"# {title}", file=sys.stderr)
    for name, entry in metrics.items():
        extra = ""
        if "samples" in entry:
            extra += f"  n={entry['samples']}"
        if "percentile" in entry:
            extra += f"  p{entry['percentile']:g}"
        print(f"  {name:28s} {entry['value']:14.4f} {entry['unit']}{extra}",
              file=sys.stderr)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()}})


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    paths = []
    for directory, _, files in os.walk(src):
        paths.extend(os.path.join(directory, name) for name in files
                     if name.endswith(".py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit(root: str) -> str | None:
    """The checked-out commit read from ``.git`` (no git process is
    started); ``None`` outside a git work tree."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as f:
            return f.read().strip()
    except OSError:
        return None


def append_history(path: str, root: str, record: dict) -> None:
    """Append one run to the JSON-lines history at ``path``."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "commit": commit(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        **record,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


#: Per-operation-kind latencies, measured untraced.  Each workload fills
#: the kinds it has; the rest read 0.
KIND_METRICS = [
    "point_read_p50_ms", "path_read_p50_ms", "read_tail_ms",
    "write_p50_ms", "write_tail_ms", "checkpoint_p50_ms", "view_p50_ms",
    "cli_mmap_p50_ms", "cli_durable_p50_ms", "cli_tail_ms",
    "batch_p50_ms", "batch_tail_ms",
]

#: Per-layer metrics of the traced run, ``(name, unit)``.  A ``*_ms``
#: value is the mean per outermost call of that layer.
LAYER_METRICS = [
    ("cli.import_s", "s"), ("cli.serialize_ms", "ms"),
    ("query.parse_ms", "ms"), ("query.exec_ms", "ms"),
    ("query.sparql_store_build_ms", "ms"),
    ("query.cypher_store_build_ms", "ms"), ("query.store_builds", "count"),
    ("rpq.compile_ms", "ms"), ("rpq.compile_hit_ratio", "ratio"),
    ("rpq.eval_ms", "ms"), ("rpq.vector_share", "ratio"),
    ("rpq.arrays_rebuilds", "count"),
    ("exec.pool_open_ms", "ms"), ("exec.batch_ms", "ms"),
    ("exec.worker_busy_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"), ("cache.stale_ratio", "ratio"),
    ("cache.entries", "count"),
    ("ivm.serve_ms", "ms"), ("ivm.sync_ms", "ms"), ("ivm.delta_ratio", "ratio"),
    ("storage.write_ms", "ms"), ("storage.fsyncs_per_write", "ratio"),
    ("storage.wal_bytes_per_write", "bytes"), ("storage.checkpoint_ms", "ms"),
    ("storage.recover_ms", "ms"), ("storage.mmap_open_ms", "ms"),
    ("storage.segment_decode_ratio", "ratio"),
    ("obs.trace_overhead", "ratio"),
]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, *, overhead: float, kinds: dict,
                  extra: dict) -> dict:
    """Every per-layer metric from the traced blocks of a run.

    The workloads add what the wrappers cannot see to the tracer's
    counters (cache, view and worker accounting, per traced block);
    ``extra`` supplies the values that are not sums (the CLI import time,
    the cache size); ``kinds`` the untraced per-kind latencies.
    """
    counters = tracer.counters
    calls = tracer.calls
    writes = calls.get("storage.write", 0)
    values = {
        "cli.serialize_ms": tracer.mean_ms("cli.serialize"),
        "query.parse_ms": tracer.mean_ms("query.parse"),
        "query.exec_ms": tracer.mean_ms("query.exec", self_only=True),
        "query.sparql_store_build_ms":
            tracer.mean_ms("query.sparql_store_build"),
        "query.cypher_store_build_ms":
            tracer.mean_ms("query.cypher_store_build"),
        "query.store_builds": calls.get("query.sparql_store_build", 0)
        + calls.get("query.cypher_store_build", 0),
        "rpq.compile_ms": tracer.mean_ms("rpq.compile"),
        "rpq.compile_hit_ratio": ratio(
            counters.get("rpq.compile_hits", 0),
            counters.get("rpq.compile_hits", 0)
            + counters.get("rpq.compile_misses", 0)),
        "rpq.eval_ms": tracer.mean_ms("rpq.eval"),
        "rpq.vector_share": ratio(counters.get("rpq.vector_evals", 0),
                                  calls.get("rpq.eval", 0)),
        "rpq.arrays_rebuilds": counters.get("rpq.arrays_rebuilds", 0),
        "exec.pool_open_ms": tracer.mean_ms("exec.pool_open"),
        "exec.batch_ms": tracer.mean_ms("exec.batch"),
        "exec.worker_busy_ratio": ratio(
            counters.get("exec.worker_busy_s", 0),
            counters.get("exec.worker_capacity_s", 0)),
        "cache.hit_ratio": ratio(counters.get("cache.hits", 0),
                                 counters.get("cache.lookups", 0)),
        "cache.stale_ratio": ratio(counters.get("cache.stale", 0),
                                   counters.get("cache.lookups", 0)),
        "ivm.serve_ms": tracer.mean_ms("ivm.serve"),
        "ivm.sync_ms": tracer.mean_ms("ivm.sync"),
        "ivm.delta_ratio": ratio(
            counters.get("ivm.delta_syncs", 0),
            counters.get("ivm.delta_syncs", 0)
            + counters.get("ivm.fallback_syncs", 0)),
        "storage.write_ms": tracer.mean_ms("storage.write", self_only=True),
        "storage.fsyncs_per_write": ratio(counters.get("storage.fsyncs", 0),
                                          writes),
        "storage.wal_bytes_per_write": ratio(
            counters.get("storage.wal_bytes", 0), writes),
        "storage.checkpoint_ms": tracer.mean_ms("storage.checkpoint"),
        "storage.recover_ms": tracer.mean_ms("storage.recover"),
        "storage.mmap_open_ms": tracer.mean_ms("storage.mmap_open"),
        "storage.segment_decode_ratio": ratio(
            counters.get("storage.decoded_labels", 0),
            counters.get("storage.present_labels", 0)),
        "obs.trace_overhead": overhead,
    }
    values.update(extra)
    metrics = {name: metric(float(values.get(name, 0.0)), unit)
               for name, unit in LAYER_METRICS}
    for name in KIND_METRICS:
        metrics[name] = kinds.get(name, metric(0.0, "ms", 0))
    return metrics
