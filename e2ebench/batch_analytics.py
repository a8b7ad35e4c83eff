"""batch-analytics: heavy distinct queries through a forked worker pool.

A :class:`BatchSession` with ``min(2, nproc)`` workers over a frozen
in-memory graph runs batches of distinct heavy queries: PathQL star
COUNTs, SPARQL ``+`` closures and Cypher ``*1..k DISTINCT``.  No query
repeats, so the per-worker caches never hit.  This isolates the RPQ core
(both engines) and the parallel tier; storage, import, cache hits and views
are bypassed.

Layer time inside the workers: the wrappers are installed before the
traced pool forks, so workers inherit them; the ``e2ebench.layers`` task
returns each worker's accounting to the parent.
"""

from __future__ import annotations

import os
import time

from repro.core.rpq.nfa import compile_cache_info
from repro.core.rpq.vectorized.arrays import adjacency_cache_info
from repro.exec import BatchSession
from repro.exec.parallel import register_task
from repro.obs import Tracer

import layers
import report
from check import fingerprint

WORKERS = min(2, os.cpu_count() or 1)

#: Builds each worker's SPARQL and Cypher stores and compiles a regex;
#: none of these texts is a timed key.
WARMUP = [
    ("sparql", "SELECT ?y WHERE { <n1> <lives> ?y . }"),
    ("cypher", 'MATCH (p {pid: "n1"})-[:lives]->(a) RETURN a.zip'),
    ("pathql", "PATHS MATCHING lives FROM n1 LENGTH 1 COUNT"),
]

_perf = time.perf_counter


@register_task("e2ebench.layers")
def _worker_layers(state, payload, ctx, tracer):
    """Worker side: this process's layer accounting and RPQ caches."""
    active = layers.ACTIVE
    return {"tracer": active.snapshot() if active is not None else None,
            "compile": compile_cache_info(),
            "arrays": adjacency_cache_info()}


def _worker_task_seconds(spans) -> float:
    """Total duration of the task spans the pool merged under its
    ``worker:<i>`` spans."""
    total = 0.0
    for span in spans:
        if span.name.startswith("worker:"):
            total += sum(task.duration or 0.0 for task in span.children)
        else:
            total += _worker_task_seconds(span.children)
    return total


class BatchAnalytics:
    name = "batch-analytics"

    def __init__(self, data: dict, workdir: str) -> None:
        self.graph = data["graph"]
        self.batches = data["batches"]
        self.session = None
        self.records: list[tuple] = []
        self.tracer = None
        self.cache_entries = 0

    def setup(self) -> None:
        self.close()
        self.session = BatchSession(self.graph, workers=WORKERS)
        warmup = [query for query in WARMUP for _ in range(WORKERS)]
        for result in self.session.run_batch(warmup):
            if not result.ok:
                raise RuntimeError(f"warm-up failed: {result.error}")

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def measure(self, seconds: float, samples: report.Samples) -> None:
        if self.session is None:  # closed by the traced block before
            self.setup()
        begin = _perf()
        deadline = begin + seconds
        while _perf() < deadline:
            batch = next(self.batches)
            spans = Tracer() if self.tracer is not None else None
            start = _perf()
            try:
                results = self.session.run_batch(batch, tracer=spans)
            except Exception as error:  # counted as failed operations
                self.records.append(("error", batch, repr(error)))
                samples.ops += len(batch)
                continue
            elapsed = _perf() - start
            samples.add("batch", elapsed)
            samples.ops += len(batch)
            self.records.append(("batch", batch,
                                 [(r.status, fingerprint(r.value))
                                  for r in results]))
            if spans is not None:
                self.tracer.count("exec.worker_busy_s",
                                  _worker_task_seconds(spans.roots))
                self.tracer.count("exec.worker_capacity_s",
                                  self.session.workers * elapsed)
        samples.elapsed += _perf() - begin

    # -- metrics -------------------------------------------------------------

    @staticmethod
    def p50_s(samples: report.Samples) -> float:
        return report.median(samples.of("batch"))

    @staticmethod
    def tail_values(samples: report.Samples) -> list[float]:
        return samples.of("batch")

    @staticmethod
    def kind_metrics(samples: report.Samples) -> dict:
        return {"batch_p50_ms": report.p50_ms(samples.of("batch")),
                "batch_tail_ms": report.tail_ms(samples.of("batch"))}

    def begin_traced(self, tracer) -> None:
        """Re-open the pool under the wrappers, so the workers carry them."""
        self.close()
        self._compile_before = compile_cache_info()
        self._arrays_before = adjacency_cache_info()
        self.setup()
        self.tracer = tracer

    def end_traced(self, tracer) -> None:
        """Collect the workers' accounting and close the traced pool; the
        next untraced block opens a pool without the wrappers."""
        probes = self.session.pool.run_tasks(
            [("e2ebench.layers", {})] * self.session.workers)
        for probe in probes:
            if probe["tracer"] is not None:
                tracer.merge(probe["tracer"])
            tracer.count("rpq.compile_hits", probe["compile"]["hits"]
                         - self._compile_before["hits"])
            tracer.count("rpq.compile_misses", probe["compile"]["misses"]
                         - self._compile_before["misses"])
            tracer.count("rpq.arrays_rebuilds", probe["arrays"]["misses"]
                         - self._arrays_before["misses"])
        cache = self.session.cache_stats()
        tracer.count("cache.hits", cache["hits"])
        tracer.count("cache.lookups", cache["hits"] + cache["misses"])
        tracer.count("cache.stale", cache["stale"])
        self.cache_entries = cache["entries"]
        self.tracer = None
        self.close()

    def layer_extra(self, tracer) -> dict:
        return {"cache.entries": self.cache_entries}

    # -- correctness -----------------------------------------------------------

    def verify(self, plant: bool = False) -> tuple[int, int]:
        """Re-run every batch inline (``workers=1``, no cache, scalar
        engine) and compare each query's answer.

        A query fails if its answer differs, or if it did not finish with
        status ``ok`` in the run or in the reference: ``run_batch`` turns
        a query's error or budget stop into a status, and a fault that hits
        both paths alike would otherwise compare equal.

        Returns ``(attempted, failed)``.  ``plant`` corrupts the first
        expected answer.
        """
        failed = attempted = 0
        with BatchSession(self.graph, workers=1, cache=False,
                          engine="scalar") as inline:
            for kind, batch, answers in self.records:
                attempted += len(batch)
                if kind == "error":
                    failed += len(batch)
                    continue
                expected = [(r.status, fingerprint(r.value))
                            for r in inline.run_batch(batch)]
                if plant:
                    expected[0], plant = ("ok", "planted-wrong-answer"), False
                failed += sum(got != want or got[0] != "ok"
                              for got, want in zip(answers, expected))
        return attempted, failed
