"""serve-mixed: one long-lived library session over a durable store.

The only workload that stresses the query frontends, the RPQ core, the
query cache, incremental views and storage writes together.  It bypasses
import, recovery, the mmap read path and the worker pool.

The session holds a property-model :class:`DurableGraph` (``fsync="batch"``,
a ``snapshot_every`` that checkpoints during the run), one 512-entry
:class:`QueryCache` shared by the three frontends, and two
:class:`ViewRegistry` objects (graph and Cypher store).  The SPARQL store is
a copy of the graph that is never revalidated, so the client rebuilds it
whenever the graph version has moved; those rebuilds form the read tail.
"""

from __future__ import annotations

import os
import time

from repro.cache import QueryCache
from repro.core.rpq import parse_regex
from repro.core.rpq.nfa import compile_cache_info
from repro.core.rpq.vectorized.arrays import adjacency_cache_info
from repro.ivm import ViewRegistry
from repro.models.io import dumps, loads
from repro.query import cypherish, pathql, sparql
from repro.storage import DurableGraph

import inputs
import report
from check import Reference, answer_fingerprint, apply_write

#: Effective writes between automatic checkpoints.
SNAPSHOT_EVERY = 20
CACHE_ENTRIES = 512

_perf = time.perf_counter


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, data: dict, workdir: str) -> None:
        self.initial = data["graph"]
        self.ops = data["ops"]
        self.workdir = workdir
        self.store = None
        self.records: list[tuple] = []
        self.consumed = 0
        self._setups = 0

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        self.close()
        self._setups += 1
        directory = os.path.join(self.workdir, f"store-{self._setups}")
        with DurableGraph.open(directory, fsync="batch") as loader:
            loader.ingest(self.initial)
            loader.checkpoint()
        self.store = DurableGraph.open(directory, fsync="batch",
                                       snapshot_every=SNAPSHOT_EVERY)
        graph = self.store.graph
        self.graph = graph
        self.cache = QueryCache(max_entries=CACHE_ENTRIES)
        self.triples = sparql.store_for_graph(graph)
        self.triples_version = graph.version
        self.properties = cypherish.store_for_graph(graph)
        self.graph_views = ViewRegistry(graph)
        self.cypher_views = ViewRegistry(self.properties)
        self.graph_views.register_pairs("pairs",
                                        parse_regex(inputs.VIEWS[1][1]))
        self.effective_writes = 0
        # Warm-up: compile every template's regexes and materialize the
        # views, without filling the cache with timed keys.
        for _, language, template in inputs.SERVE_TEMPLATES:
            self._read(language, template.format(p="n1"), cache=None)
        for index in range(len(inputs.VIEWS)):
            self._view(index)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    # -- operations --------------------------------------------------------

    def _read(self, language: str, text: str, cache):
        if language == "pathql":
            return pathql.run_pathql(self.graph, text, cache=cache)
        if language == "sparql":
            if self.triples_version != self.graph.version:
                self.triples = sparql.store_for_graph(self.graph)
                self.triples_version = self.graph.version
            return sparql.run_sparql(self.triples, text, cache=cache)
        return cypherish.run_cypher(self.properties, text, cache=cache)

    def _view(self, index: int):
        language, text = inputs.VIEWS[index]
        if language == "pathql":
            return pathql.run_pathql(self.graph, text, view=self.graph_views)
        if language == "pairs":
            return self.graph_views.result("pairs")
        return cypherish.run_cypher(self.properties, text,
                                    view=self.cypher_views)

    def _step(self, op: tuple) -> tuple[str, float, tuple]:
        kind = op[0]
        if kind == "read":
            scope, language, template = inputs.SERVE_TEMPLATES[op[1]]
            text = template.format(p=op[2])
            start = _perf()
            result = self._read(language, text, self.cache)
            elapsed = _perf() - start
            return scope, elapsed, ("read", language, text,
                                    answer_fingerprint(result))
        if kind == "view":
            start = _perf()
            result = self._view(op[1])
            elapsed = _perf() - start
            return "view", elapsed, ("view", op[1],
                                     answer_fingerprint(result))
        version = self.graph.version
        start = _perf()
        apply_write(self.store, op)
        elapsed = _perf() - start
        label = "write"
        if self.graph.version != version:
            self.effective_writes += 1
            if self.effective_writes % SNAPSHOT_EVERY == 0:
                label = "checkpoint"
        return label, elapsed, op

    def measure(self, seconds: float, samples: report.Samples) -> None:
        """Closed loop for ``seconds``, then on to the end of the round: a
        store rebuild is a large share of a round's time, so a run that
        stopped mid-round would skew ``ops_per_s``."""
        begin = _perf()
        deadline = begin + seconds
        while _perf() < deadline or self.consumed % inputs.ROUND_OPS:
            op = next(self.ops)
            self.consumed += 1
            try:
                kind, elapsed, record = self._step(op)
            except Exception as error:  # counted as a failed operation
                self.records.append(("error", op, repr(error)))
                samples.ops += 1
                continue
            samples.add(kind, elapsed)
            samples.ops += 1
            self.records.append(record)
        samples.elapsed += _perf() - begin

    # -- metrics -------------------------------------------------------------

    @staticmethod
    def p50_s(samples: report.Samples) -> float:
        return report.median(samples.of())

    @staticmethod
    def tail_values(samples: report.Samples) -> list[float]:
        return samples.of()

    @staticmethod
    def kind_metrics(samples: report.Samples) -> dict:
        reads = samples.of("point", "path")
        writes = samples.of("write", "checkpoint")
        return {
            "point_read_p50_ms": report.p50_ms(samples.of("point")),
            "path_read_p50_ms": report.p50_ms(samples.of("path")),
            "read_tail_ms": report.tail_ms(reads),
            "write_p50_ms": report.p50_ms(writes),
            "write_tail_ms": report.tail_ms(writes),
            "checkpoint_p50_ms": report.p50_ms(samples.of("checkpoint")),
            "view_p50_ms": report.p50_ms(samples.of("view")),
        }

    def _counters(self) -> dict:
        """Cache, view and RPQ-cache counters, to take differences of."""
        cache = self.cache.stats()
        view = self.graph_views.get("pairs").stats()
        return {
            "rpq.compile_hits": compile_cache_info()["hits"],
            "rpq.compile_misses": compile_cache_info()["misses"],
            "rpq.arrays_rebuilds": adjacency_cache_info()["misses"],
            "cache.hits": cache["hits"],
            "cache.lookups": cache["hits"] + cache["misses"],
            "cache.stale": cache["stale"],
            "ivm.delta_syncs": view["delta_syncs"],
            "ivm.fallback_syncs": sum(
                view[field] for field in ("full_recomputes",
                                          "threshold_fallbacks",
                                          "unhandled_fallbacks")),
        }

    def begin_traced(self, tracer) -> None:
        self._before = self._counters()

    def end_traced(self, tracer) -> None:
        for name, value in self._counters().items():
            tracer.count(name, value - self._before[name])

    def layer_extra(self, tracer) -> dict:
        return {"cache.entries": self.cache.stats()["entries"]}

    # -- correctness -----------------------------------------------------------

    def verify(self, plant: bool = False) -> tuple[int, int]:
        """Replay the run onto a fresh copy of the input graph and compare
        every answer with the scalar reference at the same version; then
        check that the durable store recovers to the replayed graph.

        Returns ``(attempted, failed)``.  ``plant`` corrupts the first
        expected answer, to prove a mismatch is counted.
        """
        self.close()
        graph = loads(dumps(self.initial))
        reference = Reference(graph)
        memo: dict = {}
        failed = 0
        for record in self.records:
            kind = record[0]
            if kind == "error":
                failed += 1
            elif kind in ("read", "view"):
                if kind == "read":
                    key = (record[1], record[2])
                else:
                    key = inputs.VIEWS[record[1]]
                expected = memo.get(key)
                if expected is None:
                    expected = memo[key] = answer_fingerprint(
                        reference.run(*key))
                if plant:
                    expected, plant = "planted-wrong-answer", False
                if record[-1] != expected:
                    failed += 1
            else:
                apply_write(graph, record)
                memo.clear()
        with DurableGraph.open(self.store.directory,
                               read_only=True) as recovered:
            if dumps(recovered.graph) != dumps(graph):
                failed += 1
        return len(self.records) + 1, failed
