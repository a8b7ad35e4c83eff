"""The scalar reference the workloads' answers are checked against.

A :class:`Reference` answers over one plain in-memory graph with
``engine="scalar"``, no query cache and no views, so an answer that went
through a cache, a view, the vector engine, a durable store, the mmap read
path or a worker process can be compared with it.
"""

from __future__ import annotations

import hashlib

from repro.core.rpq import endpoint_pairs, parse_regex
from repro.query import cypherish, pathql, sparql


def normalize(result):
    """An order-independent, comparable form of any frontend answer."""
    if isinstance(result, pathql.PathQueryResult):
        return ("pathql", result.mode, result.count, result.quality,
                sorted(path.to_text() for path in result.paths))
    if isinstance(result, sparql.SelectResult):
        return ("sparql", tuple(result.variables),
                sorted(repr(row) for row in result.rows))
    if isinstance(result, cypherish.CypherResult):
        return ("cypher", tuple(result.columns),
                sorted(repr(row) for row in result.rows))
    return ("pairs", sorted(repr(pair) for pair in result))


def fingerprint(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=12).hexdigest()


def answer_fingerprint(result) -> str:
    return fingerprint(normalize(result))


class Reference:
    """Scalar, uncached answers over ``graph`` at its current version."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self._triples = None
        self._triples_version = None
        self._properties = cypherish.store_for_graph(graph)

    def run(self, language: str, text: str):
        if language == "pathql":
            return pathql.run_pathql(self.graph, text, engine="scalar")
        if language == "sparql":
            if self._triples_version != self.graph.version:
                self._triples = sparql.store_for_graph(self.graph)
                self._triples_version = self.graph.version
            return sparql.run_sparql(self._triples, text, engine="scalar")
        if language == "cypher":
            return cypherish.run_cypher(self._properties, text,
                                        engine="scalar")
        if language == "pairs":
            return endpoint_pairs(self.graph, parse_regex(text),
                                  engine="scalar")
        raise ValueError(f"unknown language {language!r}")


def apply_write(graph, op: tuple) -> None:
    """Apply one ``("add"|"remove"|"age", ...)`` op from the input streams
    to a graph or durable store."""
    kind = op[0]
    if kind == "add":
        _, edge, source, target, date = op
        graph.add_edge(edge, source, target, "contact", {"date": date})
    elif kind == "remove":
        graph.remove_edge(op[1])
    elif kind == "age":
        graph.set_node_property(op[1], "age", op[2])
    else:
        raise ValueError(f"not a write: {op!r}")
