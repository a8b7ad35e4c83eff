"""Seeded inputs for the three workloads.

Everything a workload feeds the program comes from here and is a pure
function of ``(workload, seed)``: the graph, and the stream of operations
the client sends.  :func:`digest` fingerprints both, so a run record names
exactly what was measured.

Each workload's graph is generated from a fixed seed (``GRAPH_SEED``) and
the run seed drives everything the client sends: start nodes, query
order, writes and the WAL tail.  Random contact graphs of these sizes
differ in query cost by up to a third from one generator seed to the
next, which would swamp the run-to-run spread the benchmark gates on.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random

from repro.datasets import generate_contact_graph
from repro.models.io import dumps

GRAPH_SEED = 2021
SERVE_PEOPLE = 1000
COLD_PEOPLE = 2000
BATCH_PEOPLE = 1500

#: serve-mixed rounds: reads, then a burst of writes, then one view re-read
#: (the views take turns).  Nearly every round moves the graph version, so
#: the client rebuilds its SPARQL store once a round; short rounds put enough
#: rebuilds in a run for the tail to rest on many of them.
#:
#: The query cache is reused only within a round.  99% of rounds add or
#: remove a contact edge, every read template reads contact edges, and the
#: rebuilt SPARQL store is a new cache target; so each round starts with
#: every entry stale or unreachable.  From the op stream (seeds 1-3, 300
#: rounds): 10% of reads repeat a key read earlier in the same round, 67%
#: repeat only a key of an earlier round, and a round reads at most 36
#: distinct keys, far below the 512 entries, so the cache size plays no
#: part.  A 150-round replay of seed 1 measured a hit ratio of 0.10 and a
#: stale ratio of 0.33.
READS_PER_ROUND = 36
WRITES_PER_ROUND = 3
ZIPF_EXPONENT = 1.1

DATES = [f"3/{day}/21" for day in range(1, 29)]

# serve-mixed read templates, 7 x SERVE_PEOPLE keys.
POINT_TEMPLATES = [
    ("pathql", "PATHS MATCHING contact FROM {p} LENGTH 1 LIMIT 50"),
    ("sparql", "SELECT ?y WHERE {{ <{p}> <contact> ?y . }}"),
    ("cypher", 'MATCH (p {{pid: "{p}"}})-[:contact]->(q) RETURN q.pid, q.age'),
]
PATH_TEMPLATES = [
    ("pathql", "PATHS MATCHING contact/contact FROM {p} LENGTH 2 COUNT"),
    ("pathql", "PATHS MATCHING (contact + lives/lives^-)* FROM {p} "
               "LENGTH 3 COUNT"),
    ("sparql", "SELECT ?y WHERE {{ <{p}> <contact>/<contact> ?y . }}"),
    ("cypher", 'MATCH (p {{pid: "{p}"}})-[:contact*1..2]->(q) '
               "RETURN DISTINCT q.pid"),
]
SERVE_TEMPLATES = [("point", *t) for t in POINT_TEMPLATES] + \
                  [("path", *t) for t in PATH_TEMPLATES]

# serve-mixed materialized views, re-read after every write burst.
VIEWS = [
    ("pathql", "PATHS MATCHING ?infected/contact LENGTH 1 COUNT"),
    ("pairs", "?infected/contact/contact"),
    ("cypher", "MATCH (p:infected)-[:contact]->(q:person) "
               "RETURN DISTINCT q.pid"),
]
ROUND_OPS = READS_PER_ROUND + WRITES_PER_ROUND + 1

# cold-cli: cheap point queries, cycling over the three languages.
COLD_TEMPLATES = [
    ("pathql", "PATHS MATCHING contact FROM {p} LENGTH 1 COUNT"),
    ("sparql", "SELECT ?y WHERE {{ <{p}> <contact> ?y . }}"),
    ("cypher", 'MATCH (p {{pid: "{p}"}})-[:contact]->(q) RETURN q.pid'),
]
COLD_MODES = ("--from-store", "--durable")
COLD_TAIL_WRITES = 300

# batch-analytics: heavy queries, each template run from BATCH_STRATA start
# people per batch, one from each cost stratum.
BATCH_TEMPLATES = [
    ("pathql", "PATHS MATCHING contact* FROM {p} LENGTH 3 COUNT"),
    ("pathql", "PATHS MATCHING contact* FROM {p} LENGTH 4 COUNT"),
    ("pathql", "PATHS MATCHING (contact + lives/lives^-)* FROM {p} "
               "LENGTH 3 COUNT"),
    ("pathql", "PATHS MATCHING (contact + rides/rides^-)* FROM {p} "
               "LENGTH 2 COUNT"),
    ("sparql", "SELECT ?y WHERE {{ <{p}> <contact>+ ?y . }}"),
    ("sparql", "SELECT ?y WHERE {{ <{p}> (<contact>|<lives>|^<lives>)+ "
               "?y . }}"),
    ("cypher", 'MATCH (p {{pid: "{p}"}})-[:contact*1..3]->(q) '
               "RETURN DISTINCT q.pid"),
]
BATCH_STRATA = 4
#: Order of the strata within each template's slots.  The pool sends task
#: ``i`` to worker ``i % workers``, so with two workers one gets the
#: cheapest and dearest stratum and the other the two middle ones.
BATCH_STRATUM_ORDER = (0, 1, 3, 2)


def contact_graph(people: int, seed: int):
    """The contact-tracing property graph, with a unique ``pid`` on every
    person so Cypher can select one node."""
    graph = generate_contact_graph(people, n_buses=max(4, people // 75),
                                   n_addresses=people // 3, n_companies=4,
                                   rng=seed)
    for index in range(1, people + 1):
        graph.set_node_property(f"n{index}", "pid", f"n{index}")
    return graph


def _people(count: int) -> list[str]:
    return [f"n{index}" for index in range(1, count + 1)]


def serve_ops(seed: int):
    """The serve-mixed operation stream (endless).

    Ops are ``("read", template, person)``, ``("add", edge, source, target,
    date)``, ``("remove", edge)``, ``("age", person, value)`` and
    ``("view", index)``.  Read start nodes follow a Zipf law over a
    seeded permutation of the people; removals only name edges the stream
    added, so every write succeeds.
    """
    rng = random.Random(f"serve-ops:{seed}")
    people = _people(SERVE_PEOPLE)
    rng.shuffle(people)
    weights = itertools.accumulate(1.0 / (rank ** ZIPF_EXPONENT)
                                   for rank in range(1, len(people) + 1))
    cumulative = list(weights)

    def zipf_person() -> str:
        return people[bisect.bisect_left(cumulative,
                                         rng.random() * cumulative[-1])]

    added: list[str] = []
    next_edge = 0
    for round_index in itertools.count():
        for _ in range(READS_PER_ROUND):
            yield ("read", rng.randrange(len(SERVE_TEMPLATES)),
                   zipf_person())
        for _ in range(WRITES_PER_ROUND):
            roll = rng.random()
            if roll < 0.5 or not added:
                source = zipf_person()
                target = rng.choice(people)
                while target == source:
                    target = rng.choice(people)
                edge = f"w{next_edge}"
                next_edge += 1
                added.append(edge)
                yield ("add", edge, source, target, rng.choice(DATES))
            elif roll < 0.8:
                index = rng.randrange(len(added))
                added[index], added[-1] = added[-1], added[index]
                yield ("remove", added.pop())
            else:
                yield ("age", zipf_person(), str(rng.randint(18, 90)))
        yield ("view", round_index % len(VIEWS))


def cold_tail(graph, seed: int) -> list[tuple]:
    """Mutations written to the WAL after the checkpoint: visible to
    ``--durable`` (replayed) but not to ``--from-store`` (checkpoint
    only)."""
    rng = random.Random(f"cold-tail:{seed}")
    people = _people(COLD_PEOPLE)
    contacts = sorted((edge for edge in graph.edges()
                       if graph.edge_label(edge) == "contact"), key=str)
    ops = []
    for index in range(COLD_TAIL_WRITES):
        roll = rng.random()
        if roll < 0.6:
            source, target = rng.sample(people, 2)
            ops.append(("add", f"t{index}", source, target,
                        rng.choice(DATES)))
        elif roll < 0.8 and contacts:
            ops.append(("remove",
                        contacts.pop(rng.randrange(len(contacts)))))
        else:
            ops.append(("age", rng.choice(people), str(rng.randint(18, 90))))
    return ops


def cold_invocations(seed: int):
    """The cold-cli invocation stream (endless): ``(mode, language,
    query)``.  Modes alternate and languages cycle, so every six
    invocations cover each (mode, language) pair once."""
    rng = random.Random(f"cold-invocations:{seed}")
    people = _people(COLD_PEOPLE)
    for index in itertools.count():
        language, template = COLD_TEMPLATES[index % len(COLD_TEMPLATES)]
        yield (COLD_MODES[index % len(COLD_MODES)], language,
               template.format(p=rng.choice(people)))


def _two_hop_contacts(graph, person: str) -> int:
    """Contact walks of length 2 from ``person``: a cost proxy for the
    batch queries, which all expand contacts from it."""
    return sum(len(graph.out_edges_with_label(graph.target(edge), "contact"))
               for edge in graph.out_edges_with_label(person, "contact"))


def batch_stream(graph, seed: int):
    """The batch-analytics batch stream (endless).

    The people are ranked by :func:`_two_hop_contacts` and cut into
    ``BATCH_STRATA`` strata; each template walks its own seeded
    permutation of every stratum.  So every batch has the same template
    and cost mix, and the seed changes which people it names.  No query
    repeats within the first ``BATCH_PEOPLE // BATCH_STRATA`` batches.
    """
    ranked = sorted(_people(BATCH_PEOPLE),
                    key=lambda person: (_two_hop_contacts(graph, person),
                                        int(person[1:])))
    size = len(ranked) // BATCH_STRATA
    strata = [ranked[index * size:(index + 1) * size]
              for index in range(BATCH_STRATA)]
    rng = random.Random(f"batch:{seed}")
    orders = [[rng.sample(stratum, size) for stratum in strata]
              for _ in BATCH_TEMPLATES]
    for index in itertools.count():
        yield [(language, template.format(p=orders[slot][stratum][
                    index % size]))
               for slot, (language, template) in enumerate(BATCH_TEMPLATES)
               for stratum in BATCH_STRATUM_ORDER]


def build(workload: str, seed: int) -> dict:
    """All inputs of one run of ``workload``."""
    if workload == "serve-mixed":
        return {"graph": contact_graph(SERVE_PEOPLE, GRAPH_SEED),
                "ops": serve_ops(seed)}
    if workload == "cold-cli":
        graph = contact_graph(COLD_PEOPLE, GRAPH_SEED)
        return {"graph": graph, "tail": cold_tail(graph, seed),
                "invocations": cold_invocations(seed)}
    if workload == "batch-analytics":
        graph = contact_graph(BATCH_PEOPLE, GRAPH_SEED)
        return {"graph": graph, "batches": batch_stream(graph, seed)}
    raise ValueError(f"unknown workload {workload!r}")


def digest(workload: str, seed: int, inputs: dict | None = None,
           prefix: int = 3000) -> str:
    """Fingerprint of the graph, the WAL tail, and the first ``prefix``
    items of the workload's stream (regenerated, so ``inputs`` is not
    consumed)."""
    if inputs is None:
        inputs = build(workload, seed)
    graph = inputs["graph"]
    hasher = hashlib.sha256(dumps(graph).encode())
    if "tail" in inputs:
        hasher.update(json.dumps(inputs["tail"]).encode())
    streams = {"ops": lambda: serve_ops(seed),
               "invocations": lambda: cold_invocations(seed),
               "batches": lambda: batch_stream(graph, seed)}
    for name, stream in streams.items():
        if name in inputs:
            hasher.update(json.dumps(
                list(itertools.islice(stream(), prefix))).encode())
    return hasher.hexdigest()[:16]
