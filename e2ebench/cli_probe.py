"""Run one ``repro.cli`` command with the layer wrappers installed.

Usage: ``python cli_probe.py OUT.json <repro.cli arguments...>``

Behaves like ``python -m repro.cli <arguments>`` (same stdout, stderr and
exit code) and also writes the child's layer accounting to ``OUT.json``:
the fresh-interpreter import time of ``repro.cli``, the wrappers' call
counts and times, and how many label segments the mmap backend decoded.
``PYTHONPATH`` must name the repository's ``src/``.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start

    import layers

    tracer = layers.LayerTracer(layers.standard_targets())
    with tracer:
        code = repro.cli.main(argv[1:])
    # A fresh interpreter: the process-wide counters are this query's.
    from repro.core.rpq.nfa import compile_cache_info
    from repro.core.rpq.vectorized.arrays import adjacency_cache_info

    compiled = compile_cache_info()
    tracer.count("rpq.compile_hits", compiled["hits"])
    tracer.count("rpq.compile_misses", compiled["misses"])
    tracer.count("rpq.arrays_rebuilds", adjacency_cache_info()["misses"])
    for backend in tracer.captured:
        stats = backend.stats()
        tracer.count("storage.decoded_labels", len(stats["decoded_labels"]))
        tracer.count("storage.present_labels", stats["labels"])
    with open(argv[0], "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "tracer": tracer.snapshot()}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
