"""cold-cli: one fresh ``python -m repro.cli`` process per query.

Interpreter start and import, store open or recovery, segment decode,
store build and result serialization dominate here; the engine, the cache
and views do almost nothing.  The store is a checkpointed contact graph
plus a WAL tail.  Invocations alternate between ``--from-store`` (mmap the
checkpoint's CSR segments: the tail is invisible) and ``--durable``
(recover snapshot plus tail in memory), and cycle over the three
languages.

The traced phase runs each query through ``cli_probe.py``, which measures
the import and installs the layer wrappers inside the child.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.models.io import dumps, loads
from repro.storage import DurableGraph
from repro.util import format_table

import inputs
import procs
import report
from check import Reference, apply_write, fingerprint

#: A CLI child that has not finished after this long counts as failed.
CHILD_TIMEOUT_S = 120.0

_perf = time.perf_counter
_KIND = {"--from-store": "mmap", "--durable": "durable"}
CYCLE = len(inputs.COLD_MODES) * len(inputs.COLD_TEMPLATES)


def render(language: str, result) -> str:
    """What the CLI prints on stdout for ``result``."""
    if language == "pathql":
        return f"{result.count}\n"
    if language == "sparql":
        header = [f"?{name}" for name in result.variables]
    else:
        header = result.columns
    return format_table(header, [[value if value is not None else ""
                                  for value in row]
                                 for row in result.rows]) + "\n"


class ColdCli:
    name = "cold-cli"

    def __init__(self, data: dict, workdir: str) -> None:
        self.initial = data["graph"]
        self.tail = data["tail"]
        self.invocations = data["invocations"]
        self.workdir = workdir
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(
            __file__)))
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(self.root, "src"))
        self.directory = None
        self.records: list[tuple] = []
        self.tracer = None
        self.import_times: list[float] = []
        self._setups = 0
        # Compile bytecode once, outside set-up: it is a one-time cost of
        # a fresh checkout, not of the program.  ``compileall`` writes it
        # even under PYTHONDONTWRITEBYTECODE, which would otherwise have
        # every child compile the whole package from source.
        code, _, err = self._cli(["-m", "compileall", "-q",
                                  os.path.join(self.root, "src", "repro")])
        if code != 0:
            raise RuntimeError(f"compiling repro exited {code}: {err}")

    def _cli(self, args: list[str]) -> tuple[int, str, str]:
        return procs.run_child([sys.executable, *args], env=self.env,
                               cwd=self.root, timeout=CHILD_TIMEOUT_S)

    def setup(self) -> None:
        self._setups += 1
        self.directory = os.path.join(self.workdir, f"store-{self._setups}")
        with DurableGraph.open(self.directory, fsync="batch") as store:
            store.ingest(self.initial)
            store.checkpoint()
            for op in self.tail:
                apply_write(store, op)
        for mode in _KIND:
            code, _, err = self._cli(["-m", "repro.cli", "pathql", mode,
                                      self.directory,
                                      "PATHS MATCHING lives FROM n1 LENGTH 1 "
                                      "COUNT"])
            if code != 0:
                raise RuntimeError(f"warm-up {mode} exited {code}: {err}")

    def close(self) -> None:
        pass

    def measure(self, seconds: float, samples: report.Samples) -> None:
        """Closed loop for about ``seconds``, in whole cycles of six
        invocations, so every (mode, language) pair is sampled equally
        often.  At least one cycle runs; another starts only while at least
        half of the last cycle's duration is left."""
        begin = _perf()
        deadline = begin + seconds
        while True:
            start = _perf()
            for _ in range(CYCLE):
                self._invoke(next(self.invocations), samples)
            now = _perf()
            if deadline - now < (now - start) / 2:
                break
        samples.elapsed += _perf() - begin

    def _invoke(self, invocation: tuple, samples: report.Samples) -> None:
        mode, language, text = invocation
        query = [language, mode, self.directory, text]
        if self.tracer is None:
            argv = ["-m", "repro.cli", *query]
        else:
            out = os.path.join(self.workdir, "probe.json")
            argv = [os.path.join(self.root, "e2ebench", "cli_probe.py"),
                    out, *query]
        samples.ops += 1
        start = _perf()
        try:
            code, stdout, _ = self._cli(argv)
        except Exception as error:  # counted as a failed operation
            self.records.append(("error", mode, language, text, repr(error)))
            return
        samples.add(_KIND[mode], _perf() - start)
        self.records.append((mode, language, text, code,
                             fingerprint(stdout)))
        if self.tracer is not None and code == 0:
            self._merge_probe(out)

    def _merge_probe(self, path: str) -> None:
        with open(path, encoding="utf-8") as handle:
            probe = json.load(handle)
        self.tracer.merge(probe["tracer"])
        self.import_times.append(probe["import_s"])

    # -- metrics -------------------------------------------------------------

    @staticmethod
    def p50_s(samples: report.Samples) -> float:
        """The two modes are far apart, so a median over all invocations
        would sit between them and jump from run to run.  This is the mean
        of the two per-mode medians."""
        return (report.median(samples.of("mmap"))
                + report.median(samples.of("durable"))) / 2

    @staticmethod
    def tail_values(samples: report.Samples) -> list[float]:
        return samples.of()

    @staticmethod
    def kind_metrics(samples: report.Samples) -> dict:
        return {
            "cli_mmap_p50_ms": report.p50_ms(samples.of("mmap")),
            "cli_durable_p50_ms": report.p50_ms(samples.of("durable")),
            "cli_tail_ms": report.tail_ms(samples.of()),
        }

    def begin_traced(self, tracer) -> None:
        self.tracer = tracer

    def end_traced(self, tracer) -> None:
        self.tracer = None

    def layer_extra(self, tracer) -> dict:
        return {"cli.import_s": report.median(self.import_times)}

    # -- correctness -----------------------------------------------------------

    def verify(self, plant: bool = False) -> tuple[int, int]:
        """Compare every invocation's stdout with the scalar reference at
        the version that invocation read: the checkpoint for
        ``--from-store``, checkpoint plus WAL tail for ``--durable``.

        Returns ``(attempted, failed)``; a non-zero exit counts as failed.
        ``plant`` corrupts the first expected answer.
        """
        checkpointed = loads(dumps(self.initial))
        recovered = loads(dumps(self.initial))
        for op in self.tail:
            apply_write(recovered, op)
        references = {"--from-store": Reference(checkpointed),
                      "--durable": Reference(recovered)}
        memo: dict = {}
        failed = 0
        for record in self.records:
            if record[0] == "error":
                failed += 1
                continue
            mode, language, text, code, printed = record
            key = (mode, language, text)
            expected = memo.get(key)
            if expected is None:
                result = references[mode].run(language, text)
                expected = memo[key] = fingerprint(render(language, result))
            if plant:
                expected, plant = "planted-wrong-answer", False
            if code != 0 or printed != expected:
                failed += 1
        return len(self.records), failed
