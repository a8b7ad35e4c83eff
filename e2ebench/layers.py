"""Per-layer time attribution by wrapping ``repro`` functions from outside.

:class:`LayerTracer` replaces chosen functions and methods of the
``repro`` package with timing wrappers while it is active, and puts every
original back when it exits.  Nothing in ``src/`` is edited: a module
function is patched at every ``repro`` module that binds it (``from x
import f`` copies the reference), and a method is patched on its class.

Each wrapped callable belongs to a *layer key* (``"query.parse"``,
``"rpq.eval"``, ...).  Per key the tracer keeps:

- ``calls``: outermost invocations.  A call made while another call of the
  same key is active (recursion, or a parse inside a parse) is not counted
  and not timed separately: its time is already inside the outer call.
- ``incl``: wall time of those outermost calls.
- ``self``: ``incl`` minus the time spent in calls of *other* keys nested
  inside them.

A callable that returns a generator (SPARQL and Cypher path matching) is
one call per invocation; its time is the sum of the resumptions that run
while no other call of its key is active.

:meth:`LayerTracer.enclosing` names the outermost call of a key that is
running right now (the same token across a generator's resumptions), so an
``observe`` hook can attribute an inner event to the call it happened in.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

_perf = time.perf_counter

#: The tracer whose wrappers are installed, if any.  Forked pool workers
#: inherit it, which is how worker-side layer time reaches the parent
#: (see ``batch_analytics``).
ACTIVE = None
_fork_hook_registered = False


def _reset_in_child() -> None:
    # A forked worker starts with a copy of the parent's totals and of any
    # call the parent had open at fork time; it must count only its own.
    if ACTIVE is not None:
        ACTIVE._reset()


class LayerTracer:
    """Install timing wrappers for ``targets`` for the life of a ``with``.

    ``targets`` is a list of ``(owner, attribute, key, observe)``: ``owner``
    is a module or a class, ``observe`` is ``None`` or a callable
    ``observe(tracer, args, kwargs, result)`` run after each outermost call
    (for counters such as bytes written).
    """

    def __init__(self, targets) -> None:
        self.targets = list(targets)
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.captured: list = []
        self.flagged: set = set()   # tokens of calls an observe hook marked
        self._active: dict[str, int] = {}
        self._stack: list[list] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps its
        # id from being reused while the tracer can still look it up.
        self._originals: dict[int, tuple] = {}
        self._class_patches: list[tuple] = []    # (cls, name, had, raw)
        self._modules: list = []                 # owners of patched functions

    # -- accounting --------------------------------------------------------

    def _reset(self) -> None:
        for totals in (self.calls, self.incl, self.self_time, self.counters,
                       self._active):
            totals.clear()
        self.captured.clear()
        self.flagged.clear()
        self._stack.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _enter(self, key: str, token):
        if self._active.get(key):
            return None
        self._active[key] = 1
        frame = [key, _perf(), 0.0, token]
        self._stack.append(frame)
        return frame

    def enclosing(self, key: str):
        """Token of the outermost call of ``key`` now running, or ``None``."""
        for frame in reversed(self._stack):
            if frame[0] == key:
                return frame[3]
        return None

    def _exit(self, frame) -> None:
        key, start, child, _ = frame
        duration = _perf() - start
        # Pop through frames left open by an exception in a child.
        while self._stack:
            top = self._stack.pop()
            if top is frame:
                break
            self._active[top[0]] = 0
        self._active[key] = 0
        self.incl[key] = self.incl.get(key, 0.0) + duration
        self.self_time[key] = self.self_time.get(key, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, function, key: str, observe):
        tracer = self

        def timed_generator(generator, token):
            sent = None
            try:
                while True:
                    frame = tracer._enter(key, token)
                    try:
                        item = generator.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        if frame is not None:
                            tracer._exit(frame)
                    sent = yield item
            finally:
                generator.close()

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            token = object()
            frame = tracer._enter(key, token)  # None: nested in a call of key
            try:
                result = function(*args, **kwargs)
            finally:
                if frame is not None:
                    tracer._exit(frame)
            if frame is not None:
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                if observe is not None:
                    observe(tracer, args, kwargs, result)
            if inspect.isgenerator(result):
                return timed_generator(result, token)
            return result

        self._originals[id(wrapper)] = (wrapper, function)
        return wrapper

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        global ACTIVE, _fork_hook_registered
        if ACTIVE is not None:
            raise RuntimeError("a LayerTracer is already installed")
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_reset_in_child)
            _fork_hook_registered = True
        try:
            for owner, name, key, observe in self.targets:
                if isinstance(owner, type):
                    self._patch_method(owner, name, key, observe)
                else:
                    self._patch_function(owner, name, key, observe)
        except BaseException:
            self._restore()
            raise
        ACTIVE = self
        return self

    def __exit__(self, *exc_info) -> None:
        global ACTIVE
        self._restore()
        ACTIVE = None

    def _patch_function(self, module, name: str, key: str, observe) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, key, observe)
        self._modules.append(module)
        for bound_module in [module, *_repro_modules()]:
            for attribute, value in list(vars(bound_module).items()):
                if value is original:
                    setattr(bound_module, attribute, wrapper)

    def _patch_method(self, cls: type, name: str, key: str, observe) -> None:
        had = name in cls.__dict__
        raw = cls.__dict__[name] if had else getattr(cls, name)
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, key, observe))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._wrap(raw.__func__, key, observe))
        else:
            patched = self._wrap(raw, key, observe)
        self._class_patches.append((cls, name, had, raw))
        setattr(cls, name, patched)

    def _restore(self) -> None:
        # Modules imported while the tracer was active may have bound a
        # wrapper too, so every repro module is swept, not just the ones
        # patched on entry.
        for module in [*self._modules, *_repro_modules()]:
            for attribute, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
        for cls, name, had, raw in reversed(self._class_patches):
            if had:
                setattr(cls, name, raw)
            else:
                delattr(cls, name)
        self._class_patches.clear()
        self._modules.clear()

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self": dict(self.self_time), "counters": dict(self.counters)}

    def merge(self, snapshot: dict) -> None:
        """Add another process's :meth:`snapshot` into this tracer."""
        for field, target in (("calls", self.calls), ("incl", self.incl),
                              ("self", self.self_time),
                              ("counters", self.counters)):
            for key, value in snapshot[field].items():
                target[key] = target.get(key, 0) + value

    def mean_ms(self, key: str, *, self_only: bool = False) -> float:
        """Mean milliseconds per outermost call of ``key`` (0 if never
        called)."""
        calls = self.calls.get(key, 0)
        if not calls:
            return 0.0
        total = (self.self_time if self_only else self.incl).get(key, 0.0)
        return 1000.0 * total / calls


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def standard_targets():
    """The layer map every workload traces, as ``LayerTracer`` targets.

    Imports the modules it names, so call it before measuring anything
    that must not pay for those imports.
    """
    import importlib

    from repro import util
    from repro.core.rpq import evaluate, nfa
    from repro.core.rpq.vectorized import kernel
    from repro.exec import batch, faults, parallel
    from repro.ivm import delta, views
    from repro.query import cypherish, pathql, sparql
    from repro.storage import diskread, durable

    count = importlib.import_module("repro.core.rpq.count")
    enumerate_module = importlib.import_module("repro.core.rpq.enumerate")

    def on_vector(tracer, args, kwargs, result):
        # One RPQ evaluation may enter vector code more than once (a SPARQL
        # alternation of two closures); it counts once.
        evaluation = tracer.enclosing("rpq.eval")
        if evaluation is not None and evaluation not in tracer.flagged:
            tracer.flagged.add(evaluation)
            tracer.count("rpq.vector_evals")

    def on_write(tracer, args, kwargs, result):
        tracer.count("storage.wal_bytes", len(args[2]))

    def on_fsync(tracer, args, kwargs, result):
        tracer.count("storage.fsyncs")

    def on_mmap_open(tracer, args, kwargs, result):
        tracer.captured.append(result)

    targets = [
        (pathql, "parse_pathql", "query.parse", None),
        (sparql, "parse_sparql", "query.parse", None),
        (cypherish, "parse_cypher", "query.parse", None),
        (pathql, "run_pathql", "query.exec", None),
        (sparql, "run_sparql", "query.exec", None),
        (cypherish, "run_cypher", "query.exec", None),
        (sparql, "store_for_graph", "query.sparql_store_build", None),
        (cypherish, "store_for_graph", "query.cypher_store_build", None),
        (nfa, "compile_regex", "rpq.compile", None),
        (evaluate, "endpoint_pairs", "rpq.eval", None),
        (count, "count_paths_exact", "rpq.eval", None),
        (enumerate_module, "enumerate_paths", "rpq.eval", None),
        (enumerate_module, "enumerate_paths_up_to", "rpq.eval", None),
        (sparql, "_eval_path", "rpq.eval", None),
        (cypherish, "_expand_rel", "rpq.eval", None),
        (kernel, "vector_endpoint_pairs", "rpq.vector", on_vector),
        (kernel, "back_layers_vectorized", "rpq.vector", on_vector),
        (cypherish, "_expand_rel_dedup", "rpq.vector", on_vector),
        (sparql, "_closure_matrix", "rpq.vector", on_vector),
        (parallel.WorkerPool, "__init__", "exec.pool_open", None),
        (batch.BatchSession, "run_batch", "exec.batch", None),
        (views.ViewRegistry, "serve_pathql", "ivm.serve", None),
        (views.ViewRegistry, "serve_sparql", "ivm.serve", None),
        (views.ViewRegistry, "serve_cypher", "ivm.serve", None),
        (views.ViewRegistry, "result", "ivm.serve", None),
        (delta.IncrementalPairs, "sync", "ivm.sync", None),
        (durable.DurableGraph, "open", "storage.recover", None),
        (durable.DurableGraph, "checkpoint", "storage.checkpoint", None),
        (diskread, "open_latest_segments", "storage.mmap_open",
         on_mmap_open),
        (faults.StorageIO, "write", "storage.io_write", on_write),
        (faults.StorageIO, "fsync", "storage.io_fsync", on_fsync),
        (util, "format_table", "cli.serialize", None),
    ]
    for name in ("add_node", "add_edge", "remove_node", "remove_edge",
                 "set_node_label", "set_edge_label", "set_node_property",
                 "set_edge_property"):
        targets.append((durable.DurableGraph, name, "storage.write", None))
    return targets
