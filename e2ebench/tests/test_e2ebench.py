"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q

They check the seeded inputs, the layer wrappers, the correctness
accounting, and that no process a run starts outlives it, also when the
run is killed part-way with SIGTERM or SIGKILL.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types
import uuid

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("serve-mixed", "cold-cli", "batch-analytics")


# -- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = inputs.digest(workload, 7)
    assert inputs.digest(workload, 7) == first
    assert inputs.digest(workload, 8) != first


# -- layer wrappers ------------------------------------------------------------


def _bindings():
    """Every attribute of every repro module and traced class, by id."""
    state = {}
    for module in layers._repro_modules():
        for name, value in vars(module).items():
            state[(module.__name__, name)] = id(value)
    for owner, name, _, _ in layers.standard_targets():
        if isinstance(owner, type):
            state[(owner.__qualname__, name)] = id(owner.__dict__.get(name))
    return state


def test_wrappers_are_fully_restored():
    """Also when one tracer is installed again, as a traced run does for
    each of its traced blocks."""
    tracer = layers.LayerTracer(layers.standard_targets())
    before = _bindings()
    for _ in range(2):
        with tracer:
            during = _bindings()
        assert during != before  # the wrappers were really installed
        assert _bindings() == before
        assert layers.ACTIVE is None


def _fake_module():
    module = types.ModuleType("fake_layer")

    def walk(depth):
        time.sleep(0.01)
        if depth:
            yield from module.walk(depth - 1)
        yield depth

    def recurse(depth):
        time.sleep(0.01)
        return recurse_again(depth)

    def recurse_again(depth):
        return module.recurse(depth - 1) if depth else 0

    def outer():
        time.sleep(0.01)
        return module.recurse(2)

    module.walk, module.recurse, module.outer = walk, recurse, outer
    return module


def test_generator_is_one_call_per_invocation_timed_once():
    module = _fake_module()
    with layers.LayerTracer([(module, "walk", "gen", None)]) as tracer:
        start = time.perf_counter()
        assert list(module.walk(3)) == [0, 1, 2, 3]
        wall = time.perf_counter() - start
    assert tracer.calls == {"gen": 1}
    assert 0.04 <= tracer.incl["gen"] <= wall


def test_nested_calls_count_once_and_self_time_excludes_children():
    module = _fake_module()
    targets = [(module, "recurse", "inner", None),
               (module, "outer", "outer", None)]
    with layers.LayerTracer(targets) as tracer:
        start = time.perf_counter()
        module.outer()
        wall = time.perf_counter() - start
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert 0.03 <= tracer.incl["inner"] <= wall
    assert tracer.incl["outer"] <= wall
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.incl["outer"] - tracer.incl["inner"])
    assert tracer.self_time["outer"] < 0.02


def test_sparql_path_matching_counts_one_call_per_query():
    from repro.datasets import generate_contact_graph
    from repro.query import sparql

    store = sparql.store_for_graph(generate_contact_graph(40, rng=3))
    text = "SELECT ?y WHERE { <n1> (<contact>|<lives>|^<lives>)+ ?y . }"
    with layers.LayerTracer(layers.standard_targets()) as tracer:
        rows = sparql.run_sparql(store, text, engine="scalar").rows
    assert rows
    assert tracer.calls["rpq.eval"] == 1
    assert tracer.calls["query.exec"] == 1


def test_vector_use_is_counted_where_vector_code_runs():
    """``engine="vector"`` is demoted for a non-DISTINCT Cypher query and
    never reaches vector code for a SPARQL triple pattern; only the
    DISTINCT expansion counts."""
    from repro.query import cypherish, sparql

    graph = inputs.contact_graph(60, 3)
    properties = cypherish.store_for_graph(graph)
    triples = sparql.store_for_graph(graph)
    walks = 'MATCH (p {pid: "n1"})-[:contact*1..2]->(q) RETURN q.pid'
    with layers.LayerTracer(layers.standard_targets()) as tracer:
        cypherish.run_cypher(properties, walks, engine="vector")
        sparql.run_sparql(triples, "SELECT ?y WHERE { <n1> <contact> ?y . }",
                          engine="vector")
        assert tracer.counters.get("rpq.vector_evals", 0) == 0
        evaluations = tracer.calls["rpq.eval"]
        cypherish.run_cypher(properties,
                             walks.replace("RETURN", "RETURN DISTINCT"),
                             engine="vector")
    assert tracer.counters["rpq.vector_evals"] == 1
    assert tracer.calls["rpq.eval"] == evaluations + 1


# -- correctness accounting ----------------------------------------------------

_RUN_IN_PROCESS = """
import json, os, shutil, sys, tempfile
sys.path[:0] = [{bench!r}, {src!r}]
import procs, run
procs.install()
args = run.parse_args(["--workload", {workload!r}, "--seconds", "1"])
out = {{}}
for plant in (False, True):
    workdir = tempfile.mkdtemp(dir=os.path.join({bench!r}, ".work"))
    try:
        _, attempted, failed, _ = run.run(args, workdir, plant=plant)
    finally:
        shutil.rmtree(workdir)
    out[str(plant)] = [attempted, failed]
print(json.dumps(out))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_answer_is_counted(workload):
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    script = _RUN_IN_PROCESS.format(bench=BENCH, src=os.path.join(ROOT, "src"),
                                    workload=workload)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    clean_attempted, clean_failed = out["False"]
    planted_attempted, planted_failed = out["True"]
    assert clean_attempted > 0 and clean_failed == 0
    assert planted_attempted > 0 and planted_failed == 1


def test_query_error_is_counted_as_failed():
    """A query that raises inside the pool comes back as a status, and so
    does its inline reference; it still counts as failed."""
    import itertools

    import report
    from batch_analytics import BatchAnalytics

    good = ("pathql", "PATHS MATCHING contact FROM n1 LENGTH 1 COUNT")
    bad = ("pathql", "PATHS MATCHING ((contact FROM n1 LENGTH 1 COUNT")
    workload = BatchAnalytics({"graph": inputs.contact_graph(60, 3),
                               "batches": itertools.repeat([good, bad])},
                              workdir=None)
    try:
        workload.setup()
        workload.measure(0.2, report.Samples())
        attempted, failed = workload.verify()
    finally:
        workload.close()
    assert attempted >= 2
    assert failed == attempted // 2


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(
                open(os.path.join(BENCH, name), "rb").read())
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# -- no process left behind ----------------------------------------------------


def test_stale_workdirs_of_dead_runs_are_swept(tmp_path):
    import run

    gone = subprocess.Popen(["true"])
    gone.wait()
    stale = tmp_path / f"cold-cli-{gone.pid}"
    live = tmp_path / f"cold-cli-{os.getpid()}"
    other = tmp_path / "tmp-notarun"
    for directory in (stale, live, other):
        (directory / "store").mkdir(parents=True)
    run.sweep_stale_workdirs(str(tmp_path))
    assert not stale.exists()
    assert live.exists() and other.exists()



def _tagged(tag: str) -> list[int]:
    """Live (non-zombie) processes whose environment carries ``tag``."""
    found = []
    needle = f"E2EBENCH_SELFTEST_TAG={tag}".encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                state = handle.read().rsplit(b")", 1)[1].split()[0]
            with open(f"/proc/{entry}/environ", "rb") as handle:
                environ = handle.read()
        except OSError:
            continue
        if state != b"Z" and needle in environ.split(b"\0"):
            found.append(int(entry))
    return found


def _wait_for(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


#: Processes a run of each workload has besides itself while it measures.
CHILDREN = {"serve-mixed": 0, "cold-cli": 1, "batch-analytics": 2}


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL],
                         ids=["SIGTERM", "SIGKILL"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_killed_run_leaves_no_process(workload, sig):
    tag = uuid.uuid4().hex
    env = dict(os.environ, E2EBENCH_SELFTEST_TAG=tag)
    run = subprocess.Popen(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "120", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=ROOT)
    try:
        for line in run.stderr:
            if line.startswith("# measuring"):
                break
        else:
            pytest.fail(f"run ended before measuring: {run.wait()}")
        wanted = CHILDREN[workload] + 1
        assert _wait_for(lambda: len(_tagged(tag)) >= wanted, 30), \
            f"expected {wanted} processes, saw {_tagged(tag)}"
        time.sleep(0.5)
        # Freeze the children, so one that outlived the run could not
        # finish on its own before the check below.
        for pid in _tagged(tag):
            if pid != run.pid:
                os.kill(pid, signal.SIGSTOP)
        run.send_signal(sig)
        code = run.wait(timeout=60)
        assert code != 0
        assert _wait_for(lambda: not _tagged(tag), 15), \
            f"left running: {_tagged(tag)}"
        # Read only now: a surviving child would hold the pipe open.
        assert run.stdout.read() == ""
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
        for pid in _tagged(tag):
            os.kill(pid, signal.SIGKILL)
        # A SIGKILLed run cannot remove its own work directory.
        shutil.rmtree(os.path.join(BENCH, ".work", f"{workload}-{run.pid}"),
                      ignore_errors=True)
