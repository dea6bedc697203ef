"""The benchmark's three workloads.

Every workload runs in this one process, on one thread, with one client.
Its inputs (documents, the operator's op sequence, the target instances)
come from the seed alone; the program under test only ever receives the
generated inputs.

* ``paper_shared`` -- ``scenarios.shared_run`` at paper scale: SP38
  (80k entries), 512 TEUs, the linneus cluster and all ten scripted
  events, including two server crashes. In-memory store.
* ``history_growth`` -- a closed loop of 1,000 quickstart
  ``word_statistics`` instances on one server with an on-disk store under
  group commit, then a crash (the server is abandoned after a flush) and
  ``BioOperaServer.recover`` from the directory.
* ``console_mix`` -- 400 completed instances built as in history_growth,
  crashed and recovered; then one operator runs 4,000 ops, 90% reads over
  the console and monitor queries and 10% launch+run.

A workload is run as *units*: one unit is one complete run of the fixed
work above on fresh state. A run repeats units until ``seconds`` have
been measured and at least UNITS of them have run, so a faster program
yields more samples of the same unit, never a different unit. ``wall_s``
is the mean over the run's units: the measured time of the whole run, so
that the machine's speed is averaged over a minute, not a single unit.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import CONSOLE_OPS
from spans import patch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: the on-disk stores' KV sync policy (both sides of every crash).
SYNC_POLICY = "group"
HISTORY_INSTANCES = 1000
CONSOLE_HISTORY = 400
CONSOLE_OPS_COUNT = 4000
CONSOLE_LAUNCH_SHARE = 0.10
CONSOLE_RECENT_SHARE = 0.80
DOCUMENT_WORDS = 40
#: measured units per run, at least. Core speed drops by up to 1.5x for
#: seconds to minutes at a time on a shared 2-vCPU machine, so a short
#: unit is repeated and the mean reported.
UNITS = {"paper_shared": 3, "history_growth": 1, "console_mix": 3}
#: set-ups per run whose median is reported as setup_s, each unit's own
#: included. A short set-up is repeated many times, spread around the
#: measured units rather than in one burst.
SETUP_REPEATS = {"paper_shared": 19, "history_growth": 100, "console_mix": 3}
#: every Nth console op's result is kept and checked after the loop.
CONSOLE_SAMPLE_EVERY = 20

VOCABULARY = (
    "a", "an", "in", "of", "on", "is", "the", "and", "data", "made",
    "based", "stored", "lab", "virtual", "science", "laboratory",
    "observation", "observations", "phenomena", "natural", "direct",
    "pervasive", "increasingly", "electronically", "cluster", "process",
    "processes", "alignment", "protein", "sequence", "sequences",
    "database", "dependable", "computing", "recovery", "failure",
    "server", "node", "nodes", "month", "result", "results", "task",
    "tasks", "Darwin", "matrix", "score", "scores", "family", "gap",
    "query", "queries", "lineage", "history", "operator", "crash",
    "crash.", "results,", "data;", "science!", "lab:", "Protein?",
)


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------


def documents(seed: int, stream: str, count: int) -> List[str]:
    """``count`` documents of DOCUMENT_WORDS words drawn from the seed."""
    rng = random.Random(f"{stream}/{seed}")
    return [" ".join(rng.choice(VOCABULARY) for _ in range(DOCUMENT_WORDS))
            for _ in range(count)]


def console_ops(seed: int) -> List[Tuple[str, bool, float]]:
    """The operator's op sequence: ``(op, recent, u)`` triples.

    ``op`` is ``"launch"`` or one of :data:`CONSOLE_OPS`. An
    instance-scoped read targets the newest tenth of the instances when
    ``recent`` and the whole history otherwise, at position ``u``.
    """
    rng = random.Random(f"console-ops/{seed}")
    # a shuffled deck: every seed runs the same number of each op
    launches = round(CONSOLE_OPS_COUNT * CONSOLE_LAUNCH_SHARE)
    deck = ["launch"] * launches + [
        CONSOLE_OPS[i % len(CONSOLE_OPS)]
        for i in range(CONSOLE_OPS_COUNT - launches)]
    rng.shuffle(deck)
    return [("launch", False, 0.0) if op == "launch"
            else (op, rng.random() < CONSOLE_RECENT_SHARE, rng.random())
            for op in deck]


def pick_target(ids: List[str], recent: bool, u: float) -> str:
    window = max(1, len(ids) // 10) if recent else len(ids)
    return ids[len(ids) - window + int(u * window)]


def recount(text: str, min_length: int = 4) -> Tuple[Dict[str, int], str]:
    """The word_statistics outputs, computed directly."""
    histogram: Dict[str, int] = {}
    for word in text.split():
        word = word.strip(".,;:!?").lower()
        if len(word) >= min_length:
            histogram[word] = histogram.get(word, 0) + 1
    return histogram, (max(histogram, key=len) if histogram else "")


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank]


def bytes_written() -> Optional[int]:
    """The process's ``wchar`` (bytes passed to write calls), if known."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class NullTracer:
    """Stands in for :class:`layers.Tracer` when tracing is off."""

    class _NoSpan:
        index = -1

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

    _span = _NoSpan()

    def span(self, name, instance=None):
        return self._span

    def region(self):
        return self._span

    def tag(self, index, instance):
        return None


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def load_quickstart():
    """The quickstart example module: its OCR process and programs."""
    path = os.path.join(ROOT, "examples", "quickstart.py")
    spec = importlib.util.spec_from_file_location("_quickstart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# The single-server word_statistics deployment (history_growth, console_mix)
# ---------------------------------------------------------------------------


class Deployment:
    """One server over an on-disk store in a scratch directory."""

    def __init__(self, quickstart, scratch: str):
        from repro import BioOperaServer, InlineEnvironment, ProgramRegistry
        from repro.store.spaces import OperaStore

        self.directory = tempfile.mkdtemp(prefix="store-", dir=scratch)
        self.registry = ProgramRegistry()
        self.registry.register("demo.split", quickstart.split)
        self.registry.register("demo.count", quickstart.count)
        self.registry.register("demo.merge", quickstart.merge)
        self.store = OperaStore(self.directory, sync_policy=SYNC_POLICY)
        self.server = BioOperaServer(store=self.store, registry=self.registry)
        self.environment = InlineEnvironment()
        self.server.attach_environment(self.environment)
        self.server.define_template_ocr(quickstart.PROCESS)
        #: instance id -> its document, in launch order.
        self.documents: Dict[str, str] = {}

    def run(self, document: str) -> Tuple[str, str]:
        instance_id = self.server.launch("word_statistics",
                                         {"text": document})
        self.documents[instance_id] = document
        return instance_id, self.environment.run_instance(instance_id)

    def crash(self) -> None:
        """Drop the server and its store without close(), as a crash
        would, and collect them (the crashed process's memory is gone)."""
        self.server = self.environment = self.store = None
        gc.collect()

    def recover(self) -> None:
        """Reopen the directory and rebuild the server from it."""
        from repro import BioOperaServer, InlineEnvironment
        from repro.store.spaces import OperaStore

        self.store = OperaStore(self.directory, sync_policy=SYNC_POLICY)
        self.server = BioOperaServer.recover(self.store, self.registry)
        self.environment = InlineEnvironment()
        self.server.attach_environment(self.environment)

    def check_outputs(self, tally: Tally, when: str,
                      ids: Optional[List[str]] = None) -> None:
        """Each instance completed with the recount's outputs."""
        for instance_id in ids if ids is not None else self.documents:
            instance = self.server.instances.get(instance_id)
            if instance is None:
                tally.check(False, f"{when}: {instance_id} missing")
                continue
            histogram, longest = recount(self.documents[instance_id])
            outputs = instance.outputs or {}
            tally.check(
                instance.status == "completed"
                and outputs.get("histogram") == histogram
                and outputs.get("longest") == longest,
                f"{when}: {instance_id} is {instance.status} with outputs "
                f"that differ from the recount",
            )

    def check_recovered(self, tally: Tally) -> None:
        """Every instance terminal, outputs recounted, audit clean."""
        self.check_outputs(tally, "after recovery")
        live = [iid for iid, inst in self.server.instances.items()
                if not inst.terminal]
        tally.check(not live, f"after recovery: non-terminal {live[:5]}")
        audit = self.store.kv.audit()
        tally.check(not audit, f"after recovery: audit {audit[:3]}")

    def event_count(self, ids) -> int:
        return sum(self.store.instances.event_count(iid) for iid in ids)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# Workload runner
# ---------------------------------------------------------------------------


class Run:
    """Samples gathered over one run of a workload."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tally = Tally()
        self.setup_s: List[float] = []
        self.recover_s: List[float] = []
        #: per unit, the wall time of everything the trace covers.
        self.region_s: List[float] = []
        self.wall_s: List[float] = []
        self.samples: Dict[str, List[float]] = {}
        self.disk_bytes = 0
        self.disk_events = 0
        self.disk_known = True
        self.peak_rss_mb: Optional[float] = None
        self.notes: Dict[str, Any] = {}

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def disk(self, before: Optional[int], after: Optional[int],
             events: int) -> None:
        if before is None or after is None:
            self.disk_known = False
            return
        self.disk_bytes += after - before
        self.disk_events += events

    def measured(self) -> None:
        """End of a unit's measured work: note the memory high-water mark
        (set-ups included, output checks not)."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = peak_rss_mb()

    def merge(self, unit: Tally, ops: int) -> None:
        """Fold a unit's checks in: ``ops`` ops were attempted, and an op
        counts as failed once, however many of its checks failed."""
        self.tally.attempted += ops
        self.tally.failed += min(unit.failed, ops)
        room = 20 - len(self.tally.messages)
        self.tally.messages.extend(unit.messages[:max(0, room)])


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


# -- paper_shared ------------------------------------------------------------

TABLE1_PATH = os.path.join(ROOT, "benchmarks", "output", "table1.txt")
TABLE1_RECORDED = os.path.join(ROOT, "perfbench", "table1_shared.json")


def table1_reference(seed: int) -> Optional[Dict[str, str]]:
    """The recorded Table 1 shared-cluster column for ``seed``, if any.

    Seed 0 is the committed artifact ``benchmarks/output/table1.txt``;
    other seeds come from ``perfbench/table1_shared.json``.
    """
    if seed == 0:
        column: Dict[str, str] = {}
        with open(TABLE1_PATH, encoding="utf-8") as fh:
            for line in fh.read().splitlines()[2:]:
                cells = [c.strip() for c in line.split("  ") if c.strip()]
                if len(cells) == 3:
                    column[cells[0]] = cells[1]
        return column
    if not os.path.exists(TABLE1_RECORDED):
        return None
    with open(TABLE1_RECORDED, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def paper_setup(seed: int, tracer) -> Tuple[Any, float, Optional[float]]:
    from repro.workloads import datasets
    return (*_timed(lambda: datasets.sp38_darwin(seed=seed)), None)


def paper_unit(run: Run, darwin, tracer) -> None:
    from repro.core.engine.recovery import verify_log
    from repro.core.engine.server import BioOperaServer
    from repro.workloads import reporting, scenarios

    recoveries: List[Tuple[float, Any]] = []

    def timing(fn):
        def recover(cls, *args, **kwargs):
            start = time.perf_counter()
            server = fn(cls, *args, **kwargs)
            recoveries.append((time.perf_counter() - start, server))
            return server
        return recover

    tally = Tally()
    with ExitStack() as stack:
        patch(stack, BioOperaServer, "recover", timing)
        # each elapsed time is taken inside its region: a traced region
        # folds and writes its spans on exit
        start = time.perf_counter()
        with tracer.region():
            try:
                report = scenarios.shared_run(darwin=darwin, seed=run.seed)
            except Exception as exc:  # the run is the op: count it failed
                report = None
                tally.fail(f"shared_run raised {exc!r}")
            elapsed = time.perf_counter() - start
    run.measured()
    if report is None:
        run.merge(tally, ops=1)
        return
    run.region_s.append(elapsed)
    run.wall_s.append(elapsed)
    run.recover_s.extend(seconds for seconds, _ in recoveries)

    row = dict(reporting.lifecycle_summary(report))
    run.notes["table1_shared"] = row
    tally.check(report.status == "completed",
                f"instance ended {report.status}")
    if recoveries:
        server = recoveries[-1][1]
        for instance_id in server.instances:
            anomalies = verify_log(server.store, instance_id,
                                   server._resolver)
            tally.check(not anomalies, f"verify_log: {anomalies[:3]}")
    else:
        tally.check(False, "the scripted server crashes never ran")
    tally.check(
        report.activities == 1029 and report.max_cpus == 33.0
        and report.match_count > 100_000
        and report.manual_interventions <= 6,
        f"Table 1 shape: {row}",
    )
    reference = table1_reference(run.seed)
    run.notes["table1_reference"] = reference is not None
    if reference is not None:
        tally.check(row == reference,
                    f"Table 1 row {row} != reference {reference}")
    run.merge(tally, ops=1)


# -- history_growth ----------------------------------------------------------


def history_setup(quickstart, scratch: str,
                  tracer) -> Tuple[Any, float, Optional[float]]:
    return (*_timed(lambda: Deployment(quickstart, scratch)), None)


def history_unit(run: Run, deployment: Deployment, docs: List[str],
                 tracer) -> None:
    tally = Tally()
    before = bytes_written()
    start = time.perf_counter()
    with tracer.region():
        for document in docs:
            op_start = time.perf_counter()
            with tracer.span("bench.request") as span:
                try:
                    instance_id, status = deployment.run(document)
                except Exception as exc:
                    tally.fail(f"launch/run raised {exc!r}")
                    continue
                tracer.tag(span.index, instance_id)
            run.sample("instance_ms", (time.perf_counter() - op_start) * 1e3)
            if status != "completed":
                tally.fail(f"{instance_id} ended {status}")
        deployment.store.flush()
        loop_s = time.perf_counter() - start
        after = bytes_written()
    run.disk(before, after, deployment.event_count(deployment.documents))
    deployment.check_outputs(tally, "before recovery")
    deployment.crash()

    start = time.perf_counter()
    with tracer.region():
        deployment.recover()
        recover_s = time.perf_counter() - start
    run.measured()
    # wall_s covers the recovery too: recovering after the crash is the
    # point of this workload, and recover_s alone is too short to gate
    run.region_s.append(loop_s + recover_s)
    run.wall_s.append(loop_s + recover_s)
    run.recover_s.append(recover_s)
    deployment.check_recovered(tally)
    run.merge(tally, ops=len(docs))


# -- console_mix -------------------------------------------------------------


def console_setup(seed: int, quickstart, scratch: str,
                  tracer) -> Tuple[Any, float, Optional[float]]:
    """Build the history, crash, recover; the recovery is traced."""
    start = time.perf_counter()
    deployment = Deployment(quickstart, scratch)
    for document in documents(seed, "console-history", CONSOLE_HISTORY):
        deployment.run(document)
    deployment.store.flush()
    built = time.perf_counter() - start
    deployment.crash()
    start = time.perf_counter()
    with tracer.region():
        deployment.recover()
        recovered = time.perf_counter() - start
    return deployment, built + recovered, recovered


def _console_read(deployment: Deployment, console, op: str,
                  target: str) -> Any:
    from repro.core.monitor import queries

    store = deployment.store
    if op == "provenance_ancestry":
        return console.provenance_ancestry(target, "Merge")
    if op == "slowest_activities":
        return queries.slowest_activities(store, target)
    if op == "retry_hotspots":
        return queries.retry_hotspots(store, target)
    if op == "node_usage":
        return queries.node_usage(store)
    if op == "list_instances":
        return console.list_instances()
    return getattr(console, op)(target)


def console_unit(run: Run, deployment: Deployment, ops, launch_docs,
                 tracer) -> None:
    from repro.core.engine.operator_console import OperatorConsole

    tally = Tally()
    deployment.check_recovered(tally)
    ids = list(deployment.documents)
    console = OperatorConsole(deployment.server)
    sampled: List[Tuple[str, str, Any, int]] = []
    launched: List[str] = []
    next_doc = iter(launch_docs)
    gc.collect()
    before = bytes_written()
    start = time.perf_counter()
    with tracer.region():
        for index, (op, recent, u) in enumerate(ops):
            op_start = time.perf_counter()
            if op == "launch":
                with tracer.span("bench.launch") as span:
                    try:
                        instance_id, status = deployment.run(next(next_doc))
                    except Exception as exc:
                        tally.fail(f"launch/run raised {exc!r}")
                        continue
                    tracer.tag(span.index, instance_id)
                run.sample("launch_ms", (time.perf_counter() - op_start) * 1e3)
                ids.append(instance_id)
                launched.append(instance_id)
                if status != "completed":
                    tally.fail(f"{instance_id} ended {status}")
                continue
            target = pick_target(ids, recent, u)
            with tracer.span(f"console.{op}", target):
                try:
                    result = _console_read(deployment, console, op, target)
                except Exception as exc:
                    tally.fail(f"{op}({target}) raised {exc!r}")
                    continue
            elapsed_ms = (time.perf_counter() - op_start) * 1e3
            run.sample("read_ms", elapsed_ms)
            run.sample(f"console.{op}_ms", elapsed_ms)
            if index % CONSOLE_SAMPLE_EVERY == 0:
                sampled.append((op, target, result, len(ids)))
        loop_s = time.perf_counter() - start
        after = bytes_written()
    run.measured()
    run.region_s.append(run.recover_s[-1] + loop_s)
    run.wall_s.append(loop_s)
    run.disk(before, after, deployment.event_count(launched))
    _console_checks(tally, deployment, sampled, launched)
    run.merge(tally, ops=len(ops))


def _console_checks(tally: Tally, deployment: Deployment, sampled,
                    launched: List[str]) -> None:
    """Sampled reads against direct recounts and the rescan oracles."""
    from repro.core.monitor import queries

    store = deployment.store
    for op, target, result, known in sampled:
        if op == "slowest_activities":
            tally.check(
                result == queries.slowest_activities_rescan(store, target),
                f"slowest_activities({target}) != rescan oracle")
        elif op == "retry_hotspots":
            tally.check(
                result == queries.retry_hotspots_rescan(store, target),
                f"retry_hotspots({target}) != rescan oracle")
        elif op == "instance_detail":
            histogram, longest = recount(deployment.documents[target])
            tally.check(result["status"] == "completed"
                        and result["outputs"]["histogram"] == histogram
                        and result["outputs"]["longest"] == longest,
                        f"instance_detail({target}) != recount")
        elif op == "failed_tasks":
            tally.check(result == [], f"failed_tasks({target}) = {result}")
        elif op == "intermediate_results":
            histogram, _ = recount(deployment.documents[target])
            tally.check(result.get("Merge", {}).get("histogram") == histogram,
                        f"intermediate_results({target}) Merge != recount")
        elif op in ("provenance_ancestry", "provenance_run"):
            tally.check(bool(result), f"{op}({target}) is empty")
        elif op == "list_instances":
            tally.check(len(result) == known and all(
                row["status"] == "completed" for row in result),
                f"list_instances: {len(result)} rows, expected {known}")
        # node_usage changes with every launch: checked once, at the end
    tally.check(queries.node_usage(store) == queries.node_usage_rescan(store),
                "node_usage != rescan oracle")
    deployment.check_outputs(tally, "after the op loop", launched)
    audit = store.kv.audit()
    tally.check(not audit, f"after the op loop: audit {audit[:3]}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS = ("paper_shared", "history_growth", "console_mix")


def run_workload(name: str, seed: int, seconds: float, tracer=None,
                 setups: Optional[int] = None,
                 units: Optional[int] = None) -> Run:
    """Run ``name`` for at least ``seconds`` of measured units and at
    least ``units`` (default UNITS[name]) units.

    Around the units, extra set-ups run so that ``setup_s`` is a median
    of at least ``setups`` (default SETUP_REPEATS[name]) set-ups, each
    unit's own included. With a :class:`layers.Tracer`, its
    wrappers are installed around each unit, set-up included (objects
    built in set-up are traced too); only the traced regions are kept.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    run = Run(seed)
    if name == "paper_shared":
        setup = lambda t: paper_setup(seed, t)  # noqa: E731
    else:
        quickstart = load_quickstart()
        if name == "history_growth":
            docs = documents(seed, "history", HISTORY_INSTANCES)
            setup = lambda t: history_setup(quickstart, OUT_DIR, t)  # noqa: E731
        else:
            ops = console_ops(seed)
            launches = sum(1 for op, _, _ in ops if op == "launch")
            launch_docs = documents(seed, "console-launch", launches)
            setup = lambda t: console_setup(  # noqa: E731
                seed, quickstart, OUT_DIR, t)

    def discard(state) -> None:
        if isinstance(state, Deployment):
            state.close()

    def set_up(tracer):
        gc.collect()
        state, elapsed, recovered = setup(tracer)
        run.setup_s.append(elapsed)
        if recovered is not None:
            run.recover_s.append(recovered)
        return state

    # extra set-ups run spread evenly before, between and after the units,
    # so setup_s samples the same stretch of time as the measured work
    units = units or UNITS[name]
    extra = max(0, (setups or SETUP_REPEATS[name]) - units)
    gaps = [extra * (i + 1) // (units + 1) - extra * i // (units + 1)
            for i in range(units + 1)]

    def extra_setups(count: int) -> None:
        for _ in range(count):
            discard(set_up(NullTracer()))

    unit_tracer = tracer if tracer is not None else NullTracer()
    measured = 0.0
    while measured < seconds or len(run.region_s) < units:
        done = len(run.region_s)
        if done < units:
            extra_setups(gaps[done])
        with ExitStack() as stack:
            if tracer is not None:
                tracer.install(stack)
            state = set_up(unit_tracer)
            gc.collect()
            try:
                if name == "paper_shared":
                    paper_unit(run, state, unit_tracer)
                elif name == "history_growth":
                    history_unit(run, state, docs, unit_tracer)
                else:
                    console_unit(run, state, ops, launch_docs, unit_tracer)
            finally:
                discard(state)
        if len(run.region_s) == done:  # the unit failed: stop here
            break
        measured += run.region_s[-1]
    extra_setups(gaps[-1])
    return run


def summarize(run: Run) -> Dict[str, Tuple[Optional[float], str, int]]:
    """Every end-to-end metric: ``{name: (value or None, unit, n)}``."""
    def median(values: List[float]) -> Optional[float]:
        return statistics.median(values) if values else None

    def mean(values: List[float]) -> Optional[float]:
        return statistics.fmean(values) if values else None

    def pct(name: str, q: float):
        values = run.samples.get(name, [])
        return (percentile(values, q) if values else None), len(values)

    metrics: Dict[str, Tuple[Optional[float], str, int]] = {
        "setup_s": (median(run.setup_s), "s", len(run.setup_s)),
        "wall_s": (mean(run.wall_s), "s", len(run.wall_s)),
        "recover_s": (median(run.recover_s), "s", len(run.recover_s)),
    }
    for metric, sample, q in (("instance_p50_ms", "instance_ms", 0.5),
                              ("instance_p99_ms", "instance_ms", 0.99),
                              ("read_p50_ms", "read_ms", 0.5),
                              ("read_p99_ms", "read_ms", 0.99),
                              ("launch_p50_ms", "launch_ms", 0.5)):
        value, n = pct(sample, q)
        metrics[metric] = (value, "ms", n)
    per_event = (run.disk_bytes / run.disk_events
                 if run.disk_known and run.disk_events else None)
    metrics["disk_bytes_per_event"] = (per_event, "B/event", run.disk_events)
    metrics["peak_rss_mb"] = (run.peak_rss_mb, "MiB", 1)
    attempted = max(1, run.tally.attempted)
    metrics["error_rate"] = (run.tally.failed / attempted, "fraction",
                             run.tally.attempted)
    return metrics
