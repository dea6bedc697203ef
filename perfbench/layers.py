"""Which public functions of each layer the traced run wraps, and the
per-layer metrics computed from the spans and counters they record.

A span's layer is its name up to the last dot (``store.wal.append`` is
in ``store.wal``). The benchmark's own console-op spans (``console.*``)
belong to ``core.monitor``; its ``bench.*`` spans are the workload loop
itself, whose self time is reported as unattributed.

Two wrappers change how a call runs, not what it computes: the event-log
reads (``InstanceSpace.events``/``events_from``) and
``ProcessInstance.replay`` materialise their event iterator inside the
span, so the read is timed where it happens instead of inside whichever
caller consumes the generator.
"""

from __future__ import annotations

import re
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from spans import SpanRecorder, patch, traced

#: the layers in call-stack order, top (operator side) to bottom.
LAYERS = (
    "core.monitor",
    "cluster",
    "core.engine.server",
    "core.engine.navigator",
    "core.engine.dispatcher",
    "core.engine.instance",
    "core.engine.library",
    "bio",
    "obs",
    "prov",
    "store.spaces",
    "store.kvstore",
    "store.snapshot",
    "store.wal",
    "store.codec",
)

#: the nine operator reads of the console_mix workload.
CONSOLE_OPS = (
    "instance_detail", "failed_tasks", "intermediate_results",
    "provenance_ancestry", "provenance_run", "slowest_activities",
    "retry_hotspots", "node_usage", "list_instances",
)

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to ("" = unattributed)."""
    if span_name.startswith("bench."):
        return ""
    if span_name.startswith("console."):
        return "core.monitor"
    return span_name.rsplit(".", 1)[0]


def _events_of(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Span around a generator-returning event read, consumed inside it."""
    name_id = recorder.name_id(name)

    def wrapper(space, instance_id, *args):
        index = recorder.begin(name_id, instance_id)
        try:
            events = list(fn(space, instance_id, *args))
        finally:
            recorder.finish(index)
        recorder.count("store.spaces.event_reads")
        return iter(events)
    return wrapper


def instrument(recorder: SpanRecorder, stack: ExitStack) -> None:
    """Wrap every traced public function of the program."""
    from repro.bio.costmodel import CostModel
    from repro.bio.darwin import DarwinEngine
    from repro.cluster.network import Network
    from repro.cluster.pec import PEC
    from repro.cluster.simulation import SimKernel
    from repro.core.engine.dispatcher import Dispatcher
    from repro.core.engine.instance import ProcessInstance
    from repro.core.engine.library import ProgramRegistry
    from repro.core.engine.navigator import Navigator
    from repro.core.engine.server import BioOperaServer
    from repro.obs import ObservabilityHub, ViewCatalog
    from repro.prov.graph import ProvenanceGraph
    from repro.prov.view import ProvenanceView
    from repro.store import codec, kvstore, snapshot, spaces, wal

    count = recorder.count

    def plain(owner, attr, name, instance_of=None):
        patch(stack, owner, attr,
              lambda fn: traced(recorder, name, fn, instance_of))

    def counted(owner, attr, name, after, instance_of=None):
        """Span plus ``after(result, *args)`` bookkeeping at the boundary."""
        def make(fn):
            inner = traced(recorder, name, fn, instance_of)

            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                after(result, *args)
                return result
            return wrapper
        patch(stack, owner, attr, make)

    by_instance = lambda _self, instance, *rest: instance.id  # noqa: E731
    by_id = lambda _self, instance_id, *rest: instance_id  # noqa: E731

    # bio
    plain(DarwinEngine, "align_partition", "bio.align_partition")
    plain(CostModel, "teu_fixed_cost", "bio.costmodel")
    plain(CostModel, "teu_pair_count", "bio.costmodel")
    # core.engine
    plain(Navigator, "navigate", "core.engine.navigator.navigate",
          by_instance)
    counted(Dispatcher, "pump", "core.engine.dispatcher.pump",
            lambda placed, *_: count("core.engine.dispatcher.jobs_placed",
                                     placed))
    plain(BioOperaServer, "emit", "core.engine.server.emit", by_instance)
    plain(BioOperaServer, "emit_batch", "core.engine.server.emit",
          by_instance)
    plain(BioOperaServer, "launch", "core.engine.server.launch")
    plain(BioOperaServer, "on_job_completed", "core.engine.server.completion")
    plain(BioOperaServer, "on_job_failed", "core.engine.server.completion")
    plain(BioOperaServer, "recover", "core.engine.server.recover")

    replay_id = recorder.name_id("core.engine.instance.replay")

    def make_replay(fn):
        def wrapper(instance, events):
            index = recorder.begin(replay_id, instance.id)
            try:
                events = list(events)
                result = fn(instance, events)
            finally:
                recorder.finish(index)
            count("core.engine.instance.replay_events", len(events))
            count("core.engine.instance.replayed_instances")
            if instance.terminal:
                count("core.engine.instance.replayed_terminal")
            return result
        return wrapper
    patch(stack, ProcessInstance, "replay", make_replay)
    plain(ProgramRegistry, "run", "core.engine.library.program",
          lambda _self, _name, _inputs, ctx: ctx.instance_id)
    # store.codec (module functions, called as codec.encode/decode)
    counted(codec, "encode", "store.codec.encode",
            lambda data, *_: count("store.codec.encode_bytes", len(data)))
    plain(codec, "decode", "store.codec.decode")
    # store.wal
    for cls in (wal.SegmentedWAL, wal.MemoryWAL):
        counted(cls, "append", "store.wal.append",
                lambda _r, _wal, payload: (
                    count("store.wal.records_appended"),
                    count("store.wal.bytes_appended", len(payload))))
        counted(cls, "append_many", "store.wal.append",
                lambda _r, _wal, payloads: (
                    count("store.wal.records_appended", len(payloads)),
                    count("store.wal.bytes_appended",
                          sum(map(len, payloads)))))
        plain(cls, "sync", "store.wal.sync")
    # store.snapshot: bytes written = bytes encoded inside the save
    save_id = recorder.name_id("store.snapshot.save")

    def make_save(fn):
        def wrapper(snap, state):
            before = recorder.counters.get("store.codec.encode_bytes", 0)
            index = recorder.begin(save_id)
            try:
                return fn(snap, state)
            finally:
                recorder.finish(index)
                count("store.snapshot.bytes_written",
                      recorder.counters.get("store.codec.encode_bytes", 0)
                      - before)
        return wrapper
    for cls in (snapshot.FileSnapshot, snapshot.MemorySnapshot):
        patch(stack, cls, "save", make_save)
    # store.kvstore
    plain(kvstore.KVStore, "_commit_batch", "store.kvstore.commit")
    plain(kvstore.KVStore, "flush", "store.kvstore.flush")
    plain(kvstore.KVStore, "checkpoint", "store.kvstore.checkpoint")

    def after_keys(keys, kv, *_):
        count("store.kvstore.keys_examined", len(kv))
        count("store.kvstore.keys_returned", len(keys))
    counted(kvstore.KVStore, "keys", "store.kvstore.prefix_read", after_keys)
    # store.spaces
    counted(spaces.InstanceSpace, "append_event", "store.spaces.append",
            lambda *_: count("store.spaces.events_appended"), by_id)

    def make_append_events(fn):
        inner = traced(recorder, "store.spaces.append", fn, by_id)

        def wrapper(space, instance_id, events):
            events = list(events)
            result = inner(space, instance_id, events)
            count("store.spaces.events_appended", len(events))
            return result
        return wrapper
    patch(stack, spaces.InstanceSpace, "append_events", make_append_events)
    for attr in ("events", "events_from"):
        patch(stack, spaces.InstanceSpace, attr,
              lambda fn: _events_of(recorder, "store.spaces.event_read", fn))
    plain(spaces.DataSpace, "append_lineage", "store.spaces.lineage_append")
    # obs
    plain(ViewCatalog, "apply_event", "obs.fold")
    plain(ViewCatalog, "apply_events", "obs.fold")
    plain(ViewCatalog, "checkpoint", "obs.view_checkpoint")
    plain(ObservabilityHub, "checkpoint", "obs.checkpoint")
    # prov
    plain(ProvenanceView, "on_lineage", "prov.view_fold")
    plain(ProvenanceView, "checkpoint", "prov.view_checkpoint")
    for attr in ("ancestry", "descendants", "derivation_path", "run_steps",
                 "diff_runs"):
        plain(ProvenanceGraph, attr, "prov.query")
    # cluster
    plain(SimKernel, "step", "cluster.kernel_step")
    plain(Network, "send", "cluster.network_send")
    for attr in ("receive_job", "job_finished", "load_changed"):
        plain(PEC, attr, "cluster.pec")


class Tracer:
    """Traces the measured regions of a workload and keeps their spans.

    A workload opens :meth:`region` around measured work. Spans recorded
    outside every region (set-up, output checks) are dropped when the next
    region opens or the totals are read, so the self times of the kept
    spans add up to the regions' wall time exactly.
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        #: counters recorded inside regions only.
        self.counters: Dict[str, int] = {}
        self.wall_ns = 0
        self.regions = 0
        self._kept = 0

    def install(self, stack: ExitStack) -> None:
        instrument(self.recorder, stack)

    def span(self, name: str, instance: Optional[str] = None):
        return self.recorder.span(name, instance)

    def tag(self, index: int, instance: str) -> None:
        self.recorder.tag(index, instance)

    @contextmanager
    def region(self):
        """Measured work: its spans are kept and its counters summed."""
        recorder = self.recorder
        recorder.truncate(self._kept)
        before = dict(recorder.counters)
        with recorder.span("bench.region") as span:
            yield span
        self._kept = len(recorder)
        for name, value in recorder.counters.items():
            self.counters[name] = (self.counters.get(name, 0) + value
                                   - before.get(name, 0))
        self.wall_ns += int(recorder.durations()[span.index])
        self.regions += 1

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Per span name: calls and self time over every region."""
        self.recorder.truncate(self._kept)
        return self.recorder.totals()

    def write(self, path: str) -> None:
        """Write the kept spans, after a header with the region counters."""
        self.recorder.truncate(self._kept)
        self.recorder.write(path, {"regions": self.regions,
                                   "wall_ns": self.wall_ns,
                                   "counters": self.counters})


def layer_metrics(totals: Dict[str, Dict[str, int]],
                  counters: Dict[str, int], wall_ns: int,
                  console_p50_ms: Dict[str, float],
                  trace_overhead_frac: float
                  ) -> List[Tuple[str, float, str]]:
    """Per-layer metrics as ``(name, value, unit)``.

    ``totals`` and ``counters`` are a :class:`Tracer`'s sums over its
    regions (:meth:`Tracer.totals`, :attr:`Tracer.counters`), whose wall
    time is ``wall_ns``: every layer's ``self_s``
    plus ``bench.unattributed_s`` adds up to ``bench.wall_s``.
    ``console_p50_ms`` holds the untraced per-op read latencies and
    ``trace_overhead_frac`` the traced regions' slowdown over untraced.
    """
    def calls(*names: str) -> int:
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names: str) -> float:
        return sum(totals.get(n, {}).get("self_ns", 0) for n in names) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    layer_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
    unattributed_ns = 0
    for name, row in totals.items():
        layer = layer_of(name)
        if layer:
            layer_ns[layer] = layer_ns.get(layer, 0) + row["self_ns"]
        else:
            unattributed_ns += row["self_ns"]

    placed = counters.get("core.engine.dispatcher.jobs_placed", 0)
    metrics: List[Tuple[str, float, str]] = [
        ("bio.align_partition_calls", calls("bio.align_partition"), "count"),
        ("bio.align_partition_self_s", self_s("bio.align_partition"), "s"),
        ("bio.costmodel_self_s", self_s("bio.costmodel"), "s"),
        ("core.engine.navigator.navigate_calls",
         calls("core.engine.navigator.navigate"), "count"),
        ("core.engine.navigator.navigate_self_s",
         self_s("core.engine.navigator.navigate"), "s"),
        ("core.engine.navigator.navigations_per_job",
         ratio(calls("core.engine.navigator.navigate"), placed), "ratio"),
        ("core.engine.dispatcher.pump_calls",
         calls("core.engine.dispatcher.pump"), "count"),
        ("core.engine.dispatcher.pump_self_s",
         self_s("core.engine.dispatcher.pump"), "s"),
        ("core.engine.dispatcher.jobs_placed", placed, "count"),
        ("core.engine.dispatcher.placed_per_pump",
         ratio(placed, calls("core.engine.dispatcher.pump")), "ratio"),
        ("core.engine.server.emit_self_s",
         self_s("core.engine.server.emit"), "s"),
        ("core.engine.server.launch_self_s",
         self_s("core.engine.server.launch"), "s"),
        ("core.engine.server.completion_self_s",
         self_s("core.engine.server.completion"), "s"),
        ("core.engine.server.recover_calls",
         calls("core.engine.server.recover"), "count"),
        ("core.engine.server.recover_self_s",
         self_s("core.engine.server.recover"), "s"),
        ("core.engine.instance.replay_events",
         counters.get("core.engine.instance.replay_events", 0), "count"),
        ("core.engine.instance.replay_self_s",
         self_s("core.engine.instance.replay"), "s"),
        ("core.engine.instance.replayed_terminal_frac",
         ratio(counters.get("core.engine.instance.replayed_terminal", 0),
               counters.get("core.engine.instance.replayed_instances", 0)),
         "fraction"),
        ("core.engine.library.program_self_s",
         self_s("core.engine.library.program"), "s"),
        ("store.codec.encode_calls", calls("store.codec.encode"), "count"),
        ("store.codec.encode_bytes",
         counters.get("store.codec.encode_bytes", 0), "B"),
        ("store.codec.encode_self_s", self_s("store.codec.encode"), "s"),
        ("store.codec.decode_self_s", self_s("store.codec.decode"), "s"),
        ("store.wal.records_appended",
         counters.get("store.wal.records_appended", 0), "count"),
        ("store.wal.bytes_appended",
         counters.get("store.wal.bytes_appended", 0), "B"),
        ("store.wal.sync_calls", calls("store.wal.sync"), "count"),
        ("store.snapshot.save_calls", calls("store.snapshot.save"), "count"),
        ("store.snapshot.bytes_written",
         counters.get("store.snapshot.bytes_written", 0), "B"),
        ("store.snapshot.save_self_s", self_s("store.snapshot.save"), "s"),
        ("store.kvstore.commits", calls("store.kvstore.commit"), "count"),
        ("store.kvstore.commit_self_s", self_s("store.kvstore.commit"), "s"),
        ("store.kvstore.flush_calls", calls("store.kvstore.flush"), "count"),
        ("store.kvstore.checkpoint_calls",
         calls("store.kvstore.checkpoint"), "count"),
        ("store.kvstore.checkpoint_self_s",
         self_s("store.kvstore.checkpoint"), "s"),
        ("store.kvstore.prefix_reads",
         calls("store.kvstore.prefix_read"), "count"),
        ("store.kvstore.prefix_read_self_s",
         self_s("store.kvstore.prefix_read"), "s"),
        ("store.kvstore.keys_examined_per_returned",
         ratio(counters.get("store.kvstore.keys_examined", 0),
               counters.get("store.kvstore.keys_returned", 0)), "ratio"),
        ("store.spaces.events_appended",
         counters.get("store.spaces.events_appended", 0), "count"),
        ("store.spaces.append_self_s", self_s("store.spaces.append"), "s"),
        ("store.spaces.event_reads",
         counters.get("store.spaces.event_reads", 0), "count"),
        ("store.spaces.event_read_self_s",
         self_s("store.spaces.event_read"), "s"),
        ("store.spaces.lineage_appends",
         calls("store.spaces.lineage_append"), "count"),
        ("obs.fold_self_s", self_s("obs.fold"), "s"),
        ("obs.checkpoint_calls", calls("obs.checkpoint"), "count"),
        ("obs.checkpoint_self_s", self_s("obs.checkpoint"), "s"),
        ("obs.view_checkpoint_self_s", self_s("obs.view_checkpoint"), "s"),
        ("prov.view_fold_self_s", self_s("prov.view_fold"), "s"),
        ("prov.view_checkpoint_self_s", self_s("prov.view_checkpoint"), "s"),
        ("prov.query_calls", calls("prov.query"), "count"),
        ("prov.query_self_s", self_s("prov.query"), "s"),
    ]
    for op in CONSOLE_OPS:
        metrics.append((f"console.{op}_p50_ms",
                        console_p50_ms.get(op, 0.0), "ms"))
    metrics += [
        ("cluster.kernel_events", calls("cluster.kernel_step"), "count"),
        ("cluster.kernel_self_s", self_s("cluster.kernel_step"), "s"),
        ("cluster.network_sends", calls("cluster.network_send"), "count"),
        ("cluster.pec_self_s", self_s("cluster.pec"), "s"),
    ]
    metrics += [(f"{layer}.self_s", layer_ns[layer] / 1e9, "s")
                for layer in LAYERS]
    metrics += [
        ("bench.unattributed_s", unattributed_ns / 1e9, "s"),
        ("bench.unattributed_frac", ratio(unattributed_ns, wall_ns),
         "fraction"),
        ("bench.wall_s", wall_ns / 1e9, "s"),
        ("bench.trace_overhead_frac", trace_overhead_frac, "fraction"),
    ]
    return metrics
