"""Tests of the benchmark's span recorder, layer metrics and inputs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import sys
from collections import Counter
from contextlib import ExitStack

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter_ns", fake)
    return fake


def test_nested_self_times(clock):
    recorder = spans.SpanRecorder()
    root = recorder.begin(recorder.name_id("root"), "pi-1")
    clock.now = 10
    a = recorder.begin(recorder.name_id("a"))
    clock.now = 15
    grandchild = recorder.begin(recorder.name_id("g"), "pi-2")
    clock.now = 25
    recorder.finish(grandchild)
    clock.now = 40
    recorder.finish(a)
    clock.now = 50
    b = recorder.begin(recorder.name_id("b"))
    clock.now = 70
    recorder.finish(b)
    clock.now = 100
    recorder.finish(root)

    assert list(recorder.durations()) == [100, 30, 10, 20]
    assert list(recorder.self_times()) == [50, 20, 10, 20]
    assert sum(recorder.self_times()) == recorder.durations()[root]
    # children inherit the instance id unless they name their own
    assert [recorder.instances[i] for i in recorder.instance] == [
        "pi-1", "pi-1", "pi-2", "pi-1"]
    totals = recorder.totals()
    assert totals["root"] == {"calls": 1, "self_ns": 50, "total_ns": 100}
    assert totals["a"]["self_ns"] == 20


def test_repeated_names_sum_self_time(clock):
    recorder = spans.SpanRecorder()
    outer = recorder.name_id("outer")
    inner = recorder.name_id("inner")
    root = recorder.begin(outer)
    for start in (2, 6):
        clock.now = start
        index = recorder.begin(inner)
        clock.now = start + 3
        recorder.finish(index)
    clock.now = 12
    recorder.finish(root)
    totals = recorder.totals()
    assert totals["inner"] == {"calls": 2, "self_ns": 6, "total_ns": 6}
    assert totals["outer"]["self_ns"] == 6


def test_traced_wrapper_closes_span_on_error(clock):
    recorder = spans.SpanRecorder()

    def boom():
        clock.now += 5
        raise ValueError("boom")

    wrapped = spans.traced(recorder, "layer.fn", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert list(recorder.durations()) == [5]
    assert recorder.totals()["layer.fn"]["calls"] == 1


def test_spans_out_of_order_close_is_an_error():
    recorder = spans.SpanRecorder()
    outer = recorder.begin(recorder.name_id("outer"))
    recorder.begin(recorder.name_id("inner"))
    with pytest.raises(RuntimeError):
        recorder.finish(outer)


def test_tracer_keeps_only_regions(clock):
    tracer = layers.Tracer()
    recorder = tracer.recorder
    outside = recorder.begin(recorder.name_id("store.kvstore.commit"))
    clock.now = 7
    recorder.finish(outside)
    with tracer.region():
        clock.now = 10
        with tracer.span("store.wal.append"):
            clock.now = 14
        clock.now = 20
    clock.now = 30
    with tracer.region():
        clock.now = 35
    # regions 7..20 and 30..35; the commit before them is dropped
    totals = tracer.totals()
    assert tracer.wall_ns == 18
    assert totals["store.wal.append"]["calls"] == 1
    assert totals["store.wal.append"]["self_ns"] == 4
    assert totals["store.kvstore.commit"]["calls"] == 0
    assert sum(row["self_ns"] for row in totals.values()) == 18
    assert len(tracer.recorder) == 3


def test_layer_of():
    assert layers.layer_of("store.wal.append") == "store.wal"
    assert layers.layer_of("bio.costmodel") == "bio"
    assert layers.layer_of("console.node_usage") == "core.monitor"
    assert layers.layer_of("bench.region") == ""


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_declared():
    per_layer = layers.layer_metrics({}, {}, 1, {}, 0.0)
    names = [name for name, _, _ in per_layer]
    e2e = workloads.summarize(workloads.Run(0))
    for name in names + list(e2e):
        assert layers.METRIC_NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    declared = _benchmark()
    assert [m["name"] for m in declared["per_layer"]] == names
    assert {m["name"] for m in declared["end_to_end"]} <= set(e2e)
    units = {name: unit for name, _, unit in per_layer}
    for metric in declared["per_layer"]:
        assert metric["unit"] == units[metric["name"]]


def test_layer_self_times_partition_the_wall():
    totals = {
        "bench.region": {"calls": 1, "self_ns": 5},
        "store.wal.append": {"calls": 3, "self_ns": 20},
        "store.codec.encode": {"calls": 3, "self_ns": 30},
        "console.node_usage": {"calls": 1, "self_ns": 45},
    }
    metrics = {name: value for name, value, _ in
               layers.layer_metrics(totals, {}, 100, {}, 0.0)}
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert layer_sum + metrics["bench.unattributed_s"] == pytest.approx(
        metrics["bench.wall_s"])
    assert metrics["core.monitor.self_s"] == pytest.approx(45e-9)


def test_inputs_depend_on_the_seed_only():
    assert workloads.documents(3, "history", 5) == workloads.documents(
        3, "history", 5)
    assert workloads.documents(3, "history", 5) != workloads.documents(
        4, "history", 5)
    assert workloads.console_ops(3) == workloads.console_ops(3)
    assert workloads.console_ops(3) != workloads.console_ops(4)
    ops = workloads.console_ops(3)
    assert len(ops) == workloads.CONSOLE_OPS_COUNT
    counts = Counter(op for op, _, _ in ops)
    assert counts.pop("launch") == 400
    assert counts == {op: 400 for op in layers.CONSOLE_OPS}


def test_pick_target_windows():
    ids = [f"pi-{i}" for i in range(100)]
    assert workloads.pick_target(ids, True, 0.0) == "pi-90"
    assert workloads.pick_target(ids, True, 0.999) == "pi-99"
    assert workloads.pick_target(ids, False, 0.0) == "pi-0"


def test_recount_matches_the_quickstart_program():
    quickstart = workloads.load_quickstart()
    text = workloads.documents(1, "history", 1)[0]
    chunks = quickstart.split({"text": text}, None).outputs["chunks"]
    results = [quickstart.count({"words": words, "min_length": 4},
                                None).outputs for words in chunks]
    merged = quickstart.merge({"results": results}, None).outputs
    histogram, longest = workloads.recount(text)
    assert merged == {"histogram": histogram, "longest": longest}


def test_traced_requests_share_their_instance_id(tmp_path):
    quickstart = workloads.load_quickstart()
    tracer = layers.Tracer()
    with ExitStack() as stack:
        tracer.install(stack)
        deployment = workloads.Deployment(quickstart, str(tmp_path))
        try:
            with tracer.region():
                for text in workloads.documents(5, "history", 3):
                    with tracer.span("bench.request") as span:
                        instance_id, status = deployment.run(text)
                        tracer.tag(span.index, instance_id)
                    assert status == "completed"
                recorder = tracer.recorder
                request = recorder.name_id("bench.request")
                tags = {}
                for index in range(len(recorder)):
                    top = index
                    while recorder.name[top] != request:
                        top = recorder.parent[top]
                        if top == spans.NO_PARENT:
                            break
                    if top != spans.NO_PARENT and top != index:
                        tags.setdefault(top, set()).add(
                            recorder.instances[recorder.instance[index]])
        finally:
            deployment.close()
    assert len(tags) == 3
    # the launch span opens before the id exists; everything after the
    # tag carries the request's instance id
    for names in tags.values():
        assert len(names - {None}) == 1
    assert sum(row["self_ns"] for row in tracer.totals().values()) \
        == tracer.wall_ns
    assert tracer.counters["store.spaces.events_appended"] > 0
