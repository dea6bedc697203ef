"""explain_wait: "why is this task not running?" on both consoles."""

import pytest

from repro.cluster import SimKernel, SimulatedCluster, uniform
from repro.core.engine import (
    BioOperaServer,
    InlineEnvironment,
    ProgramRegistry,
    ProgramResult,
)
from repro.core.engine import events as ev
from repro.core.engine import navigator as nav
from repro.core.engine.operator_console import OperatorConsole
from repro.errors import UnknownInstanceError, UnknownTaskError
from repro.shard import ShardedConsole

from ..shard.conftest import make_plane

WAITS_OCR = """
PROCESS waits
  INPUT items
  ACTIVITY A
    PROGRAM t.ok
  END
  ACTIVITY B
    PROGRAM t.ok
    AWAIT go
  END
  ACTIVITY C
    PROGRAM t.ok
  END
  ACTIVITY G
    PROGRAM t.ok
    PARAM placement = "gpu"
  END
  PARALLEL P
    FOREACH wb.items AS item
    ACTIVITY Body
      PROGRAM t.ok
      PARAM placement = "gpu"
    END
  END
  CONNECT A -> B
  CONNECT B -> C
END
"""


def _registry(cost=1.0):
    registry = ProgramRegistry()
    registry.register("t.ok", lambda i, c: ProgramResult({"ok": 1}, cost))
    return registry


@pytest.fixture()
def console():
    server = BioOperaServer(registry=_registry())
    server.attach_environment(InlineEnvironment())
    server.define_template_ocr(WAITS_OCR)
    return OperatorConsole(server)


def kinds(console, instance_id, *paths):
    return [console.explain_wait(instance_id, p).kind for p in paths]


class TestExplainWait:
    def test_each_reason(self, console):
        server = console.server
        instance_id = console.start("waits", {"items": [1, 2]})
        a = console.explain_wait(instance_id, "A")
        assert (a.kind, a.node, a.attempt) == (nav.WAIT_DISPATCHED, "local", 1)
        assert a.lease_expires is None
        b = console.explain_wait(instance_id, "B")
        assert (b.kind, b.connectors) == (nav.WAIT_CONNECTORS, ("A",))
        g = console.explain_wait(instance_id, "G")
        assert (g.kind, g.placement, g.attempt) == (nav.WAIT_QUEUED, "gpu", 1)
        assert kinds(console, instance_id, "P", "P/Body[1]") == [
            nav.WAIT_EXPANDED, nav.WAIT_QUEUED]

        server.environment.step()  # A completes; B awaits its signal
        b = console.explain_wait(instance_id, "B")
        assert (b.kind, b.signals) == (nav.WAIT_SIGNALS, ("go",))
        assert kinds(console, instance_id, "A", "C") == [
            nav.WAIT_FINISHED, nav.WAIT_CONNECTORS]
        assert b.as_dict()["signals"] == ("go",)

        console.stop(instance_id)
        assert kinds(console, instance_id, "C", "G") == [
            nav.WAIT_INSTANCE_SUSPENDED] * 2
        console.resume(instance_id)

        # A reset the navigator has not looked at yet: ready to start.
        server.emit(server.instance(instance_id),
                    ev.task_reset("A", server.clock()))
        ready = console.explain_wait(instance_id, "A")
        assert (ready.kind, ready.status) == (nav.WAIT_READY, "inactive")

        console.abort(instance_id)
        terminal = console.explain_wait(instance_id, "C")
        assert (terminal.kind, terminal.instance_status) == (
            nav.WAIT_INSTANCE_TERMINAL, "aborted")

    def test_unknown_ids_and_tasks_are_typed_errors(self, console):
        instance_id = console.start("waits", {"items": [1, 2]})
        with pytest.raises(UnknownInstanceError):
            console.explain_wait("pi-999999", "A")
        for path in ("Nope", "P/Body[7]", "A#comp", "X/A"):
            with pytest.raises(UnknownTaskError):
                console.explain_wait(instance_id, path)

    def test_dispatched_task_reports_its_lease(self):
        kernel = SimKernel(seed=3)
        cluster = SimulatedCluster(kernel, uniform(1, cpus=1),
                                   execution_noise=0.0)
        server = BioOperaServer(registry=_registry(cost=50.0))
        server.attach_environment(cluster)
        server.enable_leases(120.0, 0.0)
        server.define_template_ocr(
            "PROCESS P\n  ACTIVITY A\n    PROGRAM t.ok\n  END\nEND")
        instance_id = server.launch("P")
        kernel.run(until=5.0)
        reason = OperatorConsole(server).explain_wait(instance_id, "A")
        assert reason.kind == nav.WAIT_DISPATCHED
        assert reason.node == "node001"
        assert reason.lease_expires is not None
        assert reason.lease_expires > kernel.now

    def test_states_considered_counter(self, console):
        instance_id = console.start("waits", {"items": [1, 2]})
        console.server.environment.run_instance(instance_id)
        counters = console.metrics_snapshot()["counters"]
        assert counters["navigator.states_considered"] > 0
        assert counters["navigations"] > 0


class TestShardedExplainWait:
    def test_routes_and_chases_migration_forwards(self):
        kernel, plane = make_plane(shards=3, seed=7)
        requests = [plane.launch("t0", "job", {"cost": 60.0})
                    for _ in range(6)]
        plane.drain_requests()
        old_id = sorted(r.result for r in requests
                        if r.result.startswith("s00-"))[0]
        console = ShardedConsole(plane)
        assert console.explain_wait(old_id, "Work").kind in (
            nav.WAIT_DISPATCHED, nav.WAIT_QUEUED)
        new_id = plane.migrator.migrate_instance(old_id, 1)
        moved = console.explain_wait(old_id, "Work")
        assert moved == console.explain_wait(new_id, "Work")
        assert moved.kind in (nav.WAIT_DISPATCHED, nav.WAIT_QUEUED)
        kernel.run()
        assert console.explain_wait(old_id, "Work").kind == (
            nav.WAIT_INSTANCE_TERMINAL)
        with pytest.raises(UnknownInstanceError):
            console.explain_wait("s01-pi-999999", "Work")
        with pytest.raises(UnknownTaskError):
            console.explain_wait(old_id, "Nope")
