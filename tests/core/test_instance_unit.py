"""ProcessInstance: direct unit tests of the event-sourced state machine."""

import pytest

from repro.core.engine import events as ev
from repro.core.engine.instance import (
    COMPLETED,
    DISPATCHED,
    EXPANDED,
    FAILED,
    INACTIVE,
    ProcessInstance,
    SKIPPED,
)
from repro.core.model.data import UNDEFINED
from repro.core.ocr import parse_ocr
from repro.errors import EngineError, InvalidStateError

TEMPLATE = parse_ocr("""
PROCESS P
  INPUT x
  INPUT opt OPTIONAL
  INPUT dflt DEFAULT 5
  OUTPUT out = B.v
  ACTIVITY A
    PROGRAM ns.a
    MAP v -> shared
  END
  ACTIVITY B
    PROGRAM ns.b
    IN got = wb.shared
  END
  PARALLEL Fan
    FOREACH wb.shared AS e
    ACTIVITY Body
      PROGRAM ns.body
    END
  END
  CONNECT A -> B
  CONNECT B -> Fan
END
""")

CHILD = parse_ocr("""
PROCESS child
  INPUT seed
  OUTPUT r = C.r
  ACTIVITY C
    PROGRAM ns.c
  END
END
""")


def resolver(name, version):
    return {"P": TEMPLATE, "child": CHILD}[name]


def fresh(inputs=None):
    instance = ProcessInstance("pi-test", resolver)
    instance.apply(ev.instance_created("P", 1, inputs or {"x": 1}, 0.0))
    instance.apply(ev.instance_started(0.0))
    return instance


class TestCreation:
    def test_whiteboard_initialized_from_inputs_and_defaults(self):
        instance = fresh({"x": 9})
        board = instance.whiteboards[""]
        assert board.get("x") == 9
        assert board.get("dflt") == 5
        assert board.get("opt") is UNDEFINED

    def test_missing_required_input_rejected(self):
        instance = ProcessInstance("pi-test", resolver)
        with pytest.raises(InvalidStateError):
            instance.apply(ev.instance_created("P", 1, {}, 0.0))

    def test_root_frame_has_all_tasks_inactive(self):
        instance = fresh()
        frame = instance.frames[""]
        assert set(frame.states) == {"A", "B", "Fan"}
        assert all(s.status == INACTIVE for s in frame.states.values())


class TestTaskEvents:
    def test_dispatch_then_complete(self):
        instance = fresh()
        instance.apply(ev.task_dispatched("A", "n1", "ns.a", 1, 1.0))
        state = instance.find_state("A")
        assert state.status == DISPATCHED
        assert state.node == "n1"
        instance.apply(ev.task_completed("A", {"v": [1, 2]}, 3.0, "n1", 4.0))
        assert state.status == COMPLETED
        assert state.cost == 3.0
        # output mapping wrote the whiteboard
        assert instance.whiteboards[""].get("shared") == [1, 2]

    def test_failure_counts_program_failures_only(self):
        instance = fresh()
        instance.apply(ev.task_dispatched("A", "n1", "ns.a", 1, 1.0))
        instance.apply(ev.task_failed("A", "node-crash", "n1", 1, 2.0))
        state = instance.find_state("A")
        assert state.status == FAILED
        assert state.program_failures == 0      # infrastructure
        instance.apply(ev.task_dispatched("A", "n1", "ns.a", 2, 3.0))
        instance.apply(ev.task_failed("A", "program-error", "n1", 2, 4.0))
        assert state.program_failures == 1

    def test_skip(self):
        instance = fresh()
        instance.apply(ev.task_skipped("B", 1.0))
        assert instance.find_state("B").status == SKIPPED

    def test_unknown_path_raises(self):
        instance = fresh()
        with pytest.raises(EngineError):
            instance.apply(ev.task_completed("Nope", {}, 0.0, "", 1.0))

    def test_unknown_event_type_raises(self):
        instance = fresh()
        with pytest.raises(EngineError):
            instance.apply({"type": "quantum_entangled", "time": 0.0})


class TestExpansion:
    def expand_fan(self, instance, elements):
        instance.apply(ev.task_completed("A", {"v": elements}, 1.0, "n", 1.0))
        instance.apply(ev.task_completed("B", {"v": "done"}, 1.0, "n", 2.0))
        instance.apply(ev.parallel_expanded("Fan", elements, 3.0))

    def test_parallel_creates_body_states(self):
        instance = fresh()
        self.expand_fan(instance, [10, 20, 30])
        frame = instance.frames["Fan/"]
        assert set(frame.states) == {"Body[0]", "Body[1]", "Body[2]"}
        assert frame.states["Body[1]"].element == 20
        assert instance.find_state("Fan").status == EXPANDED

    def test_body_paths_resolve(self):
        instance = fresh()
        self.expand_fan(instance, [1])
        state = instance.find_state("Fan/Body[0]")
        assert state is not None
        assert instance.frame_of("Fan/Body[0]").kind == "parallel"

    def test_subprocess_frame_owns_whiteboard(self):
        instance = ProcessInstance("pi-sub", lambda n, v: CHILD)
        instance.apply(ev.instance_created("child", 1, {"seed": 1}, 0.0))
        instance.apply(ev.instance_started(0.0))
        # create a nested subprocess manually through an event on a fake
        # parent: here we just verify whiteboard separation via a new frame
        assert instance.whiteboards[""].get("seed") == 1

    def test_frame_complete(self):
        instance = fresh()
        self.expand_fan(instance, [1, 2])
        frame = instance.frames["Fan/"]
        assert not frame.complete()
        instance.apply(ev.task_completed("Fan/Body[0]", {}, 1.0, "n", 4.0))
        instance.apply(ev.task_completed("Fan/Body[1]", {}, 1.0, "n", 5.0))
        assert frame.complete()


class TestReset:
    def test_reset_clears_task_and_frames(self):
        instance = fresh()
        instance.apply(ev.task_completed("A", {"v": [1]}, 1.0, "n", 1.0))
        instance.apply(ev.task_completed("B", {"v": 2}, 1.0, "n", 2.0))
        instance.apply(ev.parallel_expanded("Fan", [1], 3.0))
        instance.apply(ev.task_reset("Fan", 4.0))
        assert instance.find_state("Fan").status == INACTIVE
        assert "Fan/" not in instance.frames

    def test_reset_preserves_budgets_and_cost(self):
        instance = fresh()
        instance.apply(ev.task_dispatched("A", "n", "ns.a", 1, 1.0))
        instance.apply(ev.task_failed("A", "program-error", "n", 1, 2.0))
        instance.apply(ev.task_dispatched("A", "n", "ns.a", 2, 3.0))
        instance.apply(ev.task_completed("A", {"v": []}, 7.0, "n", 4.0))
        instance.apply(ev.task_reset("A", 5.0))
        state = instance.find_state("A")
        assert state.status == INACTIVE
        assert state.cost == 7.0
        assert state.program_failures == 1
        assert state.attempts == 2

    def test_reset_reopens_terminal_instance(self):
        instance = fresh()
        instance.apply(ev.instance_completed({"out": 1}, 9.0))
        assert instance.terminal
        instance.apply(ev.task_reset("B", 10.0))
        assert instance.status == "running"
        assert instance.outputs == {}


class TestWhiteboardEvents:
    def test_whiteboard_set(self):
        instance = fresh()
        instance.apply(ev.whiteboard_set("", "tweak", 3.14, 1.0))
        assert instance.whiteboards[""].get("tweak") == 3.14

    def test_whiteboard_set_unknown_scope_raises(self):
        instance = fresh()
        with pytest.raises(EngineError):
            instance.apply(ev.whiteboard_set("ghost/", "x", 1, 1.0))


class TestQueries:
    def test_progress_histogram(self):
        instance = fresh()
        instance.apply(ev.task_completed("A", {"v": [1]}, 1.0, "n", 1.0))
        instance.apply(ev.task_skipped("B", 2.0))
        histogram = instance.progress()
        assert histogram == {"completed": 1, "skipped": 1, "inactive": 1}

    def test_total_cpu_sums_all_attempts(self):
        instance = fresh()
        instance.apply(ev.task_completed("A", {"v": [1]}, 2.5, "n", 1.0))
        instance.apply(ev.task_completed("B", {"v": 1}, 1.5, "n", 2.0))
        assert instance.total_cpu_seconds() == pytest.approx(4.0)

    def test_dispatched_states(self):
        instance = fresh()
        instance.apply(ev.task_dispatched("A", "n", "ns.a", 1, 1.0))
        assert [s.path for s in instance.dispatched_states()] == ["A"]

    def test_resolve_inputs_skips_undefined(self):
        instance = fresh()
        frame = instance.frames[""]
        task = frame.graph.tasks["B"]
        inputs = instance.resolve_inputs(frame, task, frame.states["B"])
        assert inputs == {}  # wb.shared not yet written
        instance.apply(ev.task_completed("A", {"v": "X"}, 1.0, "n", 1.0))
        inputs = instance.resolve_inputs(frame, task, frame.states["B"])
        assert inputs == {"got": "X"}


class TestReadySet:
    """The ready set's pass order is the full scan's (DESIGN.md §17)."""

    @staticmethod
    def drain(instance):
        ready = instance.ready
        ready.begin_pass()
        visited = []
        item = ready.next_state()
        while item is not None:
            visited.append(item[1].path)
            item = ready.next_state()
        return visited

    def test_new_frames_are_all_dirty_then_clean(self):
        instance = fresh()
        assert self.drain(instance) == ["A", "B", "Fan"]
        assert self.drain(instance) == []

    def test_status_change_marks_itself_and_successors(self):
        instance = fresh()
        self.drain(instance)
        instance.apply(ev.task_completed("A", {"v": [1]}, 1.0, "n", 1.0))
        assert self.drain(instance) == ["A", "B"]

    def test_mark_behind_cursor_and_new_frames_wait_a_pass(self):
        instance = fresh()
        self.drain(instance)
        instance.apply(ev.task_completed("A", {"v": [1, 2]}, 1.0, "n", 1.0))
        ready = instance.ready
        ready.begin_pass()
        assert ready.next_state()[1].path == "A"
        assert ready.next_state()[1].path == "B"
        # Behind the cursor (A) and in a frame born mid-pass (Fan/).
        instance.apply(ev.task_skipped("A", 2.0))
        instance.apply(ev.parallel_expanded("Fan", [1, 2], 3.0))
        assert ready.next_state()[1].path == "Fan"
        assert ready.next_state() is None
        assert self.drain(instance) == ["A", "B", "Fan/Body[0]",
                                        "Fan/Body[1]"]

    def test_frame_done_when_last_state_terminal(self):
        instance = fresh()
        instance.apply(ev.task_completed("A", {"v": [1, 2]}, 1.0, "n", 1.0))
        instance.apply(ev.parallel_expanded("Fan", [1, 2], 3.0))
        frame = instance.frames["Fan/"]
        instance.apply(ev.task_completed("Fan/Body[0]", {}, 1.0, "n", 4.0))
        assert instance.ready.next_done_frame() is None
        instance.apply(ev.task_skipped("Fan/Body[1]", 5.0))
        assert instance.ready.next_done_frame() is frame
        assert instance.ready.next_done_frame() is None
