"""Process instances: event-sourced runtime state.

A :class:`ProcessInstance` holds the complete runtime state of one running
process — frames (execution scopes), task states, whiteboards — and changes
state **only** through :meth:`ProcessInstance.apply`, whose input events are
exactly what the engine persists to the instance space. Recovery is
therefore replay: feeding the stored event log back through ``apply``
rebuilds the instance bit-for-bit ("during execution, a process instance is
persistent both in terms of the data and the state of the execution... this
allows BioOpera to resume execution after failures occur without losing
already completed work", paper Section 3.2).

Scope/paths: a *frame* is one executing graph. The root frame has path
``""``; a block or parallel task ``X`` at path ``p`` owns frame ``p + "X/"``;
parallel body instances are tasks named ``Body[k]`` inside the parallel
frame; a subprocess task owns a frame with its own whiteboard.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from ...errors import EngineError, InvalidStateError
from ..model.data import Binding, UNDEFINED, Whiteboard
from ..model.process import ProcessTemplate, TaskGraph
from ..model.tasks import Activity, Block, ParallelTask, Task
from . import events as ev

# Task statuses
INACTIVE = "inactive"
DISPATCHED = "dispatched"   # activity sent to a node
EXPANDED = "expanded"       # structured task whose frame is executing
COMPLETED = "completed"
FAILED = "failed"
SKIPPED = "skipped"

TERMINAL = (COMPLETED, SKIPPED)

# Instance statuses
CREATED = "created"
RUNNING = "running"
SUSPENDED = "suspended"
INSTANCE_COMPLETED = "completed"
ABORTED = "aborted"

#: Resolves (template_name, version) -> ProcessTemplate; version None = latest.
TemplateResolver = Callable[[str, Optional[int]], ProcessTemplate]


def _frame_path(task_path: str) -> str:
    """Path of the frame holding the task at ``task_path``."""
    if "/" in task_path:
        return task_path.rsplit("/", 1)[0] + "/"
    return ""


class TaskState:
    """Mutable runtime record of one task occurrence."""

    __slots__ = (
        "name", "path", "status", "attempts", "program_failures",
        "outputs", "node", "program", "failure_reason", "alternative",
        "dispatched_at", "finished_at", "cost", "element", "position",
    )

    def __init__(self, name: str, path: str, element: Any = None):
        self.name = name
        self.path = path
        self.status = INACTIVE
        self.attempts = 0            # total dispatches
        self.program_failures = 0    # failures that count against retries
        self.outputs: Optional[Dict[str, Any]] = None
        self.node = ""
        self.program = ""
        self.failure_reason = ""
        self.alternative = False     # running its alternative program
        self.dispatched_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cost = 0.0              # accumulated CPU seconds (all attempts)
        self.element = element       # parallel element value, if any
        self.position = 0            # index in its frame's state order

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    def __repr__(self):
        return f"<TaskState {self.path!r} {self.status}>"


class Frame:
    """One executing graph scope.

    Besides its task states a frame carries its share of the instance's
    ready set: ``seq`` (creation order, which is also its position in
    ``ProcessInstance.frames``), ``names`` (state names by position;
    ``TaskState.position`` is the inverse), ``pending`` (how many states
    are not yet terminal) and ``conditional`` (positions of states whose
    incoming connectors carry a data-reading activation condition).
    """

    __slots__ = (
        "path", "kind", "owner_path", "graph", "whiteboard_path",
        "template", "states", "elements", "parallel_task",
        "seq", "names", "pending", "conditional", "deleted_pass",
    )

    def __init__(self, path: str, kind: str, owner_path: str,
                 graph: TaskGraph, whiteboard_path: str,
                 template: Optional[ProcessTemplate] = None,
                 elements: Optional[List[Any]] = None,
                 parallel_task: Optional[ParallelTask] = None):
        self.path = path
        self.kind = kind  # "root" | "block" | "parallel" | "subprocess"
        self.owner_path = owner_path
        self.graph = graph
        self.whiteboard_path = whiteboard_path
        self.template = template
        self.elements = elements
        self.parallel_task = parallel_task
        self.states: Dict[str, TaskState] = {
            name: TaskState(name, f"{path}{name}")
            for name in graph.tasks
        }
        if elements is not None and parallel_task is not None:
            for index, element in enumerate(elements):
                body_name = f"{parallel_task.body.name}[{index}]"
                state = TaskState(body_name, f"{path}{body_name}",
                                  element=element)
                self.states[body_name] = state
        self.seq = 0  # stamped by ReadySet.add_frame
        self.names = list(self.states)
        for position, state in enumerate(self.states.values()):
            state.position = position
        self.pending = len(self.names)
        self.conditional = sorted({
            self.states[c.target].position for c in graph.connectors
            if next(c.condition.references(), None) is not None
        })
        #: navigation pass during which a task reset deleted this frame.
        self.deleted_pass: Optional[int] = None

    def task_model(self, name: str) -> Task:
        """The template task behind a runtime task name."""
        if self.kind == "parallel" and "[" in name:
            return self.parallel_task.body
        task = self.graph.tasks.get(name)
        if task is None:
            raise EngineError(f"no task {name!r} in frame {self.path!r}")
        return task

    def complete(self) -> bool:
        return self.pending == 0

    def __repr__(self):
        return f"<Frame {self.path!r} ({self.kind})>"


class _FrameScope:
    """Binding/condition resolution context for one frame."""

    def __init__(self, instance: "ProcessInstance", frame: Frame,
                 overrides: Optional[Dict[str, Any]] = None):
        self.instance = instance
        self.frame = frame
        self.overrides = overrides or {}

    def resolve(self, binding: Binding) -> Any:
        if binding.kind == "const":
            return binding.value
        if binding.kind == "whiteboard":
            if binding.name in self.overrides:
                return self.overrides[binding.name]
            board = self.instance.whiteboard_for(self.frame)
            return board.get(binding.name)
        # task output in the same frame
        state = self.frame.states.get(binding.name)
        if state is None or state.status != COMPLETED or state.outputs is None:
            return UNDEFINED
        return state.outputs.get(binding.field, UNDEFINED)


class ReadySet:
    """The states and frames navigation has to look at next.

    :meth:`ProcessInstance.apply` keeps it current; the navigator drains
    it. A state is *dirty* when something it depends on changed since the
    navigator last looked at it: its own status, the status of a
    predecessor (a status change marks the ``graph.outgoing``
    successors), an AWAIT signal, or data its activation condition
    reads. The server also re-marks a state
    whose job left the dispatcher without an instance event. A state
    that is not dirty is one a full scan would pass over without acting.

    A navigation pass (:meth:`begin_pass`, then :meth:`next_state` until
    it returns None) visits dirty states in full-scan order: frame
    creation order (= ``ProcessInstance.frames`` order), then state order
    within the frame. A state marked behind the pass cursor, or in a
    frame created during the pass, waits for the next pass, exactly as a
    scan over the frames and states listed at the start of the pass would
    have it. A frame deleted by a task reset during the pass is still
    visited (the scan's list held it); one deleted earlier is not.

    *Done* frames are non-root frames whose last non-terminal state just
    became terminal; :meth:`next_done_frame` yields them deepest first
    (``-len(path)``, then creation order).
    """

    __slots__ = ("_frame_seq", "_heap", "_dirty", "_deferred", "_cursor",
                 "_limit", "_done", "_done_seqs", "passes")

    def __init__(self) -> None:
        self._frame_seq = 0
        #: heap of (frame seq, state position, frame) for dirty states.
        self._heap: List[Tuple[int, int, Frame]] = []
        self._dirty: Set[Tuple[int, int]] = set()
        #: dirty entries met behind the cursor; re-queued by begin_pass.
        self._deferred: List[Tuple[int, int, Frame]] = []
        self._cursor: Tuple[int, int] = (0, 0)
        self._limit = 0
        #: heap of (-len(path), frame seq, frame) for done frames.
        self._done: List[Tuple[int, int, Frame]] = []
        self._done_seqs: Set[int] = set()
        #: passes begun so far (task resets stamp deleted frames with it).
        self.passes = 0

    def add_frame(self, frame: Frame) -> None:
        """A new frame: every one of its states is dirty."""
        self._frame_seq += 1
        frame.seq = self._frame_seq
        self.mark_all([frame])

    def mark(self, frame: Frame, position: int) -> None:
        key = (frame.seq, position)
        if key not in self._dirty:
            self._dirty.add(key)
            heapq.heappush(self._heap, (frame.seq, position, frame))

    def touch(self, frame: Frame, state: TaskState,
              was_terminal: bool) -> None:
        """``state`` changed status (or was replaced by a reset)."""
        mark = self.mark
        mark(frame, state.position)
        for connector in frame.graph.outgoing(state.name):
            mark(frame, frame.states[connector.target].position)
        for position in frame.conditional:
            mark(frame, position)
        terminal = state.status in TERMINAL
        if terminal != was_terminal:
            frame.pending += -1 if terminal else 1
            if not frame.pending:
                self.frame_done(frame)

    def frame_done(self, frame: Frame) -> None:
        if frame.kind != "root" and frame.seq not in self._done_seqs:
            self._done_seqs.add(frame.seq)
            heapq.heappush(self._done, (-len(frame.path), frame.seq, frame))

    def clear(self) -> None:
        """Forget every mark: nothing navigates a terminal instance, and
        reopening one (a task reset) marks everything again."""
        self._heap, self._dirty, self._deferred = [], set(), []
        self._done, self._done_seqs = [], set()

    def mark_all(self, frames: List[Frame]) -> None:
        """Everything dirty: an instance rebuilt by replay (recovery,
        standby promotion, migration adoption) or reopened by a reset."""
        for frame in frames:
            for position in range(len(frame.names)):
                self.mark(frame, position)
            if not frame.pending:
                self.frame_done(frame)

    # -- draining (the navigator) -----------------------------------------

    def begin_pass(self) -> None:
        self.passes += 1
        for entry in self._deferred:
            heapq.heappush(self._heap, entry)
        self._deferred = []
        self._cursor = (0, 0)
        self._limit = self._frame_seq

    def next_state(self) -> Optional[Tuple[Frame, TaskState]]:
        """The next dirty state of this pass, now clean; None at the end."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            key = entry[:2]
            if key < self._cursor or entry[0] > self._limit:
                self._deferred.append(entry)
                continue
            self._dirty.discard(key)
            self._cursor = (key[0], key[1] + 1)
            frame = entry[2]
            if frame.deleted_pass not in (None, self.passes):
                continue
            return frame, frame.states[frame.names[key[1]]]
        return None

    def next_done_frame(self) -> Optional[Frame]:
        """The deepest pending done frame. An owner's completion can only
        finish an enclosing frame, which sorts after the current one, so
        popping in key order is the stable ``-len(path)`` scan order."""
        if not self._done:
            return None
        _depth, seq, frame = heapq.heappop(self._done)
        self._done_seqs.discard(seq)
        return frame


class ProcessInstance:
    """Event-sourced runtime state of one process execution."""

    def __init__(self, instance_id: str, resolver: TemplateResolver):
        self.id = instance_id
        self.resolver = resolver
        self.status = CREATED
        self.template: Optional[ProcessTemplate] = None
        self.template_version: int = 0
        self.frames: Dict[str, Frame] = {}
        self.whiteboards: Dict[str, Whiteboard] = {}
        self.outputs: Dict[str, Any] = {}
        self.abort_reason = ""
        self.created_at: float = 0.0
        self.finished_at: Optional[float] = None
        #: pending sphere compensations: list of {"task","program","status"}
        self.compensations: List[Dict[str, Any]] = []
        self.compensating_sphere = ""
        self.compensation_failed_task = ""
        #: OCR event signals observed by this instance (raised internally
        #: on task completion or injected from outside).
        self.signals: set = set()
        self.event_count = 0
        self.ready = ReadySet()

    # ------------------------------------------------------------------
    # Event application (the ONLY state mutator)
    # ------------------------------------------------------------------

    def apply(self, event: Dict[str, Any]) -> None:
        handler = getattr(self, f"_on_{event['type']}", None)
        if handler is None:
            raise EngineError(f"unknown event type {event['type']!r}")
        handler(event)
        self.event_count += 1

    def replay(self, events: Iterator[Dict[str, Any]]) -> "ProcessInstance":
        for event in events:
            self.apply(event)
        if self.terminal:
            self.ready.clear()
        else:
            self.ready.mark_all(list(self.frames.values()))
        return self

    # -- instance lifecycle -------------------------------------------------

    def _on_instance_created(self, event):
        template = self.resolver(event["template_name"], event["version"])
        self.template = template
        self.template_version = event["version"]
        self.created_at = event["time"]
        board = Whiteboard()
        for param in template.parameters:
            if param.name in event["inputs"]:
                board.set(param.name, event["inputs"][param.name])
            elif param.default is not None:
                board.set(param.name, param.default)
            elif not param.optional:
                raise InvalidStateError(
                    f"instance {self.id}: required input {param.name!r} missing"
                )
        self.whiteboards[""] = board
        self._add_frame(Frame(
            path="", kind="root", owner_path="", graph=template.graph,
            whiteboard_path="", template=template,
        ))
        self.status = CREATED

    def _on_instance_started(self, event):
        self.status = RUNNING

    def _on_instance_suspended(self, event):
        self.status = SUSPENDED

    def _on_instance_resumed(self, event):
        self.status = RUNNING

    def _on_instance_completed(self, event):
        self.status = INSTANCE_COMPLETED
        self.outputs = event["outputs"]
        self.finished_at = event["time"]

    def _on_instance_aborted(self, event):
        self.status = ABORTED
        self.abort_reason = event["reason"]
        self.finished_at = event["time"]

    # -- task lifecycle -------------------------------------------------------

    def _locate(self, path: str) -> Tuple[Frame, TaskState]:
        frame = self.frames.get(_frame_path(path))
        state = (None if frame is None
                 else frame.states.get(path.rsplit("/", 1)[-1]))
        if state is None:
            raise EngineError(f"instance {self.id}: unknown task path {path!r}")
        return frame, state

    def _set_status(self, path: str, status: str) -> Tuple[Frame, TaskState]:
        """Change a task's status, keeping the ready set current."""
        frame, state = self._locate(path)
        was_terminal = state.status in TERMINAL
        state.status = status
        self.ready.touch(frame, state, was_terminal)
        return frame, state

    def _on_task_dispatched(self, event):
        if event["path"].endswith("#comp"):
            for entry in self.compensations:
                if entry["task"] == event["path"][: -len("#comp")]:
                    entry["status"] = "dispatched"
            return
        _frame, state = self._set_status(event["path"], DISPATCHED)
        state.attempts = event["attempt"]
        state.node = event["node"]
        state.program = event["program"]
        state.dispatched_at = event["time"]

    def _on_task_completed(self, event):
        path = event["path"]
        if path.endswith("#comp"):
            self._comp_done(path, success=True)
            return
        frame, state = self._set_status(path, COMPLETED)
        state.outputs = event["outputs"]
        state.finished_at = event["time"]
        state.cost += event.get("cost", 0.0)
        task = frame.task_model(state.name)
        board = self.whiteboard_for(frame)
        written = False
        for field, wb_name in task.output_mappings:
            value = event["outputs"].get(field, UNDEFINED)
            if value is not UNDEFINED:
                board.set(wb_name, value)
                written = True
        if written:
            self._whiteboard_written(frame.whiteboard_path)

    def _on_task_failed(self, event):
        path = event["path"]
        if path.endswith("#comp"):
            self._comp_done(path, success=False)
            return
        _frame, state = self._set_status(path, FAILED)
        state.failure_reason = event["reason"]
        state.finished_at = event["time"]
        if event["reason"] not in ev.INFRASTRUCTURE_REASONS:
            state.program_failures += 1

    def _on_task_skipped(self, event):
        self._set_status(event["path"], SKIPPED)

    def _on_task_reset(self, event):
        path = event["path"]
        frame, state = self._locate(path)
        # Resetting a task in a finished instance reopens the instance
        # (the paper's "the process was re-started and BioOpera immediately
        # re-scheduled the TEUs").
        if self.status in (INSTANCE_COMPLETED, ABORTED):
            self.status = RUNNING
            self.outputs = {}
            self.abort_reason = ""
            self.finished_at = None
            # States the navigator acted on before the instance ended
            # (the failure that aborted it, say) are live again.
            self.ready.mark_all(list(self.frames.values()))
        # Drop any frame the task had expanded into.
        prefix = f"{path}/"
        for frame_path in [p for p in self.frames if p.startswith(prefix)
                           or p == prefix]:
            self.frames.pop(frame_path).deleted_pass = self.ready.passes
            self.whiteboards.pop(frame_path, None)
        fresh = TaskState(state.name, state.path, element=state.element)
        # Accounting and failure budgets survive the reset so structured-task
        # retries cannot loop forever on a deterministic failure.
        fresh.cost = state.cost
        fresh.attempts = state.attempts
        fresh.program_failures = state.program_failures
        fresh.position = state.position
        frame.states[state.name] = fresh
        self.ready.touch(frame, fresh, state.terminal)

    # -- structure expansion -----------------------------------------------------

    def _add_frame(self, frame: Frame) -> None:
        self.frames[frame.path] = frame
        self.ready.add_frame(frame)

    def _on_block_started(self, event):
        path = event["path"]
        frame, state = self._set_status(path, EXPANDED)
        task = frame.task_model(state.name)
        if not isinstance(task, Block):
            raise EngineError(f"{path!r} is not a block")
        self._add_frame(Frame(
            path=f"{path}/", kind="block", owner_path=path,
            graph=task.graph, whiteboard_path=frame.whiteboard_path,
        ))

    def _on_parallel_expanded(self, event):
        path = event["path"]
        frame, state = self._set_status(path, EXPANDED)
        task = frame.task_model(state.name)
        if not isinstance(task, ParallelTask):
            raise EngineError(f"{path!r} is not a parallel task")
        self._add_frame(Frame(
            path=f"{path}/", kind="parallel", owner_path=path,
            graph=TaskGraph(tasks=[], connectors=[]),
            whiteboard_path=frame.whiteboard_path,
            elements=event["elements"], parallel_task=task,
        ))

    def _on_subprocess_started(self, event):
        path = event["path"]
        self._set_status(path, EXPANDED)
        template = self.resolver(event["template_name"], event["version"])
        board = Whiteboard()
        for param in template.parameters:
            if param.name in event["inputs"]:
                board.set(param.name, event["inputs"][param.name])
            elif param.default is not None:
                board.set(param.name, param.default)
            elif not param.optional:
                raise InvalidStateError(
                    f"subprocess {path!r}: required input {param.name!r} "
                    f"missing"
                )
        frame_path = f"{path}/"
        self.whiteboards[frame_path] = board
        self._add_frame(Frame(
            path=frame_path, kind="subprocess", owner_path=path,
            graph=template.graph, whiteboard_path=frame_path,
            template=template,
        ))

    # -- data & compensation --------------------------------------------------------

    def _on_whiteboard_set(self, event):
        board = self.whiteboards.get(event["scope"])
        if board is None:
            raise EngineError(
                f"no whiteboard at scope {event['scope']!r}"
            )
        board.set(event["name"], event["value"])
        self._whiteboard_written(event["scope"])

    def _whiteboard_written(self, scope: str) -> None:
        """Conditions reading this whiteboard may now decide differently."""
        for frame in self.frames.values():
            if frame.conditional and frame.whiteboard_path == scope:
                for position in frame.conditional:
                    self.ready.mark(frame, position)

    def _on_sphere_compensating(self, event):
        self.compensating_sphere = event["sphere"]
        self.compensation_failed_task = event.get("failed_task", "")
        sphere = None
        for candidate in (self.template.spheres if self.template else []):
            if candidate.name == event["sphere"]:
                sphere = candidate
        if sphere is None:
            raise EngineError(f"unknown sphere {event['sphere']!r}")
        self.compensations = [
            {
                "task": task,
                "program": sphere.compensation_program(task),
                "status": "pending",
            }
            for task in event["tasks"]
        ]

    def _on_signal_raised(self, event):
        name = event["name"]
        self.signals.add(name)
        # Wake the tasks whose AWAIT clause names the signal.
        for frame in self.frames.values():
            if frame.kind == "parallel":
                if name in frame.parallel_task.body.awaits:
                    for position in range(len(frame.names)):
                        self.ready.mark(frame, position)
                continue
            for task_name, task in frame.graph.tasks.items():
                if name in task.awaits:
                    self.ready.mark(frame, frame.states[task_name].position)

    def mark_dirty(self, task_path: str) -> None:
        """Re-mark a task whose dispatcher job left without an event."""
        if task_path.endswith("#comp"):
            return
        state = self.find_state(task_path)
        if state is not None:
            self.ready.mark(self.frame_of(task_path), state.position)

    def _comp_done(self, comp_path: str, success: bool) -> None:
        task_path = comp_path[: -len("#comp")]
        for entry in self.compensations:
            if entry["task"] == task_path:
                entry["status"] = "done" if success else "failed"
                return
        raise EngineError(f"no pending compensation for {task_path!r}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def frame_of(self, task_path: str) -> Frame:
        """The frame containing the task at ``task_path``."""
        frame_path = _frame_path(task_path)
        frame = self.frames.get(frame_path)
        if frame is None:
            raise EngineError(
                f"instance {self.id}: no frame {frame_path!r} for task "
                f"{task_path!r}"
            )
        return frame

    def find_state(self, task_path: str) -> Optional[TaskState]:
        if task_path.endswith("#comp"):
            task_path = task_path[: -len("#comp")]
        try:
            frame = self.frame_of(task_path)
        except EngineError:
            return None
        name = task_path.rsplit("/", 1)[-1]
        return frame.states.get(name)

    def whiteboard_for(self, frame: Frame) -> Whiteboard:
        return self.whiteboards[frame.whiteboard_path]

    def scope(self, frame: Frame,
              overrides: Optional[Dict[str, Any]] = None) -> _FrameScope:
        return _FrameScope(self, frame, overrides)

    def resolve_binding(self, frame: Frame, binding: Binding,
                        overrides: Optional[Dict[str, Any]] = None) -> Any:
        return self.scope(frame, overrides).resolve(binding)

    def resolve_inputs(self, frame: Frame, task: Task, state: TaskState,
                       ) -> Dict[str, Any]:
        """Evaluate a task's input bindings (plus static parameters)."""
        values: Dict[str, Any] = {}
        if isinstance(task, Activity):
            values.update(task.parameters)
        # Parallel-body tasks: bindings evaluate in the parent frame of the
        # parallel task, with the element injected under element_param.
        if frame.kind == "parallel" and "[" in state.name:
            parent_frame = self.frame_of(frame.owner_path)
            scope = self.scope(parent_frame)
            values[frame.parallel_task.element_param] = state.element
        else:
            scope = self.scope(frame)
        for param, binding in sorted(task.inputs.items()):
            value = scope.resolve(binding)
            if value is not UNDEFINED:
                values[param] = value
        return values

    def iter_states(self) -> Iterator[TaskState]:
        for frame in self.frames.values():
            yield from frame.states.values()

    def dispatched_states(self) -> List[TaskState]:
        return [s for s in self.iter_states() if s.status == DISPATCHED]

    def activity_count(self) -> int:
        """Completed activity executions (the |A| of the paper's metrics)."""
        count = 0
        for frame in self.frames.values():
            for state in frame.states.values():
                task = frame.task_model(state.name)
                if isinstance(task, Activity) and state.status == COMPLETED:
                    count += 1
        return count

    def total_cpu_seconds(self) -> float:
        """CPU(pi) = sum of activity CPU over all attempts."""
        return sum(state.cost for state in self.iter_states())

    def progress(self) -> Dict[str, int]:
        """Task-status histogram over all frames (monitoring view)."""
        histogram: Dict[str, int] = {}
        for state in self.iter_states():
            histogram[state.status] = histogram.get(state.status, 0) + 1
        return histogram

    @property
    def terminal(self) -> bool:
        return self.status in (INSTANCE_COMPLETED, ABORTED)

    def __repr__(self):
        return f"<ProcessInstance {self.id!r} {self.status}>"
