"""Test-only oracle: the full-scan navigator the ready-set one replaced.

Every navigation pass rescans every frame and every state, and
``_complete_frames`` re-sorts and re-checks every frame. Kept verbatim
(only the imports and the class name differ) so differential tests can
require identical durable event logs from it and from
:class:`repro.core.engine.navigator.Navigator`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.engine import events as ev
from repro.core.engine.instance import (
    COMPLETED, EXPANDED, FAILED, Frame, INACTIVE, ProcessInstance, RUNNING,
    SUSPENDED, TaskState,
)
from repro.core.model.data import UNDEFINED
from repro.core.model.failure import (
    ABORT,
    ALTERNATIVE,
    DEFAULT_HANDLER,
    IGNORE,
    RETRY,
)
from repro.core.model.tasks import Activity, Block, ParallelTask, SubprocessTask
from repro.errors import ConditionError, EngineError
from repro.faults.points import fire

_WAIT = "wait"
_READY = "ready"
_SKIP = "skip"
_ERROR = "error"


class FullScanNavigator:
    """Interprets instances on behalf of a server (full rescan per pass)."""

    def __init__(self, server):
        self.server = server

    # ------------------------------------------------------------------

    def navigate(self, instance: ProcessInstance) -> None:
        if instance.terminal or instance.status not in (RUNNING, SUSPENDED):
            return
        # Crash while interpreting: navigation decisions not yet persisted
        # as events must be re-derived identically after recovery.
        fire("navigator.navigate", instance=instance.id)
        obs = self.server.obs
        if obs is not None:
            obs.metrics.inc("navigations")
        changed = True
        while changed and not instance.terminal:
            changed = False
            if self._compensation_pending(instance):
                self._drive_compensation(instance)
                return
            changed |= self._finalize_compensation(instance)
            if instance.terminal:
                return
            for frame in list(instance.frames.values()):
                for state in list(frame.states.values()):
                    if state.status == INACTIVE:
                        changed |= self._consider_start(instance, frame, state)
                    elif state.status == FAILED:
                        changed |= self._handle_failure(instance, frame, state)
            changed |= self._complete_frames(instance)
            changed |= self._maybe_complete_instance(instance)

    # ------------------------------------------------------------------
    # Readiness
    # ------------------------------------------------------------------

    def _readiness(self, instance: ProcessInstance, frame: Frame,
                   state: TaskState) -> str:
        task = frame.task_model(state.name)
        if frame.kind == "parallel":
            # body instances start unconditionally (modulo AWAIT clauses)
            return (_READY if self._signals_ready(instance, task)
                    else _WAIT)
        incoming = frame.graph.incoming(state.name)
        if not incoming:
            return (_READY if self._signals_ready(instance, task)
                    else _WAIT)
        scope = instance.scope(frame)
        fired = 0
        for connector in incoming:
            source = frame.states[connector.source]
            if not source.terminal:
                return _WAIT
            if source.status != COMPLETED:
                continue
            try:
                if connector.condition.evaluate(scope):
                    fired += 1
            except ConditionError:
                return _ERROR
        if task.join == "and":
            decision = _READY if fired == len(incoming) else _SKIP
        else:
            decision = _READY if fired else _SKIP
        if decision == _READY and not self._signals_ready(instance, task):
            return _WAIT
        return decision

    @staticmethod
    def _signals_ready(instance: ProcessInstance, task) -> bool:
        """AWAIT clauses: the task waits until every signal has been
        raised (by a sibling task, a nested task, or injected externally)."""
        return all(signal in instance.signals for signal in task.awaits)

    def _consider_start(self, instance: ProcessInstance, frame: Frame,
                        state: TaskState) -> bool:
        decision = self._readiness(instance, frame, state)
        if decision == _WAIT:
            return False
        now = self.server.clock()
        if decision == _SKIP:
            self.server.emit(instance, ev.task_skipped(state.path, now))
            return True
        if decision == _ERROR:
            self.server.emit(instance, ev.task_failed(
                state.path, "condition-error", "", state.attempts, now,
                detail="activation condition read undefined data",
            ))
            return True
        task = frame.task_model(state.name)
        if isinstance(task, Activity):
            return self._queue_activity(instance, frame, state, task)
        if isinstance(task, ParallelTask):
            return self._expand_parallel(instance, frame, state, task)
        if isinstance(task, Block):
            self.server.emit(instance, ev.block_started(state.path, now))
            return True
        if isinstance(task, SubprocessTask):
            return self._start_subprocess(instance, frame, state, task)
        raise EngineError(f"cannot start task kind {task.kind!r}")

    # ------------------------------------------------------------------
    # Task starters
    # ------------------------------------------------------------------

    def _queue_activity(self, instance, frame, state, task,
                        program: Optional[str] = None,
                        extra_inputs: Optional[Dict[str, Any]] = None) -> bool:
        if self.server.is_pending(instance.id, state.path):
            return False
        inputs = instance.resolve_inputs(frame, task, state)
        if extra_inputs:
            inputs.update(extra_inputs)
        placement = str(inputs.pop("placement", "") or "")
        cost_hint = float(inputs.pop("cost_hint", 0.0) or 0.0)
        self.server.queue_job(
            instance_id=instance.id,
            task_path=state.path,
            program=program or task.program,
            inputs=inputs,
            attempt=state.attempts + 1,
            placement=placement,
            cost_hint=cost_hint,
        )
        return True

    def _expand_parallel(self, instance, frame, state, task) -> bool:
        value = instance.resolve_binding(frame, task.list_input)
        if value is UNDEFINED or not isinstance(value, list):
            self.server.emit(instance, ev.task_failed(
                state.path, "condition-error", "", state.attempts,
                self.server.clock(),
                detail=(
                    f"parallel list input {task.list_input.to_text()} did "
                    f"not resolve to a list"
                ),
            ))
            return True
        self.server.emit(instance, ev.parallel_expanded(
            state.path, value, self.server.clock()
        ))
        return True

    def _start_subprocess(self, instance, frame, state, task) -> bool:
        template, version = self.server.resolve_template(
            task.template_name, task.version
        )
        # Late binding: inputs evaluated now, against the current scope.
        inputs = instance.resolve_inputs(frame, task, state)
        self.server.emit(instance, ev.subprocess_started(
            state.path, template.name, version, inputs, self.server.clock()
        ))
        return True

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _handle_failure(self, instance: ProcessInstance, frame: Frame,
                        state: TaskState) -> bool:
        if self.server.is_pending(instance.id, state.path):
            return False
        task = frame.task_model(state.name)
        handler = task.failure or DEFAULT_HANDLER
        now = self.server.clock()
        if state.failure_reason == "condition-error":
            # A condition over undefined data is a process-design bug;
            # retrying cannot help and would bypass the activation logic.
            return self._abort_from(instance, frame, state)
        infrastructure = state.failure_reason in ev.INFRASTRUCTURE_REASONS

        if infrastructure:
            action, program = RETRY, None
        else:
            action, program = self._decide(handler, state, task)

        if action == RETRY:
            return self._retry(instance, frame, state, task, program)
        if action == IGNORE:
            self.server.emit(instance, ev.task_completed(
                state.path, {"ignored": True, "reason": state.failure_reason},
                0.0, state.node, now,
            ))
            return True
        # abort path
        return self._abort_from(instance, frame, state)

    def _decide(self, handler, state: TaskState, task):
        """Map a handler + failure history to (action, program)."""
        alternative = handler.alternative_program
        ran_alternative = bool(alternative) and state.program == alternative
        if ran_alternative:
            return ABORT, None  # the fallback itself failed
        if handler.strategy == RETRY:
            if state.program_failures <= handler.max_retries:
                return RETRY, None
            if handler.then == ALTERNATIVE:
                return RETRY, alternative
            return handler.then, None
        if handler.strategy == ALTERNATIVE:
            return RETRY, alternative
        return handler.strategy, None

    def _retry(self, instance, frame, state, task, program) -> bool:
        if isinstance(task, Activity):
            extra = None
            if program:
                handler = task.failure or DEFAULT_HANDLER
                extra = dict(handler.alternative_parameters)
            return self._queue_activity(
                instance, frame, state, task, program=program,
                extra_inputs=extra,
            )
        # Structured task: reset its frame and let readiness re-expand it.
        self.server.emit(instance, ev.task_reset(
            state.path, self.server.clock(), reason=state.failure_reason
        ))
        return True

    def _abort_from(self, instance: ProcessInstance, frame: Frame,
                    state: TaskState) -> bool:
        now = self.server.clock()
        if frame.kind != "root":
            # Propagate to the owning structured task, whose own handler
            # then decides (retry-whole-subprocess, ignore, abort, ...).
            owner = instance.find_state(frame.owner_path)
            if owner is not None and owner.status == EXPANDED:
                self.server.emit(instance, ev.task_failed(
                    frame.owner_path, "subtask-failure", "", owner.attempts,
                    now, detail=f"{state.path}: {state.failure_reason}",
                ))
                return True
            return False
        sphere = self._sphere_of(instance, state.name)
        if sphere is not None and not instance.compensations:
            members = self._compensatable(instance, frame, sphere)
            if members:
                self.server.emit(instance, ev.sphere_compensating(
                    sphere.name, members, state.path, now,
                ))
                return True
            if sphere.on_abort == "continue":
                self.server.emit(instance, ev.task_skipped(state.path, now))
                return True
        self.server.finalize_abort(
            instance,
            reason=f"task {state.path} failed: {state.failure_reason}",
        )
        return True

    @staticmethod
    def _sphere_of(instance: ProcessInstance, task_name: str):
        template = instance.template
        if template is None:
            return None
        for sphere in template.spheres:
            if task_name in sphere.tasks:
                return sphere
        return None

    @staticmethod
    def _compensatable(instance: ProcessInstance, frame: Frame,
                       sphere) -> List[str]:
        """Completed sphere members with undo programs, newest first."""
        done = []
        for member in sphere.tasks:
            state = frame.states.get(member)
            if (state is not None and state.status == COMPLETED
                    and sphere.compensation_program(member)):
                done.append(state)
        done.sort(key=lambda s: -(s.finished_at or 0.0))
        return [s.name for s in done]

    # ------------------------------------------------------------------
    # Compensation driving
    # ------------------------------------------------------------------

    @staticmethod
    def _compensation_pending(instance: ProcessInstance) -> bool:
        return any(
            entry["status"] in ("pending", "dispatched")
            for entry in instance.compensations
        )

    def _drive_compensation(self, instance: ProcessInstance) -> None:
        for entry in instance.compensations:
            if entry["status"] == "dispatched":
                return  # strictly sequential undo
            if entry["status"] != "pending":
                continue
            task_path = entry["task"]
            comp_path = f"{task_path}#comp"
            if self.server.is_pending(instance.id, comp_path):
                return
            state = instance.find_state(task_path)
            self.server.queue_job(
                instance_id=instance.id,
                task_path=comp_path,
                program=entry["program"],
                inputs={
                    "task": task_path,
                    "outputs": (state.outputs if state else None) or {},
                },
                attempt=1,
            )
            return

    def _finalize_compensation(self, instance: ProcessInstance) -> bool:
        if not instance.compensations:
            return False
        if self._compensation_pending(instance):
            return False
        template = instance.template
        sphere = None
        for candidate in template.spheres:
            if candidate.name == instance.compensating_sphere:
                sphere = candidate
        if sphere is None:
            raise EngineError(
                f"compensating unknown sphere "
                f"{instance.compensating_sphere!r}"
            )
        failed_path = instance.compensation_failed_task
        failed_state = instance.find_state(failed_path)
        if sphere.on_abort == "continue":
            if failed_state is not None and failed_state.status == FAILED:
                self.server.emit(instance, ev.task_skipped(
                    failed_path, self.server.clock()
                ))
                return True
            return False
        if instance.terminal:
            return False
        self.server.finalize_abort(
            instance,
            reason=(
                f"sphere {sphere.name} aborted after compensating "
                f"{len(instance.compensations)} task(s)"
            ),
        )
        return True

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------

    def _complete_frames(self, instance: ProcessInstance) -> bool:
        changed = False
        frames = sorted(
            instance.frames.values(), key=lambda f: -len(f.path)
        )
        for frame in frames:
            if frame.kind == "root" or not frame.complete():
                continue
            owner = instance.find_state(frame.owner_path)
            if owner is None or owner.status != EXPANDED:
                continue
            outputs = self._frame_outputs(instance, frame)
            self.server.emit(instance, ev.task_completed(
                frame.owner_path, outputs, 0.0, "", self.server.clock()
            ))
            changed = True
        return changed

    def _frame_outputs(self, instance: ProcessInstance,
                       frame: Frame) -> Dict[str, Any]:
        if frame.kind == "parallel":
            results = []
            body_name = frame.parallel_task.body.name
            for index in range(len(frame.elements)):
                state = frame.states[f"{body_name}[{index}]"]
                results.append(state.outputs or {})
            return {"results": results, "count": len(results)}
        if frame.kind == "subprocess":
            scope = instance.scope(frame)
            outputs = {}
            for name, binding in sorted(frame.template.outputs.items()):
                value = scope.resolve(binding)
                outputs[name] = None if value is UNDEFINED else value
            return outputs
        return {}

    def _maybe_complete_instance(self, instance: ProcessInstance) -> bool:
        if instance.terminal:
            return False
        root = instance.frames[""]
        if not root.complete():
            return False
        scope = instance.scope(root)
        outputs = {}
        for name, binding in sorted(instance.template.outputs.items()):
            value = scope.resolve(binding)
            outputs[name] = None if value is UNDEFINED else value
        self.server.emit(instance, ev.instance_completed(
            outputs, self.server.clock()
        ))
        return True
