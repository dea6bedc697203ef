"""Span recorder and self-time arithmetic for the traced benchmark run.

A span is one call across a layer boundary: its name, start and end
(``time.perf_counter_ns``), the span that was open when it began (its
parent) and the instance id of the request it served. Spans live in
compact arrays while the workload runs and are written out once, when the
benchmark ends (:meth:`SpanRecorder.write`).

The program itself is not modified: :func:`patch` swaps a layer's public
function for a wrapper that opens and closes a span around it, and an
``ExitStack`` puts the original back afterwards.

Self time is a span's duration minus the time its child spans cover. The
recorder is single-threaded and spans nest properly, so children never
overlap and the self times of all spans sum exactly to the duration of
the root spans.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Optional
from unittest import mock

import numpy as np

NO_PARENT = -1


class SpanRecorder:
    """Nested spans in parallel arrays, plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.instances: List[Optional[str]] = [None]
        self._instance_ids: Dict[Optional[str], int] = {None: 0}
        self.name = array("q")
        self.parent = array("q")
        self.instance = array("q")
        self.start = array("q")
        self.end = array("q")
        #: per-name totals recorded at the same boundaries as the spans
        #: (bytes, records, keys examined, ...).
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        """Intern ``name``; wrappers resolve their id once, up front."""
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def begin(self, name_id: int, instance: Optional[str] = None) -> int:
        """Open a span; it inherits its parent's instance id by default."""
        index = len(self.start)
        parent = self._stack[-1] if self._stack else NO_PARENT
        if instance is None:
            tag = self.instance[parent] if parent != NO_PARENT else 0
        else:
            tag = self._instance_tag(instance)
        self.name.append(name_id)
        self.parent.append(parent)
        self.instance.append(tag)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        self.end[index] = time.perf_counter_ns()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while {top} was open")

    def tag(self, index: int, instance: str) -> None:
        """Name the instance of an open span once it is known (a launch
        learns its instance id only when it returns); spans opened after
        this inherit it."""
        self.instance[index] = self._instance_tag(instance)

    def _instance_tag(self, instance: str) -> int:
        tag = self._instance_ids.get(instance)
        if tag is None:
            tag = self._instance_ids[instance] = len(self.instances)
            self.instances.append(instance)
        return tag

    def truncate(self, stop: int) -> None:
        """Forget every span from index ``stop`` on (none may be open)."""
        if self._stack:
            raise RuntimeError("truncate() with spans still open")
        for column in (self.name, self.parent, self.instance, self.start,
                       self.end):
            del column[stop:]

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, instance: Optional[str] = None) -> "_Span":
        """Context manager form, for spans the benchmark opens itself."""
        return _Span(self, self.name_id(name), instance)

    # -- analysis -----------------------------------------------------------

    def durations(self) -> np.ndarray:
        return (np.frombuffer(self.end, dtype=np.int64)
                - np.frombuffer(self.start, dtype=np.int64))

    def self_times(self) -> np.ndarray:
        """Per-span self time in ns: duration minus children's durations."""
        duration = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent != NO_PARENT
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(duration)).astype(np.int64)
        return duration - children

    def totals(self) -> Dict[str, Dict[str, int]]:
        """``{span name: {"calls", "self_ns", "total_ns"}}``."""
        names = np.frombuffer(self.name, dtype=np.int64)
        count = len(self.names)
        calls = np.bincount(names, minlength=count)
        self_ns = np.bincount(names, weights=self.self_times(),
                              minlength=count)
        total_ns = np.bincount(names, weights=self.durations(),
                               minlength=count)
        return {
            name: {"calls": int(calls[i]), "self_ns": int(self_ns[i]),
                   "total_ns": int(total_ns[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write ``header``, then every span as one JSON line: name, start,
        end, parent, instance (times in ns from the first span's start)."""
        origin = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([
                    self.names[self.name[i]], self.start[i] - origin,
                    self.end[i] - origin, self.parent[i],
                    self.instances[self.instance[i]],
                ]) + "\n")


class _Span:
    def __init__(self, recorder: SpanRecorder, name_id: int,
                 instance: Optional[str]):
        self._recorder = recorder
        self._name_id = name_id
        self._instance = instance
        self.index = NO_PARENT

    def __enter__(self) -> "_Span":
        self.index = self._recorder.begin(self._name_id, self._instance)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._recorder.finish(self.index)


def traced(recorder: SpanRecorder, name: str, fn: Callable,
           instance_of: Optional[Callable[..., Optional[str]]] = None
           ) -> Callable:
    """Wrap ``fn`` so every call is a span called ``name``.

    ``instance_of(*args)`` names the instance a call serves; without it
    the span inherits its parent's.
    """
    name_id = recorder.name_id(name)
    begin, finish = recorder.begin, recorder.finish
    if instance_of is None:
        def wrapper(*args, **kwargs):
            index = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)
    else:
        def wrapper(*args, **kwargs):
            index = begin(name_id, instance_of(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)
    wrapper.__wrapped__ = fn
    return wrapper


def patch(stack: ExitStack, owner: Any, attr: str, make: Callable) -> None:
    """Set ``owner.attr`` to ``make(original)`` until ``stack`` closes,
    keeping classmethods classmethods."""
    value = vars(owner)[attr]
    stack.enter_context(mock.patch.object(
        owner, attr, classmethod(make(value.__func__))
        if isinstance(value, classmethod) else make(value)))
