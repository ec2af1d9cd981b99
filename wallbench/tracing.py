"""In-memory span recorder for the traced benchmark run.

Spans are recorded around public functions of the program by wrapping
them from the outside (the program itself carries no tracing code).  Each
span has a name, a start, an end, a parent and a trace id; the spans of
one request share the id its root span took from the request.  Every
thread keeps its own span stack, its own per-name aggregates and its own
raw span list, so threads never write to shared state.

A span's start and end are wall-clock readings; its duration is the CPU
time its thread spent inside it (``time.thread_time``), so a thread that
waits for the interpreter lock or is descheduled is not charged for that
time.  Self time is a span's duration minus its direct child spans'
durations.  Aggregates (calls, total and self CPU seconds per name) are
kept for every span; raw spans are kept up to a cap and written out as
JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "patch_everywhere", "window"]

#: Raw spans kept per process; aggregates keep counting past the cap.
RAW_SPAN_CAP = 200_000


class _ThreadState:
    """Span stack, aggregates and raw spans of one thread."""

    def __init__(self, name: str) -> None:
        self.thread = name
        self.stack: list[list[Any]] = []
        self.agg: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []


class Tracer:
    """Records spans and counts; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._raw_budget = RAW_SPAN_CAP
        self._ids = itertools.count(1)

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            self._states.append(state)
        return state

    def open(self, name: str, trace_id: Any = None) -> list[Any]:
        stack = self._state().stack
        parent = stack[-1] if stack else None
        if trace_id is None and parent is not None:
            trace_id = parent[5]
        frame = [name, time.perf_counter(), time.thread_time(), 0.0, next(self._ids),
                 trace_id, parent[4] if parent is not None else 0]
        stack.append(frame)
        return frame

    def close(self, frame: list[Any]) -> None:
        cpu_end = time.thread_time()
        end = time.perf_counter()
        state = self._state()
        state.stack.pop()
        name, start, cpu_start, child, span_id, trace_id, parent_id = frame
        duration = cpu_end - cpu_start
        entry = state.agg.get(name)
        if entry is None:
            entry = state.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if state.stack:
            state.stack[-1][3] += duration
        if self._raw_budget > 0:
            self._raw_budget -= 1
            state.spans.append(
                (span_id, parent_id, name, start, end, duration, trace_id))

    def count(self, name: str, amount: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable[..., Any],
        *,
        trace_id: Callable[..., Any] | None = None,
        after: Callable[[Any, tuple], None] | None = None,
    ) -> Callable[..., Any]:
        """A traced stand-in for *fn*.  *name* may be a function of the
        call's arguments; *trace_id* picks the id a root span takes from
        its arguments; *after* sees the result and the arguments."""
        tracer = self
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.open(
                name_of(*args) if name_of is not None else name,
                trace_id(*args) if trace_id is not None else None,
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped_by_tracer__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_coroutine(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        before: Callable[[tuple], None] | None = None,
    ) -> Callable[..., Any]:
        """A traced stand-in for the coroutine function *fn*: each step
        between two suspensions is one span, so time spent suspended is
        not counted as the function's own."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            return _Stepped(tracer, name, fn(*args, **kwargs))

        return traced

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Merged aggregates of every thread, as plain data."""
        spans: dict[str, list[float]] = {}
        counts: dict[str, float] = {}
        for state in list(self._states):
            for name, entry in _stable_items(state.agg):
                merged = spans.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    merged[i] += entry[i]
            for name, value in _stable_items(state.counts):
                counts[name] = counts.get(name, 0) + value
        return {"spans": spans, "counts": counts}

    def dump(self, path: Path, process: str) -> int:
        """Write every kept raw span to *path* as JSON lines."""
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for state in list(self._states):
                for span_id, parent, name, start, end, cpu, trace_id in state.spans:
                    out.write(json.dumps({
                        "process": process, "thread": state.thread,
                        "id": span_id, "parent": parent, "name": name,
                        "start": start, "end": end, "cpu": cpu,
                        "trace": None if trace_id is None else str(trace_id),
                    }) + "\n")
                    written += 1
        return written


class _Stepped:
    """Awaitable that times each step of a wrapped coroutine."""

    __slots__ = ("_tracer", "_name", "_coro")

    def __init__(self, tracer: Tracer, name: str, coro: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def __await__(self) -> Any:
        tracer, name, coro = self._tracer, self._name, self._coro
        value: Any = None
        error: BaseException | None = None
        while True:
            frame = tracer.open(name)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                tracer.close(frame)
                return stop.value
            except BaseException:
                tracer.close(frame)
                raise
            tracer.close(frame)
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # re-thrown into the coroutine
                value, error = None, exc


def _stable_items(mapping: dict) -> list[tuple]:
    """Items of a dict another thread may be inserting into."""
    for _attempt in range(100):
        try:
            return list(mapping.items())
        except RuntimeError:
            continue
    return []


def patch_everywhere(owner: Any, attr: str, replacement: Any) -> None:
    """Replace ``owner.attr`` and every module-level alias of the same
    object in the program's loaded modules (``from x import f`` copies)."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def window(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """Aggregates accumulated between two :meth:`Tracer.snapshot` calls."""
    spans = {}
    for name, entry in after["spans"].items():
        base = before["spans"].get(name, [0, 0.0, 0.0])
        spans[name] = [entry[i] - base[i] for i in range(3)]
    counts = {
        name: value - before["counts"].get(name, 0)
        for name, value in after["counts"].items()
    }
    return {"spans": spans, "counts": counts}
