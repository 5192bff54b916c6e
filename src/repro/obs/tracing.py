"""Nested span tracing: aggregated trees, raw events, cross-process grafts.

A *span* is one timed region (``encode``, ``session.prepare``).  Spans
nest: entering a span while another is open makes it a child, so the
tracer accumulates a tree whose nodes carry total wall time and call
counts.  Identical paths aggregate — calling ``encode`` three times
under ``profile.compress`` yields one ``encode`` node with
``calls == 3`` — which keeps the committed baselines compact and
diff-friendly.

Spans are used through the :mod:`repro.obs` facade::

    with obs.span("encode"):
        ...

    @traced("session.prepare")
    def prepare(self): ...

Both are no-ops while instrumentation is disabled: ``obs.span`` returns
a shared null context manager and ``@traced`` calls the wrapped
function straight through after one flag check.  Exception safety is
guaranteed by ``__exit__``: a raising span still records its elapsed
time and pops itself, so the stack never corrupts.

Beyond the aggregate tree, a tracer built with ``record_events=True``
also keeps the raw span *events* — one ``{id, parent, name, ts, dur}``
dict per closed span, timestamped relative to the tracer's creation.
Events are what cross process boundaries: a worker process records its
spans under :func:`capture_events`, ships the event list back with its
result, and the service-side tracer :meth:`Tracer.graft_events` them
under the request's currently-open span, rebasing timestamps into its
own timeline (the two processes' ``perf_counter`` clocks share no
epoch, so events are anchored at the enclosing span's start).
:func:`capture_scope` is that worker-side capture behind an on/off
flag, shared by the serving layer and the sharded codec.  A
grafted event list also folds into the aggregate tree, so ``tree()``
always shows the merged picture.

:meth:`Tracer.to_chrome_trace` / :func:`chrome_trace` render events as
Chrome trace-event JSON (``ph: "X"`` complete events, microsecond
``ts``/``dur``) loadable by Perfetto or ``chrome://tracing``.

Concurrency: each open span holds its own stack *frame* and ``__exit__``
removes exactly that frame, so interleaved spans on one thread (asyncio
handlers yielding mid-span) close in any order without corrupting the
stack.  The tracer is still process-local and not thread-safe; use
:func:`capture_events` (a thread-local override) to give a worker
thread its own tracer.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from . import _state

#: Hard cap on recorded events per tracer; beyond it events are counted
#: in ``events_dropped`` instead of stored (a runaway loop must not eat
#: the heap of a long-lived service).
DEFAULT_MAX_EVENTS = 50_000


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, collision-negligible)."""
    return os.urandom(8).hex()


class SpanNode:
    """One node of the aggregated span tree."""

    __slots__ = ("name", "calls", "wall_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.wall_s = 0.0
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        """Get or create the child span called ``name``."""
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def to_dict(self) -> dict:
        """JSON-ready rendering (children keyed by name, sorted)."""
        out: dict = {"calls": self.calls, "wall_s": self.wall_s}
        if self.children:
            out["children"] = {
                name: node.to_dict()
                for name, node in sorted(self.children.items())
            }
        return out


class _Frame:
    """One open span: its aggregate node, event id, parent and start."""

    __slots__ = ("node", "eid", "parent_eid", "start")

    def __init__(self, node: SpanNode, eid: int, parent_eid: int,
                 start: float):
        self.node = node
        self.eid = eid
        self.parent_eid = parent_eid
        self.start = start


class _SpanContext:
    """Context manager for one active span; cheap enough to inline."""

    __slots__ = ("_tracer", "_name", "_frame")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanContext":
        self._frame = self._tracer._push(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self._frame)
        return None  # never swallow exceptions


class _NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Accumulates the span tree (and optionally raw events) for one scope."""

    def __init__(self, record_events: bool = False,
                 max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self._record_events = record_events
        self._max_events = max_events
        self.reset()

    # -- internals used by _SpanContext --------------------------------
    def _push(self, name: str) -> _Frame:
        top = self._stack[-1]
        node = top.node.child(name)
        self._next_id += 1
        frame = _Frame(node, self._next_id, top.eid, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> None:
        elapsed = time.perf_counter() - frame.start
        frame.node.wall_s += elapsed
        frame.node.calls += 1
        # Remove exactly this span's frame.  Interleaved spans (asyncio
        # handlers sharing one loop thread) may close out of LIFO order;
        # removing only our own frame keeps every other open span's
        # position intact.  A frame already gone (reset() while the span
        # was open) is a no-op.
        stack = self._stack
        if stack[-1] is frame:
            stack.pop()
        else:
            try:
                stack.remove(frame)
            except ValueError:
                return
        if self._record_events:
            self._add_event(frame.eid, frame.parent_eid, frame.node.name,
                            frame.start - self._origin_perf, elapsed)

    def _add_event(self, eid: int, parent: int, name: str,
                   ts: float, dur: float) -> None:
        if len(self._events) >= self._max_events:
            self.events_dropped += 1
            return
        self._events.append(
            {"id": eid, "parent": parent, "name": name,
             "ts": ts, "dur": dur}
        )

    # -- public API -----------------------------------------------------
    def span(self, name: str) -> _SpanContext:
        """Open a (nested) span named ``name``."""
        return _SpanContext(self, name)

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack) - 1

    def current_span_start_s(self) -> float:
        """Start of the innermost open span, relative to tracer origin.

        0.0 when no span is open (the root frame starts at the origin).
        """
        top = self._stack[-1]
        if top.eid == 0:
            return 0.0
        return top.start - self._origin_perf

    def tree(self) -> dict:
        """Snapshot of the aggregated span tree (may be empty)."""
        return {
            name: node.to_dict()
            for name, node in sorted(self._root.children.items())
        }

    def events(self) -> List[dict]:
        """The recorded span events (closed spans, in close order)."""
        return list(self._events)

    def graft_events(self, events: Iterable[dict],
                     offset_s: Optional[float] = None) -> int:
        """Merge foreign span events under the currently open span.

        ``events`` is a list produced by another tracer's
        :meth:`events` — typically captured in a worker process and
        shipped back with the result.  Every event is re-identified
        into this tracer's id space; events whose parent is the foreign
        root (``parent == 0``) are re-parented under this tracer's
        innermost open span.  Timestamps are rebased: the foreign
        origin lands at ``offset_s`` in this tracer's timeline, which
        defaults to the start of the current open span (the two
        processes' clocks share no epoch, so the enclosing span's start
        is the only sound anchor).  The events also fold into the
        aggregate ``tree()`` under the same parent.  Returns the number
        of events grafted.
        """
        events = list(events)
        if not events:
            return 0
        if offset_s is None:
            offset_s = self.current_span_start_s()
        top = self._stack[-1]
        id_map: Dict[int, int] = {0: top.eid}
        node_map: Dict[int, SpanNode] = {0: top.node}
        ev_by_id = {ev["id"]: ev for ev in events}

        # Events close child-before-parent, so a child's parent node may
        # not exist yet when the child is visited — resolve the parent
        # chain recursively (depth bounded by span nesting).
        def _resolve(eid: int) -> SpanNode:
            node = node_map.get(eid)
            if node is not None:
                return node
            ev = ev_by_id.get(eid)
            if ev is None:  # unknown parent: attach at the graft point
                node_map[eid] = top.node
                return top.node
            node = _resolve(ev["parent"]).child(ev["name"])
            node_map[eid] = node
            return node

        grafted = 0
        for ev in events:
            self._next_id += 1
            id_map[ev["id"]] = self._next_id
        for ev in events:
            node = _resolve(ev["id"])
            node.calls += 1
            node.wall_s += ev["dur"]
            if self._record_events:
                self._add_event(
                    id_map[ev["id"]],
                    id_map.get(ev["parent"], top.eid),
                    ev["name"],
                    ev["ts"] + offset_s,
                    ev["dur"],
                )
            grafted += 1
        return grafted

    def to_chrome_trace(self, name: str = "repro",
                        pid: int = 0, tid: int = 0) -> dict:
        """The recorded events as a Chrome trace-event JSON document."""
        return chrome_trace([{"name": name, "events": self._events}],
                            pid=pid, first_tid=tid)

    def reset(self) -> None:
        """Drop all recorded spans and events; open spans are abandoned."""
        self._root = SpanNode("root")
        self._stack: List[_Frame] = [_Frame(self._root, 0, 0, 0.0)]
        self._next_id = 0
        self._events: List[dict] = []
        self.events_dropped = 0
        self._origin_perf = time.perf_counter()
        self.origin_wall = time.time()


def chrome_trace(traces: Sequence[dict], pid: int = 0,
                 first_tid: int = 0) -> dict:
    """Render one or more event lists as a Chrome trace-event document.

    ``traces`` is a sequence of ``{"name": str, "events": [...]}``
    dicts (e.g. one per request); each gets its own ``tid`` lane with a
    ``thread_name`` metadata record, so Perfetto shows one labelled
    track per trace.  Timestamps/durations convert from seconds to the
    format's microseconds.
    """
    out: List[dict] = []
    for lane, trace in enumerate(traces):
        tid = first_tid + lane
        out.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": str(trace.get("name", f"trace-{lane}"))},
        })
        for ev in trace.get("events", ()):
            out.append({
                "name": ev["name"], "ph": "X", "pid": pid, "tid": tid,
                "ts": round(ev["ts"] * 1e6, 3),
                "dur": round(ev["dur"] * 1e6, 3),
                "args": {},
            })
    return {"traceEvents": out, "displayTimeUnit": "ms"}


#: The process-wide tracer used by the facade and ``@traced``.
_tracer = Tracer()

#: Per-thread tracer override installed by :func:`capture_events`.
_local = threading.local()


def get_tracer() -> Tracer:
    """The active :class:`Tracer`: a capture override, else process-wide."""
    override = getattr(_local, "tracer", None)
    if override is not None:
        return override
    return _tracer


@contextmanager
def capture_events(max_events: int = DEFAULT_MAX_EVENTS):
    """Route this thread's spans into a fresh event-recording tracer.

    Yields the tracer; on exit the previous routing is restored.  Used
    by pool workers (process or thread) to capture the library's own
    spans — ``encode``, ``decode.stream`` — without touching the
    process-wide aggregate, then ship ``tracer.events()`` back to the
    requesting service.  Nests: the innermost capture wins.
    """
    previous = getattr(_local, "tracer", None)
    tracer = Tracer(record_events=True, max_events=max_events)
    _local.tracer = tracer
    try:
        yield tracer
    finally:
        _local.tracer = previous


@contextmanager
def capture_scope(capture: bool):
    """Record this call's library spans when the caller asked for them.

    Yields the capturing tracer (or ``None``).  Runs in a pool worker:
    instrumentation is force-enabled for the duration and the spans go
    into a thread-local tracer (:func:`capture_events`), so a
    thread-pool worker never pollutes its host process's aggregate
    tree.  The worker ships ``tracer.events()`` back with its result
    and the caller grafts them under its own span.
    """
    if not capture:
        yield None
        return
    previous = _state.set_enabled(True)
    try:
        with capture_events() as tracer:
            yield tracer
    finally:
        _state.set_enabled(previous)


def span(name: str):
    """A span context manager, or the shared no-op when disabled."""
    if not _state.enabled():
        return NULL_SPAN
    return get_tracer().span(name)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator tracing every call of the function as one span.

    ``name`` defaults to the function's qualified name.  When
    instrumentation is disabled the wrapper is one boolean check away
    from a direct call.
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _state.enabled():
                return fn(*args, **kwargs)
            with get_tracer().span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
