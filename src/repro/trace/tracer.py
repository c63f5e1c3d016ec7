"""The Tracer: span factory, causal store, and query engine.

One :class:`Tracer` is installed per :class:`~repro.sim.kernel.Simulator`
(``Tracer(sim)`` sets ``sim.tracer``).  Instrumented layers look the
attribute up and skip all work when it is ``None``, so an untraced
simulation pays nothing beyond that check; the module-level helpers in
:mod:`repro.trace` hide even the check behind :data:`~repro.trace.span.NULL_SPAN`.

Span identifiers are consecutive integers, and timestamps come from the
simulated clock, so traces are exactly reproducible run-to-run.

Besides recording, the tracer answers the causal questions the
cross-layer experiments need:

* :meth:`find_spans` / :meth:`children_of` / :meth:`is_descendant` --
  ancestry queries ("which flows did this migration cause?");
* :meth:`overlapping` -- interval queries ("which congestion episodes
  coincided with this span?");
* :meth:`critical_path` / :meth:`latency_by_layer` -- where one root
  operation's latency went, span-by-span and layer-by-layer.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.trace.span import Span, context_of

DEFAULT_KERNEL_EVENT_CAP = 100_000

# Every live tracer, so tooling (e.g. the test-failure trace dumper in
# tests/conftest.py) can find and export traces it did not create.
_live_tracers: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


def live_tracers() -> List["Tracer"]:
    """Snapshot of all tracers currently alive in the process."""
    return list(_live_tracers)


class Tracer:
    """Creates, stores, and queries spans for one simulator."""

    def __init__(self, sim, kernel_events: bool = False,
                 kernel_event_cap: int = DEFAULT_KERNEL_EVENT_CAP) -> None:
        self.sim = sim
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._children: Dict[int, List[Span]] = {}
        self._open: Dict[int, Span] = {}
        self._next_trace_id = 1
        self._next_span_id = 1
        # Optional per-dispatch kernel event capture (Chrome "instant"
        # markers on a dedicated track).  Bounded so long runs cannot
        # exhaust memory.
        self.kernel_events = kernel_events
        self.kernel_event_log: "deque[Tuple[float, str]]" = deque(
            maxlen=kernel_event_cap
        )
        sim.tracer = self
        _live_tracers.add(self)

    # -- recording --------------------------------------------------------

    def start_span(
        self,
        name: str,
        parent=None,
        kind: str = "internal",
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span at the current simulated time.

        ``parent`` may be a :class:`Span`, a :class:`SpanContext`, or
        ``None`` (which starts a new trace).
        """
        context = context_of(parent)
        if context is None:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        else:
            trace_id = context.trace_id
            parent_id = context.span_id
        span = Span(
            self, trace_id, self._next_span_id, parent_id,
            name, kind, self.sim.now, attributes,
        )
        self._next_span_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        if parent_id is not None:
            self._children.setdefault(parent_id, []).append(span)
        self._open[span.span_id] = span
        return span

    def instant(
        self,
        name: str,
        parent=None,
        kind: str = "internal",
        attributes: Optional[Dict[str, Any]] = None,
        status: str = "ok",
    ) -> Span:
        """A zero-duration span (a point event: a fault, a trip, a mark)."""
        span = self.start_span(name, parent=parent, kind=kind,
                               attributes=attributes)
        span.end(status=status)
        return span

    def _end_span(self, span: Span, status: str, detail: Optional[str]) -> None:
        span.end_time = self.sim.now
        span.status = status
        span.status_detail = detail
        self._open.pop(span.span_id, None)

    def on_kernel_event(self, time: float, label: str) -> None:
        """Kernel hook: one event dispatch (only called when enabled)."""
        self.kernel_event_log.append((time, label))

    # -- bookkeeping ------------------------------------------------------

    def span(self, span_id: int) -> Span:
        return self._by_id[span_id]

    def open_spans(self) -> List[Span]:
        return sorted(self._open.values(), key=lambda s: s.span_id)

    def active_trace_id(self) -> Optional[int]:
        """Trace id of the most recently started still-open span.

        The budget/watchdog subsystem stamps this into its diagnostic
        snapshots so a tripped run can be correlated with the trace that
        was in flight when it tripped.
        """
        if not self._open:
            return None
        newest = max(self._open.values(), key=lambda s: s.span_id)
        return newest.trace_id

    def finish_open_spans(self, status: str = "ok",
                          detail: Optional[str] = "open at export") -> None:
        """Close every open span at the current clock (pre-export hygiene)."""
        for span in list(self._open.values()):
            span.end(status=status, detail=detail)

    # -- queries ----------------------------------------------------------

    def find_spans(
        self,
        name: Optional[str] = None,
        kind: Optional[str] = None,
        trace_id: Optional[int] = None,
        name_prefix: Optional[str] = None,
        predicate: Optional[Callable[[Span], bool]] = None,
    ) -> List[Span]:
        """All spans matching every given filter, in creation order."""
        out = []
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if name_prefix is not None and not span.name.startswith(name_prefix):
                continue
            if kind is not None and span.kind != kind:
                continue
            if trace_id is not None and span.trace_id != trace_id:
                continue
            if predicate is not None and not predicate(span):
                continue
            out.append(span)
        return out

    def children_of(self, span, recursive: bool = False) -> List[Span]:
        """Direct (or, with ``recursive``, all transitive) child spans."""
        context = context_of(span)
        if context is None:
            return []
        direct = list(self._children.get(context.span_id, []))
        if not recursive:
            return direct
        out: List[Span] = []
        stack = direct
        while stack:
            child = stack.pop(0)
            out.append(child)
            stack.extend(self._children.get(child.span_id, []))
        return out

    def is_descendant(self, span: Span, ancestor) -> bool:
        """True if ``span`` sits (transitively) under ``ancestor``."""
        context = context_of(ancestor)
        if context is None:
            return False
        parent_id = span.parent_id
        while parent_id is not None:
            if parent_id == context.span_id:
                return True
            parent = self._by_id.get(parent_id)
            if parent is None:
                return False
            parent_id = parent.parent_id
        return False

    def _interval(self, span: Span) -> Tuple[float, float]:
        end = span.end_time if span.end_time is not None else self.sim.now
        return span.start, max(end, span.start)

    def overlapping(
        self,
        span,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        name_prefix: Optional[str] = None,
    ) -> List[Span]:
        """Spans whose simulated-time interval intersects ``span``'s.

        ``span`` may be a Span or a ``(start, end)`` tuple.  Intervals are
        closed, so a zero-duration instant at a span's boundary counts.
        The queried span itself is excluded.
        """
        if isinstance(span, tuple):
            start, end = span
            self_id = None
        else:
            start, end = self._interval(span)
            self_id = span.span_id
        out = []
        for candidate in self.find_spans(kind=kind, name=name,
                                         name_prefix=name_prefix):
            if candidate.span_id == self_id:
                continue
            c_start, c_end = self._interval(candidate)
            if c_start <= end and start <= c_end:
                out.append(candidate)
        return out

    # -- analysis ---------------------------------------------------------

    def critical_path(self, root) -> List[Span]:
        """The chain of spans that determined ``root``'s finish time.

        Starting at ``root``, repeatedly descend into the child that
        finished last; the result is the path a latency optimiser should
        attack first.  Open spans are treated as ending now.
        """
        context = context_of(root)
        if context is None:
            return []
        current = self._by_id[context.span_id]
        path = [current]
        while True:
            children = self._children.get(current.span_id, [])
            if not children:
                return path
            current = max(children, key=lambda s: (self._interval(s)[1], s.span_id))
            path.append(current)

    def latency_by_layer(self, root) -> Dict[str, float]:
        """Self-time per layer (span ``kind``) across ``root``'s subtree.

        A span's self-time is its duration minus the union of its
        children's intervals (clipped to the span), so layers that merely
        wait on deeper layers are not double-counted.  The dict sums to
        roughly the root's duration (exactly, when children nest cleanly).
        """
        context = context_of(root)
        if context is None:
            return {}
        root_span = self._by_id[context.span_id]
        totals: Dict[str, float] = {}
        for span in [root_span] + self.children_of(root_span, recursive=True):
            start, end = self._interval(span)
            covered = 0.0
            intervals = []
            for child in self._children.get(span.span_id, []):
                c_start, c_end = self._interval(child)
                c_start, c_end = max(c_start, start), min(c_end, end)
                if c_end > c_start:
                    intervals.append((c_start, c_end))
            intervals.sort()
            cursor = start
            for c_start, c_end in intervals:
                if c_end <= cursor:
                    continue
                covered += c_end - max(c_start, cursor)
                cursor = max(cursor, c_end)
            self_time = max(0.0, (end - start) - covered)
            totals[span.kind] = totals.get(span.kind, 0.0) + self_time
        return totals

    # -- export (thin wrappers; see repro.trace.export) -------------------

    def chrome_trace(self) -> dict:
        from repro.trace.export import chrome_trace
        return chrome_trace(self)

    def write_chrome(self, path: str) -> str:
        from repro.trace.export import write_chrome
        return write_chrome(self, path)

    def write_jsonl(self, path: str) -> str:
        from repro.trace.export import write_jsonl
        return write_jsonl(self, path)

    def write(self, path: str) -> str:
        """Export by extension: ``.jsonl`` -> JSONL, else Chrome JSON."""
        if str(path).endswith(".jsonl"):
            return self.write_jsonl(path)
        return self.write_chrome(path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Tracer spans={len(self.spans)} open={len(self._open)} "
            f"traces={self._next_trace_id - 1}>"
        )


def iter_span_dicts(spans: Iterable[Span]) -> Iterable[Dict[str, Any]]:
    """Plain-dict view of spans (the JSONL record shape)."""
    for span in spans:
        yield {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "kind": span.kind,
            "start": span.start,
            "end": span.end_time,
            "status": span.status,
            "detail": span.status_detail,
            "attributes": span.attributes,
        }
