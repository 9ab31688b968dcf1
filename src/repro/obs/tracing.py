"""Span-based tracing for the simulator's hot paths.

A :class:`Tracer` hands out :meth:`~Tracer.span` context managers that
time a block of work on the wall clock (``time.perf_counter``) and stamp
it with the simulation time of the enclosing tick.  Spans nest: the
tracer keeps a stack so each span knows how much of its wall time was
spent in child spans, which is what lets the profiler compute *self*
time per subsystem (the flame table in :mod:`repro.obs.profiling`).

Aggregated per-name statistics are unbounded (one record per distinct
span name); raw span records are kept in a bounded ring so multi-hour
fleet runs cannot grow without bound.  A disabled tracer returns a
shared no-op span, keeping instrumented call sites cheap enough to
leave on (the Fig. 8 analogue: observability itself must cost ~nothing).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Deque, Dict, List, Optional

__all__ = [
    "SpanRecord",
    "SpanStats",
    "Tracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes:
        name: dotted span name, e.g. ``"kstaled.scan"``.
        wall_seconds: wall-clock duration.
        sim_time: simulation time stamped at entry (None if not given).
        depth: nesting depth at entry (0 = top level).
        attrs: arbitrary key/value annotations.
    """

    name: str
    wall_seconds: float
    sim_time: Optional[int] = None
    depth: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass
class SpanStats:
    """Aggregate statistics for one span name.

    Attributes:
        name: the span name.
        calls: completed spans.
        wall_seconds: total wall time, children included.
        child_seconds: wall time spent inside nested spans.
        max_seconds: longest single span.
    """

    name: str
    calls: int = 0
    wall_seconds: float = 0.0
    child_seconds: float = 0.0
    max_seconds: float = 0.0

    @property
    def self_seconds(self) -> float:
        """Wall time attributable to this span alone."""
        return self.wall_seconds - self.child_seconds

    @property
    def mean_seconds(self) -> float:
        """Mean wall time per call."""
        return self.wall_seconds / self.calls if self.calls else 0.0


class _NullSpan:
    """Shared no-op span for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "name", "sim_time", "attrs", "_start",
                 "child_seconds")

    def __init__(self, tracer: "Tracer", name: str,
                 sim_time: Optional[int], attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.sim_time = sim_time
        self.attrs = attrs
        self.child_seconds = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        duration = perf_counter() - self._start
        tracer = self._tracer
        stack = tracer._stack
        # Tolerate mispaired exits (a span left open by an exception in an
        # outer frame): unwind to and including this span.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].child_seconds += duration
        tracer._finish(self, duration, len(stack))
        return False


class Tracer:
    """Produces spans and aggregates their durations.

    Args:
        enabled: when False, :meth:`span` returns a shared no-op.
        max_records: raw :class:`SpanRecord` ring size (0 keeps only the
            aggregate statistics).
    """

    def __init__(self, enabled: bool = True, max_records: int = 4096):
        self.enabled = bool(enabled)
        self._stack: List[_Span] = []
        self._stats: Dict[str, SpanStats] = {}
        self._records: Optional[Deque[SpanRecord]] = (
            deque(maxlen=int(max_records)) if max_records > 0 else None
        )

    def span(self, name: str, sim_time: Optional[int] = None,
             **attrs: object):
        """A context manager timing the enclosed block.

        Args:
            name: dotted span name; the prefix before the first ``"."``
                is the subsystem the profiler groups by.
            sim_time: simulation time at entry, stamped on the record.
            **attrs: free-form annotations kept on the raw record.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, sim_time, attrs)

    def record(self, name: str, wall_seconds: float,
               sim_time: Optional[int] = None) -> None:
        """Record an externally timed duration (no nesting attribution)."""
        if not self.enabled:
            return
        stats = self._stats.get(name)
        if stats is None:
            stats = SpanStats(name)
            self._stats[name] = stats
        stats.calls += 1
        stats.wall_seconds += wall_seconds
        stats.max_seconds = max(stats.max_seconds, wall_seconds)
        if self._records is not None:
            self._records.append(
                SpanRecord(name=name, wall_seconds=wall_seconds,
                           sim_time=sim_time)
            )

    def _finish(self, span: _Span, duration: float, depth: int) -> None:
        stats = self._stats.get(span.name)
        if stats is None:
            stats = SpanStats(span.name)
            self._stats[span.name] = stats
        stats.calls += 1
        stats.wall_seconds += duration
        stats.child_seconds += span.child_seconds
        stats.max_seconds = max(stats.max_seconds, duration)
        if self._records is not None:
            self._records.append(
                SpanRecord(
                    name=span.name,
                    wall_seconds=duration,
                    sim_time=span.sim_time,
                    depth=depth,
                    attrs=span.attrs,
                )
            )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, SpanStats]:
        """Aggregate statistics keyed by span name (live references)."""
        return dict(self._stats)

    def records(self) -> List[SpanRecord]:
        """The retained raw span records, oldest first."""
        return list(self._records) if self._records is not None else []

    def total_seconds(self) -> float:
        """Wall time across top-level work (self time summed everywhere)."""
        return sum(s.self_seconds for s in self._stats.values())

    def reset(self) -> None:
        """Drop all statistics and records."""
        self._stack.clear()
        self._stats.clear()
        if self._records is not None:
            self._records.clear()


#: A permanently disabled tracer.
NULL_TRACER = Tracer(enabled=False)

_global_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-global default tracer."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer; returns the previous one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer
    return previous
