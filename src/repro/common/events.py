"""Lightweight event recording for simulator observability.

Components append :class:`Event` records to an :class:`EventLog`; analysis
code filters by kind.  This is the simulator's stand-in for the paper's
monitoring infrastructure — cheap enough to leave on, structured enough to
drive assertions in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Event", "EventKind", "EventLog", "KNOWN_EVENT_KINDS"]


class EventKind:
    """Canonical event-kind names (the OBS001 source of truth).

    Every ``EventLog.record`` call site must use one of these constants
    (or a literal equal to one of them — ``repro lint`` flags anything
    else), so the set of kinds in flight can never drift from what
    analysis code, docs, and the ``repro_events_total`` bridge expect.
    """

    MACHINE_JOB_ADDED = "machine.job_added"
    MACHINE_JOB_REMOVED = "machine.job_removed"
    MACHINE_DIRECT_RECLAIM = "machine.direct_reclaim"
    CLUSTER_MACHINE_FAILURE = "cluster.machine_failure"
    CLUSTER_MACHINE_REPAIRED = "cluster.machine_repaired"
    CLUSTER_ADMISSION_REJECT = "cluster.admission_reject"
    CLUSTER_REPLENISH_REJECT = "cluster.replenish_reject"
    SCHEDULER_PLACE = "scheduler.place"
    SCHEDULER_REMOVE = "scheduler.remove"
    SCHEDULER_EVICT = "scheduler.evict"
    TELEMETRY_HISTOGRAM_RESET = "telemetry.histogram_reset"
    TELEMETRY_SINK_OUTAGE = "telemetry.sink_outage"
    TELEMETRY_SINK_RECOVERED = "telemetry.sink_recovered"
    TELEMETRY_ENTRIES_DROPPED = "telemetry.entries_dropped"
    AGENT_HISTOGRAM_REWARM = "agent.histogram_rewarm"
    FAULT_INJECTED = "faults.injected"
    FAULT_CLEARED = "faults.cleared"
    CANARY_DEPLOY = "canary.deploy"
    CANARY_ROLLBACK = "canary.rollback"


#: Every kind an event may be recorded under (frozen view of
#: :class:`EventKind`, consumed by the OBS001 lint rule).
KNOWN_EVENT_KINDS = frozenset(
    value
    for name, value in vars(EventKind).items()
    if not name.startswith("_") and isinstance(value, str)
)


@dataclass(frozen=True)
class Event:
    """One timestamped occurrence.

    Attributes:
        time: simulation time in seconds.
        kind: dotted event name, e.g. ``"scheduler.evict"``.
        payload: arbitrary structured details.
    """

    time: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)


class EventLog:
    """Append-only event sink with simple filtering and subscriptions.

    A log may be created bounded (``max_events``) for long simulations;
    when full, the oldest events are dropped from the *retained buffer*
    and ``dropped_count`` records how many.  Dropping only affects later
    reads (``__iter__``/``of_kind``/``between``): every event was already
    delivered to subscribers at :meth:`record` time, so ``dropped_count``
    measures lost history, never lost notifications.
    """

    def __init__(self, max_events: Optional[int] = None):
        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be positive or None")
        self._events: List[Event] = []
        self._max_events = max_events
        self._subscribers: List[Tuple[str, Callable[[Event], None]]] = []
        self.dropped_count = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def subscribe(
        self, kind_prefix: str, callback: Callable[[Event], None]
    ) -> Callable[[], None]:
        """Invoke ``callback`` for every future event matching the prefix.

        Matching follows :meth:`of_kind`: an event matches when its kind
        equals ``kind_prefix`` or is nested under it (``"zswap"`` matches
        ``"zswap.store"``).  The empty prefix matches everything.
        Callbacks fire synchronously inside :meth:`record`, before the
        bounded-buffer eviction, so subscribers see every event even when
        the log is dropping history.

        Returns:
            A zero-argument function that unsubscribes the callback.
        """
        entry = (kind_prefix, callback)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(entry)
            except ValueError:
                pass

        return unsubscribe

    def record(self, time: int, kind: str, **payload: Any) -> Event:
        """Append and return a new event (notifying subscribers first)."""
        event = Event(time=time, kind=kind, payload=payload)
        for prefix, callback in self._subscribers:
            if not prefix or kind == prefix or kind.startswith(prefix + "."):
                callback(event)
        self._events.append(event)
        if self._max_events is not None and len(self._events) > self._max_events:
            overflow = len(self._events) - self._max_events
            del self._events[:overflow]
            self.dropped_count += overflow
        return event

    def of_kind(self, kind: str) -> List[Event]:
        """All events whose kind equals or is nested under ``kind``."""
        prefix = kind + "."
        return [e for e in self._events if e.kind == kind or e.kind.startswith(prefix)]

    def between(self, start: int, end: int) -> List[Event]:
        """All events with ``start <= time < end``."""
        return [e for e in self._events if start <= e.time < end]

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()
