"""Telemetry export: node agent -> external trace database (paper §5.2-5.3).

Every 5 minutes the agent exports, per job, the trace entry the autotuner's
fast far memory model consumes: working set size, the promotion histogram
accumulated over the period, and the current cold-age snapshot.  The sink
is anything with an ``add(entry)`` method — in this repo,
:class:`repro.cluster.trace_db.TraceDatabase`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol

import numpy as np

from repro.common.events import EventKind, EventLog
from repro.common.simtime import PeriodicSchedule
from repro.core.histograms import AgeHistogram
from repro.core.slo import PromotionRateSlo, working_set_pages
from repro.kernel.machine import Machine
from repro.model.trace import TRACE_PERIOD_SECONDS, TelemetryBlock, TraceEntry
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["TraceSink", "TelemetryExporter"]

#: Most spilled entries retained while the sink is down; beyond this the
#: oldest spilled entries are dropped (and counted) so a never-healing
#: sink cannot grow memory without bound.
RETRY_BUFFER_CAP = 4096

#: First retry happens one export period after the failure; each failed
#: retry doubles the wait up to :data:`MAX_BACKOFF_SECONDS`.
INITIAL_BACKOFF_SECONDS = TRACE_PERIOD_SECONDS
MAX_BACKOFF_SECONDS = 3600


def _default_cpu_lookup(_job_id: str) -> float:
    """Fallback CPU lookup: one core per job (module-level so exporters
    stay picklable when no lookup is injected)."""
    return 1.0


class TraceSink(Protocol):
    """Anything that accepts exported trace entries."""

    def add(self, entry: TraceEntry) -> None:
        """Store one trace entry."""
        ...


class TelemetryExporter:
    """Per-machine 5-minute trace exporter.

    Args:
        machine: the machine whose jobs are exported.
        sink: destination database.
        cpu_lookup: maps job id to average CPU cores (for Fig. 8
            normalization); defaults to 1 core per job.
        period: export period in seconds (300 in the paper).
        slo: defines the working-set window.
        events: optional event log; the exporter records a
            ``telemetry.histogram_reset`` event whenever a job's period
            histogram had to restart from the cumulative counts because
            the bin thresholds changed mid-run.
        registry: metrics registry (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    #: When True (the default) and both ends are columnar — the machine
    #: runs a :class:`~repro.kernel.columnar.MachinePagePool` and the sink
    #: implements ``add_block`` — each export window ships as one
    #: :class:`~repro.model.trace.TelemetryBlock` gathered straight from
    #: pool columns, with no per-job ``TraceEntry`` objects.  Tests flip
    #: this off to force the entry path as the bit-equivalence oracle.
    prefer_blocks: bool = True

    def __init__(
        self,
        machine: Machine,
        sink: TraceSink,
        cpu_lookup: Optional[Callable[[str], float]] = None,
        period: int = TRACE_PERIOD_SECONDS,
        slo: Optional[PromotionRateSlo] = None,
        events: Optional[EventLog] = None,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.machine = machine
        self.sink = sink
        self.cpu_lookup = (
            cpu_lookup if cpu_lookup is not None else _default_cpu_lookup
        )
        self.period = int(period)
        self.slo = slo if slo is not None else PromotionRateSlo()
        self.events = events
        self._schedule = PeriodicSchedule(self.period)
        self._last_promotion: Dict[str, AgeHistogram] = {}
        self.entries_exported = 0
        # Graceful degradation under a failing sink: entries that could
        # not be delivered wait here (FIFO, bounded) until a retry lands.
        self._spill: List[TraceEntry] = []
        self._backoff = INITIAL_BACKOFF_SECONDS
        self._retry_at: Optional[int] = None
        self.entries_dropped = 0

        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        machine_id = self.machine.machine_id
        self._m_exports = registry.counter(
            MetricName.TELEMETRY_EXPORTS_TOTAL,
            "Completed 5-minute telemetry export rounds.", ("machine",)
        ).labels(machine=machine_id)
        self._m_entries = registry.counter(
            MetricName.TELEMETRY_ENTRIES_TOTAL,
            "Trace entries shipped to the trace database.", ("machine",)
        ).labels(machine=machine_id)
        self._m_resets = registry.counter(
            MetricName.TELEMETRY_HISTOGRAM_RESETS_TOTAL,
            "Period histograms restarted after a bin-threshold change.",
            ("machine",)
        ).labels(machine=machine_id)
        self._m_outages = registry.counter(
            MetricName.TELEMETRY_SINK_OUTAGES_TOTAL,
            "Sink-outage episodes (first failed add after a healthy spell).",
            ("machine",)
        ).labels(machine=machine_id)
        self._m_spilled = registry.counter(
            MetricName.TELEMETRY_SPILLED_ENTRIES_TOTAL,
            "Entries diverted to the retry buffer while the sink was down.",
            ("machine",)
        ).labels(machine=machine_id)
        self._m_replayed = registry.counter(
            MetricName.TELEMETRY_REPLAYED_ENTRIES_TOTAL,
            "Spilled entries delivered after the sink recovered.",
            ("machine",)
        ).labels(machine=machine_id)
        self._m_dropped = registry.counter(
            MetricName.TELEMETRY_DROPPED_ENTRIES_TOTAL,
            "Spilled entries evicted because the retry buffer was full.",
            ("machine",)
        ).labels(machine=machine_id)
        self._g_degraded = registry.gauge(
            MetricName.DEGRADED_MODE,
            "1 while a component is running degraded (per component).",
            ("component", "machine")
        ).labels(component="telemetry", machine=machine_id)

    def maybe_export(self, now: int) -> bool:
        """Export if the period boundary passed; returns True when it did."""
        if not self._schedule.due(now):
            return False
        self.export(now)
        return True

    @property
    def sink_degraded(self) -> bool:
        """True while undelivered entries sit in the retry buffer."""
        return bool(self._spill)

    def _spill_entry(self, now: int, entry: TraceEntry) -> None:
        """Queue an entry for later replay, evicting the oldest when full."""
        self._spill.append(entry)
        self._m_spilled.inc()
        overflow = len(self._spill) - RETRY_BUFFER_CAP
        if overflow > 0:
            del self._spill[:overflow]
            self.entries_dropped += overflow
            self._m_dropped.inc(overflow)
            if self.events is not None:
                self.events.record(
                    now, EventKind.TELEMETRY_ENTRIES_DROPPED,
                    machine=self.machine.machine_id, count=overflow,
                )

    def _begin_outage(self, now: int) -> None:
        """First failed ``sink.add`` after a healthy spell."""
        self._backoff = INITIAL_BACKOFF_SECONDS
        self._retry_at = now + self._backoff
        self._m_outages.inc()
        self._g_degraded.set(1)
        if self.events is not None:
            self.events.record(
                now, EventKind.TELEMETRY_SINK_OUTAGE,
                machine=self.machine.machine_id,
            )

    def _retry_spill(self, now: int) -> None:
        """Replay the retry buffer if the backoff window has elapsed.

        Entries are replayed oldest-first so per-job trace order (and the
        trace database's monotonic-append contract) is preserved.  A
        failure mid-replay keeps the remainder queued and doubles the
        backoff; draining the buffer ends the outage episode.
        """
        if not self._spill or (self._retry_at is not None and now < self._retry_at):
            return
        replayed = 0
        while self._spill:
            try:
                self.sink.add(self._spill[0])
            except Exception:
                self._backoff = min(self._backoff * 2, MAX_BACKOFF_SECONDS)
                self._retry_at = now + self._backoff
                break
            self._spill.pop(0)
            replayed += 1
            self.entries_exported += 1
            self._m_entries.inc()
        if replayed:
            self._m_replayed.inc(replayed)
        if not self._spill:
            self._backoff = INITIAL_BACKOFF_SECONDS
            self._retry_at = None
            self._g_degraded.set(0)
            if self.events is not None:
                self.events.record(
                    now, EventKind.TELEMETRY_SINK_RECOVERED,
                    machine=self.machine.machine_id, replayed=replayed,
                )

    def _deliver(self, now: int, entry: TraceEntry) -> None:
        """Ship one entry, spilling it (in order) when the sink is down."""
        if self._spill:
            # Never overtake queued entries: per-job order must hold.
            self._spill_entry(now, entry)
            return
        try:
            self.sink.add(entry)
        except Exception:
            self._begin_outage(now)
            self._spill_entry(now, entry)
            return
        self.entries_exported += 1
        self._m_entries.inc()

    def _deliver_batch(self, now: int, entries: List[TraceEntry]) -> None:
        """Ship one export window in a single ``sink.add_batch`` call.

        Failure handling matches the per-entry path except that the
        batch is all-or-nothing: ``add_batch`` appends no row on error,
        so the whole window spills and is replayed in order later.
        """
        if not entries:
            return
        if self._spill:
            # Never overtake queued entries: per-job order must hold.
            for entry in entries:
                self._spill_entry(now, entry)
            return
        try:
            self.sink.add_batch(entries)
        except Exception:
            self._begin_outage(now)
            for entry in entries:
                self._spill_entry(now, entry)
            return
        self.entries_exported += len(entries)
        self._m_entries.inc(len(entries))

    def _deliver_block(self, now: int, block: TelemetryBlock) -> None:
        """Ship one export window as a single zero-copy block.

        ``add_block`` is all-or-nothing (the store validates the whole
        block before touching any buffer), so on failure the window
        degrades to per-entry objects and spills to the retry buffer in
        original row order — from there recovery is identical to the
        entry path, and no delivered row is ever re-counted.
        """
        n = block.n_rows
        if n == 0:
            return
        if self._spill:
            # Never overtake queued entries: per-job order must hold.
            for entry in block.entries():
                self._spill_entry(now, entry)
            return
        try:
            self.sink.add_block(block)
        except Exception:
            self._begin_outage(now)
            for entry in block.entries():
                self._spill_entry(now, entry)
            return
        self.entries_exported += n
        self._m_entries.inc(n)

    def _export_block(self, now: int, entry_time: int) -> None:
        """Columnar export window: one pool gather, one block delivery.

        Bit-equivalent to the per-entry loop in :meth:`export`: the pool
        gather reads exactly the columns the scalar path reads per memcg,
        and the period promotion histogram is the same cumulative-minus-
        previous subtraction (restarting from the cumulative counts on a
        bin-threshold change, with the same reset event and counter).
        Only the container differs — dense arrays instead of per-job
        ``TraceEntry`` objects.
        """
        machine = self.machine
        items = list(machine.memcgs.items())
        n = len(items)
        if n == 0:
            return
        rows = np.fromiter(
            (memcg._pool_row for _job_id, memcg in items), np.int64, n
        )
        cols = machine.pool.export_columns(
            rows, self.slo.min_cold_age_seconds
        )
        promo_now = cols["promotion_counts"]
        promo_young_now = cols["promotion_young"]
        prev_counts = np.zeros_like(promo_now)
        prev_young = np.zeros(n, dtype=np.int64)
        for i, (job_id, memcg) in enumerate(items):
            last = self._last_promotion.get(job_id)
            if last is None or last.bins.thresholds != memcg.bins.thresholds:
                if last is not None:
                    self._m_resets.inc()
                    if self.events is not None:
                        self.events.record(
                            now, EventKind.TELEMETRY_HISTOGRAM_RESET,
                            job=job_id,
                            machine=machine.machine_id,
                        )
            else:
                prev_counts[i] = last.counts
                prev_young[i] = last.young_count
            # The gather already detached these rows from pool storage,
            # so the snapshot can wrap them without another copy.
            snapshot = AgeHistogram(memcg.bins)
            snapshot.counts = promo_now[i]
            snapshot.young_count = int(promo_young_now[i])
            self._last_promotion[job_id] = snapshot
        block = TelemetryBlock(
            bins=machine.pool.bins,
            job_table=[job_id for job_id, _memcg in items],
            machine_table=[machine.machine_id],
            job=np.arange(n, dtype=np.int64),
            machine=np.zeros(n, dtype=np.int64),
            time=np.full(n, entry_time, dtype=np.int64),
            working_set_pages=cols["working_set_pages"],
            resident_pages=cols["resident_pages"],
            cpu_cores=np.fromiter(
                (self.cpu_lookup(job_id) for job_id, _memcg in items),
                np.float64, n,
            ),
            promotion_counts=promo_now - prev_counts,
            promotion_young=promo_young_now - prev_young,
            cold_counts=cols["cold_counts"],
            cold_young=cols["cold_young"],
        )
        self._deliver_block(now, block)

    def export(self, now: int) -> None:
        """Emit one trace entry per job on the machine.

        When a job's bin thresholds changed since the previous export, the
        previous cumulative snapshot is incomparable and the period
        histogram restarts from the cumulative counts; that reset is
        surfaced as a ``telemetry.histogram_reset`` event (and counter) so
        downstream consumers can discount the affected period.

        If the sink raises, the exporter degrades instead of dying:
        entries spill to a bounded retry buffer and are replayed, oldest
        first, after an exponential backoff — see :meth:`_retry_spill`.
        """
        # Entries describe the period that *ended* at ``now``; the first
        # boundary (t=0) observed no full period, so clamp at 0 rather
        # than stamping a negative time into the trace database.
        entry_time = max(0, now - self.period)
        # Delivery ladder, fastest rung both ends support: with the
        # columnar kernel and a block-capable sink the window ships as
        # one TelemetryBlock gathered straight from pool columns; with a
        # merely batch-capable sink it ships as one add_batch call of
        # entry objects; otherwise entries deliver one by one exactly as
        # before.  (A sink wrapper that only implements ``add`` — e.g.
        # the fault injector's outage shim — keeps the per-entry path
        # automatically.)
        use_block = (
            self.prefer_blocks
            and self.machine.pool is not None
            and hasattr(self.sink, "add_block")
        )
        batch: Optional[List[TraceEntry]] = (
            [] if (not use_block
                   and self.machine.pool is not None
                   and hasattr(self.sink, "add_batch"))
            else None
        )
        with self._tracer.span("telemetry.export", sim_time=now):
            self._retry_spill(now)
            if use_block:
                self._export_block(now, entry_time)
            else:
                self._export_entries(now, entry_time, batch)
            gone = set(self._last_promotion) - set(self.machine.memcgs)
            for job_id in gone:
                del self._last_promotion[job_id]
        self._m_exports.inc()

    def _export_entries(
        self, now: int, entry_time: int,
        batch: Optional[List[TraceEntry]],
    ) -> None:
        """Object-path export window (the zero-copy path's oracle)."""
        for job_id, memcg in self.machine.memcgs.items():
            last = self._last_promotion.get(job_id)
            if last is None or last.bins.thresholds != memcg.bins.thresholds:
                if last is not None:
                    self._m_resets.inc()
                    if self.events is not None:
                        self.events.record(
                            now, EventKind.TELEMETRY_HISTOGRAM_RESET,
                            job=job_id,
                            machine=self.machine.machine_id,
                        )
                period_hist = memcg.promotion_histogram.copy()
            else:
                period_hist = memcg.promotion_histogram.diff(last)
            self._last_promotion[job_id] = memcg.promotion_histogram.copy()

            entry = TraceEntry(
                job_id=job_id,
                machine_id=self.machine.machine_id,
                time=entry_time,
                working_set_pages=working_set_pages(
                    memcg.cold_age_histogram, self.slo.min_cold_age_seconds
                ),
                promotion_histogram=period_hist,
                cold_age_histogram=memcg.cold_age_histogram.copy(),
                resident_pages=memcg.resident_pages,
                cpu_cores=self.cpu_lookup(job_id),
            )
            if batch is not None:
                batch.append(entry)
            else:
                self._deliver(now, entry)
        if batch is not None:
            self._deliver_batch(now, batch)
