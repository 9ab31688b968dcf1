"""Columnar on-disk trace store (the telemetry warehouse's disk half).

The paper's control loop assumes fleet-wide trace retention
(§5.2-5.3); this package stores trace telemetry as append-only
fixed-schema ``.npz`` segments with a JSON manifest, incremental
per-window aggregation, and downsampling for old segments — and exposes
it behind the same duck-typed surface as the in-memory
:class:`~repro.cluster.trace_db.TraceDatabase` so agents and the
fault injector need no changes.
"""

from repro.tracestore.database import ColumnarTraceDatabase
from repro.tracestore.store import (
    DEFAULT_BUFFER_ROWS,
    DEFAULT_WINDOW_SECONDS,
    FORMAT_VERSION,
    MANIFEST_NAME,
    SegmentInfo,
    TraceStore,
    WindowSummary,
)

__all__ = [
    "ColumnarTraceDatabase",
    "DEFAULT_BUFFER_ROWS",
    "DEFAULT_WINDOW_SECONDS",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "SegmentInfo",
    "TraceStore",
    "WindowSummary",
]
