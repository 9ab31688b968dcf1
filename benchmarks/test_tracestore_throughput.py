"""The columnar trace store at bench fleet size.

Replaying a what-if batch from on-disk columns must be bit-identical to
the object path, compile at least as fast, and — the reason the store
exists — peak *lower* in memory, because no ``TraceEntry``/``JobTrace``
objects are ever materialized.  Ingest through the ``TraceSink`` surface
must clear a conservative rows/s floor.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core.slo import PromotionRateSlo
from repro.model.replay import FarMemoryModel
from repro.tracestore import ColumnarTraceDatabase
from tests.synthetic_traces import bench_configs, synthetic_fleet_traces

pytestmark = pytest.mark.slow

JOBS, INTERVALS, CONFIGS, SEED = 24, 288, 4, 17
BUFFER_ROWS = 2048  # seals several segments at this shape


def _traced_peak(fn):
    """Run ``fn`` under tracemalloc; returns (result, peak bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def trace_report(tmp_path_factory):
    """Ingest one synthetic fleet, then replay it both ways."""
    traces = synthetic_fleet_traces(JOBS, INTERVALS, SEED)
    batch = bench_configs(CONFIGS)
    slo = PromotionRateSlo()
    db = ColumnarTraceDatabase(
        tmp_path_factory.mktemp("tracestore") / "store",
        buffer_rows=BUFFER_ROWS,
    )
    start = time.perf_counter()
    for trace in traces:
        for entry in trace.entries:
            db.add(entry)
    db.flush()
    ingest_seconds = time.perf_counter() - start

    def replay(load):
        start = time.perf_counter()
        model = FarMemoryModel(load(), slo)
        model.compiled_traces
        compile_seconds = time.perf_counter() - start
        with model:
            return model.evaluate_many(batch), compile_seconds

    (obj_reports, obj_compile), obj_peak = _traced_peak(
        lambda: replay(db.traces)
    )
    (col_reports, col_compile), col_peak = _traced_peak(
        lambda: replay(db.compiled_traces)
    )
    report = {
        "rows": db.store.rows_total,
        "segments": db.store.flush_count,
        "bytes_written": db.store.bytes_written,
        "rows_per_second": db.store.rows_total / ingest_seconds,
        "compile_speedup": obj_compile / col_compile,
        "peak_mem_ratio": col_peak / obj_peak,
        "equivalent": obj_reports == col_reports,
    }
    print("\n" + " ".join(f"{k}={v}" for k, v in report.items()))
    return report


def test_columnar_replay_equivalent(trace_report):
    assert trace_report["equivalent"]


def test_columnar_peaks_lower_than_object_path(trace_report):
    assert trace_report["peak_mem_ratio"] < 1.0


def test_compile_from_columns_not_slower(trace_report):
    # Generous bound: from_columns skips entry materialization entirely,
    # so even on a loaded host it should never lose to the object path.
    assert trace_report["compile_speedup"] >= 1.0


def test_ingest_throughput(trace_report):
    # The append path is pure python + numpy copies; tens of thousands of
    # rows/s is the conservative floor on any host.
    assert trace_report["rows_per_second"] > 5_000
    assert trace_report["segments"] >= 1
    assert trace_report["bytes_written"] > 0
