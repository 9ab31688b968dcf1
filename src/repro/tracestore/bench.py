"""The ``repro bench --trace`` harness behind ``BENCH_trace.json``.

Measures the columnar trace store end to end on a synthetic fleet:
ingest throughput (rows/s through ``append`` + segment sealing), segment
flush latency, and — the headline — replaying the same what-if batch two
ways from the same on-disk store:

* the **object path**: materialize every ``TraceEntry``, build
  ``JobTrace`` objects, compile, evaluate (what the in-memory database
  forces);
* the **columnar path**: ``CompiledTrace.from_columns`` straight from the
  on-disk columns, evaluate (no entry objects at all).

Both paths must produce bit-identical fleet reports (``equivalent``),
and the report carries the compile speedup and the peak-memory ratio
(columnar / object, tracemalloc peaks) — the number that shows a
simulated week of a large fleet fits where the object path would not.
"""

from __future__ import annotations

import gc
import json
import tempfile
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.common.validation import check_positive
from repro.core.histograms import AgeHistogram, default_age_bins
from repro.core.slo import PromotionRateSlo
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.model.replay import FarMemoryModel
from repro.model.trace import (
    TRACE_PERIOD_SECONDS,
    JobTrace,
    TelemetryBlock,
    TraceEntry,
)
from repro.obs import Stopwatch
from repro.tracestore.database import ColumnarTraceDatabase

__all__ = ["run_trace_bench", "synthetic_fleet_traces", "bench_configs"]


def synthetic_fleet_traces(
    jobs: int, intervals: int, seed: int
) -> List[JobTrace]:
    """A deterministic synthetic fleet of per-job traces.

    Jobs get lognormal-ish working sets and promotion/cold histograms
    whose mass drifts over time, so the replayed thresholds actually move
    (a constant trace would let the rolling percentile degenerate and
    understate what a replay costs).
    """
    check_positive(jobs, "jobs")
    check_positive(intervals, "intervals")
    rng = np.random.default_rng(seed)
    bins = default_age_bins()
    traces = []
    for j in range(jobs):
        trace = JobTrace(f"bench-job-{j}")
        base_wss = int(rng.integers(2_000, 200_000))
        for t in range(intervals):
            promo = AgeHistogram(bins)
            cold = AgeHistogram(bins)
            drift = 1.0 + 0.5 * np.sin(2.0 * np.pi * t / max(intervals, 1))
            promo.add_binned(
                rng.integers(0, max(2, int(base_wss * 0.002 * drift)),
                             size=len(bins))
            )
            cold.add_binned(
                rng.integers(0, max(2, int(base_wss * 0.05)), size=len(bins))
            )
            wss = max(0, int(base_wss * drift + rng.integers(-500, 500)))
            trace.append(
                TraceEntry(
                    job_id=trace.job_id,
                    machine_id=f"bench-m{j % 16}",
                    time=t * TRACE_PERIOD_SECONDS,
                    working_set_pages=wss,
                    promotion_histogram=promo,
                    cold_age_histogram=cold,
                    resident_pages=wss + int(rng.integers(0, base_wss)),
                )
            )
        traces.append(trace)
    return traces


def bench_configs(count: int) -> List[ThresholdPolicyConfig]:
    """A deterministic batch of candidate configurations spanning the
    autotuner's search dimensions (K, S, history, spike reaction)."""
    check_positive(count, "count")
    ks = (90.0, 95.0, 98.0, 99.0)
    warmups = (600, 1800)
    histories = (60, 120)
    configs = []
    index = 0
    while len(configs) < count:
        configs.append(
            ThresholdPolicyConfig(
                percentile_k=ks[index % len(ks)],
                warmup_seconds=warmups[(index // len(ks)) % len(warmups)],
                history_length=histories[(index // 8) % len(histories)],
                spike_reaction=(index % 5) != 4,
            )
        )
        index += 1
    return configs


def _peak_bytes_during(fn):
    """Run ``fn`` under tracemalloc; returns (result, peak_bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def run_trace_bench(
    jobs: int = 24,
    intervals: int = 288,
    configs: int = 4,
    buffer_rows: int = 2048,
    seed: int = 17,
    root: Optional[Union[str, Path]] = None,
    output: Optional[Union[str, Path]] = None,
) -> Dict:
    """Benchmark the columnar store against the object path.

    Args:
        jobs: synthetic fleet size (one trace per job).
        intervals: 5-minute periods per trace (288 = one day).
        configs: candidate configurations in the what-if batch.
        buffer_rows: store write-buffer size; the default seals several
            segments at the default workload shape so flush latency is
            actually exercised.
        seed: trace-generation seed.
        root: store directory (default: a temporary directory, removed
            afterwards).
        output: when given, the report is also written there as JSON
            (conventionally ``BENCH_trace.json``).

    Returns:
        The report dict; ``equivalent`` is True iff both replay paths
        returned bit-identical fleet reports, and ``peak_mem_ratio``
        below 1.0 means the columnar path peaked lower.
    """
    check_positive(jobs, "jobs")
    check_positive(intervals, "intervals")
    check_positive(configs, "configs")
    tmpdir: Optional[tempfile.TemporaryDirectory] = None
    if root is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-tracebench-")
        root = Path(tmpdir.name) / "store"
    try:
        traces = synthetic_fleet_traces(jobs, intervals, seed)
        batch = bench_configs(configs)
        slo = PromotionRateSlo()

        # Ingest: every entry through the TraceSink surface.
        db = ColumnarTraceDatabase(root, buffer_rows=buffer_rows)
        with Stopwatch() as ingest_watch:
            for trace in traces:
                for entry in trace.entries:
                    db.add(entry)
            db.flush()
        store = db.store
        rows = store.rows_total

        # Object path: disk -> TraceEntry objects -> JobTrace -> compile.
        def _object_path():
            with Stopwatch() as compile_watch:
                materialized = db.traces()
                model = FarMemoryModel(materialized, slo)
                model.compiled_traces
            with model, Stopwatch() as eval_watch:
                reports = model.evaluate_many(batch)
            return reports, compile_watch.seconds, eval_watch.seconds

        (obj_reports, obj_compile, obj_eval), obj_peak = _peak_bytes_during(
            _object_path
        )

        # Columnar path: disk -> CompiledTrace.from_columns -> evaluate.
        def _columnar_path():
            with Stopwatch() as compile_watch:
                compiled = db.compiled_traces()
                model = FarMemoryModel(compiled, slo)
            with model, Stopwatch() as eval_watch:
                reports = model.evaluate_many(batch)
            return reports, compile_watch.seconds, eval_watch.seconds

        (col_reports, col_compile, col_eval), col_peak = _peak_bytes_during(
            _columnar_path
        )

        # Zero-copy ingest: the same rows regrouped into per-window
        # export batches (what the telemetry exporter ships), ingested
        # three ways — one TraceEntry at a time (``add``, the pre-block
        # baseline), as entry batches (``add_batch``, the bit-equivalence
        # oracle), and as prebuilt ``TelemetryBlock`` columns
        # (``add_block``).  Blocks are built outside the timed region: in
        # production they come straight from kernel pool gathers, never
        # from entries, so the timer isolates exactly the sink-side hop
        # the zero-copy path removes.  Batch and block share one delivery
        # granularity, so those two stores must come out byte-identical,
        # manifest included (the per-entry store seals at per-row
        # boundaries, so only its contents — not its segment cuts — line
        # up).  Timing runs without tracemalloc; peaks come from
        # separate untimed passes so allocator tracking never skews the
        # rows/s comparison.
        by_time: Dict[int, list] = {}
        for trace in traces:
            for entry in trace.entries:
                by_time.setdefault(entry.time, []).append(entry)
        windows = [by_time[t] for t in sorted(by_time)]
        blocks = [TelemetryBlock.from_entries(w) for w in windows]
        flat_entries = [entry for window in windows for entry in window]
        zc_dir = Path(tempfile.mkdtemp(prefix="repro-zerocopy-bench-"))

        def _entry_ingest(where):
            db_zc = ColumnarTraceDatabase(
                zc_dir / where, buffer_rows=buffer_rows
            )
            with Stopwatch() as watch:
                for entry in flat_entries:
                    db_zc.add(entry)
                db_zc.flush()
            return watch.seconds

        def _batch_ingest(where):
            db_zc = ColumnarTraceDatabase(
                zc_dir / where, buffer_rows=buffer_rows
            )
            with Stopwatch() as watch:
                for window in windows:
                    db_zc.add_batch(window)
                db_zc.flush()
            return watch.seconds

        def _block_ingest(where):
            db_zc = ColumnarTraceDatabase(
                zc_dir / where, buffer_rows=buffer_rows
            )
            with Stopwatch() as watch:
                for block in blocks:
                    db_zc.add_block(block)
                db_zc.flush()
            return watch.seconds

        try:
            # Interleaved mean-of-five per path, collector paused:
            # single-shot walls at this scale swing by tens of percent
            # with CPU frequency modes and GC pauses, enough to smear a
            # ~3x ratio either way.  Interleaving exposes every path to
            # the same mode mixture and the mean (unlike min, which can
            # hand one path a lucky fast-mode rep) keeps the ratio
            # stable.
            walls: Dict[str, list] = {"entry": [], "batch": [], "block": []}
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                for rep in range(5):
                    walls["entry"].append(_entry_ingest(f"entry-{rep}"))
                    walls["batch"].append(_batch_ingest(f"batch-{rep}"))
                    walls["block"].append(_block_ingest(f"block-{rep}"))
            finally:
                if gc_was_enabled:
                    gc.enable()
            entry_wall = sum(walls["entry"]) / len(walls["entry"])
            batch_wall = sum(walls["batch"]) / len(walls["batch"])
            block_wall = sum(walls["block"]) / len(walls["block"])
            _, entry_peak = _peak_bytes_during(
                lambda: _entry_ingest("entry-mem")
            )
            _, block_peak = _peak_bytes_during(
                lambda: _block_ingest("block-mem")
            )
            batch_files = sorted(
                p.name for p in (zc_dir / "batch-0").iterdir()
            )
            block_files = sorted(
                p.name for p in (zc_dir / "block-0").iterdir()
            )
            ingest_identical = batch_files == block_files and all(
                (zc_dir / "batch-0" / name).read_bytes()
                == (zc_dir / "block-0" / name).read_bytes()
                for name in batch_files
            )
        finally:
            import shutil

            shutil.rmtree(zc_dir, ignore_errors=True)

        def _rate(wall):
            return round(rows / wall, 1) if wall > 0 else 0.0

        zero_copy = {
            "windows": len(windows),
            "entry_path": {
                "wall_seconds": round(entry_wall, 4),
                "rows_per_second": _rate(entry_wall),
                "peak_bytes": entry_peak,
            },
            "batch_path": {
                "wall_seconds": round(batch_wall, 4),
                "rows_per_second": _rate(batch_wall),
            },
            "block_path": {
                "wall_seconds": round(block_wall, 4),
                "rows_per_second": _rate(block_wall),
                "peak_bytes": block_peak,
            },
            "speedup": (
                round(entry_wall / block_wall, 2) if block_wall > 0 else None
            ),
            "speedup_vs_batch": (
                round(batch_wall / block_wall, 2) if block_wall > 0 else None
            ),
            "peak_mem_ratio": (
                round(block_peak / entry_peak, 3) if entry_peak > 0 else None
            ),
            "stores_byte_identical": ingest_identical,
        }

        equivalent = obj_reports == col_reports and ingest_identical
        report = {
            "workload": {
                "jobs": jobs,
                "intervals": intervals,
                "configs": configs,
                "buffer_rows": buffer_rows,
                "seed": seed,
            },
            "ingest": {
                "rows": rows,
                "wall_seconds": round(ingest_watch.seconds, 4),
                "rows_per_second": (
                    round(rows / ingest_watch.seconds, 1)
                    if ingest_watch.seconds > 0
                    else 0.0
                ),
                "zero_copy": zero_copy,
            },
            "flush": {
                "segments": store.flush_count,
                "bytes_written": store.bytes_written,
                "mean_seconds": (
                    round(store.flush_seconds_total / store.flush_count, 5)
                    if store.flush_count
                    else 0.0
                ),
                "last_seconds": round(store.last_flush_seconds, 5),
            },
            "object_path": {
                "compile_wall_seconds": round(obj_compile, 4),
                "evaluate_wall_seconds": round(obj_eval, 4),
                "peak_bytes": obj_peak,
            },
            "columnar_path": {
                "compile_wall_seconds": round(col_compile, 4),
                "evaluate_wall_seconds": round(col_eval, 4),
                "peak_bytes": col_peak,
            },
            "compile_speedup": (
                round(obj_compile / col_compile, 2) if col_compile > 0 else None
            ),
            "peak_mem_ratio": (
                round(col_peak / obj_peak, 3) if obj_peak > 0 else None
            ),
            "equivalent": equivalent,
        }
        if output is not None:
            Path(output).write_text(
                json.dumps(report, indent=2) + "\n", encoding="utf-8"
            )
        return report
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()
