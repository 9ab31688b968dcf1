"""The ``repro bench --model`` harness behind ``BENCH_model.json``.

Times the same what-if evaluation three ways over a synthetic fleet of
traces — the seed behavior (scalar interval-by-interval replay, one model
call per config), the batched vectorized path (one ``evaluate_many`` over
compiled tensors, in-process), and the batched vectorized path through the
persistent worker pool — and reports configs/sec for each, the speedups
over the scalar baseline, and whether all three produced bit-identical
fleet reports.  ``docs/performance.md`` explains how to read the output.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.common.validation import check_positive
from repro.core.histograms import AgeHistogram, default_age_bins
from repro.core.slo import PromotionRateSlo
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.engine.parallel import default_worker_count
from repro.model.replay import FarMemoryModel, FleetReplayReport
from repro.model.trace import TRACE_PERIOD_SECONDS, JobTrace, TraceEntry

__all__ = ["run_model_bench", "synthetic_fleet_traces", "bench_configs"]


def synthetic_fleet_traces(
    jobs: int, intervals: int, seed: int
) -> List[JobTrace]:
    """A deterministic synthetic fleet of per-job traces.

    Jobs get lognormal-ish working sets and promotion/cold histograms
    whose mass drifts over time, so the replayed thresholds actually move
    (a constant trace would let the rolling percentile degenerate and
    understate the scalar path's cost).
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


def _reports_equal(
    a: List[FleetReplayReport], b: List[FleetReplayReport]
) -> bool:
    """Bit-identical fleet reports: the config, both headline numbers,
    and every job's thresholds, cold pages and normalized rates
    (``JobReplayResult`` compares its arrays with ``np.array_equal``)."""
    return a == b


def run_model_bench(
    jobs: int = 24,
    intervals: int = 288,
    configs: int = 8,
    workers: Optional[int] = None,
    seed: int = 17,
    output: Optional[Union[str, Path]] = None,
) -> Dict:
    """Run the scalar-vs-vectorized model throughput comparison.

    Args:
        jobs: synthetic fleet size (one trace per job).
        intervals: 5-minute periods per trace (288 = one day).
        configs: candidate configurations per batch.
        workers: pool size for the parallel mode (default: usable CPUs
            capped at 4; 1 skips the parallel mode).
        seed: trace-generation seed; all modes replay the same fleet,
            which is what makes the equivalence check meaningful.
        output: when given, the report is also written there as JSON
            (conventionally ``BENCH_model.json``).

    Returns:
        The report dict: workload shape, per-mode wall seconds and
        configs/sec, ``speedup_vectorized`` / ``speedup_parallel`` over
        the scalar baseline, the best ``configs_per_second`` headline, and
        ``equivalent`` (all modes returned bit-identical reports).
    """
    check_positive(configs, "configs")
    if workers is None:
        workers = min(4, default_worker_count())
    slo = PromotionRateSlo()
    traces = synthetic_fleet_traces(jobs, intervals, seed)
    batch = bench_configs(configs)

    # Seed behavior: scalar interval loop, one model call per config.
    scalar_model = FarMemoryModel(traces, slo, vectorized=False)
    start = time.perf_counter()
    scalar_reports = [scalar_model.evaluate(config) for config in batch]
    scalar_wall = time.perf_counter() - start

    # Batched vectorized, in-process.
    with FarMemoryModel(traces, slo) as vec_model:
        vec_model.compiled_traces  # compile outside the timed region
        start = time.perf_counter()
        vec_reports = vec_model.evaluate_many(batch)
        vec_wall = time.perf_counter() - start

    # Batched vectorized through the persistent pool (warmed: the first
    # call pays pool start-up and payload shipping, the timed call shows
    # the steady state an autotuning run sees).
    parallel_wall = None
    parallel_reports = vec_reports
    if workers > 1:
        with FarMemoryModel(traces, slo, workers=workers) as par_model:
            par_model.evaluate_many(batch[:1])
            start = time.perf_counter()
            parallel_reports = par_model.evaluate_many(batch)
            parallel_wall = time.perf_counter() - start

    equivalent = _reports_equal(scalar_reports, vec_reports) and (
        _reports_equal(vec_reports, parallel_reports)
    )

    def _mode(wall: float) -> Dict:
        return {
            "wall_seconds": round(wall, 4),
            "configs_per_second": round(configs / wall, 2) if wall > 0 else 0.0,
        }

    best_wall = min(w for w in (vec_wall, parallel_wall) if w is not None)
    report = {
        "model": {
            "jobs": jobs,
            "intervals": intervals,
            "configs": configs,
            "seed": seed,
        },
        "host_cpus": default_worker_count(),
        "scalar": _mode(scalar_wall),
        "vectorized": _mode(vec_wall),
        "parallel": (
            dict(_mode(parallel_wall), workers=workers)
            if parallel_wall is not None
            else None
        ),
        "speedup_vectorized": round(scalar_wall / vec_wall, 2),
        "speedup_parallel": (
            round(scalar_wall / parallel_wall, 2)
            if parallel_wall is not None
            else None
        ),
        "configs_per_second": round(configs / best_wall, 2),
        "equivalent": equivalent,
    }
    if output is not None:
        Path(output).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    return report
