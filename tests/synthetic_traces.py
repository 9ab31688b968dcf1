"""Deterministic synthetic fleets of traces and configuration batches.

Shared by the trace-store and fast-model tests and by the throughput
benchmarks: one seeded generator, so equivalence tests and benchmarks
replay exactly the same inputs.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.validation import check_positive
from repro.core.histograms import AgeHistogram, default_age_bins
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.model.trace import TRACE_PERIOD_SECONDS, JobTrace, TraceEntry

__all__ = ["bench_configs", "synthetic_fleet_traces"]


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
