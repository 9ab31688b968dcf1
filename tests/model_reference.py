"""A deliberately naive reference model for the fast far memory model.

:func:`replay_one_job` walks one job's trace interval by interval through
the online :class:`ColdAgeThresholdPolicy`, exactly as a node agent
would have run it.  :class:`repro.model.replay.FarMemoryModel` replays the
whole fleet in one array pass instead; the equivalence tests hold the two
bit for bit, and the slow speed gate times them against each other.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.common.units import MINUTE
from repro.core.slo import PromotionRateSlo, normalized_promotion_rate
from repro.core.threshold_policy import (
    ColdAgeThresholdPolicy,
    ThresholdPolicyConfig,
)
from repro.model.replay import FleetReplayReport, JobReplayResult, _reduce_fleet
from repro.model.trace import TRACE_PERIOD_SECONDS, JobTrace

__all__ = ["replay_one_job", "reference_evaluate"]


def replay_one_job(
    trace: JobTrace,
    config: ThresholdPolicyConfig,
    slo: PromotionRateSlo,
    interval_seconds: int = TRACE_PERIOD_SECONDS,
) -> JobReplayResult:
    """Replay the control algorithm over one job's trace.

    For each interval the threshold chosen from history *before* observing
    the interval governs it — exactly the online ordering, where the agent
    publishes a threshold and the next minute runs under it.
    ``interval_seconds`` is the trace's aggregation period (downsampled
    traces have longer ones).
    """
    if not trace.entries:
        return JobReplayResult(job_id=trace.job_id)
    n = len(trace.entries)
    thresholds = np.empty(n)
    captured = np.empty(n)
    rates = np.empty(n)
    policy = ColdAgeThresholdPolicy(config, trace.entries[0].bins, slo)
    for t, entry in enumerate(trace.entries):
        threshold = policy.threshold()
        thresholds[t] = threshold
        if np.isfinite(threshold):
            cold = entry.cold_age_histogram.colder_than(threshold)
            promoted = entry.promotion_histogram.colder_than(threshold)
        else:
            cold = 0
            promoted = 0
        per_min = promoted * (MINUTE / interval_seconds)
        captured[t] = cold
        rates[t] = normalized_promotion_rate(per_min, entry.working_set_pages)
        policy.observe(
            entry.promotion_histogram,
            entry.working_set_pages,
            interval_seconds,
        )
    return JobReplayResult(
        job_id=trace.job_id,
        cold_pages_captured=captured,
        normalized_rates=rates,
        thresholds=thresholds,
    )


def reference_evaluate(
    traces: Sequence[JobTrace],
    config: ThresholdPolicyConfig,
    slo: PromotionRateSlo,
) -> FleetReplayReport:
    """The fleet report of ``config``, one job and one interval at a time."""
    results: List[JobReplayResult] = [
        replay_one_job(trace, config, slo) for trace in traces
    ]
    return _reduce_fleet(results, config=config, slo=slo)
