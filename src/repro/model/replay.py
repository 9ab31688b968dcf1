"""The fast far memory model: offline what-if replay (paper §5.3).

Given recorded per-job traces (working set size, promotion histogram, and
cold-age histogram per 5-minute period) and a candidate parameter
configuration ``(K, S)``, the model re-runs the §4.3 control algorithm over
each trace and estimates, interval by interval, what the fleet would have
done under that configuration:

* the **size of cold memory captured** — pages whose age exceeded the
  replayed threshold (the memory that would have been in far memory), and
* the **promotion rate** — accesses that would have hit far memory,
  normalized by the working set.

The report's two headline numbers mirror the autotuner's problem
formulation: total cold memory captured (the objective) and the fleet-wide
98th-percentile normalized promotion rate (the constraint).

The paper runs this model as a FlumeJava/MapReduce pipeline because replay
of different jobs is independent.  Here that independence is exploited as
data parallelism inside one in-process array pass over the whole fleet; a
process pool measured slower than that pass at every fleet size tried
(``docs/performance.md``).  Three optimizations multiply on this path:

1. **One fleet-wide array pass** — the compiled traces
   (:class:`repro.model.trace.CompiledTrace`) are concatenated once into a
   fleet tensor with per-job offsets, and each configuration is replayed
   over the whole tensor in about twenty array operations.  A naive
   interval-by-interval reference loop under ``tests/`` is the semantic
   oracle; both produce bit-identical reports.
2. **A rolling-count K-th percentile** — a best threshold only ever takes
   one of ``len(bins) + 1`` values (the grid or DISABLED), so the history
   pool of every interval is a row of value counts, read off a cumulative
   one-hot count of the fleet.  The percentile follows from those counts
   (:func:`repro.core.threshold_policy.percentile_from_counts`) with no
   sort and no per-job ``np.percentile`` call.
3. **Config-independent passes once per model** — the per-interval best
   thresholds and the window counts of each distinct ``history_length``
   are computed once per model and cached with the fleet tensor, so
   successive autotuner batches pay only the per-config passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import MINUTE
from repro.core.slo import PromotionRateSlo
from repro.core.threshold_policy import (
    DISABLED,
    ThresholdPolicyConfig,
    best_thresholds_vectorized,
    replay_thresholds_vectorized,
)
from repro.model.trace import CompiledTrace, JobTrace
from repro.obs import MetricName, get_registry, get_tracer, Stopwatch

__all__ = [
    "JobReplayResult",
    "FleetReplayReport",
    "FarMemoryModel",
]


def _no_intervals() -> np.ndarray:
    return np.zeros(0)


@dataclass(eq=False)
class JobReplayResult:
    """Replay outcome for one job under one configuration.

    The per-interval fields are float64 arrays — on the fast path, slices
    of the batch's fleet-wide arrays.  Equality compares every field with
    ``np.array_equal``.

    Attributes:
        job_id: the replayed job.
        cold_pages_captured: per-interval pages the replayed threshold
            would have put in far memory.
        normalized_rates: per-interval promotion rate, % of WSS per minute.
        thresholds: per-interval threshold the policy chose (inf=disabled).
        intervals: number of trace intervals replayed.
    """

    job_id: str
    cold_pages_captured: np.ndarray = field(default_factory=_no_intervals)
    normalized_rates: np.ndarray = field(default_factory=_no_intervals)
    thresholds: np.ndarray = field(default_factory=_no_intervals)

    @property
    def intervals(self) -> int:
        return int(self.thresholds.size)

    @property
    def mean_cold_pages(self) -> float:
        """Average far-memory size this job would have sustained."""
        if not self.cold_pages_captured.size:
            return 0.0
        return float(np.mean(self.cold_pages_captured))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobReplayResult):
            return NotImplemented
        return self.job_id == other.job_id and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("cold_pages_captured", "normalized_rates",
                         "thresholds")
        )


@dataclass
class FleetReplayReport:
    """Fleet aggregation of per-job replay results.

    Attributes:
        config: the configuration replayed.
        total_cold_pages: mean-over-time, summed-over-jobs far memory size
            (the autotuner's objective).
        promotion_rate_p98: fleet-wide 98th percentile of per-job,
            per-interval normalized promotion rates (the constraint).
        slo_target: the SLO the constraint is checked against.
        job_results: per-job detail.
    """

    config: ThresholdPolicyConfig
    total_cold_pages: float
    promotion_rate_p98: float
    slo_target: float
    job_results: List[JobReplayResult]

    @property
    def meets_slo(self) -> bool:
        """True when the replayed p98 promotion rate is within the SLO."""
        return self.promotion_rate_p98 <= self.slo_target


class _TraceGroup:
    """Compiled traces sharing one grid and interval, concatenated.

    Everything that does not depend on ``(K, S)`` is computed once here:
    the per-interval best thresholds, each interval's position in its
    job, and a cumulative one-hot count of the best thresholds over the
    concatenation, from which the history pool of any interval under any
    ``history_length`` is one subtraction.
    """

    def __init__(self, traces: Sequence[CompiledTrace], slo: PromotionRateSlo):
        bins = traces[0].bins
        assert bins is not None
        self.bins = bins
        self.interval_seconds = traces[0].interval_seconds
        lengths = [trace.intervals for trace in traces]
        #: ``offsets[j]:offsets[j + 1]`` are job ``j``'s intervals.
        self.offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        n = int(self.offsets[-1])
        self._cold = np.concatenate([t.cold_suffix_sums for t in traces])
        self._promo = np.concatenate([t.promotion_suffix_sums for t in traces])
        wss = np.concatenate([t.working_set_pages for t in traces])
        self._wss = wss.astype(float)
        best = best_thresholds_vectorized(
            self._promo[:, :-1], wss, bins, slo, self.interval_seconds
        )
        self._grid = np.asarray(bins.thresholds, dtype=float)
        self._job_start = np.repeat(self.offsets[:-1], lengths)
        self._elapsed = (np.arange(n) - self._job_start) * int(
            self.interval_seconds
        )
        # Only read where the job has history, so the value carried over
        # from the previous job at each job start is never used.
        self._last_best = np.concatenate([[DISABLED], best[:-1]])
        # ``_seen[g, v]``: intervals before ``g`` whose best threshold is
        # value ``v`` of grid + (DISABLED,).
        onehot = np.zeros((n + 1, len(self._grid) + 1), dtype=np.int64)
        onehot[np.arange(1, n + 1), np.searchsorted(self._grid, best)] = 1
        self._seen = np.cumsum(onehot, axis=0)
        self._row_base = np.arange(n) * (len(self._grid) + 1)
        self._pool_ranks: Dict[int, np.ndarray] = {}

    def pool_ranks(self, history_length: int) -> np.ndarray:
        """Each interval's history pool as cumulative value counts."""
        ranks = self._pool_ranks.get(history_length)
        if ranks is None:
            index = np.arange(self._elapsed.size)
            oldest = np.maximum(self._job_start, index - history_length)
            ranks = np.cumsum(self._seen[:-1] - self._seen[oldest], axis=1)
            self._pool_ranks[history_length] = ranks
        return ranks

    def replay(
        self, config: ThresholdPolicyConfig
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(thresholds, cold pages captured, normalized rates)`` of
        every interval of the group under ``config``."""
        thresholds = replay_thresholds_vectorized(
            config, self.bins, self._elapsed, self._last_best,
            self.pool_ranks(config.history_length),
        )
        # ``colder_than`` on both suffix-sum matrices; DISABLED indexes
        # the trailing zero column.
        cell = self._row_base + np.searchsorted(self._grid, thresholds)
        captured = self._cold.ravel()[cell].astype(float)
        per_min = self._promo.ravel()[cell] * (MINUTE / self.interval_seconds)
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(
                self._wss > 0.0,
                (100.0 * per_min) / self._wss,
                np.where(per_min <= 0.0, 0.0, np.inf),
            )
        return thresholds, captured, rates


class _FleetShard:
    """The compiled traces of a fleet, replayed in one array pass per
    group of traces that share a grid and an interval length."""

    def __init__(self, traces: Sequence[CompiledTrace], slo: PromotionRateSlo):
        self.job_ids = [trace.job_id for trace in traces]
        members: Dict[Tuple[Tuple[int, ...], int], List[int]] = {}
        for index, trace in enumerate(traces):
            if trace.intervals and trace.bins is not None:
                key = (trace.bins.thresholds, trace.interval_seconds)
                members.setdefault(key, []).append(index)
        self.groups: List[_TraceGroup] = []
        #: Per job: (group, start, stop) in that group, or None if empty.
        self.slots: List[Optional[Tuple[int, int, int]]] = [None] * len(traces)
        for indices in members.values():
            group = _TraceGroup([traces[i] for i in indices], slo)
            bounds = group.offsets.tolist()
            for i, start, stop in zip(indices, bounds[:-1], bounds[1:]):
                self.slots[i] = (len(self.groups), start, stop)
            self.groups.append(group)

    def replay(
        self, configs: Sequence[ThresholdPolicyConfig]
    ) -> List[List[JobReplayResult]]:
        """Per config, the results of every job in fleet order."""
        out = []
        for config in configs:
            arrays = [group.replay(config) for group in self.groups]
            results = []
            for job_id, slot in zip(self.job_ids, self.slots):
                if slot is None:
                    results.append(JobReplayResult(job_id=job_id))
                    continue
                g, start, stop = slot
                thresholds, captured, rates = arrays[g]
                results.append(
                    JobReplayResult(
                        job_id=job_id,
                        cold_pages_captured=captured[start:stop],
                        normalized_rates=rates[start:stop],
                        thresholds=thresholds[start:stop],
                    )
                )
            out.append(results)
        return out


class FarMemoryModel:
    """Replays fleet traces under candidate configurations.

    Traces compile lazily on first evaluation and are then concatenated,
    once, into one fleet tensor that caches the configuration-independent
    passes; every evaluation replays that tensor in-process.  :meth:`close`
    (or leaving the model's ``with`` block) drops the cached tensors.

    Args:
        traces: per-job traces (e.g. ``trace_db.traces()``), or
            already-compiled :class:`CompiledTrace` tensors (e.g. a
            columnar store's ``compiled_traces()``) — the latter skip
            object materialization entirely.
        slo: the promotion-rate SLO used both inside the policy and as the
            fleet constraint.
        registry: metrics registry (defaults to the process registry).
        tracer: span tracer (defaults to the process tracer).
    """

    def __init__(
        self,
        traces: Sequence[Union[JobTrace, CompiledTrace]],
        slo: Optional[PromotionRateSlo] = None,
        registry=None,
        tracer=None,
    ):
        items = list(traces)
        precompiled = [t for t in items if isinstance(t, CompiledTrace)]
        if precompiled and len(precompiled) != len(items):
            raise ConfigurationError(
                "traces must be all JobTrace or all CompiledTrace, not a mix"
            )
        self.traces = [] if precompiled else items
        self.slo = slo if slo is not None else PromotionRateSlo()
        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._m_configs = registry.counter(
            MetricName.MODEL_CONFIGS_EVALUATED_TOTAL,
            "Candidate configurations evaluated by the fast model.",
        )
        self._m_seconds = registry.histogram(
            MetricName.MODEL_EVALUATION_SECONDS,
            "Wall seconds per evaluate_many batch.",
        )
        self._m_compiled = registry.counter(
            MetricName.MODEL_TRACES_COMPILED_TOTAL,
            "Job traces compiled into replay tensors.",
        )
        self._compiled: Optional[List[CompiledTrace]] = (
            precompiled if precompiled else None
        )
        self._fleet: Optional[_FleetShard] = None

    @property
    def compiled_traces(self) -> List[CompiledTrace]:
        """The traces as replay tensors (compiled once, cached)."""
        if self._compiled is None:
            with self._tracer.span("model.compile"):
                self._compiled = [trace.compile() for trace in self.traces]
            self._m_compiled.inc(len(self._compiled))
        return self._compiled

    def close(self) -> None:
        """Drop the cached fleet tensor; the next evaluation rebuilds it."""
        self._fleet = None

    def __enter__(self) -> "FarMemoryModel":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def evaluate(self, config: ThresholdPolicyConfig) -> FleetReplayReport:
        """What-if analysis of one configuration over the whole fleet."""
        return self.evaluate_many([config])[0]

    def evaluate_many(
        self, configs: Sequence[ThresholdPolicyConfig]
    ) -> List[FleetReplayReport]:
        """Evaluate a batch of configurations, one fleet-wide array pass
        per configuration.  Reports come back in ``configs`` order."""
        configs = list(configs)
        if not configs:
            return []
        if self._fleet is None:
            self._fleet = _FleetShard(self.compiled_traces, self.slo)
        with self._tracer.span("model.evaluate_many", batch=len(configs)):
            with Stopwatch() as watch:
                per_config = self._fleet.replay(configs)
        self._m_configs.inc(len(configs))
        self._m_seconds.observe(watch.seconds)
        return [
            _reduce_fleet(results, config=config, slo=self.slo)
            for results, config in zip(per_config, configs)
        ]


def _reduce_fleet(
    results: List[JobReplayResult],
    config: ThresholdPolicyConfig,
    slo: PromotionRateSlo,
) -> FleetReplayReport:
    """Combine per-job replays into the fleet report."""
    total_cold = sum(r.mean_cold_pages for r in results)
    rates = np.concatenate(
        [r.normalized_rates for r in results] or [np.zeros(0)]
    )
    finite = rates[np.isfinite(rates)]
    p98 = float(np.percentile(finite, 98.0)) if finite.size else 0.0
    return FleetReplayReport(
        config=config,
        total_cold_pages=total_cold,
        promotion_rate_p98=p98,
        slo_target=slo.target_pct_per_min,
        job_results=results,
    )
