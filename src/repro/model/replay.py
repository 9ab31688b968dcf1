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

Replay of different jobs is independent, so the model runs as a MapReduce
pipeline (:mod:`repro.model.mapreduce`) whose map tasks each replay a
contiguous shard of the fleet.  Three optimizations multiply on this path:

1. **One fleet-wide array pass** — the compiled traces
   (:class:`repro.model.trace.CompiledTrace`) of a shard are concatenated
   once into a fleet tensor with per-job offsets, and each configuration
   is replayed over the whole tensor in about twenty array operations.
   The scalar interval-by-interval loop (:func:`_replay_one_job`) stays as
   the semantic oracle; both produce bit-identical reports.
2. **A rolling-count K-th percentile** — a best threshold only ever takes
   one of ``len(bins) + 1`` values (the grid or DISABLED), so the history
   pool of every interval is a row of value counts, read off a cumulative
   one-hot count of the fleet.  The percentile follows from those counts
   (:func:`repro.core.threshold_policy.percentile_from_counts`) with no
   sort and no per-job ``np.percentile`` call.
3. **Config-independent passes once per model** — the per-interval best
   thresholds and the window counts of each distinct ``history_length``
   are computed once per model and cached with the fleet tensor; the
   persistent pool's initializer ships the tensors to each worker once,
   so successive autotuner batches pay only the per-config passes.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import MINUTE
from repro.core.slo import PromotionRateSlo, normalized_promotion_rate
from repro.core.threshold_policy import (
    DISABLED,
    ColdAgeThresholdPolicy,
    ThresholdPolicyConfig,
    best_thresholds_vectorized,
    replay_thresholds_vectorized,
)
from repro.model.mapreduce import MapReduce
from repro.model.trace import TRACE_PERIOD_SECONDS, CompiledTrace, JobTrace
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


def _replay_one_job(
    trace: JobTrace,
    config: ThresholdPolicyConfig,
    slo: PromotionRateSlo,
    interval_seconds: int = TRACE_PERIOD_SECONDS,
) -> JobReplayResult:
    """Replay the control algorithm over one job's trace (scalar oracle).

    For each interval the threshold chosen from history *before* observing
    the interval governs it — exactly the online ordering, where the agent
    publishes a threshold and the next minute runs under it.  This is the
    reference implementation the fleet-wide replay is proven against.
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
    """A contiguous run of compiled traces, replayed in one array pass
    per group of traces that share a grid and an interval length."""

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
        """Per config, the results of every job of the shard in order."""
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


# ----------------------------------------------------------------------
# Worker-side state for the persistent pool
# ----------------------------------------------------------------------
#
# The pool initializer runs once per worker process and parks the model's
# replay payload (fleet shards — or raw trace shards for the scalar
# oracle) in this module-global dict, keyed by a per-model token so
# several models sharing one process (workers=1 runs in-process) never
# clobber each other.  Map tasks then carry only ``(shard_index, configs)``.
# A model pops its token when closed or garbage-collected.

_ReplayPayload = Union[List[_FleetShard], List[List[JobTrace]]]
_WORKER_STATE: Dict[str, Tuple[_ReplayPayload, PromotionRateSlo]] = {}
_MODEL_TOKENS = itertools.count()


def _init_model_worker(
    token: str, payload: _ReplayPayload, slo: PromotionRateSlo
) -> None:
    """Pool initializer: receive the replay payload once per worker."""
    _WORKER_STATE[token] = (payload, slo)


def _replay_shard_task(
    task: Tuple[int, List[ThresholdPolicyConfig]],
    token: str,
    vectorized: bool,
) -> List[List[JobReplayResult]]:
    """One map task: replay the whole config batch against one shard."""
    index, configs = task
    payload, slo = _WORKER_STATE[token]
    shard = payload[index]
    if vectorized:
        return shard.replay(configs)
    return [[_replay_one_job(trace, config, slo) for trace in shard]
            for config in configs]


def _collect(
    mapped: List[List[List[JobReplayResult]]],
) -> List[List[List[JobReplayResult]]]:
    """Identity reducer: the fleet reduction is per-config, done by the model."""
    return mapped


def _shard_bounds(n: int, shards: int) -> List[Tuple[int, int]]:
    """``shards`` contiguous, near-equal index ranges covering ``range(n)``."""
    cuts = [n * i // shards for i in range(shards + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


class FarMemoryModel:
    """Replays fleet traces under candidate configurations.

    Traces compile lazily on first evaluation and are then split into
    ``workers`` contiguous shards, each concatenated once into a fleet
    tensor that caches the configuration-independent passes.  The
    MapReduce pool (when ``workers > 1``) starts lazily, persists across
    evaluations, and ships the shards to each worker once via the pool
    initializer.  Call :meth:`close` (or use the model as a context
    manager) to tear the pool down.

    Args:
        traces: per-job traces (e.g. ``trace_db.traces()``), or
            already-compiled :class:`CompiledTrace` tensors (e.g. a
            columnar store's ``compiled_traces()``) — the latter skip
            object materialization entirely but require the vectorized
            replay path.
        slo: the promotion-rate SLO used both inside the policy and as the
            fleet constraint.
        workers: MapReduce worker processes (1 = in-process).
        vectorized: replay compiled tensors (default) or drive the scalar
            policy loop per interval (the reference oracle — identical
            results, orders of magnitude slower).
        registry: metrics registry (defaults to the process registry).
        tracer: span tracer (defaults to the process tracer).
    """

    def __init__(
        self,
        traces: Sequence[Union[JobTrace, CompiledTrace]],
        slo: Optional[PromotionRateSlo] = None,
        workers: int = 1,
        vectorized: bool = True,
        registry=None,
        tracer=None,
    ):
        items = list(traces)
        precompiled = [t for t in items if isinstance(t, CompiledTrace)]
        if precompiled and len(precompiled) != len(items):
            raise ConfigurationError(
                "traces must be all JobTrace or all CompiledTrace, not a mix"
            )
        if precompiled and not vectorized:
            raise ConfigurationError(
                "pre-compiled traces have no entries to drive the scalar "
                "oracle; use vectorized=True"
            )
        self.traces = [] if precompiled else items
        self.slo = slo if slo is not None else PromotionRateSlo()
        self.workers = workers
        self.vectorized = vectorized
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
        self._shards: Optional[_ReplayPayload] = None
        self._pipeline: Optional[MapReduce] = None
        self._token: Optional[str] = None
        self._release: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    # Lazy compilation & pool lifecycle
    # ------------------------------------------------------------------

    @property
    def compiled_traces(self) -> List[CompiledTrace]:
        """The traces as replay tensors (compiled once, cached)."""
        if self._compiled is None:
            with self._tracer.span("model.compile"):
                self._compiled = [trace.compile() for trace in self.traces]
            self._m_compiled.inc(len(self._compiled))
        return self._compiled

    def _shard_payload(self) -> _ReplayPayload:
        """The fleet split into map-task shards (built once, cached)."""
        if self._shards is None:
            units = self.compiled_traces if self.vectorized else self.traces
            bounds = _shard_bounds(len(units), max(1, min(self.workers, len(units))))
            if self.vectorized:
                self._shards = [
                    _FleetShard(units[lo:hi], self.slo) for lo, hi in bounds
                ]
            else:
                self._shards = [units[lo:hi] for lo, hi in bounds]
        return self._shards

    def _ensure_pipeline(self) -> MapReduce:
        if self._pipeline is None:
            payload = self._shard_payload()
            token = f"model-{next(_MODEL_TOKENS)}"
            # A model dropped without close() must not leave its payload
            # in the module-global worker state for the process lifetime.
            self._release = weakref.finalize(
                self, _WORKER_STATE.pop, token, None
            )
            self._token = token
            self._pipeline = MapReduce(
                mapper=functools.partial(
                    _replay_shard_task,
                    token=token,
                    vectorized=self.vectorized,
                ),
                reducer=_collect,
                workers=self.workers,
                initializer=_init_model_worker,
                initargs=(token, payload, self.slo),
            )
        return self._pipeline

    def close(self) -> None:
        """Shut the worker pool down and drop in-process worker state."""
        if self._pipeline is not None:
            self._pipeline.close()
            self._pipeline = None
        if self._release is not None:
            self._release()
            self._release = None
        self._token = None

    def __enter__(self) -> "FarMemoryModel":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, config: ThresholdPolicyConfig) -> FleetReplayReport:
        """What-if analysis of one configuration over the whole fleet."""
        return self.evaluate_many([config])[0]

    def evaluate_many(
        self, configs: Sequence[ThresholdPolicyConfig]
    ) -> List[FleetReplayReport]:
        """Evaluate a batch of configurations in one MapReduce.

        Each map task replays the *entire* batch against one shard of the
        fleet, one array pass per configuration, so a batch costs one task
        per worker regardless of fleet and batch size.  Reports come back
        in ``configs`` order.
        """
        configs = list(configs)
        if not configs:
            return []
        pipeline = self._ensure_pipeline()
        assert self._shards is not None
        tasks = [(index, configs) for index in range(len(self._shards))]
        with self._tracer.span("model.evaluate_many", batch=len(configs)):
            with Stopwatch() as watch:
                per_shard = pipeline.run(tasks)
        self._m_configs.inc(len(configs))
        self._m_seconds.observe(watch.seconds)
        return [
            _reduce_fleet(
                [result for shard in per_shard for result in shard[j]],
                config=config,
                slo=self.slo,
            )
            for j, config in enumerate(configs)
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
