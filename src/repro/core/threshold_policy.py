"""Cold-age threshold controller (paper §4.3).

Every control period (one minute) the node agent computes, from that
period's promotion histogram, the *best* threshold — the smallest candidate
cold-age threshold whose promotion rate would have stayed within the SLO.
The controller then chooses the threshold for the *next* minute as:

* the **K-th percentile** of the history of per-minute best thresholds
  (violating the SLO roughly ``100 - K`` % of the time at steady state), or
* the **last minute's best threshold, if higher** — the spike-reaction rule
  that makes the system back off immediately when a job suddenly touches
  a lot of previously-cold memory;
* and zswap is **disabled for the first S seconds** of a job's execution,
  because the history is too thin to act on.

The policy is deliberately pure (no clock, no kernel handles): it consumes
per-interval histograms and emits a threshold, which is what lets the fast
far memory model (§5.3) replay it offline over recorded traces.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence

import numpy as np

from repro.common.units import MINUTE
from repro.common.validation import check_in_range, check_non_negative, require
from repro.core.histograms import AgeBins, AgeHistogram
from repro.core.slo import PromotionRateSlo, promotions_per_minute

__all__ = [
    "ThresholdPolicyConfig",
    "ColdAgeThresholdPolicy",
    "ColdMemoryPolicy",
    "FixedThresholdPolicy",
    "PaperPolicy",
    "as_policy",
    "best_threshold",
    "best_thresholds_vectorized",
    "percentile_from_counts",
    "replay_thresholds_vectorized",
]

#: Sentinel meaning "compress nothing" (no finite threshold chosen).
DISABLED: float = float("inf")


def _sorted_percentile(values: Sequence[float], k: float) -> float:
    """``np.percentile(values, k)`` over an already-sorted sequence.

    The node agent evaluates one percentile per job per minute over a pool
    of at most ``history_length`` floats; ``np.percentile``'s dispatch
    overhead dominates at that size.  This reimplements numpy's default
    linear interpolation — including its ``gamma >= 0.5`` symmetric-lerp
    fixup — in plain Python, bit-identically (asserted over randomized
    inputs in the test suite).
    """
    n = len(values)
    virtual_index = (k / 100.0) * (n - 1)
    if virtual_index >= n - 1:
        return values[-1]
    lower = int(virtual_index)
    gamma = virtual_index - lower
    a = values[lower]
    b = values[lower + 1]
    if gamma >= 0.5:
        return b - (b - a) * (1.0 - gamma)
    return a + (b - a) * gamma


def best_threshold(
    promotion_histogram: AgeHistogram,
    working_set_size_pages: float,
    slo: PromotionRateSlo,
    interval_seconds: float = MINUTE,
) -> float:
    """Smallest candidate threshold meeting the SLO over one interval.

    Walks the candidate grid from most to least aggressive and returns the
    first threshold whose would-have-been promotion rate fits the budget.
    Returns :data:`DISABLED` when even the largest candidate violates the
    SLO (the job touched essentially all of its cold memory).
    """
    budget = slo.allowed_promotions_per_min(working_set_size_pages)
    scale = MINUTE / interval_seconds
    # The grid has ~10 candidates; plain-Python suffix sums beat the numpy
    # round trip at this size, and this runs once per job per minute.
    counts = promotion_histogram.counts.tolist()
    suffixes = [0] * len(counts)
    running = 0
    for i in range(len(counts) - 1, -1, -1):
        running += counts[i]
        suffixes[i] = running
    for threshold, events in zip(promotion_histogram.bins.thresholds, suffixes):
        if events * scale <= budget:
            return float(threshold)
    return DISABLED


@dataclass(frozen=True)
class ThresholdPolicyConfig:
    """Tunable parameters of the controller — the autotuner's search space.

    Attributes:
        percentile_k: the K in "K-th percentile of past best thresholds".
            Higher K is more conservative (higher thresholds, fewer SLO
            violations, less far memory).
        warmup_seconds: the S in "disable zswap for the first S seconds".
        history_length: how many per-minute best thresholds to remember.
        spike_reaction: apply §4.3's escalation rule (use the last
            interval's best threshold when it exceeds the percentile).
            Exposed so the ablation bench can measure what the rule buys.
        fixed_threshold_seconds: when set, bypass the controller entirely
            and always use this threshold (the static-threshold baseline;
            warm-up still applies).
    """

    percentile_k: float = 98.0
    warmup_seconds: int = 600
    history_length: int = 120
    spike_reaction: bool = True
    fixed_threshold_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        check_in_range(self.percentile_k, "percentile_k", 0.0, 100.0)
        check_non_negative(self.warmup_seconds, "warmup_seconds")
        require(self.history_length >= 1, "history_length must be >= 1")


class ColdAgeThresholdPolicy:
    """Stateful per-job instance of the §4.3 control algorithm.

    Drive it once per control interval with :meth:`observe`, then read
    :meth:`threshold` for the threshold to apply during the next interval.
    """

    def __init__(self, config: ThresholdPolicyConfig, bins: AgeBins,
                 slo: Optional[PromotionRateSlo] = None):
        self.config = config
        self.bins = bins
        self.slo = slo if slo is not None else PromotionRateSlo()
        self._pool: Deque[float] = deque(maxlen=config.history_length)
        self._elapsed_seconds = 0
        self._last_best: float = DISABLED
        # DISABLED entries are encoded as a finite sentinel far above the
        # grid (see :meth:`threshold`); the encoded pool is kept sorted
        # incrementally so each percentile read is O(log n) instead of a
        # fresh sort.
        self._sentinel = float(bins.max_threshold) * 1e9
        self._sorted_pool: list = []

    def _append(self, best: float) -> None:
        """Record one interval's best threshold, keeping the sorted
        encoded mirror of the history pool in sync with the deque."""
        encoded = best if math.isfinite(best) else self._sentinel
        if len(self._pool) == self._pool.maxlen:
            oldest = self._pool[0]
            old_encoded = oldest if math.isfinite(oldest) else self._sentinel
            del self._sorted_pool[bisect_left(self._sorted_pool, old_encoded)]
        self._pool.append(best)
        insort(self._sorted_pool, encoded)
        self._last_best = best

    @property
    def warmed_up(self) -> bool:
        """True once the job has run for at least S seconds."""
        return self._elapsed_seconds >= self.config.warmup_seconds

    @property
    def history(self) -> tuple:
        """The pool of past per-minute best thresholds (oldest first)."""
        return tuple(self._pool)

    def observe(
        self,
        promotion_histogram: AgeHistogram,
        working_set_size_pages: float,
        interval_seconds: float = MINUTE,
    ) -> float:
        """Ingest one control interval's statistics.

        Args:
            promotion_histogram: promotions recorded during this interval
                only (an interval diff, not a cumulative histogram).
            working_set_size_pages: the job's working set this interval.
            interval_seconds: length of the interval.

        Returns:
            The best threshold computed for this interval.
        """
        require(
            promotion_histogram.bins.thresholds == self.bins.thresholds,
            "promotion histogram uses a different threshold grid",
        )
        self._elapsed_seconds += int(interval_seconds)
        best = best_threshold(
            promotion_histogram, working_set_size_pages, self.slo, interval_seconds
        )
        self._append(best)
        return best

    def observe_zero(self, interval_seconds: float = MINUTE) -> float:
        """Ingest an interval whose promotion histogram is all zeros.

        A zero interval's best threshold is always the most aggressive
        candidate (zero promotions fit any budget), so callers that can
        prove the interval histogram is empty — e.g. the node agent via
        the memcg's ``promo_hist_events`` counter — skip the histogram
        diff entirely.  State transitions are exactly those of
        :meth:`observe` with an empty histogram.
        """
        self._elapsed_seconds += int(interval_seconds)
        best = float(self.bins.min_threshold)
        self._append(best)
        return best

    def threshold(self) -> float:
        """Threshold to apply for the next interval (or DISABLED).

        Returns :data:`DISABLED` while warming up or with an empty history.
        Otherwise: ``max(K-th percentile of pool, last interval's best)``.
        """
        if not self.warmed_up:
            return DISABLED
        if self.config.fixed_threshold_seconds is not None:
            return float(self.config.fixed_threshold_seconds)
        if not self._pool:
            return DISABLED
        # DISABLED entries dominate: a minute where even the largest
        # candidate violated the SLO must push high percentiles to
        # "compress nothing", not to "compress at the largest threshold".
        # They are mapped to a finite sentinel far above the grid so the
        # percentile interpolation stays warning-free; any result beyond
        # the grid decodes back to DISABLED.
        kth = _sorted_percentile(self._sorted_pool, self.config.percentile_k)
        if kth > self.bins.max_threshold:
            return DISABLED
        # Snap up to the nearest candidate threshold: the kernel can only
        # enforce thresholds on the candidate grid.
        idx = bisect_left(self.bins.thresholds, kth)
        if idx >= len(self.bins.thresholds):
            kth_snapped = float(self.bins.max_threshold)
        else:
            kth_snapped = float(self.bins.thresholds[idx])
        if not self.config.spike_reaction:
            return kth_snapped
        return max(kth_snapped, self._last_best)

    def reset(self) -> None:
        """Forget all history (job restart)."""
        self._pool.clear()
        self._sorted_pool.clear()
        self._elapsed_seconds = 0
        self._last_best = DISABLED

    def inherit_state(self, other: "ColdAgeThresholdPolicy") -> None:
        """Adopt another policy's observations (parameter redeployment).

        The kernel histograms — and therefore the per-minute best
        thresholds derived from them — are properties of the *job*, not of
        the parameters, so rolling out a new ``(K, S)`` must not restart
        the job's history or its warm-up clock.
        """
        for best in other._pool:
            self._pool.append(best)
        self._sorted_pool = sorted(
            v if math.isfinite(v) else self._sentinel for v in self._pool
        )
        self._elapsed_seconds = other._elapsed_seconds
        self._last_best = other._last_best


# ----------------------------------------------------------------------
# The deployable-policy seam (policy/mechanism separation)
# ----------------------------------------------------------------------
#
# The node agent, the cluster, and staged deployment never need to know
# *which* cold-memory detection algorithm is running — only that each job
# gets a controller it can drive once per control interval.  A
# :class:`ColdMemoryPolicy` is the deployable unit: an immutable value
# object (hashable, comparable) that builds per-job controllers on
# demand.  Swapping the
# paper's §4.3 algorithm for a baseline (Thermostat, fixed threshold) is a
# one-line change at the deployment site and touches nothing below it.


class ColdMemoryPolicy:
    """A deployable cold-memory policy: builds per-job threshold controllers.

    Implementations are frozen dataclasses so a policy can be compared,
    hashed, logged, and shipped across process boundaries.  The controller
    returned by :meth:`build` must implement the per-job control surface of
    :class:`ColdAgeThresholdPolicy`: ``observe``, ``observe_zero``,
    ``threshold``, ``warmed_up``, ``reset``, and ``inherit_state`` (which
    must accept a controller built by a *different* policy — redeploying
    parameters, or a whole new algorithm, never restarts a job's history
    or warm-up clock).

    Implementations carrying a :class:`ThresholdPolicyConfig` expose it as
    ``config`` so existing ``(K, S)``-shaped call sites keep working.
    """

    #: Short algorithm label for logs, events, and CLI tables.
    name: str = "abstract"

    def build(
        self, bins: AgeBins, slo: Optional[PromotionRateSlo] = None
    ) -> ColdAgeThresholdPolicy:
        """Create a fresh per-job controller on the given threshold grid."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description (CLI/report label)."""
        return self.name


@dataclass(frozen=True)
class PaperPolicy(ColdMemoryPolicy):
    """The paper's §4.3 K-th-percentile policy, as a deployable unit.

    Attributes:
        config: the ``(K, S)`` tunables handed to every per-job controller.
    """

    config: ThresholdPolicyConfig = ThresholdPolicyConfig()
    name = "paper"

    def build(
        self, bins: AgeBins, slo: Optional[PromotionRateSlo] = None
    ) -> ColdAgeThresholdPolicy:
        return ColdAgeThresholdPolicy(self.config, bins, slo)

    def describe(self) -> str:
        return (
            f"paper(K={self.config.percentile_k:g}, "
            f"S={self.config.warmup_seconds}s)"
        )


@dataclass(frozen=True)
class FixedThresholdPolicy(ColdMemoryPolicy):
    """The static-threshold baseline: always compress at one cold age.

    Attributes:
        threshold_seconds: the fixed cold-age threshold.
        warmup_seconds: zswap stays disabled this long after job start
            (the warm-up rule applies to every policy, §4.3).
    """

    threshold_seconds: float = 3600.0
    warmup_seconds: int = 600
    name = "fixed"

    @property
    def config(self) -> ThresholdPolicyConfig:
        """The equivalent ``ThresholdPolicyConfig`` (bypass mode)."""
        return ThresholdPolicyConfig(
            warmup_seconds=self.warmup_seconds,
            fixed_threshold_seconds=float(self.threshold_seconds),
        )

    def build(
        self, bins: AgeBins, slo: Optional[PromotionRateSlo] = None
    ) -> ColdAgeThresholdPolicy:
        return ColdAgeThresholdPolicy(self.config, bins, slo)

    def describe(self) -> str:
        return f"fixed(T={self.threshold_seconds:g}s)"


def as_policy(value: object) -> ColdMemoryPolicy:
    """Coerce a raw ``ThresholdPolicyConfig`` into a deployable policy.

    Deployment surfaces (``Cluster.deploy_policy``, ``WSC.deploy_policy``,
    ``NodeAgent.set_policy``) accept either a :class:`ColdMemoryPolicy` or
    a bare ``(K, S)`` config; the latter means "the paper policy with
    these tunables", which keeps every pre-seam call site valid.
    """
    if isinstance(value, ColdMemoryPolicy):
        return value
    if isinstance(value, ThresholdPolicyConfig):
        return PaperPolicy(value)
    raise TypeError(
        "expected a ColdMemoryPolicy or ThresholdPolicyConfig, "
        f"got {type(value).__name__}"
    )


# ----------------------------------------------------------------------
# Vectorized replay (the fast far memory model's hot path, §5.3)
# ----------------------------------------------------------------------
#
# The §4.3 algorithm looks sequential — the threshold for interval ``t``
# depends on the history of per-interval best thresholds — but the *best*
# threshold of an interval depends only on that interval's promotion
# histogram and working set, never on previously chosen thresholds.  The
# offline replay therefore factors into (1) a fully data-parallel best-
# threshold pass over all intervals at once and (2) a K-th-percentile pass
# that reads each interval's history pool from counts of the few values a
# best threshold can take.  Both are expressed here over arrays;
# :class:`ColdAgeThresholdPolicy` above stays the semantic reference, and
# the model's tests prove the two produce bit-identical thresholds.


def best_thresholds_vectorized(
    promotion_suffix_sums: np.ndarray,
    working_set_pages: np.ndarray,
    bins: AgeBins,
    slo: PromotionRateSlo,
    interval_seconds: float = MINUTE,
) -> np.ndarray:
    """:func:`best_threshold` for every interval of a trace at once.

    Args:
        promotion_suffix_sums: ``(intervals, len(bins))`` matrix whose row
            ``t`` is ``promotion_histogram.suffix_sums()`` of interval ``t``.
        working_set_pages: ``(intervals,)`` working-set sizes.
        bins: the shared candidate-threshold grid.
        slo: the promotion-rate SLO.
        interval_seconds: length of each interval.

    Returns:
        ``(intervals,)`` float array of per-interval best thresholds,
        :data:`DISABLED` where even the largest candidate violates the SLO.
    """
    budgets = (slo.target_pct_per_min / 100.0) * np.asarray(
        working_set_pages, dtype=float
    )
    rates = np.asarray(promotion_suffix_sums) * (MINUTE / interval_seconds)
    fits = rates <= budgets[:, None]
    feasible = fits.any(axis=1)
    first_fit = np.argmax(fits, axis=1)
    grid = np.asarray(bins.thresholds, dtype=float)
    return np.where(feasible, grid[first_fit], DISABLED)


def percentile_from_counts(
    ranks: np.ndarray, values: np.ndarray, k: float
) -> np.ndarray:
    """``np.percentile(pool, k)`` for many pools given as value counts.

    Row ``i`` describes one pool over the ascending ``values``:
    ``ranks[i, v]`` is how many of its elements are ``<= values[v]``, so
    the last column is the pool's size.  The replayed history pool only
    ever holds grid thresholds and the DISABLED sentinel, so each row's
    percentile follows from ``len(values)`` counts without sorting: the
    element of rank ``r`` is the first value whose count exceeds ``r``.
    The arithmetic then mirrors :func:`_sorted_percentile` (numpy's linear
    method, ``gamma >= 0.5`` fixup included) operation for operation, so
    every row is bit-identical to ``np.percentile`` over its pool.  Empty
    pools read ``values[0]``; callers mask them.
    """
    size = ranks[:, -1]
    virtual_index = (k / 100.0) * (size - 1)
    top = virtual_index >= size - 1
    lower = virtual_index.astype(np.int64)
    gamma = virtual_index - lower

    def at_rank(rank: np.ndarray) -> np.ndarray:
        return values[(ranks <= rank[:, None]).sum(axis=1)]

    a = at_rank(np.where(top, size - 1, lower))
    b = at_rank(np.minimum(lower + 1, size - 1))
    diff = b - a
    lerp = np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)
    return np.where(top, a, lerp)


def replay_thresholds_vectorized(
    config: ThresholdPolicyConfig,
    bins: AgeBins,
    elapsed_seconds: np.ndarray,
    last_best: np.ndarray,
    pool_ranks: np.ndarray,
) -> np.ndarray:
    """The thresholds :class:`ColdAgeThresholdPolicy` would publish, for
    many intervals (of one job or of a whole fleet) at once.

    Entry ``i`` describes one interval by the policy state before it:
    warm-up, the fixed-threshold bypass, the K-th percentile of the
    (sentinel-encoded) history pool, grid snapping and spike reaction
    apply exactly as :meth:`ColdAgeThresholdPolicy.threshold` applies them.

    Args:
        config: the policy parameters being replayed.
        bins: the candidate-threshold grid.
        elapsed_seconds: ``(n,)`` run time of the job before the interval.
        last_best: ``(n,)`` best threshold of the job's previous interval
            (read only where the pool is non-empty).
        pool_ranks: ``(n, len(bins) + 1)`` history pool of ``config``'s
            ``history_length`` as cumulative counts over the grid followed
            by DISABLED (see :func:`percentile_from_counts`).  An empty
            pool marks the job's first interval.
    """
    warmed = elapsed_seconds >= config.warmup_seconds
    if config.fixed_threshold_seconds is not None:
        return np.where(warmed, float(config.fixed_threshold_seconds), DISABLED)
    grid = np.asarray(bins.thresholds, dtype=float)
    sentinel = float(bins.max_threshold) * 1e9
    kth = percentile_from_counts(
        pool_ranks, np.append(grid, sentinel), config.percentile_k
    )
    # Snap up to the grid; a percentile beyond it (DISABLED entries
    # dominate) decodes back to DISABLED, which then also dominates the
    # spike-reaction max, exactly as in the scalar policy.
    snapped = np.append(grid, DISABLED)[np.searchsorted(grid, kth, side="left")]
    if config.spike_reaction:
        snapped = np.maximum(snapped, last_best)
    return np.where(warmed & (pool_ranks[:, -1] > 0), snapped, DISABLED)
