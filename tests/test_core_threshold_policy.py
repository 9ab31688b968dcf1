"""The §4.3 threshold controller, rule by rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.core.histograms import AgeHistogram, default_age_bins
from repro.core.slo import PromotionRateSlo
from repro.core.threshold_policy import (
    DISABLED,
    ColdAgeThresholdPolicy,
    FixedThresholdPolicy,
    PaperPolicy,
    ThresholdPolicyConfig,
    as_policy,
    best_threshold,
    percentile_from_counts,
)


def _promotion_hist(bins, ages):
    hist = AgeHistogram(bins)
    hist.add_ages(np.array(ages, dtype=float))
    return hist


class TestBestThreshold:
    def test_picks_smallest_meeting_slo(self, bins):
        # Working set 10_000 pages at 0.2%/min -> budget 20 promos/min.
        slo = PromotionRateSlo(target_pct_per_min=0.2)
        # 30 accesses to pages aged ~130s, 10 to pages aged ~500s.
        hist = _promotion_hist(bins, [130] * 30 + [500] * 10)
        # At T=120: 40 promos/min > 20.  At T=240: 10 <= 20 -> chosen.
        assert best_threshold(hist, 10_000, slo) == 240.0

    def test_all_violating_returns_disabled(self, bins):
        slo = PromotionRateSlo(target_pct_per_min=0.2)
        hist = _promotion_hist(bins, [40000] * 1000)
        assert best_threshold(hist, 10_000, slo) == DISABLED

    def test_quiet_job_gets_most_aggressive(self, bins):
        slo = PromotionRateSlo()
        hist = AgeHistogram(bins)
        assert best_threshold(hist, 10_000, slo) == bins.min_threshold

    def test_interval_scaling(self, bins):
        slo = PromotionRateSlo(target_pct_per_min=0.2)
        # 30 cold accesses over 5 minutes = 6/min -> within budget 20.
        hist = _promotion_hist(bins, [130] * 30)
        assert best_threshold(hist, 10_000, slo, interval_seconds=300) == 120.0
        # Same 30 accesses in one minute = 30/min -> must back off.
        assert best_threshold(hist, 10_000, slo, interval_seconds=60) == 240.0


class TestThresholdPolicyConfig:
    def test_defaults(self):
        config = ThresholdPolicyConfig()
        assert config.percentile_k == 98.0
        assert config.warmup_seconds == 600

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdPolicyConfig(percentile_k=101)
        with pytest.raises(ConfigurationError):
            ThresholdPolicyConfig(warmup_seconds=-1)
        with pytest.raises(ConfigurationError):
            ThresholdPolicyConfig(history_length=0)


class TestColdAgeThresholdPolicy:
    def make(self, bins, k=50.0, warmup=120, history=100):
        config = ThresholdPolicyConfig(
            percentile_k=k, warmup_seconds=warmup, history_length=history
        )
        return ColdAgeThresholdPolicy(config, bins, PromotionRateSlo())

    def test_disabled_during_warmup(self, bins):
        policy = self.make(bins, warmup=300)
        assert policy.threshold() == DISABLED
        policy.observe(AgeHistogram(bins), 1000)  # 60s elapsed
        assert not policy.warmed_up
        assert policy.threshold() == DISABLED

    def test_enables_after_warmup(self, bins):
        policy = self.make(bins, warmup=120)
        policy.observe(AgeHistogram(bins), 1000)
        policy.observe(AgeHistogram(bins), 1000)
        assert policy.warmed_up
        assert policy.threshold() == bins.min_threshold

    def test_percentile_of_history(self, bins):
        policy = self.make(bins, k=50.0, warmup=0)
        # Nine quiet minutes -> best 120; one noisy minute -> best higher.
        for _ in range(9):
            policy.observe(AgeHistogram(bins), 1000)
        noisy = _promotion_hist(bins, [130] * 500)
        policy.observe(noisy, 1000)
        # Median of [120]*9 + [high] stays 120; last best dominates via
        # the spike rule instead.
        assert policy.threshold() > bins.min_threshold

    def test_spike_reaction_uses_last_best(self, bins):
        policy = self.make(bins, k=50.0, warmup=0)
        for _ in range(20):
            policy.observe(AgeHistogram(bins), 1000)
        assert policy.threshold() == bins.min_threshold
        # Sudden burst of cold-page accesses.
        burst = _promotion_hist(bins, [1000] * 500)
        policy.observe(burst, 1000)
        # K-th percentile of history is still 120, but the spike rule
        # escalates to the last minute's best threshold immediately.
        assert policy.threshold() >= 1920

    def test_high_k_is_conservative(self, bins):
        lo = self.make(bins, k=10.0, warmup=0)
        hi = self.make(bins, k=99.0, warmup=0)
        history = [[130] * 50, [], [], [500] * 50, [], [], [], [], [], []]
        for ages in history:
            lo.observe(_promotion_hist(bins, ages), 1000)
            hi.observe(_promotion_hist(bins, ages), 1000)
        # Clear the spike rule with one final quiet minute.
        lo.observe(AgeHistogram(bins), 1000)
        hi.observe(AgeHistogram(bins), 1000)
        assert hi.threshold() >= lo.threshold()

    def test_history_bounded(self, bins):
        policy = self.make(bins, warmup=0, history=5)
        for _ in range(10):
            policy.observe(AgeHistogram(bins), 100)
        assert len(policy.history) == 5

    def test_reset(self, bins):
        policy = self.make(bins, warmup=60)
        policy.observe(AgeHistogram(bins), 100)
        assert policy.warmed_up
        policy.reset()
        assert not policy.warmed_up
        assert policy.threshold() == DISABLED

    def test_grid_mismatch_rejected(self, bins):
        from repro.core.histograms import AgeBins

        policy = self.make(bins, warmup=0)
        with pytest.raises(ConfigurationError):
            policy.observe(AgeHistogram(AgeBins((120, 480))), 100)


@settings(max_examples=30, deadline=None)
@given(
    ages_by_minute=st.lists(
        st.lists(
            st.floats(min_value=0, max_value=30000, allow_nan=False),
            max_size=50,
        ),
        min_size=1,
        max_size=20,
    ),
    k=st.floats(min_value=0, max_value=100),
)
def test_policy_always_returns_candidate_or_disabled(ages_by_minute, k):
    """Property: the policy only ever emits grid thresholds or DISABLED."""
    bins = default_age_bins()
    policy = ColdAgeThresholdPolicy(
        ThresholdPolicyConfig(percentile_k=k, warmup_seconds=0), bins
    )
    valid = set(float(t) for t in bins.thresholds) | {DISABLED}
    for ages in ages_by_minute:
        hist = AgeHistogram(bins)
        hist.add_ages(np.array(ages))
        policy.observe(hist, 100)
        assert policy.threshold() in valid


@settings(max_examples=30, deadline=None)
@given(
    n_quiet=st.integers(min_value=1, max_value=30),
    wss=st.integers(min_value=1, max_value=100000),
)
def test_quiet_history_always_most_aggressive(n_quiet, wss):
    """Property: with no promotions ever, the policy goes to 120 s."""
    bins = default_age_bins()
    policy = ColdAgeThresholdPolicy(
        ThresholdPolicyConfig(percentile_k=98.0, warmup_seconds=0), bins
    )
    for _ in range(n_quiet):
        policy.observe(AgeHistogram(bins), wss)
    assert policy.threshold() == bins.min_threshold


@settings(max_examples=50, deadline=None)
@given(
    pools=st.lists(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                 max_size=130),
        min_size=1,
        max_size=8,
    ),
    k=st.floats(min_value=0, max_value=100),
)
def test_percentile_from_counts_matches_numpy(pools, k):
    """Property: reading the percentile off value counts is bit-identical
    to ``np.percentile`` over the pool itself, sentinel included."""
    bins = default_age_bins()
    values = np.append(np.asarray(bins.thresholds, dtype=float),
                       float(bins.max_threshold) * 1e9)
    ranks = np.cumsum(
        [np.bincount(pool, minlength=values.size) for pool in pools], axis=1
    )
    got = percentile_from_counts(ranks, values, k)
    for pool, value in zip(pools, got):
        assert value == np.percentile(values[pool], k)


class TestPolicySeam:
    """`ColdMemoryPolicy`: the deployable unit behind `deploy_policy`."""

    def test_as_policy_coerces_bare_configs_to_the_paper_policy(self):
        config = ThresholdPolicyConfig(percentile_k=95.0)
        policy = as_policy(config)
        assert policy == PaperPolicy(config)
        assert policy.config is config

    def test_as_policy_passes_policies_through(self):
        policy = FixedThresholdPolicy(threshold_seconds=7200.0)
        assert as_policy(policy) is policy

    def test_as_policy_rejects_everything_else(self):
        with pytest.raises(TypeError):
            as_policy(98.0)

    def test_policies_are_hashable_value_objects(self):
        assert PaperPolicy() == PaperPolicy()
        assert len({PaperPolicy(), PaperPolicy(),
                    FixedThresholdPolicy()}) == 2

    def test_paper_policy_builds_the_reference_controller(self, bins):
        config = ThresholdPolicyConfig(percentile_k=90.0)
        controller = PaperPolicy(config).build(bins)
        assert isinstance(controller, ColdAgeThresholdPolicy)
        assert controller.config is config

    def test_fixed_policy_pins_the_threshold(self, bins):
        policy = FixedThresholdPolicy(
            threshold_seconds=7200.0, warmup_seconds=0
        )
        controller = policy.build(bins)
        # Whatever the promotion history says, the published threshold
        # never moves.
        hist = _promotion_hist(bins, [130] * 500)
        controller.observe(hist, working_set_size_pages=1000)
        assert controller.threshold() == 7200.0

    def test_describe_names_the_tunables(self):
        assert "95" in PaperPolicy(
            ThresholdPolicyConfig(percentile_k=95.0)
        ).describe()
        assert "7200" in FixedThresholdPolicy(7200.0).describe()
