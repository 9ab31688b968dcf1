"""The fast far memory model: offline replay of the control algorithm."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histograms import AgeBins, AgeHistogram, default_age_bins
from repro.core.slo import PromotionRateSlo
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.model.replay import FarMemoryModel, _reduce_fleet
from repro.model.trace import JobTrace, TraceEntry
from repro.obs import MetricName, MetricRegistry
from tests.synthetic_traces import bench_configs, synthetic_fleet_traces
from tests.model_reference import reference_evaluate, replay_one_job


def make_trace(job_id="j", n_entries=12, cold_pages=500, wss=1000,
               promo_ages=(), resident=2000):
    """A trace with constant per-period statistics."""
    bins = default_age_bins()
    trace = JobTrace(job_id)
    for i in range(n_entries):
        promo = AgeHistogram(bins)
        promo.add_ages(np.array(promo_ages, dtype=float))
        cold = AgeHistogram(bins)
        cold.add_ages(
            np.array([200.0] * cold_pages + [0.0] * (resident - cold_pages))
        )
        trace.append(
            TraceEntry(
                job_id=job_id,
                machine_id="m0",
                time=i * 300,
                working_set_pages=wss,
                promotion_histogram=promo,
                cold_age_histogram=cold,
                resident_pages=resident,
            )
        )
    return trace


def make_random_trace(rng, job_id="r", n_entries=40, zero_wss_at=(),
                      promo_scale=60):
    """A randomized trace whose statistics drift interval to interval."""
    bins = default_age_bins()
    trace = JobTrace(job_id)
    for i in range(n_entries):
        promo = AgeHistogram(bins)
        promo.add_binned(rng.integers(0, promo_scale, size=len(bins)))
        cold = AgeHistogram(bins)
        cold.add_binned(rng.integers(0, 3000, size=len(bins)))
        wss = 0 if i in zero_wss_at else int(rng.integers(1, 60_000))
        trace.append(
            TraceEntry(
                job_id=job_id,
                machine_id="m0",
                time=i * 300,
                working_set_pages=wss,
                promotion_histogram=promo,
                cold_age_histogram=cold,
                resident_pages=wss + 1000,
            )
        )
    return trace


#: Configurations spanning every branch of the policy: percentile
#: extremes, tiny/large history windows, warm-up edge cases, the
#: fixed-threshold bypass, and spike reaction on/off.
EQUIVALENCE_CONFIGS = [
    ThresholdPolicyConfig(),
    ThresholdPolicyConfig(percentile_k=0.0, warmup_seconds=0),
    ThresholdPolicyConfig(percentile_k=100.0, history_length=1),
    ThresholdPolicyConfig(percentile_k=50.0, warmup_seconds=300,
                          history_length=3),
    ThresholdPolicyConfig(percentile_k=98.0, history_length=2,
                          spike_reaction=False),
    ThresholdPolicyConfig(fixed_threshold_seconds=480.0),
    ThresholdPolicyConfig(fixed_threshold_seconds=480.0, warmup_seconds=0),
    ThresholdPolicyConfig(percentile_k=75.0, warmup_seconds=10**9),
]


def assert_bit_identical(scalar, vectorized):
    __tracebackhide__ = True
    assert scalar.job_id == vectorized.job_id
    for name in ("thresholds", "cold_pages_captured", "normalized_rates"):
        a, b = getattr(scalar, name), getattr(vectorized, name)
        assert a.dtype == b.dtype == np.float64, name
        assert a.tobytes() == b.tobytes(), name


def replay_fleet(compiled, configs, slo):
    """Per config, the per-job results of the model's fleet-wide replay."""
    with FarMemoryModel(compiled, slo) as model:
        return [report.job_results for report in model.evaluate_many(configs)]


#: Two threshold grids, so a fleet can mix them.
GRIDS = (default_age_bins(), AgeBins((120, 480, 1920)))


def make_ragged_job(rng, job_id, n_entries, bins, style):
    """A randomized trace; ``style="disabled"`` re-touches so much cold
    memory against a tiny working set that every best threshold is
    DISABLED."""
    trace = JobTrace(job_id)
    for i in range(n_entries):
        promo = AgeHistogram(bins)
        if style == "disabled":
            wss = int(rng.integers(0, 50))
            counts = np.zeros(len(bins), dtype=np.int64)
            counts[-1] = 1000
            promo.add_binned(counts)
        else:
            wss = 0 if rng.random() < 0.1 else int(rng.integers(1, 60_000))
            promo.add_binned(rng.integers(0, 60, size=len(bins)))
        cold = AgeHistogram(bins)
        cold.add_binned(rng.integers(0, 3000, size=len(bins)))
        trace.append(
            TraceEntry(
                job_id=job_id,
                machine_id="m0",
                time=i * 300,
                working_set_pages=wss,
                promotion_histogram=promo,
                cold_age_histogram=cold,
                resident_pages=wss + 1000,
            )
        )
    return trace


def make_ragged_fleet(seed, shapes):
    """``(traces, interval_seconds, compiled)`` for job shapes
    ``(n_entries, style, interval_seconds, grid_index)``."""
    rng = np.random.default_rng(seed)
    traces, intervals, compiled = [], [], []
    for j, (n_entries, style, interval, grid) in enumerate(shapes):
        trace = make_ragged_job(rng, f"j{j}", n_entries, GRIDS[grid], style)
        traces.append(trace)
        intervals.append(interval)
        compiled.append(
            dataclasses.replace(trace.compile(), interval_seconds=interval)
        )
    return traces, intervals, compiled


job_shapes = st.tuples(
    st.integers(0, 300),
    st.sampled_from(("mixed", "disabled")),
    st.sampled_from((300, 600)),
    st.integers(0, len(GRIDS) - 1),
)


class TestReplayOneJob:
    def test_quiet_job_captures_cold_memory(self):
        config = ThresholdPolicyConfig(percentile_k=90, warmup_seconds=0)
        result = replay_one_job(make_trace(), config, PromotionRateSlo())
        assert result.intervals == 12
        # First interval has no history -> threshold disabled -> 0 captured.
        assert result.cold_pages_captured[0] == 0.0
        # Later intervals run at 120s and capture the 500 cold pages.
        assert result.cold_pages_captured[-1] == 500.0
        assert result.mean_cold_pages > 0

    def test_warmup_suppresses_early_intervals(self):
        config = ThresholdPolicyConfig(percentile_k=90, warmup_seconds=1500)
        result = replay_one_job(make_trace(), config, PromotionRateSlo())
        # 1500s warm-up = five 300s intervals disabled (plus the first).
        assert all(c == 0 for c in result.cold_pages_captured[:5])
        assert result.cold_pages_captured[-1] > 0

    def test_noisy_job_captures_less(self):
        config = ThresholdPolicyConfig(percentile_k=90, warmup_seconds=0)
        quiet = replay_one_job(make_trace(), config, PromotionRateSlo())
        noisy = replay_one_job(
            make_trace(promo_ages=[200.0] * 400),  # heavy cold re-touch
            config,
            PromotionRateSlo(),
        )
        assert noisy.mean_cold_pages < quiet.mean_cold_pages

    def test_empty_trace(self):
        config = ThresholdPolicyConfig()
        result = replay_one_job(JobTrace("j"), config, PromotionRateSlo())
        assert result.intervals == 0
        assert result.mean_cold_pages == 0.0


class TestFleetModel:
    def test_aggregates_jobs(self):
        traces = [make_trace(f"j{i}") for i in range(4)]
        model = FarMemoryModel(traces)
        report = model.evaluate(
            ThresholdPolicyConfig(percentile_k=90, warmup_seconds=0)
        )
        assert len(report.job_results) == 4
        assert report.total_cold_pages > 0
        assert report.meets_slo

    def test_constraint_detects_violation(self):
        """Quiet history drives the threshold to 120 s; periodic bursts of
        cold-page accesses then land as real promotions — the violation
        pattern the p98 constraint exists to catch."""
        bins = default_age_bins()
        trace = JobTrace("bursty")
        for i in range(12):
            promo = AgeHistogram(bins)
            if i % 2 == 1:  # burst intervals
                promo.add_ages(np.array([150.0] * 500))
            cold = AgeHistogram(bins)
            cold.add_ages(np.array([200.0] * 500 + [0.0] * 500))
            trace.append(
                TraceEntry(
                    job_id="bursty",
                    machine_id="m0",
                    time=i * 300,
                    working_set_pages=500,
                    promotion_histogram=promo,
                    cold_age_histogram=cold,
                    resident_pages=1000,
                )
            )
        model = FarMemoryModel([trace])
        report = model.evaluate(
            ThresholdPolicyConfig(percentile_k=10, warmup_seconds=0,
                                  history_length=4)
        )
        assert report.promotion_rate_p98 > report.slo_target

    def test_conservative_config_captures_less(self):
        traces = [
            make_trace(f"j{i}", promo_ages=[300.0] * 30) for i in range(3)
        ]
        model = FarMemoryModel(traces)
        aggressive = model.evaluate(
            ThresholdPolicyConfig(percentile_k=50, warmup_seconds=0)
        )
        conservative = model.evaluate(
            ThresholdPolicyConfig(percentile_k=50, warmup_seconds=3000)
        )
        assert conservative.total_cold_pages <= aggressive.total_cold_pages

    def test_evaluate_many_order(self):
        model = FarMemoryModel([make_trace()])
        configs = [
            ThresholdPolicyConfig(percentile_k=50, warmup_seconds=0),
            ThresholdPolicyConfig(percentile_k=99, warmup_seconds=600),
        ]
        reports = model.evaluate_many(configs)
        assert [r.config for r in reports] == configs

    def test_deterministic(self):
        traces = [make_trace("j", promo_ages=[250.0] * 10)]
        model = FarMemoryModel(traces)
        config = ThresholdPolicyConfig(percentile_k=80, warmup_seconds=300)
        a = model.evaluate(config)
        b = model.evaluate(config)
        assert a.total_cold_pages == b.total_cold_pages
        assert a.promotion_rate_p98 == b.promotion_rate_p98

    def test_reports_equal_compares_every_job_array(self):
        """Report equality, which every equivalence check relies on, is a
        real comparison of the per-job arrays: equal batches compare
        equal, a one-ulp change in one rate does not."""
        traces = synthetic_fleet_traces(jobs=3, intervals=12, seed=3)
        with FarMemoryModel(traces) as model:
            a = model.evaluate_many(bench_configs(2))
            b = model.evaluate_many(bench_configs(2))
        assert a == b
        rates = b[1].job_results[2].normalized_rates
        rates[5] = np.nextafter(rates[5], np.inf)
        assert a != b

    def test_matches_online_policy_semantics(self):
        """The replayed threshold sequence equals what the online policy
        would have produced given identical inputs."""
        from repro.core.threshold_policy import ColdAgeThresholdPolicy

        trace = make_trace(promo_ages=[300.0] * 50, n_entries=8)
        config = ThresholdPolicyConfig(percentile_k=75, warmup_seconds=600)
        result = replay_one_job(trace, config, PromotionRateSlo())

        policy = ColdAgeThresholdPolicy(
            config, trace.entries[0].bins, PromotionRateSlo()
        )
        expected = []
        for entry in trace.entries:
            expected.append(policy.threshold())
            policy.observe(entry.promotion_histogram,
                           entry.working_set_pages, 300)
        assert result.thresholds.tolist() == expected


class TestVectorizedEquivalence:
    """The vectorized replay must be bit-identical to the scalar oracle —
    not approximately equal: the autotuner ranks configurations by these
    numbers, and a one-ulp divergence could flip a ranking."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_randomized_traces_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        slo = PromotionRateSlo()
        trace = make_random_trace(
            rng, n_entries=int(rng.integers(1, 200)), zero_wss_at=(0, 2, 9)
        )
        vectorized = replay_fleet([trace.compile()], EQUIVALENCE_CONFIGS, slo)
        for config, (vec,) in zip(EQUIVALENCE_CONFIGS, vectorized):
            assert_bit_identical(replay_one_job(trace, config, slo), vec)

    @settings(max_examples=40, deadline=None)
    @given(shapes=st.lists(job_shapes, max_size=30),
           seed=st.integers(0, 2**32 - 1),
           drawn=st.builds(
               ThresholdPolicyConfig,
               percentile_k=st.floats(0.0, 100.0),
               warmup_seconds=st.integers(0, 3000),
               history_length=st.integers(1, 40),
               spike_reaction=st.booleans(),
           ))
    def test_ragged_fleets_bit_identical(self, shapes, seed, drawn):
        """Whole ragged fleets — empty, shorter- and longer-than-history,
        all-DISABLED and zero-WSS traces, two grids and two interval
        lengths mixed — replay in one pass exactly as the oracle replays
        them job by job."""
        slo = PromotionRateSlo()
        configs = EQUIVALENCE_CONFIGS + [drawn]
        traces, intervals, compiled = make_ragged_fleet(seed, shapes)
        with FarMemoryModel(compiled, slo) as model:
            reports = model.evaluate_many(configs)
        for config, report in zip(configs, reports):
            expected = _reduce_fleet(
                [replay_one_job(trace, config, slo, interval)
                 for trace, interval in zip(traces, intervals)],
                config=config, slo=slo,
            )
            assert report.total_cold_pages == expected.total_cold_pages
            assert report.promotion_rate_p98 == expected.promotion_rate_p98
            assert len(report.job_results) == len(expected.job_results)
            for want, got in zip(expected.job_results, report.job_results):
                assert_bit_identical(want, got)

    def test_empty_trace(self):
        slo = PromotionRateSlo()
        compiled = JobTrace("empty").compile()
        results = replay_fleet([compiled], EQUIVALENCE_CONFIGS, slo)
        assert len(results) == len(EQUIVALENCE_CONFIGS)
        for (result,) in results:
            assert result.intervals == 0
            assert result.mean_cold_pages == 0.0

    def test_all_intervals_disabled_by_warmup(self):
        """A warm-up longer than the trace leaves every threshold DISABLED
        and captures nothing, in both implementations."""
        slo = PromotionRateSlo()
        config = ThresholdPolicyConfig(warmup_seconds=10**9)
        trace = make_trace(n_entries=10)
        ((vec,),) = replay_fleet([trace.compile()], [config], slo)
        assert_bit_identical(replay_one_job(trace, config, slo), vec)
        assert all(t == float("inf") for t in vec.thresholds)
        assert all(c == 0.0 for c in vec.cold_pages_captured)

    def test_zero_wss_without_promotions_rates_are_zero(self):
        slo = PromotionRateSlo()
        config = ThresholdPolicyConfig(percentile_k=90, warmup_seconds=0)
        rng = np.random.default_rng(11)
        trace = make_random_trace(
            rng, n_entries=8, zero_wss_at=range(8), promo_scale=1
        )
        # promo_scale=1 keeps integers(0, 1) == 0: no promotions at all.
        ((vec,),) = replay_fleet([trace.compile()], [config], slo)
        assert_bit_identical(replay_one_job(trace, config, slo), vec)
        assert all(r == 0.0 for r in vec.normalized_rates)

    def test_zero_wss_with_promotions_rates_are_inf(self):
        """Promotions against an empty working set normalize to inf — the
        'cannot meet any SLO' sentinel — and inf must survive the
        vectorized where/errstate plumbing unchanged."""
        slo = PromotionRateSlo()
        config = ThresholdPolicyConfig(percentile_k=90, warmup_seconds=0,
                                       fixed_threshold_seconds=120.0)
        rng = np.random.default_rng(13)
        trace = make_random_trace(rng, n_entries=8, zero_wss_at=range(8))
        ((vec,),) = replay_fleet([trace.compile()], [config], slo)
        assert_bit_identical(replay_one_job(trace, config, slo), vec)
        assert any(r == float("inf") for r in vec.normalized_rates)

    def test_model_scalar_mode_matches_vectorized_mode(self):
        """``evaluate`` equals the fleet reduction of the oracle's per-job
        replays, report for report."""
        traces = [make_random_trace(np.random.default_rng(s), job_id=f"j{s}",
                                    n_entries=30)
                  for s in range(3)] + [JobTrace("empty")]
        config = ThresholdPolicyConfig(percentile_k=95, warmup_seconds=600)
        slo = PromotionRateSlo()
        vec_report = FarMemoryModel(traces, slo).evaluate(config)
        assert vec_report == reference_evaluate(traces, config, slo)


class TestBatchedEvaluation:
    def test_empty_batch(self):
        assert FarMemoryModel([make_trace()]).evaluate_many([]) == []

    def test_batch_matches_individual_evaluates(self):
        model = FarMemoryModel([make_trace(promo_ages=[300.0] * 20)])
        configs = [
            ThresholdPolicyConfig(percentile_k=50, warmup_seconds=0),
            ThresholdPolicyConfig(percentile_k=99),
            ThresholdPolicyConfig(fixed_threshold_seconds=240.0),
        ]
        batched = model.evaluate_many(configs)
        assert batched == [model.evaluate(c) for c in configs]

    def test_throughput_metrics(self):
        registry = MetricRegistry()
        model = FarMemoryModel([make_trace()], registry=registry)
        model.evaluate_many([ThresholdPolicyConfig(),
                             ThresholdPolicyConfig(percentile_k=50.0)])
        configs_total = registry.counter(
            MetricName.MODEL_CONFIGS_EVALUATED_TOTAL
        )
        seconds = registry.histogram(MetricName.MODEL_EVALUATION_SECONDS)
        compiled_total = registry.counter(
            MetricName.MODEL_TRACES_COMPILED_TOTAL
        )
        assert configs_total.value == 2.0
        assert seconds.count == 1
        assert compiled_total.value == 1.0

    def test_traces_compile_once(self):
        model = FarMemoryModel([make_trace()])
        first = model.compiled_traces
        model.evaluate(ThresholdPolicyConfig())
        assert model.compiled_traces is first

    def test_close_is_idempotent_and_context_manager_closes(self):
        config = ThresholdPolicyConfig()
        with FarMemoryModel([make_trace()]) as model:
            first = model.evaluate(config)
            assert model._fleet is not None
        # Leaving the block dropped the cached fleet tensor.
        assert model._fleet is None
        model.close()
        # Still usable after close: the next evaluation rebuilds lazily,
        # from the traces compiled once, to the same report.
        compiled = model.compiled_traces
        assert model.evaluate(config) == first
        assert model.compiled_traces is compiled
