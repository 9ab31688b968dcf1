"""The ``repro bench --model`` throughput harness."""

import json

import numpy as np

from repro.model import FarMemoryModel
from repro.model.bench import (
    _reports_equal,
    bench_configs,
    run_model_bench,
    synthetic_fleet_traces,
)


class TestSyntheticTraces:
    def test_deterministic_per_seed(self):
        a = synthetic_fleet_traces(jobs=3, intervals=10, seed=5)
        b = synthetic_fleet_traces(jobs=3, intervals=10, seed=5)
        assert [t.to_dicts() for t in a] == [t.to_dicts() for t in b]

    def test_seed_changes_traces(self):
        a = synthetic_fleet_traces(jobs=2, intervals=6, seed=1)
        b = synthetic_fleet_traces(jobs=2, intervals=6, seed=2)
        assert [t.to_dicts() for t in a] != [t.to_dicts() for t in b]

    def test_shape(self):
        traces = synthetic_fleet_traces(jobs=4, intervals=7, seed=0)
        assert len(traces) == 4
        assert all(len(t) == 7 for t in traces)


class TestBenchConfigs:
    def test_count_and_determinism(self):
        assert len(bench_configs(12)) == 12
        assert bench_configs(6) == bench_configs(6)

    def test_configs_vary(self):
        configs = bench_configs(8)
        assert len(set(configs)) > 1


class TestRunModelBench:
    def test_quick_run_report_shape(self, tmp_path):
        out = tmp_path / "BENCH_model.json"
        report = run_model_bench(
            jobs=4, intervals=24, configs=3, workers=1, output=out
        )
        assert report["equivalent"] is True
        assert report["model"] == {
            "jobs": 4, "intervals": 24, "configs": 3, "seed": 17,
        }
        assert report["scalar"]["configs_per_second"] > 0
        assert report["vectorized"]["configs_per_second"] > 0
        assert report["speedup_vectorized"] > 0
        # workers=1 skips the pool mode.
        assert report["parallel"] is None
        assert report["speedup_parallel"] is None
        assert json.loads(out.read_text()) == report

    def test_reports_equal_compares_every_job_array(self):
        """The equivalence gate is a real comparison of the per-job
        arrays: equal batches pass, a one-ulp change in one rate fails."""
        traces = synthetic_fleet_traces(jobs=3, intervals=12, seed=3)
        with FarMemoryModel(traces) as model:
            a = model.evaluate_many(bench_configs(2))
            b = model.evaluate_many(bench_configs(2))
        assert _reports_equal(a, b)
        rates = b[1].job_results[2].normalized_rates
        rates[5] = np.nextafter(rates[5], np.inf)
        assert not _reports_equal(a, b)
