"""Chaos integration: fault scenarios replay identically for the same
seeds, telemetry survives sink outages, and the SLO holds under an
incompressible storm."""

import pytest

from repro.cluster import quickfleet
from repro.common.rng import SeedSequenceFactory
from repro.common.units import HOUR
from repro.faults import (
    ALL_MACHINES,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    attach_scenario,
)
from repro.obs import MetricRegistry, Tracer


def make_fleet(seed=21, clusters=2):
    return quickfleet(
        clusters=clusters,
        machines_per_cluster=2,
        jobs_per_machine=3,
        seed=seed,
        registry=MetricRegistry(),
        tracer=Tracer(),
    )


class TestMixedScenarioReplay:
    """The acceptance scenario — crash + sink outage + incompressible
    storm — must replay bit-for-bit: two fleets built and attacked with
    the same seeds end in identical state."""

    DURATION = 2 * HOUR

    @pytest.fixture(scope="class")
    def pair(self):
        first = make_fleet()
        replay = make_fleet()
        for fleet in (first, replay):
            attach_scenario(fleet, "mixed", self.DURATION, seed=5)
            fleet.run(self.DURATION)
        return first, replay

    def test_faults_actually_fired(self, pair):
        for fleet in pair:
            injected = sum(
                c.fault_injector.faults_injected for c in fleet.clusters
            )
            assert injected >= 3  # crash + outage + storm per cluster
            assert fleet.registry.value("repro_faults_injected_total") > 0

    def test_sli_histories_identical(self, pair):
        first, replay = pair
        assert len(first.sli_history) > 0
        assert first.sli_history == replay.sli_history

    def test_coverage_reports_identical(self, pair):
        first, replay = pair
        assert first.coverage_report() == replay.coverage_report()

    def test_traces_identical_per_job(self, pair):
        first, replay = pair
        assert first.trace_db.job_ids == replay.trace_db.job_ids
        for job_id in first.trace_db.job_ids:
            a = [e.to_dict()
                 for e in first.trace_db.trace_for(job_id).entries]
            b = [e.to_dict()
                 for e in replay.trace_db.trace_for(job_id).entries]
            assert a == b

    def test_fault_events_identical(self, pair):
        first, replay = pair
        for cs, cp in zip(first.clusters, replay.clusters):
            a = [(e.time, e.payload) for e in cs.events.of_kind("faults")]
            b = [(e.time, e.payload) for e in cp.events.of_kind("faults")]
            assert a and a == b


class TestSinkOutageRecovery:
    """An outage delays telemetry; after the sink heals, nothing is lost."""

    DURATION = 2 * HOUR

    def run_pair(self):
        baseline = make_fleet(seed=33, clusters=1)
        chaotic = make_fleet(seed=33, clusters=1)
        plan = FaultPlan(events=(
            FaultEvent(time=1800, kind=FaultKind.SINK_OUTAGE,
                       duration=1800, target=ALL_MACHINES),
        ))
        chaotic.clusters[0].attach_fault_injector(
            FaultInjector(plan, SeedSequenceFactory(5))
        )
        baseline.run(self.DURATION)
        chaotic.run(self.DURATION)
        return baseline, chaotic

    def test_no_entries_lost_after_heal(self):
        baseline, chaotic = self.run_pair()
        registry = chaotic.registry
        assert registry.value("repro_telemetry_sink_outages_total") > 0
        spilled = registry.value("repro_telemetry_spilled_entries_total")
        assert spilled > 0
        assert registry.value(
            "repro_telemetry_replayed_entries_total") == spilled
        assert registry.value("repro_telemetry_dropped_entries_total") == 0
        for exporter in chaotic.clusters[0].exporters.values():
            assert not exporter.sink_degraded

        # The delivered traces are exactly the fault-free ones.
        assert baseline.trace_db.job_ids == chaotic.trace_db.job_ids
        for job_id in baseline.trace_db.job_ids:
            a = [e.to_dict()
                 for e in baseline.trace_db.trace_for(job_id).entries]
            b = [e.to_dict()
                 for e in chaotic.trace_db.trace_for(job_id).entries]
            assert a == b


class TestStormSloCompliance:
    """During a fleet-wide incompressible storm the controller degrades
    *coverage*, never the promotion SLO: rejected compressions rise and
    far-memory coverage falls, while the promotion-rate SLI stays no
    worse than a fault-free run of the same fleet.  (The absolute 0.2
    %/min target is a steady-state fleet number; a 2-hour toy fleet's
    p98 is dominated by warm-up transients even fault-free, so the SLO
    check is the *impact* vs baseline — the same comparison the
    ``repro chaos`` CLI reports.)"""

    DURATION = 2 * HOUR

    def test_storm_degrades_coverage_not_the_slo(self):
        baseline = make_fleet(seed=44, clusters=1)
        storm = make_fleet(seed=44, clusters=1)
        attach_scenario(storm, "storm", self.DURATION, seed=6)
        baseline.run(self.DURATION)
        storm.run(self.DURATION)
        assert sum(
            c.fault_injector.faults_injected for c in storm.clusters
        ) > 0

        # The storm visibly bit: more rejections, less coverage.
        assert storm.registry.value(
            "repro_pages_rejected_total"
        ) > baseline.registry.value("repro_pages_rejected_total")
        base_report = baseline.coverage_report()
        storm_report = storm.coverage_report()
        assert storm_report["coverage"] < base_report["coverage"]

        # ...but the promotion-rate SLI did not degrade: fewer pages in
        # zswap can only mean fewer promotions, and the threshold
        # controller keeps the rate at (or below) the fault-free level.
        assert (
            storm_report["promotion_rate_p98_pct_per_min"]
            <= base_report["promotion_rate_p98_pct_per_min"]
        )
