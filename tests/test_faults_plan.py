"""Fault plans and the injector: schedules, episodes, degraded modes."""

import pytest

from repro.cluster import quickfleet
from repro.common.errors import ReproError
from repro.common.rng import SeedSequenceFactory
from repro.common.units import ZSMALLOC_MAX_PAYLOAD
from repro.faults import (
    ALL_MACHINES,
    BrokenSink,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    KNOWN_FAULT_KINDS,
    SCENARIO_NAMES,
    build_scenario,
)
from repro.obs import MetricRegistry, Tracer


def make_fleet(seed=3):
    return quickfleet(
        clusters=1,
        machines_per_cluster=2,
        jobs_per_machine=2,
        seed=seed,
        registry=MetricRegistry(),
        tracer=Tracer(),
    )


def attach(cluster, *events, seed=5):
    injector = FaultInjector(
        FaultPlan(events=tuple(events)), SeedSequenceFactory(seed)
    )
    cluster.attach_fault_injector(injector)
    return injector


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=0, kind="solar_flare")

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time=-1, kind=FaultKind.SINK_OUTAGE)

    def test_magnitude_must_be_fraction(self):
        with pytest.raises(ReproError):
            FaultEvent(time=0, kind=FaultKind.MEMORY_PRESSURE, magnitude=1.5)

    def test_end_time_for_episodic_and_instant(self):
        outage = FaultEvent(
            time=100, kind=FaultKind.SINK_OUTAGE, duration=50
        )
        assert outage.end_time == 150
        spike = FaultEvent(time=100, kind=FaultKind.MEMORY_PRESSURE)
        assert spike.end_time == float("inf")
        # A crash with duration=0 never repairs.
        crash = FaultEvent(time=100, kind=FaultKind.MACHINE_CRASH)
        assert crash.end_time == float("inf")


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(events=(
            FaultEvent(time=900, kind=FaultKind.SINK_OUTAGE, duration=60),
            FaultEvent(time=100, kind=FaultKind.MEMORY_PRESSURE),
        ))
        assert [e.time for e in plan.events] == [100, 900]
        assert len(plan) == 2

    def test_horizon_covers_episode_ends(self):
        plan = FaultPlan(events=(
            FaultEvent(time=100, kind=FaultKind.SINK_OUTAGE, duration=500),
            FaultEvent(time=400, kind=FaultKind.MEMORY_PRESSURE),
        ))
        assert plan.horizon() == 600


class TestScenarios:
    def test_known_names(self):
        assert "mixed" in SCENARIO_NAMES
        assert "crash" in SCENARIO_NAMES

    def test_unknown_name_raises(self):
        with pytest.raises(FaultPlanError):
            build_scenario("nope", SeedSequenceFactory(1), 3600, 4)

    def test_deterministic_per_seed(self):
        a = build_scenario("mixed", SeedSequenceFactory(9), 7200, 4)
        b = build_scenario("mixed", SeedSequenceFactory(9), 7200, 4)
        assert a == b

    def test_every_scenario_builds_valid_events(self):
        for name in SCENARIO_NAMES:
            plan = build_scenario(name, SeedSequenceFactory(2), 7200, 4)
            assert len(plan) > 0
            assert plan.name == name
            for event in plan.events:
                assert event.kind in KNOWN_FAULT_KINDS


class TestInjectorEpisodes:
    def test_sink_outage_wraps_and_unwraps_sinks(self):
        fleet = make_fleet()
        cluster = fleet.clusters[0]
        injector = attach(cluster, FaultEvent(
            time=300, kind=FaultKind.SINK_OUTAGE, duration=600,
            target=ALL_MACHINES,
        ))
        fleet.run(600)  # inside the episode (now=600)
        assert all(
            isinstance(e.sink, BrokenSink)
            for e in cluster.exporters.values()
        )
        assert injector.faults_injected == 1
        fleet.run(600)  # past the episode end (900)
        assert not any(
            isinstance(e.sink, BrokenSink)
            for e in cluster.exporters.values()
        )
        assert injector.faults_cleared == 1
        assert injector.done()
        assert len(cluster.events.of_kind("faults.injected")) == 1
        assert len(cluster.events.of_kind("faults.cleared")) == 1

    def test_crash_fails_then_repairs_machine(self):
        fleet = make_fleet()
        cluster = fleet.clusters[0]
        attach(cluster, FaultEvent(
            time=300, kind=FaultKind.MACHINE_CRASH, duration=600, target=0,
        ))
        fleet.run(1200)
        assert len(cluster.events.of_kind("cluster.machine_failure")) == 1
        assert len(cluster.events.of_kind("cluster.machine_repaired")) == 1
        assert fleet.registry.value("repro_faults_injected_total") == 1

    def test_storm_scales_cutoff_and_restores_it(self):
        fleet = make_fleet()
        cluster = fleet.clusters[0]
        attach(cluster, FaultEvent(
            time=300, kind=FaultKind.INCOMPRESSIBLE_STORM, duration=600,
            target=ALL_MACHINES, magnitude=0.5,
        ))
        fleet.run(600)
        degraded = int(ZSMALLOC_MAX_PAYLOAD * 0.5)
        assert all(
            m.zswap.max_payload_bytes == degraded for m in cluster.machines
        )
        fleet.run(600)
        assert all(
            m.zswap.max_payload_bytes == ZSMALLOC_MAX_PAYLOAD
            for m in cluster.machines
        )

    def test_storm_survives_runtime_rewiring(self):
        """Level-triggered enforcement: pointing the exporters back at
        the real sink mid-episode must not lift the fault — the next
        tick re-asserts it."""
        fleet = make_fleet()
        cluster = fleet.clusters[0]
        attach(cluster, FaultEvent(
            time=300, kind=FaultKind.SINK_OUTAGE, duration=900,
            target=ALL_MACHINES,
        ))
        fleet.run(600)
        for exporter in cluster.exporters.values():
            exporter.sink = fleet.trace_db
        assert not any(  # the rewiring reset the sinks...
            isinstance(e.sink, BrokenSink)
            for e in cluster.exporters.values()
        )
        fleet.run(60)  # ...and one tick puts the outage back
        assert all(
            isinstance(e.sink, BrokenSink)
            for e in cluster.exporters.values()
        )


class TestInstantFaults:
    def test_pressure_spike_fires_once(self):
        fleet = make_fleet()
        cluster = fleet.clusters[0]
        injector = attach(cluster, FaultEvent(
            time=300, kind=FaultKind.MEMORY_PRESSURE, target=0,
            magnitude=0.5,
        ))
        fleet.run(600)
        assert injector.faults_injected == 1
        assert injector.active_faults == ()
        assert injector.done()

    def test_histogram_corrupt_triggers_agent_rewarm(self):
        fleet = make_fleet()
        cluster = fleet.clusters[0]
        attach(cluster, FaultEvent(
            time=600, kind=FaultKind.HISTOGRAM_CORRUPT,
            target=ALL_MACHINES, magnitude=1.0,
        ))
        fleet.run(1200)
        rewarms = sum(a.rewarms for a in cluster.agents.values())
        assert rewarms > 0
        assert fleet.registry.value(
            "repro_agent_histogram_rewarms_total") == rewarms
        assert len(cluster.events.of_kind("agent.histogram_rewarm")) == rewarms

    def test_target_taken_modulo_machine_count(self):
        fleet = make_fleet()
        cluster = fleet.clusters[0]
        injector = attach(cluster, FaultEvent(
            time=60, kind=FaultKind.MACHINE_CRASH, duration=0,
            target=len(cluster.machines) + 1,
        ))
        fleet.run(120)
        failures = cluster.events.of_kind("cluster.machine_failure")
        assert len(failures) == 1
        expected = cluster.machines[1].machine_id  # (n+1) % n == 1
        assert failures[0].payload["machine"] == expected
        assert not injector.done()  # a one-way crash never clears
