"""Deterministic fault injection & graceful degradation (``repro.faults``).

Chaos layer for the reproduction: seeded :class:`FaultPlan` schedules
(machine crash/repair, telemetry-sink outages, incompressible storms,
compression failures, memory-pressure spikes, histogram corruption)
executed by a :class:`FaultInjector` from inside ``Cluster.tick``, so a
chaos run replays bit-for-bit for the same seeds.

See ``docs/fault_injection.md`` for the scenario catalog and the degraded
modes each consumer implements.
"""

from __future__ import annotations

from repro.common.rng import SeedSequenceFactory
from repro.faults.injector import (
    BrokenSink,
    FaultInjector,
    SinkUnavailableError,
)
from repro.faults.plan import (
    ALL_MACHINES,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    KNOWN_FAULT_KINDS,
    SCENARIO_NAMES,
    build_scenario,
)

__all__ = [
    "ALL_MACHINES",
    "BrokenSink",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "KNOWN_FAULT_KINDS",
    "SCENARIO_NAMES",
    "SinkUnavailableError",
    "attach_scenario",
    "build_scenario",
]


def attach_scenario(
    fleet,
    name: str,
    duration_seconds: int,
    seed: int = 0,
) -> None:
    """Attach a named chaos scenario to every cluster of a fleet.

    Each cluster gets its own plan and injector, built from disjoint
    forks of one root seed, so sibling clusters see independent — but
    individually reproducible — fault schedules.

    Args:
        fleet: a :class:`repro.cluster.WSC` (duck-typed: ``clusters``).
        name: scenario name from :data:`SCENARIO_NAMES`.
        duration_seconds: intended run length (event times scale with it).
        seed: root seed for the whole chaos layer.
    """
    seeds = SeedSequenceFactory(seed)
    for index, cluster in enumerate(fleet.clusters):
        plan = build_scenario(
            name,
            seeds.fork("chaos_plan", index=index),
            duration_seconds,
            n_machines=len(cluster.machines),
        )
        cluster.attach_fault_injector(
            FaultInjector(plan, seeds.fork("chaos_rng", index=index))
        )
