"""Chaos determinism for the online canary controller.

Every fault scenario in :mod:`repro.faults` is replayed through a full
canary round twice with the same seeds, and the two
:class:`CanaryDecision`\\ s must agree bit-for-bit on
:meth:`CanaryDecision.signature`, floats included. The controller has no
wall clock and no RNG of its own, so any divergence here means
nondeterminism leaked into the rollout path.
"""

import pytest

from repro.autotuner import DeploymentStage, FleetController
from repro.cluster import quickfleet
from repro.core.threshold_policy import (
    FixedThresholdPolicy,
    PaperPolicy,
)
from repro.faults import SCENARIO_NAMES, attach_scenario
from repro.obs import MetricRegistry, Tracer


STAGES = (
    DeploymentStage("qualification", 0.5, 600),
    DeploymentStage("production", 1.0, 600),
)

#: Warmup plus both soaks — every scenario spans the whole round, and
#: sink_outage's middle third (600..1200 s) blankets the first soak.
SCENARIO_SECONDS = 1800


def run_canary(scenario, policy, *, slo_limit, seed=31):
    registry, tracer = MetricRegistry(), Tracer()
    fleet = quickfleet(
        clusters=2,
        machines_per_cluster=2,
        jobs_per_machine=2,
        seed=seed,
        churn_duration_range=(900, 1800),
        registry=registry,
        tracer=tracer,
    )
    attach_scenario(
        fleet, scenario, duration_seconds=SCENARIO_SECONDS, seed=7
    )
    fleet.run(600)  # warm up under chaos
    controller = FleetController(
        fleet,
        stages=STAGES,
        slo_limit=slo_limit,
        registry=registry,
        tracer=tracer,
    )
    return controller.canary(policy), fleet


class TestDecisionsReplay:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_same_seed_rounds_agree_bit_for_bit(self, scenario):
        first, _ = run_canary(scenario, PaperPolicy(), slo_limit=0.2)
        replay, _ = run_canary(scenario, PaperPolicy(), slo_limit=0.2)
        assert first.signature() == replay.signature()
        assert first.reason in (
            "promoted", "slo-breach", "insufficient-coverage"
        )


class TestRollbackUnderChaos:
    @pytest.mark.parametrize("scenario", ["storm", "mixed"])
    def test_breaching_policy_never_survives_chaos(self, scenario):
        # A near-zero promotion budget forces the first stage to fail
        # whatever the scenario does; the fault episodes must not keep
        # the breaching policy alive anywhere in the fleet.
        breaching = FixedThresholdPolicy(
            threshold_seconds=120.0, warmup_seconds=0
        )
        decision, fleet = run_canary(scenario, breaching, slo_limit=1e-6)
        assert not decision.promoted
        for cluster in fleet.clusters:
            assert cluster.policy != breaching
            for agent in cluster.agents.values():
                assert agent.policy != breaching

    def test_sink_outage_starves_the_canary_closed(self):
        # The blanket outage silences every machine across the first
        # soak: the controller must fail closed, not promote on silence.
        decision, _ = run_canary("sink_outage", PaperPolicy(), slo_limit=1e9)
        assert not decision.promoted
        assert decision.reason == "insufficient-coverage"
