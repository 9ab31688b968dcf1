"""The autotuning pipeline (paper §5.3).

The paper's loop, verbatim:

1. run GP-Bandit over existing observations to obtain configurations to
   explore;
2. run the fast far memory model over a week of fleet traces, estimating
   cold memory captured and the p98 promotion rate per configuration;
3. add observations to the pool; repeat until the iteration budget is
   spent.

The best feasible configuration is then handed to staged deployment
(:mod:`repro.autotuner.deployment`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.common.errors import AutotunerError
from repro.common.validation import check_positive
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.model.replay import FarMemoryModel, FleetReplayReport
from repro.autotuner.gp_bandit import GpBandit
from repro.autotuner.search_space import (
    SearchSpace,
    config_from_values,
    far_memory_search_space,
)
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["Trial", "TuningResult", "AutotuningPipeline"]


@dataclass(frozen=True)
class Trial:
    """One evaluated configuration.

    Attributes:
        config: the policy parameters tried.
        report: the fast-model replay report.
        iteration: which pipeline iteration produced it.
    """

    config: ThresholdPolicyConfig
    report: FleetReplayReport
    iteration: int

    @property
    def feasible(self) -> bool:
        return self.report.meets_slo

    @property
    def objective(self) -> float:
        return self.report.total_cold_pages


@dataclass
class TuningResult:
    """Outcome of a pipeline run.

    Attributes:
        trials: every evaluated trial, in order.
        best: the best feasible trial (None if nothing was feasible).
    """

    trials: List[Trial] = field(default_factory=list)
    best: Optional[Trial] = None

    @property
    def best_config(self) -> ThresholdPolicyConfig:
        """The winning configuration.

        Raises:
            AutotunerError: if no feasible configuration was found.
        """
        if self.best is None:
            raise AutotunerError("no feasible configuration found")
        return self.best.config

    def objective_curve(self) -> List[float]:
        """Best feasible objective after each trial (for convergence plots)."""
        curve = []
        best_so_far = float("-inf")
        for trial in self.trials:
            if trial.feasible:
                best_so_far = max(best_so_far, trial.objective)
            curve.append(best_so_far)
        return curve


class AutotuningPipeline:
    """GP-Bandit over the fast far memory model.

    Args:
        model: the fleet replay model (built from a week of traces).
        space: the parameter space; defaults to the paper's (K, S).
        batch_size: configurations evaluated per bandit iteration.
        seed: bandit candidate-sampling seed.
        registry: metrics registry (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    def __init__(
        self,
        model: FarMemoryModel,
        space: Optional[SearchSpace] = None,
        batch_size: int = 4,
        seed: int = 0,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        check_positive(batch_size, "batch_size")
        self.model = model
        self.space = space if space is not None else far_memory_search_space()
        self.batch_size = int(batch_size)
        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self.bandit = GpBandit(
            self.space,
            constraint_limit=model.slo.target_pct_per_min,
            seed=seed,
            registry=registry,
            tracer=self._tracer,
        )
        self._m_trials = registry.counter(
            MetricName.AUTOTUNER_TRIALS_TOTAL,
            "Configurations evaluated by the fast far memory model."
        )
        self._m_feasible = registry.counter(
            MetricName.AUTOTUNER_FEASIBLE_TRIALS_TOTAL,
            "Evaluated configurations that met the promotion-rate SLO."
        )
        self._g_best = registry.gauge(
            MetricName.AUTOTUNER_BEST_OBJECTIVE_COLD_PAGES,
            "Best feasible objective (cold pages captured) so far."
        )

    def run(self, iterations: int = 8) -> TuningResult:
        """Execute the explore-evaluate-observe loop."""
        check_positive(iterations, "iterations")
        result = TuningResult()
        for iteration in range(iterations):
            with self._tracer.span("autotuner.iteration", iteration=iteration):
                points = self.bandit.suggest(self.batch_size)
                configs = [
                    config_from_values(self.space.from_unit(point))
                    for point in points
                ]
                # One batched model call per bandit iteration: the fast
                # model replays the whole suggestion batch over the fleet
                # tensor, one array pass per configuration.
                with self._tracer.span("autotuner.evaluate", batch=len(configs)):
                    reports = self.model.evaluate_many(configs)
                for point, config, report in zip(points, configs, reports):
                    self.bandit.observe(
                        point,
                        objective=report.total_cold_pages,
                        constraint=report.promotion_rate_p98,
                    )
                    trial = Trial(config, report, iteration)
                    result.trials.append(trial)
                    self._m_trials.inc()
                    if trial.feasible:
                        self._m_feasible.inc()
            best = self.bandit.best()
            if best is not None:
                self._g_best.set(best.objective)

        # The bandit's observation pool can outlive one run() (e.g. a warm
        # start seeded it with feasible points), so bandit.best() being
        # non-None does not guarantee *this* run produced a feasible trial.
        feasible = [t for t in result.trials if t.feasible]
        if feasible:
            result.best = max(feasible, key=lambda t: t.objective)
        return result

    def propose(self):
        """One bandit suggestion for *online* evaluation.

        Where :meth:`run` scores suggestions with the fast offline model,
        the online controller (:mod:`repro.autotuner.controller`) canaries
        them on the live fleet and reports the measured outcome back via
        :meth:`observe_measured`.

        Returns:
            ``(point, config)`` — the bandit's unit-cube point and the
            decoded :class:`ThresholdPolicyConfig`.
        """
        point = self.bandit.suggest(1)[0]
        return point, config_from_values(self.space.from_unit(point))

    def observe_measured(self, point, objective: float,
                         constraint: float) -> None:
        """Feed a live-fleet measurement back into the bandit.

        Args:
            point: the unit-cube point :meth:`propose` returned.
            objective: cold pages captured (higher is better).
            constraint: measured p98 normalized promotion rate.
        """
        self.bandit.observe(point, objective=float(objective),
                            constraint=float(constraint))
        self._m_trials.inc()
        if constraint <= self.model.slo.target_pct_per_min:
            self._m_feasible.inc()
        best = self.bandit.best()
        if best is not None:
            self._g_best.set(best.objective)

    def run_random_baseline(
        self, n_trials: int, seed: int = 1
    ) -> TuningResult:
        """Random search at the same trial budget (the ablation baseline)."""
        check_positive(n_trials, "n_trials")
        rng = np.random.default_rng(seed)
        result = TuningResult()
        # Draw every point up front (same rng stream as the one-at-a-time
        # loop), then evaluate in batched model calls of batch_size.
        points = [rng.random(self.space.dim) for _ in range(n_trials)]
        configs = [
            config_from_values(self.space.from_unit(point)) for point in points
        ]
        for start in range(0, n_trials, self.batch_size):
            batch = configs[start:start + self.batch_size]
            for offset, report in enumerate(self.model.evaluate_many(batch)):
                index = start + offset
                result.trials.append(Trial(configs[index], report, index))
        feasible = [t for t in result.trials if t.feasible]
        if feasible:
            result.best = max(feasible, key=lambda t: t.objective)
        return result
