"""GP-Bandit: constrained Bayesian optimization (paper §5.3).

The paper optimizes far-memory parameters with Gaussian Process Bandit
[Srinivas et al. 2010; Golovin et al. 2017]: a GP models the objective
surface, an upper-confidence-bound acquisition balances exploration and
exploitation, and the next trial is the acquisition's argmax.

The far-memory problem is *constrained* — maximize cold memory captured
subject to p98 promotion rate <= SLO — so a second GP models the
constraint and the acquisition is weighted by the probability of
feasibility (constrained UCB / expected-feasible-improvement style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.stats import norm

from repro.common.validation import check_positive, require
from repro.autotuner.gp import GaussianProcess
from repro.autotuner.kernels import Matern52Kernel
from repro.autotuner.search_space import SearchSpace
from repro.obs import (
    MetricName,
    MetricRegistry,
    Tracer,
    get_registry,
    get_tracer,
)

__all__ = ["Observation", "GpBandit"]


@dataclass(frozen=True)
class Observation:
    """One completed trial.

    Attributes:
        point: unit-cube coordinates of the configuration.
        objective: the value being maximized (cold memory captured).
        constraint: the constrained metric (p98 promotion rate); must be
            <= ``constraint_limit`` (set on the bandit) to be feasible.
    """

    point: np.ndarray
    objective: float
    constraint: float


class GpBandit:
    """Constrained GP-UCB over a box search space.

    Args:
        space: the parameter space (GPs operate on its unit cube).
        constraint_limit: feasibility boundary for the constraint metric.
        beta: UCB exploration weight (std multiplier).
        candidates_per_suggest: random candidates scored per suggestion.
        seed: RNG seed for candidate sampling.
        acquisition: ``"ucb"`` (upper confidence bound, the GP-Bandit
            default) or ``"ei"`` (expected improvement over the best
            feasible observation) — both feasibility-weighted.
        registry: metrics registry (defaults to the process-global one).
        tracer: span tracer (defaults to the process-global one).
    """

    ACQUISITIONS = ("ucb", "ei")

    def __init__(
        self,
        space: SearchSpace,
        constraint_limit: float,
        beta: float = 2.0,
        candidates_per_suggest: int = 2048,
        seed: int = 0,
        acquisition: str = "ucb",
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        check_positive(beta, "beta")
        check_positive(candidates_per_suggest, "candidates_per_suggest")
        require(
            acquisition in self.ACQUISITIONS,
            f"unknown acquisition {acquisition!r}; known: {self.ACQUISITIONS}",
        )
        self.space = space
        self.constraint_limit = float(constraint_limit)
        self.beta = float(beta)
        self.candidates_per_suggest = int(candidates_per_suggest)
        self.acquisition = acquisition
        self._rng = np.random.default_rng(seed)
        self.observations: List[Observation] = []

        registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._m_suggestions = registry.counter(
            MetricName.BANDIT_SUGGESTIONS_TOTAL,
            "Configurations proposed by the GP bandit."
        )
        self._m_observations = registry.counter(
            MetricName.BANDIT_OBSERVATIONS_TOTAL,
            "Completed trials fed back to the GP bandit."
        )

    # ------------------------------------------------------------------
    # Observation bookkeeping
    # ------------------------------------------------------------------

    def observe(
        self, point: np.ndarray, objective: float, constraint: float
    ) -> None:
        """Record a completed trial (the point is copied, so the caller
        may reuse its array)."""
        point = np.asarray(point, dtype=np.float64).flatten()
        require(point.size == self.space.dim, "point dimension mismatch")
        require(np.isfinite(objective), "objective must be finite")
        require(np.isfinite(constraint), "constraint must be finite")
        self.observations.append(Observation(point, objective, constraint))
        self._m_observations.inc()

    @property
    def feasible_observations(self) -> List[Observation]:
        """Trials that satisfied the constraint."""
        return [
            o for o in self.observations if o.constraint <= self.constraint_limit
        ]

    def best(self) -> Optional[Observation]:
        """Best feasible trial so far (None if no trial was feasible)."""
        feasible = self.feasible_observations
        if not feasible:
            return None
        return max(feasible, key=lambda o: o.objective)

    # ------------------------------------------------------------------
    # Suggestion
    # ------------------------------------------------------------------

    def suggest(self, n: int = 1) -> List[np.ndarray]:
        """Propose the next ``n`` configurations to try.

        With fewer than ``2 * dim`` observations, suggestions are
        space-filling (Latin hypercube).  Afterwards each suggestion
        maximizes feasibility-weighted UCB over a fresh random candidate
        set; batch diversity comes from penalizing candidates close to
        already-chosen batch members.
        """
        check_positive(n, "n")
        with self._tracer.span("gp_bandit.suggest", n=n):
            if len(self.observations) < 2 * self.space.dim:
                self._m_suggestions.inc(n)
                return list(self.space.sample(n, self._rng))

            objective_gp, constraint_gp = self._fit_models()
            chosen: List[np.ndarray] = []
            for _ in range(n):
                candidates = self._rng.random(
                    (self.candidates_per_suggest, self.space.dim)
                )
                scores = self._acquisition(
                    candidates, objective_gp, constraint_gp
                )
                for prior in chosen:
                    distance = np.linalg.norm(candidates - prior, axis=1)
                    scores = np.where(distance < 0.05, -np.inf, scores)
                # A copy, so the point does not pin the candidate buffer.
                chosen.append(candidates[int(np.argmax(scores))].copy())
            self._m_suggestions.inc(n)
            return chosen

    def _fit_models(self) -> Tuple[GaussianProcess, GaussianProcess]:
        with self._tracer.span(
            "gp_bandit.fit", observations=len(self.observations)
        ):
            return self._fit_models_inner()

    def _fit_models_inner(self) -> Tuple[GaussianProcess, GaussianProcess]:
        x = np.vstack([o.point for o in self.observations])
        y_obj = np.array([o.objective for o in self.observations])
        y_con = np.array([o.constraint for o in self.observations])
        objective_gp = GaussianProcess(Matern52Kernel(0.2)).fit(
            x, y_obj, optimize_hyperparameters=len(self.observations) >= 5
        )
        constraint_gp = GaussianProcess(Matern52Kernel(0.2)).fit(
            x, y_con, optimize_hyperparameters=len(self.observations) >= 5
        )
        return objective_gp, constraint_gp

    def _acquisition(
        self,
        candidates: np.ndarray,
        objective_gp: GaussianProcess,
        constraint_gp: GaussianProcess,
    ) -> np.ndarray:
        """Feasibility-weighted UCB (feasibility-only until one feasible
        trial exists)."""
        con_mean, con_std = constraint_gp.predict(candidates)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (self.constraint_limit - con_mean) / np.where(
                con_std > 0, con_std, np.inf
            )
        feasibility = norm.cdf(z)
        # Deterministic-feasible points (zero predictive std) get 0/1.
        exact = con_std <= 0
        feasibility = np.where(
            exact, (con_mean <= self.constraint_limit).astype(float), feasibility
        )
        best = self.best()
        if best is None:
            # Nothing feasible found yet: hunt the feasible region itself
            # (maximize probability of feasibility; objective only breaks
            # ties).  Without this, a thin feasible sliver can starve.
            mean, std = objective_gp.predict(candidates)
            span = mean.max() - mean.min()
            tiebreak = (mean - mean.min()) / span if span > 0 else 0.0
            return feasibility + 1e-3 * tiebreak
        mean, std = objective_gp.predict(candidates)
        if self.acquisition == "ei":
            # Expected improvement over the best feasible observation.
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (mean - best.objective) / np.where(std > 0, std, np.inf)
            value = (mean - best.objective) * norm.cdf(z) + std * norm.pdf(z)
            value = np.where(std > 0, value,
                             np.maximum(mean - best.objective, 0.0))
        else:
            value = mean + self.beta * std
        # Shift to be positive so the feasibility weight cannot flip the
        # preference ordering of infeasible-but-high-value points.
        shifted = value - value.min() + 1e-9
        return shifted * feasibility
