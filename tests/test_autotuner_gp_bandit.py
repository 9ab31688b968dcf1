"""Constrained GP-Bandit optimization."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.autotuner.gp_bandit import GpBandit
from repro.autotuner.search_space import ContinuousParameter, SearchSpace


def make_space(dim=2):
    return SearchSpace(
        [ContinuousParameter(f"x{i}", 0.0, 1.0) for i in range(dim)]
    )


def objective(point):
    """Peak at (0.7, 0.3)."""
    return -np.sum((point - np.array([0.7, 0.3])) ** 2)


def constraint(point):
    """Feasible iff x0 <= 0.8 (value below limit 0.8)."""
    return float(point[0])


class TestObservations:
    def test_best_requires_feasibility(self):
        bandit = GpBandit(make_space(), constraint_limit=0.8, seed=0)
        bandit.observe(np.array([0.9, 0.3]), objective=100.0, constraint=0.9)
        assert bandit.best() is None
        bandit.observe(np.array([0.5, 0.3]), objective=1.0, constraint=0.5)
        assert bandit.best().objective == 1.0

    def test_best_picks_max_feasible(self):
        bandit = GpBandit(make_space(), constraint_limit=1.0, seed=0)
        for value in (1.0, 5.0, 3.0):
            bandit.observe(np.random.default_rng(int(value)).random(2),
                           objective=value, constraint=0.0)
        assert bandit.best().objective == 5.0

    def test_observe_copies_the_point(self):
        bandit = GpBandit(make_space(), constraint_limit=1.0, seed=0)
        point = np.array([0.25, 0.75])
        bandit.observe(point, objective=1.0, constraint=0.0)
        point[0] = 0.9
        recorded = bandit.observations[-1].point
        assert recorded.tolist() == [0.25, 0.75]
        assert recorded.base is None

    def test_suggested_points_own_their_memory(self):
        bandit = GpBandit(make_space(), constraint_limit=1.0, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(6):
            point = rng.random(2)
            bandit.observe(point, objective(point), constraint(point))
        assert all(point.base is None for point in bandit.suggest(3))

    def test_rejects_bad_observations(self):
        bandit = GpBandit(make_space(), constraint_limit=1.0)
        with pytest.raises(ConfigurationError):
            bandit.observe(np.array([0.5]), objective=1.0, constraint=0.0)
        with pytest.raises(ConfigurationError):
            bandit.observe(np.array([0.5, 0.5]), objective=float("nan"),
                           constraint=0.0)


class TestSuggest:
    def test_initial_suggestions_space_filling(self):
        bandit = GpBandit(make_space(), constraint_limit=1.0, seed=1)
        points = bandit.suggest(4)
        assert len(points) == 4
        stacked = np.vstack(points)
        assert stacked.min() >= 0 and stacked.max() <= 1

    def test_batch_suggestions_distinct(self):
        bandit = GpBandit(make_space(), constraint_limit=1.0, seed=1)
        for _ in range(6):
            point = np.random.default_rng(_).random(2)
            bandit.observe(point, objective(point), constraint(point))
        points = bandit.suggest(3)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(points[i] - points[j]) > 0.01

    def test_model_guides_toward_optimum(self):
        """After enough observations, suggestions should concentrate near
        the known optimum rather than wander uniformly."""
        bandit = GpBandit(make_space(), constraint_limit=2.0, beta=1.0,
                          seed=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            point = rng.random(2)
            bandit.observe(point, objective(point), 0.0)
        suggestion = bandit.suggest(1)[0]
        assert np.linalg.norm(suggestion - np.array([0.7, 0.3])) < 0.35

    def test_constraint_steers_away_from_infeasible(self):
        """With the optimum deep in infeasible territory, suggestions stay
        on the feasible side."""
        space = make_space()
        bandit = GpBandit(space, constraint_limit=0.5, beta=0.5, seed=4)
        rng = np.random.default_rng(1)
        for _ in range(25):
            point = rng.random(2)
            # Objective increases with x0 but x0 > 0.5 is infeasible.
            bandit.observe(point, float(point[0]), float(point[0]))
        suggestions = bandit.suggest(4)
        feasible_like = sum(1 for p in suggestions if p[0] <= 0.6)
        assert feasible_like >= 3


class TestEndToEndOptimization:
    def test_finds_constrained_optimum(self):
        """The bandit should beat random search on a simple constrained
        problem at an equal evaluation budget."""
        space = make_space()
        bandit = GpBandit(space, constraint_limit=0.8, beta=2.0, seed=7)
        for _ in range(24):
            point = bandit.suggest(1)[0]
            bandit.observe(point, objective(point), constraint(point))
        best = bandit.best()
        assert best is not None
        assert best.constraint <= 0.8
        # The feasible optimum is at (0.7, 0.3) with objective 0.
        assert best.objective > -0.05
