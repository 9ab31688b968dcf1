"""Fast-model validation: do offline predictions track live outcomes?

The autotuner trusts the fast far memory model to *rank* parameter
configurations — the deployed winner is only as good as that ranking.
This module measures the agreement between model predictions and live
fleet measurements for a set of configurations:

* the model's objective (cold pages captured) vs the live fleet's
  measured coverage, and
* the model's constraint estimate (p98 promotion rate) vs the live SLI,

summarized as Spearman rank correlations (ranking quality is the property
the pipeline depends on; absolute calibration is not required).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy import stats as scipy_stats

from repro.common.errors import AutotunerError
from repro.core.threshold_policy import ThresholdPolicyConfig
from repro.model.replay import FarMemoryModel

__all__ = ["ConfigOutcome", "ValidationReport", "ModelValidator"]


@dataclass(frozen=True)
class ConfigOutcome:
    """Model prediction and live measurement for one configuration.

    Attributes:
        config: the parameters evaluated.
        model_cold_pages: the model's objective value.
        model_p98: the model's constraint estimate (%/min).
        live_coverage: measured fleet coverage under the config.
        live_p98: measured fleet p98 normalized promotion rate (%/min).
    """

    config: ThresholdPolicyConfig
    model_cold_pages: float
    model_p98: float
    live_coverage: float
    live_p98: float


@dataclass(frozen=True)
class ValidationReport:
    """Rank-agreement summary over a configuration set.

    Attributes:
        outcomes: the per-config records.
        objective_rank_correlation: Spearman rho between model cold pages
            and live coverage.
        constraint_rank_correlation: Spearman rho between model p98 and
            live p98.
    """

    outcomes: List[ConfigOutcome]
    objective_rank_correlation: float
    constraint_rank_correlation: float

    @property
    def model_ranks_usefully(self) -> bool:
        """True when both correlations are positive — the bar the
        autotuner needs to make progress."""
        return (
            self.objective_rank_correlation > 0
            and self.constraint_rank_correlation > 0
        )


class ModelValidator:
    """Collects model predictions and live measurements per config.

    Args:
        model: the fast far memory model (built from reference traces).
    """

    def __init__(self, model: FarMemoryModel):
        self.model = model
        self._outcomes: List[ConfigOutcome] = []

    def record(
        self,
        config: ThresholdPolicyConfig,
        live_coverage: float,
        live_p98: float,
    ) -> ConfigOutcome:
        """Evaluate ``config`` on the model and pair it with live numbers."""
        report = self.model.evaluate(config)
        outcome = ConfigOutcome(
            config=config,
            model_cold_pages=report.total_cold_pages,
            model_p98=report.promotion_rate_p98,
            live_coverage=float(live_coverage),
            live_p98=float(live_p98),
        )
        self._outcomes.append(outcome)
        return outcome

    def report(self) -> ValidationReport:
        """Compute the rank-agreement report.

        Raises:
            AutotunerError: with fewer than three configurations (rank
                correlation is meaningless below that).
        """
        require_count = 3
        if len(self._outcomes) < require_count:
            raise AutotunerError(
                f"need >= {require_count} configurations to validate, "
                f"have {len(self._outcomes)}"
            )
        model_obj = [o.model_cold_pages for o in self._outcomes]
        live_obj = [o.live_coverage for o in self._outcomes]
        model_con = [o.model_p98 for o in self._outcomes]
        live_con = [o.live_p98 for o in self._outcomes]
        objective_rho = _spearman(model_obj, live_obj)
        constraint_rho = _spearman(model_con, live_con)
        return ValidationReport(
            outcomes=list(self._outcomes),
            objective_rank_correlation=objective_rho,
            constraint_rank_correlation=constraint_rho,
        )


def _spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rho, mapping degenerate (constant) inputs to 0."""
    if np.std(a) == 0 or np.std(b) == 0:
        return 0.0
    rho, _ = scipy_stats.spearmanr(a, b)
    return float(rho) if np.isfinite(rho) else 0.0
