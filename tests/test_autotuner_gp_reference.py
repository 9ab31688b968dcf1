"""The stacked hyperparameter fit against a naive reference fit.

The reference evaluates the negative log marginal likelihood one
parameter point at a time and lets scipy's L-BFGS-B take its own default
finite differences (no ``jac``), so it pins both the likelihood
arithmetic and scipy's gradient.  The production fit must reproduce it
bit for bit: same hyperparameters, same ``alpha``, same predictions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize
from scipy.linalg import cho_solve, cholesky

from repro.autotuner import gp as gp_module
from repro.autotuner.gp import GaussianProcess
from repro.autotuner.gp_bandit import GpBandit
from repro.autotuner.kernels import Matern52Kernel, RbfKernel
from repro.autotuner.search_space import ContinuousParameter, SearchSpace
from repro.obs import Tracer


def reference_negative_lml(kernel, x, y_norm, log_params, factor=cholesky):
    """Negative LML at one log-space point ``(lengthscales, variance,
    noise)``; ``factor`` stands in for ``scipy.linalg.cholesky``."""
    dim = x.shape[1]
    scales = np.exp(log_params[:dim])
    variance = float(np.exp(log_params[dim]))
    noise = float(np.exp(log_params[dim + 1]))
    k = kernel.with_params(scales, variance)(x, x)
    k[np.diag_indices_from(k)] += noise + gp_module.JITTER
    try:
        lower = factor(k, lower=True)
    except np.linalg.LinAlgError:
        return 1e10
    alpha = cho_solve((lower, True), y_norm)
    lml = (
        -0.5 * float(y_norm @ alpha)
        - float(np.log(np.diag(lower)).sum())
        - 0.5 * y_norm.size * np.log(2 * np.pi)
    )
    return -lml


def reference_optimize(gp, x, y_norm, restarts, seed, factor=cholesky):
    """Drop-in for ``GaussianProcess._optimize_hyperparameters``."""
    dim = x.shape[1]
    rng = np.random.default_rng(seed)

    def negative_lml(log_params):
        return reference_negative_lml(gp.kernel, x, y_norm, log_params, factor)

    starts = [
        np.concatenate(
            [
                np.log(gp.kernel._broadcast_scales(dim)),
                [np.log(gp.kernel.variance)],
                [np.log(gp.noise_variance)],
            ]
        )
    ]
    for _ in range(restarts):
        starts.append(
            np.concatenate(
                [
                    rng.uniform(np.log(0.05), np.log(2.0), size=dim),
                    [rng.uniform(np.log(0.1), np.log(4.0))],
                    [rng.uniform(np.log(1e-6), np.log(1e-1))],
                ]
            )
        )
    bounds = (
        [(np.log(1e-2), np.log(1e1))] * dim
        + [(np.log(1e-3), np.log(1e2))]
        + [(np.log(1e-8), np.log(1.0))]
    )
    best = None
    for start in starts:
        result = optimize.minimize(
            negative_lml, start, method="L-BFGS-B", bounds=bounds
        )
        if best is None or result.fun < best.fun:
            best = result
    if best is not None and np.isfinite(best.fun):
        gp.kernel = gp.kernel.with_params(
            np.exp(best.x[:dim]), float(np.exp(best.x[dim]))
        )
        gp.noise_variance = float(np.exp(best.x[dim + 1]))


class ReferenceGaussianProcess(GaussianProcess):
    """A GP whose hyperparameters come from :func:`reference_optimize`."""

    factor = staticmethod(cholesky)

    def _optimize_hyperparameters(self, x, y_norm, restarts, seed):
        reference_optimize(self, x, y_norm, restarts, seed, self.factor)


def fitted_state(gp, probe):
    """Everything a fit decides, as bytes."""
    mean, std = gp.predict(probe)
    return {
        "lengthscales": gp.kernel.lengthscales.tobytes(),
        "variance": np.float64(gp.kernel.variance).tobytes(),
        "noise_variance": np.float64(gp.noise_variance).tobytes(),
        "alpha": gp._alpha.tobytes(),
        "mean": mean.tobytes(),
        "std": std.tobytes(),
    }


def fit_both(kernel, noise_variance, x, y, restarts, seed, probe):
    production = GaussianProcess(kernel, noise_variance).fit(
        x, y, restarts=restarts, seed=seed
    )
    reference = ReferenceGaussianProcess(kernel, noise_variance).fit(
        x, y, restarts=restarts, seed=seed
    )
    return fitted_state(production, probe), fitted_state(reference, probe)


@st.composite
def fit_cases(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((n, dim))
    if draw(st.booleans()):
        duplicates = int(rng.integers(1, n))
        x[:duplicates] = x[n - duplicates:]
    targets = draw(st.sampled_from(["smooth", "constant", "scaled"]))
    y = np.sin(5.0 * x).sum(axis=1) + 0.1 * rng.normal(size=n)
    if targets == "constant":
        y = np.full(n, 3.0)
    elif targets == "scaled":
        y = 1e5 * y
    kernel = draw(st.sampled_from([Matern52Kernel, RbfKernel]))(0.2)
    restarts = draw(st.integers(0, 3))
    probe = rng.random((7, dim))
    return kernel, x, y, restarts, int(rng.integers(0, 1000)), probe


@settings(max_examples=60, deadline=None)
@given(fit_cases())
def test_stacked_fit_matches_reference_bit_for_bit(case):
    kernel, x, y, restarts, seed, probe = case
    production, reference = fit_both(kernel, 1e-4, x, y, restarts, seed, probe)
    assert production == reference


def test_step_flips_below_the_upper_bound():
    """A start on the upper bound makes scipy step backwards; the stacked
    gradient must take the same backward step."""
    steps = []
    stacked = gp_module._StackedNegativeLml.__call__

    def spy(self, log_params):
        steps.append(np.diag(log_params[1:]) - log_params[0])
        return stacked(self, log_params)

    rng = np.random.default_rng(3)
    x = rng.random((12, 2))
    y = np.sin(4.0 * x[:, 0]) + x[:, 1]
    probe = rng.random((5, 2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp_module._StackedNegativeLml, "__call__", spy)
        production = GaussianProcess(Matern52Kernel(10.0), 1.0).fit(
            x, y, restarts=1, seed=4
        )
    reference = ReferenceGaussianProcess(Matern52Kernel(10.0), 1.0).fit(
        x, y, restarts=1, seed=4
    )
    assert any((step < 0).any() for step in steps)
    assert fitted_state(production, probe) == fitted_state(reference, probe)


def test_not_pd_slice_scores_the_penalty(monkeypatch):
    """A slice LAPACK rejects scores the penalty; the others are exact."""
    rng = np.random.default_rng(5)
    x = rng.random((10, 3))
    y_norm = rng.normal(size=10)
    kernel = Matern52Kernel(0.2)
    points = np.log(rng.uniform(0.05, 2.0, size=(6, 5)))
    real = gp_module.dpotrf
    calls = []

    def rejects_third(a, **kwargs):
        calls.append(None)
        lower, info = real(a, **kwargs)
        return lower, (1 if len(calls) == 3 else info)

    monkeypatch.setattr(gp_module, "dpotrf", rejects_third)
    lml = gp_module._StackedNegativeLml(
        kernel, x, y_norm, gp_module._log_bounds(3)
    )
    values = lml(points)
    expected = [reference_negative_lml(kernel, x, y_norm, p) for p in points]
    expected[2] = 1e10
    assert values.tolist() == expected
    assert lml.rows == 6


def test_not_pd_rejections_steer_both_fits_alike(monkeypatch):
    """Reject every Gram matrix whose first entry exceeds a bound, on
    both sides; the penalty shapes both optimizer paths identically."""
    limit = 1.2
    rejected = []
    real = gp_module.dpotrf

    def production_factor(a, **kwargs):
        lower, info = real(a, **kwargs)
        if a[0, 0] > limit:
            rejected.append(None)
            return lower, 1
        return lower, info

    def reference_factor(k, lower):
        if k[0, 0] > limit:
            raise np.linalg.LinAlgError("rejected")
        return cholesky(k, lower=lower)

    monkeypatch.setattr(gp_module, "dpotrf", production_factor)
    monkeypatch.setattr(
        ReferenceGaussianProcess, "factor", staticmethod(reference_factor)
    )
    rng = np.random.default_rng(6)
    x = rng.random((15, 2))
    y = np.cos(3.0 * x[:, 0]) * x[:, 1]
    probe = rng.random((5, 2))
    production, reference = fit_both(
        Matern52Kernel(0.2), 1e-4, x, y, restarts=3, seed=2, probe=probe
    )
    assert rejected
    assert production == reference


def test_fit_record_reads_back():
    rng = np.random.default_rng(8)
    x = rng.random((14, 2))
    y = np.sin(6.0 * x[:, 0])
    calls = []
    stacked = gp_module._StackedNegativeLml.__call__

    def spy(self, log_params):
        calls.append(len(log_params))
        return stacked(self, log_params)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp_module._StackedNegativeLml, "__call__", spy)
        gp = GaussianProcess().fit(x, y, restarts=2, seed=1)
    record = gp.hyperparameter_fit
    assert record.likelihood_rows == sum(calls) == 5 * len(calls)
    assert len(record.start_negative_lml) == 3
    assert record.chosen_start == int(np.argmin(record.start_negative_lml))
    chosen = record.start_negative_lml[record.chosen_start]
    assert -gp.log_marginal_likelihood() == pytest.approx(chosen, rel=1e-12)

    gp.fit(x, y, optimize_hyperparameters=False)
    assert gp.hyperparameter_fit is None


def make_space():
    return SearchSpace(
        [ContinuousParameter(f"x{i}", 0.0, 1.0) for i in range(2)]
    )


def run_bandit(iterations=6, batch=4):
    bandit = GpBandit(make_space(), constraint_limit=0.6, seed=11)
    suggestions = []
    for _ in range(iterations):
        points = bandit.suggest(batch)
        for point in points:
            objective = -float(np.sum((point - np.array([0.7, 0.3])) ** 2))
            bandit.observe(point, objective, float(point[0]))
        suggestions.extend(point.tobytes() for point in points)
    return suggestions


def test_bandit_suggests_the_same_points_as_with_the_reference_fit(
    monkeypatch,
):
    production = run_bandit()
    monkeypatch.setattr(
        GaussianProcess, "_optimize_hyperparameters", reference_optimize
    )
    assert run_bandit() == production


def test_fit_span_records_observations():
    tracer = Tracer()
    bandit = GpBandit(make_space(), constraint_limit=0.6, seed=2,
                      tracer=tracer)
    rng = np.random.default_rng(0)
    for _ in range(6):
        point = rng.random(2)
        bandit.observe(point, float(point.sum()), float(point[0]))
    bandit.suggest(1)
    fits = [r for r in tracer.records() if r.name == "gp_bandit.fit"]
    assert [r.attrs for r in fits] == [{"observations": 6}]
