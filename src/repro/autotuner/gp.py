"""Gaussian-process regression, from scratch.

Exact GP regression with a Gaussian likelihood: Cholesky factorization of
``K + sigma_n^2 I``, predictive mean and standard deviation, and the log
marginal likelihood (LML).  Targets are standardized internally so the
hyperparameter box and the restart draws are scale-free; predictions are
mapped back to the original units.

Hyperparameters (ARD lengthscales, signal variance, noise variance) are
fitted in log space by multi-start L-BFGS-B on the negative LML.  Each
optimizer step needs the LML at the current point and at one forward
finite-difference point per parameter; :class:`_StackedNegativeLml`
builds all ``dim + 3`` Gram matrices as one ``(P, n, n)`` stack and
hands scipy the value and gradient together.  Every row does the
arithmetic the one-point-at-a-time fit did, in the same order, and the
gradient is scipy's own default forward difference, so the optimizer
visits the same points and returns the same hyperparameters, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy import optimize
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

from repro.common.errors import AutotunerError
from repro.common.validation import check_positive, require
from repro.autotuner.kernels import Kernel, Matern52Kernel

__all__ = ["GaussianProcess", "HyperparameterFit"]

#: Jitter added to the diagonal for numerical stability.
JITTER = 1e-8

#: Absolute finite-difference step; scipy's L-BFGS-B default ``eps``.
FD_STEP = 1e-8

#: Negative LML given to a parameter point whose Gram matrix is not PD.
NOT_PD_PENALTY = 1e10


def _log_bounds(dim: int) -> List[Tuple[float, float]]:
    """L-BFGS-B box, in log space, for ``dim`` lengthscales, the signal
    variance and the noise variance (in that order)."""
    return (
        [(np.log(1e-2), np.log(1e1))] * dim
        + [(np.log(1e-3), np.log(1e2))]
        + [(np.log(1e-8), np.log(1.0))]
    )


@dataclass(frozen=True)
class HyperparameterFit:
    """How the last hyperparameter fit went, read off the optimizer.

    Attributes:
        likelihood_rows: negative-LML rows evaluated over all starts
            (``dim + 3`` per optimizer evaluation).
        start_negative_lml: each start's final negative LML, in start
            order (start 0 is the kernel's own parameters).
        chosen_start: index of the start whose parameters were kept, or
            None when no start reached a finite value.
    """

    likelihood_rows: int
    start_negative_lml: Tuple[float, ...]
    chosen_start: Optional[int]


class _StackedNegativeLml:
    """Negative log marginal likelihood of one data set, evaluated for a
    stack of log-space parameter rows ``(lengthscales, variance, noise)``.

    Row ``p`` repeats the single-point computation exactly: the Gram
    matrix from :meth:`Kernel.gram_stack`, ``noise + JITTER`` on its
    diagonal, LAPACK ``dpotrf`` / ``dpotrs`` (the routines behind
    ``scipy.linalg.cholesky`` / ``cho_solve``) on that slice, and the
    same LML expression.  A non-PD slice scores :data:`NOT_PD_PENALTY`.
    """

    def __init__(
        self,
        kernel: Kernel,
        x: np.ndarray,
        y_norm: np.ndarray,
        bounds: List[Tuple[float, float]],
    ):
        self.kernel = kernel
        self.x = x
        self.y_norm = y_norm
        self.upper = np.array([high for _, high in bounds])
        self.rows = 0
        self._diagonal = np.arange(x.shape[0])
        self._log_normalizer = 0.5 * y_norm.size * np.log(2 * np.pi)

    def __call__(self, log_params: np.ndarray) -> np.ndarray:
        """``(P, dim + 2)`` log-params -> ``(P,)`` negative LMLs.

        Raises:
            ValueError: if any Gram matrix holds a non-finite entry (the
                check ``scipy.linalg.cholesky`` makes).
        """
        dim = self.x.shape[1]
        gram = self.kernel.gram_stack(
            self.x, np.exp(log_params[:, :dim]), np.exp(log_params[:, dim])
        )
        noise = np.exp(log_params[:, dim + 1])
        gram[:, self._diagonal, self._diagonal] += (noise + JITTER)[:, None]
        if not np.isfinite(gram).all():
            raise ValueError("array must not contain infs or NaNs")
        self.rows += len(gram)
        quadratic = np.zeros(len(gram))
        diagonals = np.ones((len(gram), self.x.shape[0]))
        positive_definite = np.ones(len(gram), dtype=bool)
        for row, k in enumerate(gram):
            lower, info = dpotrf(k, lower=1)
            if info > 0:
                positive_definite[row] = False
                continue
            alpha, _ = dpotrs(lower, self.y_norm, lower=1)
            quadratic[row] = self.y_norm @ alpha
            diagonals[row] = lower.diagonal()
        # Row-wise over contiguous rows, numpy sums each diagonal's logs
        # exactly as it sums one diagonal on its own.
        lml = (
            -0.5 * quadratic
            - np.log(diagonals).sum(axis=1)
            - self._log_normalizer
        )
        return np.where(positive_definite, -lml, NOT_PD_PENALTY)

    def value_and_grad(self, x0: np.ndarray) -> Tuple[float, np.ndarray]:
        """Negative LML at ``x0`` and its forward-difference gradient,
        from one stacked evaluation of ``x0`` and its ``dim + 2`` steps.

        This is scipy's default L-BFGS-B gradient: step ``FD_STEP`` in
        each coordinate, negated where it would leave the box above,
        divided by the step actually taken, ``(x0 + h) - x0``.
        """
        step = np.full(x0.size, FD_STEP)
        step[x0 + step > self.upper] *= -1.0
        points = np.repeat(x0[None, :], x0.size + 1, axis=0)
        coordinates = np.arange(x0.size)
        points[coordinates + 1, coordinates] = x0 + step
        values = self(points)
        return values[0], (values[1:] - values[0]) / ((x0 + step) - x0)


class GaussianProcess:
    """Exact GP regression model.

    Args:
        kernel: covariance function (default Matérn-5/2, unit scales).
        noise_variance: Gaussian observation-noise variance (in
            standardized-target units).
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise_variance: float = 1e-4,
    ):
        check_positive(noise_variance, "noise_variance")
        self.kernel = kernel if kernel is not None else Matern52Kernel(0.2)
        self.noise_variance = float(noise_variance)
        self._x: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: Optional[np.ndarray] = None
        self._chol = None
        self.hyperparameter_fit: Optional[HyperparameterFit] = None

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has run."""
        return self._alpha is not None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimize_hyperparameters: bool = True,
        restarts: int = 3,
        seed: int = 0,
    ) -> "GaussianProcess":
        """Condition the GP on observations.

        Args:
            x: inputs, shape (n, d) — for the bandit these live in [0,1]^d.
            y: targets, shape (n,).
            optimize_hyperparameters: maximize the marginal likelihood over
                lengthscales/variance/noise (multi-start L-BFGS-B).
            restarts: random restarts for the optimizer.
            seed: restart-sampling seed.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        require(x.shape[0] == y.size, "x and y disagree on sample count")
        require(x.shape[0] >= 1, "need at least one observation")

        self._x = x
        self.hyperparameter_fit = None
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        y_norm = (y - self._y_mean) / self._y_std

        if optimize_hyperparameters and x.shape[0] >= 3:
            self._optimize_hyperparameters(x, y_norm, restarts, seed)

        self._factorize(x, y_norm)
        return self

    def _factorize(self, x: np.ndarray, y_norm: np.ndarray) -> None:
        k = self.kernel(x, x)
        k[np.diag_indices_from(k)] += self.noise_variance + JITTER
        try:
            self._chol = cho_factor(k, lower=True)
        except np.linalg.LinAlgError as exc:
            raise AutotunerError(f"kernel matrix not PD: {exc}") from exc
        self._alpha = cho_solve(self._chol, y_norm)
        self._y_norm = y_norm

    def _optimize_hyperparameters(
        self, x: np.ndarray, y_norm: np.ndarray, restarts: int, seed: int
    ) -> None:
        dim = x.shape[1]
        rng = np.random.default_rng(seed)
        starts = [
            np.concatenate(
                [
                    np.log(self.kernel._broadcast_scales(dim)),
                    [np.log(self.kernel.variance)],
                    [np.log(self.noise_variance)],
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
        bounds = _log_bounds(dim)
        lml = _StackedNegativeLml(self.kernel, x, y_norm, bounds)
        results = [
            optimize.minimize(
                lml.value_and_grad, start, jac=True, method="L-BFGS-B",
                bounds=bounds,
            )
            for start in starts
        ]
        chosen = 0
        for index, result in enumerate(results):
            if result.fun < results[chosen].fun:
                chosen = index
        best = results[chosen]
        finite = bool(np.isfinite(best.fun))
        if finite:
            self.kernel = self.kernel.with_params(
                np.exp(best.x[:dim]), float(np.exp(best.x[dim]))
            )
            self.noise_variance = float(np.exp(best.x[dim + 1]))
        self.hyperparameter_fit = HyperparameterFit(
            likelihood_rows=lml.rows,
            start_negative_lml=tuple(float(r.fun) for r in results),
            chosen_start=chosen if finite else None,
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, x_new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Predictive mean and standard deviation at new points.

        Returns:
            ``(mean, std)`` in original target units, each shape (n,).
        """
        require(self.is_fitted, "predict() before fit()")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
        k_star = self.kernel(x_new, self._x)
        mean_norm = k_star @ self._alpha
        v = cho_solve(self._chol, k_star.T)
        var_norm = self.kernel.diagonal(x_new.shape[0]) - np.einsum(
            "ij,ji->i", k_star, v
        )
        var_norm = np.maximum(var_norm, 0.0)
        mean = mean_norm * self._y_std + self._y_mean
        std = np.sqrt(var_norm) * self._y_std
        return mean, std

    def log_marginal_likelihood(self) -> float:
        """LML of the (standardized) training data under current params."""
        require(self.is_fitted, "log_marginal_likelihood() before fit()")
        lower = self._chol[0]
        return (
            -0.5 * float(self._y_norm @ self._alpha)
            - float(np.log(np.diag(lower)).sum())
            - 0.5 * self._y_norm.size * np.log(2 * np.pi)
        )
