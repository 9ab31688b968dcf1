"""Covariance kernels for Gaussian-process regression.

Implemented from first principles on numpy: squared-exponential (RBF) and
Matérn-5/2 with per-dimension (ARD) lengthscales.  Matérn-5/2 is the
workhorse of Bayesian-optimization services like the Vizier system the
paper used — smooth enough for gradient-free search, rough enough not to
over-extrapolate.
"""

from __future__ import annotations

import abc
from typing import Sequence, Union

import numpy as np

from repro.common.validation import check_positive, require

__all__ = ["Kernel", "RbfKernel", "Matern52Kernel"]


def _scaled_distances(
    x1: np.ndarray, x2: np.ndarray, lengthscales: np.ndarray
) -> np.ndarray:
    """Pairwise Euclidean distances after per-dimension scaling.

    ``lengthscales`` is ``(d,)`` for one ``(n1, n2)`` matrix, or
    ``(P, 1, d)`` for a ``(P, n1, n2)`` stack, one matrix per row of
    scales; each stacked matrix equals the unstacked one bit for bit.
    When ``x2 is x1`` the scaled points and their norms are computed
    once.  The product stays a gemm either way: its left factor
    ``2.0 * s1`` is a fresh array, and numpy picks syrk only for
    ``a @ a.T`` on one buffer.
    """
    s1 = x1 / lengthscales
    norms1 = np.sum(s1**2, axis=-1)
    if x2 is x1:
        s2, norms2 = s1, norms1
    else:
        s2 = x2 / lengthscales
        norms2 = np.sum(s2**2, axis=-1)
    sq = (
        norms1[..., :, None]
        + norms2[..., None, :]
        - 2.0 * s1 @ np.swapaxes(s2, -1, -2)
    )
    return np.sqrt(np.maximum(sq, 0.0))


class Kernel(abc.ABC):
    """A positive-definite covariance function k(x, x')."""

    def __init__(
        self, lengthscales: Union[float, Sequence[float]], variance: float = 1.0
    ):
        scales = np.atleast_1d(np.asarray(lengthscales, dtype=np.float64))
        require(bool((scales > 0).all()), "lengthscales must be positive")
        check_positive(variance, "variance")
        self.lengthscales = scales
        self.variance = float(variance)

    def _broadcast_scales(self, dim: int) -> np.ndarray:
        if self.lengthscales.size == 1:
            return np.full(dim, self.lengthscales[0])
        require(
            self.lengthscales.size == dim,
            f"kernel has {self.lengthscales.size} lengthscales for "
            f"{dim}-dimensional inputs",
        )
        return self.lengthscales

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Covariance matrix between two point sets (n1, d) x (n2, d)."""
        x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
        x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
        scales = self._broadcast_scales(x1.shape[1])
        return self.variance * self._from_distance(
            _scaled_distances(x1, x2, scales)
        )

    def gram_stack(
        self, x: np.ndarray, lengthscales: np.ndarray, variances: np.ndarray
    ) -> np.ndarray:
        """``k(x, x)`` under ``P`` hyperparameter settings at once.

        Args:
            x: inputs, shape (n, d).
            lengthscales: shape (P, d), one row of scales per setting.
            variances: shape (P,) signal variances.

        Returns:
            ``(P, n, n)``; slice ``p`` equals, bit for bit,
            ``self.with_params(lengthscales[p], variances[p])(x, x)``.
        """
        r = _scaled_distances(x, x, lengthscales[:, None, :])
        return variances[:, None, None] * self._from_distance(r)

    def diagonal(self, n: int) -> np.ndarray:
        """k(x, x) for n points (constant for stationary kernels)."""
        return np.full(n, self.variance)

    @abc.abstractmethod
    def _from_distance(self, r: np.ndarray) -> np.ndarray:
        """Correlation as a function of scaled distance."""

    def with_params(self, lengthscales: np.ndarray, variance: float) -> "Kernel":
        """A copy with new hyperparameters (used by the optimizer)."""
        return type(self)(lengthscales, variance)


class RbfKernel(Kernel):
    """Squared-exponential kernel: ``exp(-r^2 / 2)``."""

    def _from_distance(self, r: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * r**2)


class Matern52Kernel(Kernel):
    """Matérn kernel with smoothness 5/2:
    ``(1 + sqrt(5) r + 5 r^2/3) exp(-sqrt(5) r)``."""

    def _from_distance(self, r: np.ndarray) -> np.ndarray:
        sr = np.sqrt(5.0) * r
        return (1.0 + sr + sr**2 / 3.0) * np.exp(-sr)
