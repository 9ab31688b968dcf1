"""GP covariance kernels: values, symmetry, positive-definiteness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.autotuner.kernels import Matern52Kernel, RbfKernel


@pytest.mark.parametrize("kernel_cls", [RbfKernel, Matern52Kernel])
class TestKernelBasics:
    def test_self_covariance_is_variance(self, kernel_cls):
        kernel = kernel_cls(0.5, variance=2.0)
        x = np.array([[0.1, 0.2]])
        assert kernel(x, x)[0, 0] == pytest.approx(2.0)

    def test_symmetry(self, kernel_cls):
        kernel = kernel_cls(0.3)
        x = np.random.default_rng(0).random((6, 3))
        k = kernel(x, x)
        np.testing.assert_allclose(k, k.T, atol=1e-12)

    def test_decay_with_distance(self, kernel_cls):
        kernel = kernel_cls(0.5)
        origin = np.zeros((1, 1))
        near = np.array([[0.1]])
        far = np.array([[2.0]])
        assert kernel(origin, near)[0, 0] > kernel(origin, far)[0, 0]

    def test_ard_lengthscales(self, kernel_cls):
        # A long lengthscale in dim 0 makes moves there cheap.
        kernel = kernel_cls([10.0, 0.1])
        origin = np.zeros((1, 2))
        move_dim0 = np.array([[1.0, 0.0]])
        move_dim1 = np.array([[0.0, 1.0]])
        assert kernel(origin, move_dim0)[0, 0] > kernel(origin, move_dim1)[0, 0]

    def test_lengthscale_count_mismatch(self, kernel_cls):
        kernel = kernel_cls([0.5, 0.5, 0.5])
        with pytest.raises(ConfigurationError):
            kernel(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_with_params(self, kernel_cls):
        kernel = kernel_cls(0.5, variance=1.0)
        tweaked = kernel.with_params(np.array([0.7]), 3.0)
        assert type(tweaked) is kernel_cls
        assert tweaked.variance == 3.0

    def test_diagonal(self, kernel_cls):
        kernel = kernel_cls(0.5, variance=1.5)
        np.testing.assert_allclose(kernel.diagonal(4), np.full(4, 1.5))

    def test_validation(self, kernel_cls):
        with pytest.raises(ConfigurationError):
            kernel_cls(0.0)
        with pytest.raises(ConfigurationError):
            kernel_cls(0.5, variance=-1.0)


class TestMaternValue:
    def test_known_value(self):
        kernel = Matern52Kernel(1.0)
        r = 1.0
        sr = np.sqrt(5.0)
        expected = (1 + sr + sr**2 / 3) * np.exp(-sr)
        assert kernel(np.zeros((1, 1)), np.ones((1, 1)))[0, 0] == pytest.approx(
            expected
        )


class TestRbfValue:
    def test_known_value(self):
        kernel = RbfKernel(1.0)
        assert kernel(np.zeros((1, 1)), np.ones((1, 1)))[0, 0] == pytest.approx(
            np.exp(-0.5)
        )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=15),
    d=st.integers(min_value=1, max_value=4),
    lengthscale=st.floats(min_value=0.05, max_value=3.0),
)
@pytest.mark.parametrize("kernel_cls", [RbfKernel, Matern52Kernel])
def test_kernel_matrices_are_psd(kernel_cls, seed, n, d, lengthscale):
    """Property: covariance matrices are positive semidefinite."""
    x = np.random.default_rng(seed).random((n, d))
    k = kernel_cls(lengthscale)(x, x)
    eigenvalues = np.linalg.eigvalsh(k)
    assert eigenvalues.min() >= -1e-8


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=30),
    d=st.integers(min_value=1, max_value=4),
    stack=st.integers(min_value=1, max_value=7),
)
@pytest.mark.parametrize("kernel_cls", [RbfKernel, Matern52Kernel])
def test_gram_stack_slices_match_single_gram_bit_for_bit(
    kernel_cls, seed, n, d, stack
):
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    scales = rng.uniform(0.01, 10.0, size=(stack, d))
    variances = rng.uniform(1e-3, 1e2, size=stack)
    grams = kernel_cls(0.2).gram_stack(x, scales, variances)
    assert grams.shape == (stack, n, n)
    for gram, scale, variance in zip(grams, scales, variances):
        single = kernel_cls(scale, float(variance))(x, x)
        assert gram.tobytes() == single.tobytes()
