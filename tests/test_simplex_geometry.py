"""Tests for the log-coordinate simplex geometry.

Closed-form quantities (entropy, KL, Fisher information, Christoffel
symbols) are checked against hand-computed S = 2 values and against
central finite differences at generic points.
"""

import math

import numpy as np
import pytest
from scipy.special import log_softmax, logsumexp

from baryopt.errors import DimensionMismatchError, InvalidDomainError
from baryopt.simplex_geometry import (
    HybridPoint,
    SimplexPoint,
    _log_softmax,
    _logsumexp,
    christoffel,
    covariance,
    covariance_derivative_tensor,
    fisher_information,
    hybrid_bregman,
    kl,
    logits_from_point,
    negentropy,
    negentropy_grad_inverse,
    point_from_logits,
    sigma_pinned,
    softargmax,
)


class TestSimplexPoint:
    """Construction, normalization, and immutability of interior points."""

    def test_constructor_normalizes_logits(self):
        """Any finite logit vector maps to probabilities summing to one."""
        q = SimplexPoint(np.array([3.0, -1.0, 0.5]))
        p = q.probs
        assert p.shape == (3,)
        np.testing.assert_allclose(p.sum(), 1.0, rtol=1e-15)
        assert np.all(p > 0)

    def test_constructor_gauge_invariance(self):
        """Adding a constant to the logits yields the same point."""
        xi = np.array([0.2, -1.3, 2.0])
        a = SimplexPoint(xi)
        b = SimplexPoint(xi + 17.5)
        np.testing.assert_allclose(a.log_weights, b.log_weights, atol=1e-14)

    def test_from_probs_normalizes(self):
        q = SimplexPoint.from_probs(np.array([2.0, 3.0]))
        np.testing.assert_allclose(q.probs, [0.4, 0.6], rtol=1e-15)

    def test_from_probs_rejects_boundary(self):
        with pytest.raises(InvalidDomainError):
            SimplexPoint.from_probs(np.array([0.0, 1.0]))

    def test_from_probs_rejects_negative(self):
        with pytest.raises(InvalidDomainError):
            SimplexPoint.from_probs(np.array([-0.1, 1.1]))

    def test_rejects_non_finite_logits(self):
        with pytest.raises(InvalidDomainError):
            SimplexPoint(np.array([np.inf, 0.0]))

    def test_rejects_scalar_and_short_vectors(self):
        with pytest.raises(DimensionMismatchError):
            SimplexPoint(np.array([1.0]))
        with pytest.raises(DimensionMismatchError):
            SimplexPoint(np.ones((2, 2)))

    def test_uniform(self):
        q = SimplexPoint.uniform(4)
        np.testing.assert_allclose(q.probs, np.full(4, 0.25), rtol=1e-15)
        assert q.size == 4

    def test_log_weights_are_immutable(self):
        q = SimplexPoint.uniform(3)
        with pytest.raises(ValueError):
            q.log_weights[0] = 0.0

    def test_extreme_logits_stay_finite_in_log_space(self):
        """Very lopsided logits keep finite log-probabilities."""
        q = SimplexPoint(np.array([600.0, 0.0]))
        assert np.all(np.isfinite(q.log_weights))
        np.testing.assert_allclose(q.log_weights[1], -600.0, rtol=1e-12)


class TestLogSoftmax:
    def test_matches_scipy_bit_for_bit(self):
        """The package's one log-softmax repeats scipy's steps exactly."""
        rng = np.random.default_rng(0)
        for size in (2, 3, 5, 17, 64, 257):
            for scale in (1e-3, 1.0, 30.0, 1e5):
                for _ in range(20):
                    xi = rng.normal(size=size) * scale
                    assert np.array_equal(_log_softmax(xi), log_softmax(xi))

    def test_non_finite_max_is_not_shifted(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            for xi in ([np.inf, 0.0], [-np.inf, 0.0], [np.nan, 1.0], [-np.inf, -np.inf]):
                xi = np.array(xi)
                assert np.array_equal(_log_softmax(xi), log_softmax(xi), equal_nan=True)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestLogSumExp:
    def test_matches_scipy_bit_for_bit(self):
        """The package's one log-sum-exp repeats scipy's steps exactly."""
        rng = np.random.default_rng(1)
        for size in (2, 3, 5, 17, 64, 257):
            for scale in (1e-3, 1.0, 30.0, 1e5):
                for _ in range(20):
                    a = rng.normal(size=size) * scale
                    assert _same_bits(_logsumexp(a), logsumexp(a))

    def test_tied_maxima_and_integers(self):
        """Repeated maxima are counted, not summed through exp(0)."""
        rng = np.random.default_rng(2)
        for size in (2, 3, 8, 33, 257):
            for scale in (1e-3, 1.0, 1e5):
                for _ in range(20):
                    a = rng.normal(size=size) * scale
                    a[rng.integers(size, size=3)] = a.max()
                    assert _same_bits(_logsumexp(a), logsumexp(a))
                    rounded = np.round(a)
                    assert _same_bits(_logsumexp(rounded), logsumexp(rounded))

    def test_non_finite_entries(self):
        """Same results as scipy, without the floating-point warnings."""
        for a in ([np.inf, 1.0], [-np.inf, 1.0], [-np.inf, -np.inf], [np.nan, 1.0]):
            a = np.array(a)
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                ours = _logsumexp(a)
            assert _same_bits(ours, logsumexp(a))


class TestEntropyAndKl:
    def test_negentropy_uniform(self):
        """h(uniform over S states) = -log S."""
        for size in (2, 3, 7):
            value, _ = negentropy(SimplexPoint.uniform(size))
            np.testing.assert_allclose(value, -math.log(size), rtol=1e-14)

    def test_negentropy_gradient_is_one_plus_log(self):
        q = SimplexPoint.from_probs(np.array([0.2, 0.5, 0.3]))
        _, grad = negentropy(q)
        np.testing.assert_allclose(grad, 1.0 + np.log([0.2, 0.5, 0.3]), rtol=1e-14)

    def test_grad_inverse_round_trip(self):
        """(grad h)^-1 inverts grad h on the simplex interior."""
        q = SimplexPoint.from_probs(np.array([0.1, 0.6, 0.3]))
        _, grad = negentropy(q)
        np.testing.assert_allclose(negentropy_grad_inverse(grad), q.probs, rtol=1e-14)

    def test_kl_hand_value(self):
        """KL((0.3, 0.7) || (0.6, 0.4)) from the defining sum."""
        r = SimplexPoint.from_probs(np.array([0.3, 0.7]))
        q = SimplexPoint.from_probs(np.array([0.6, 0.4]))
        expected = 0.3 * math.log(0.3 / 0.6) + 0.7 * math.log(0.7 / 0.4)
        np.testing.assert_allclose(kl(r, q), expected, rtol=1e-14)

    def test_kl_zero_iff_equal_and_positive_otherwise(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = SimplexPoint(rng.normal(size=4))
            q = SimplexPoint(rng.normal(size=4))
            assert kl(r, r) <= 1e-15
            assert kl(r, q) > 0

    def test_kl_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kl(SimplexPoint.uniform(2), SimplexPoint.uniform(3))


class TestHybridPoint:
    def test_bregman_is_euclidean_plus_kl(self):
        u = HybridPoint(np.array([1.0, -2.0]), SimplexPoint.from_probs([0.3, 0.7]))
        v = HybridPoint(np.array([0.5, 0.0]), SimplexPoint.from_probs([0.6, 0.4]))
        expected = 0.5 * (0.5**2 + 2.0**2) + kl(u.q, v.q)
        np.testing.assert_allclose(hybrid_bregman(u, v), expected, rtol=1e-14)

    def test_bregman_vanishes_on_diagonal(self):
        u = HybridPoint(np.array([0.3]), SimplexPoint.from_probs([0.2, 0.8]))
        assert hybrid_bregman(u, u) <= 1e-15

    def test_validation(self):
        with pytest.raises(InvalidDomainError):
            HybridPoint(np.array([np.nan]), SimplexPoint.uniform(2))
        with pytest.raises(InvalidDomainError):
            HybridPoint(np.array([0.0]), np.array([0.5, 0.5]))
        u = HybridPoint(np.array([1.0]), SimplexPoint.uniform(2))
        v = HybridPoint(np.array([1.0, 2.0]), SimplexPoint.uniform(2))
        with pytest.raises(DimensionMismatchError):
            hybrid_bregman(u, v)

    def test_x_must_be_a_non_empty_vector(self):
        with pytest.raises(DimensionMismatchError, match="x must be a 1-d vector of length >= 1"):
            HybridPoint(np.zeros(0), SimplexPoint.uniform(2))
        with pytest.raises(DimensionMismatchError):
            HybridPoint(np.zeros((1, 1)), SimplexPoint.uniform(2))


class TestPinnedChart:
    """Reduced logits (xi_bar, 0) and the maps in and out of the chart."""

    def test_softargmax_is_sigmoid_for_two_states(self):
        for t in (-3.0, -0.4, 0.0, 1.7):
            q = softargmax(np.array([t, 0.0]))
            np.testing.assert_allclose(
                q.probs[0], 1.0 / (1.0 + math.exp(-t)), rtol=1e-14
            )

    def test_chart_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            xb = rng.normal(size=3)
            np.testing.assert_allclose(
                logits_from_point(point_from_logits(xb)), xb, atol=1e-13
            )

    def test_sigma_pinned_matches_point(self):
        xb = np.array([0.4, -1.1])
        np.testing.assert_allclose(
            sigma_pinned(xb), point_from_logits(xb).probs, rtol=1e-14
        )

    def test_rejects_non_finite_reduced_logits(self):
        with pytest.raises(InvalidDomainError):
            sigma_pinned(np.array([np.nan]))

    def test_sigma_pinned_jacobian_is_covariance(self):
        """d sigma / d xi_bar equals the first S-1 covariance columns."""
        xb = np.array([0.3, -0.8, 1.2])
        cov = covariance(point_from_logits(xb))
        h = 1e-6
        fd = np.empty((4, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = (sigma_pinned(xb + e) - sigma_pinned(xb - e)) / (2 * h)
        np.testing.assert_allclose(fd, cov[:, :-1], atol=1e-9)


class TestCovarianceAndFisher:
    def test_covariance_hand_value(self):
        q = SimplexPoint.from_probs(np.array([0.3, 0.7]))
        np.testing.assert_allclose(
            covariance(q), [[0.21, -0.21], [-0.21, 0.21]], rtol=1e-14
        )

    def test_covariance_kernel_is_ones(self):
        rng = np.random.default_rng(11)
        q = SimplexPoint(rng.normal(size=5))
        np.testing.assert_allclose(covariance(q) @ np.ones(5), 0.0, atol=1e-16)

    def test_fisher_two_states(self):
        """For S = 2 the information is the scalar sigma (1 - sigma)."""
        xb = np.array([0.9])
        sigma = sigma_pinned(xb)
        mat, _ = fisher_information(xb)
        np.testing.assert_allclose(mat, [[sigma[0] * sigma[1]]], rtol=1e-14)

    def test_fisher_closed_form_inverse(self):
        """The rank-one inverse formula agrees with generic inversion."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            xb = rng.normal(size=4)
            mat, inv = fisher_information(xb)
            np.testing.assert_allclose(inv, np.linalg.inv(mat), rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(mat @ inv, np.eye(4), atol=1e-12)

    def test_fisher_positive_definite(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            mat, _ = fisher_information(rng.normal(size=3))
            assert np.linalg.eigvalsh(mat).min() > 0


class TestDerivativeTensorAndChristoffel:
    def test_tensor_differentiates_covariance(self):
        """T[i, j, k] = d(Diag(p) - p p^T)_ij / dp_k by central differences."""
        p = np.array([0.2, 0.5, 0.3])
        tensor = covariance_derivative_tensor(p)
        h = 1e-6

        def cov_of(vec):
            return np.diag(vec) - np.outer(vec, vec)

        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (cov_of(p + e) - cov_of(p - e)) / (2 * h)
            np.testing.assert_allclose(tensor[:, :, k], fd, atol=1e-9)

    def test_christoffel_two_states(self):
        """S = 2: the single symbol is (1 - 2 sigma_1) / 2, zero at uniform."""
        xb = np.array([0.6])
        sigma = sigma_pinned(xb)
        gamma = christoffel(xb)
        np.testing.assert_allclose(gamma, [[[0.5 * (1.0 - 2.0 * sigma[0])]]], rtol=1e-13)
        np.testing.assert_allclose(christoffel(np.array([0.0])), 0.0, atol=1e-16)

    def test_christoffel_symmetric_in_lower_indices(self):
        gamma = christoffel(np.array([0.3, -0.9, 1.4]))
        np.testing.assert_allclose(gamma, gamma.transpose(1, 0, 2), atol=1e-16)

    def test_first_kind_symbols_from_metric_derivative(self):
        """Lowering the symbols with I recovers (1/2) dI/dxi_bar.

        This is the defining property of the Levi-Civita connection for a
        Hessian metric: I is the Hessian of the chart's log-partition, so
        the first-kind symbols are half its (totally symmetric) third
        derivatives.
        """
        xb = np.array([0.5, -0.7])
        mat, _ = fisher_information(xb)
        gamma = christoffel(xb)
        lowered = np.einsum("ijl,lk->ijk", gamma, mat)
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            d_mat = (fisher_information(xb + e)[0] - fisher_information(xb - e)[0]) / (
                2 * h
            )
            np.testing.assert_allclose(lowered[:, :, k], 0.5 * d_mat, atol=1e-8)
