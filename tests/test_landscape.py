"""Tests for the reduced-chart objective landscape.

The symmetric scalar pair has a fully hand-computable saddle report at its
equilibrium, frozen here as exact matrices; generic identities are verified
by central finite differences at random chart points.
"""

import numpy as np
import pytest

from baryopt.errors import (
    ConfigError,
    DegenerateMetricError,
    DimensionMismatchError,
    HessiansUnavailableError,
    InvalidDomainError,
)
from baryopt.landscape import (
    CLASS_DEGENERATE,
    CLASS_NOT_CRITICAL,
    CLASS_SADDLE,
    LandscapePoint,
    christoffel_correction,
    critical_value_scan,
    euclidean_hessian,
    f_bar,
    fix_equals_critical_check,
    grad_f_bar,
    metric,
    riemannian_hessian,
)
from baryopt.objectives import (
    ConstantFamily,
    ObjectiveFamily,
    QuadraticFamily,
    random_quadratic,
    symmetric_quadratic,
)
from baryopt.ppa import run_ppa
from baryopt.simplex_geometry import HybridPoint, SimplexPoint


def _equilibrium():
    return LandscapePoint(np.zeros(1), np.zeros(1))


def _fd_gradient(fam, point, h=1e-6):
    m = point.x.size
    n = point.xi_bar.size
    grad = np.empty(m + n)
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        grad[i] = (
            f_bar(fam, LandscapePoint(point.x + e, point.xi_bar))
            - f_bar(fam, LandscapePoint(point.x - e, point.xi_bar))
        ) / (2 * h)
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        grad[m + j] = (
            f_bar(fam, LandscapePoint(point.x, point.xi_bar + e))
            - f_bar(fam, LandscapePoint(point.x, point.xi_bar - e))
        ) / (2 * h)
    return grad


class TestChartPoint:
    def test_from_hybrid_round_trip(self):
        p = HybridPoint(np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7]))
        point = LandscapePoint.from_hybrid(p)
        np.testing.assert_allclose(point.q.probs, p.q.probs, rtol=1e-14)
        np.testing.assert_allclose(point.x, p.x)

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatchError):
            f_bar(symmetric_quadratic(), LandscapePoint(np.zeros(1), np.zeros(2)))

    def test_x_must_be_a_finite_vector(self):
        with pytest.raises(DimensionMismatchError, match="x must be a 1-d vector"):
            LandscapePoint(np.zeros((2, 1)), np.zeros(1))
        with pytest.raises(InvalidDomainError, match="x must be finite"):
            LandscapePoint(np.array([np.nan]), np.zeros(1))
        np.testing.assert_array_equal(LandscapePoint(0.5, 0.0).x, [0.5])


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        fam = random_quadratic(rng, m=2, S=4)
        for _ in range(5):
            point = LandscapePoint(rng.normal(size=2), rng.normal(size=3))
            np.testing.assert_allclose(
                grad_f_bar(fam, point), _fd_gradient(fam, point), atol=1e-7
            )

    def test_vanishes_at_the_equilibrium(self):
        grad = grad_f_bar(symmetric_quadratic(), _equilibrium())
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)


class TestMetric:
    def test_block_structure(self):
        rng = np.random.default_rng(21)
        point = LandscapePoint(rng.normal(size=2), rng.normal(size=2))
        g = metric(point)
        np.testing.assert_allclose(g[:2, :2], np.eye(2))
        np.testing.assert_allclose(g[:2, 2:], 0.0)
        assert np.linalg.eigvalsh(g).min() > 0


class TestEquilibriumSaddleReport:
    """Frozen exact values for the symmetric pair at (0, uniform)."""

    def test_matrices_and_classification(self):
        report = riemannian_hessian(symmetric_quadratic(), _equilibrium())
        expected = np.array([[1.0, -0.5], [-0.5, 0.0]])
        np.testing.assert_allclose(report.euclidean, expected, atol=1e-12)
        np.testing.assert_allclose(report.riemannian, expected, atol=1e-12)
        np.testing.assert_allclose(report.schur_b2, [[-0.25]], atol=1e-12)
        assert report.inertia == (1, 1, 0)
        assert report.classification == CLASS_SADDLE
        assert report.grad_norm <= 1e-15
        assert "\n" not in repr(report) and "saddle" in repr(report)

    def test_euclidean_hessian_matches_finite_differences(self):
        fam = symmetric_quadratic()
        point = LandscapePoint(np.array([0.4]), np.array([-0.3]))
        hess = euclidean_hessian(fam, point)
        h = 1e-5

        def grad_at(x, xb):
            return grad_f_bar(fam, LandscapePoint(x, xb))

        fd = np.empty((2, 2))
        fd[:, 0] = (
            grad_at(point.x + h, point.xi_bar) - grad_at(point.x - h, point.xi_bar)
        ) / (2 * h)
        fd[:, 1] = (
            grad_at(point.x, point.xi_bar + h) - grad_at(point.x, point.xi_bar - h)
        ) / (2 * h)
        np.testing.assert_allclose(hess, fd, atol=1e-8)


class TestSingleEvaluation:
    def test_report_evaluates_each_input_once(self, monkeypatch):
        """One values, jacobian, weighted_hessian and fisher_information call
        per report, no Hessian stack, and blocks equal to the public functions."""
        import baryopt.landscape as landscape_module

        calls = {"values": 0, "jacobian": 0, "hessians": 0, "weighted_hessian": 0, "fim": 0}

        class _Counting(QuadraticFamily):
            def values(self, x):
                calls["values"] += 1
                return super().values(x)

            def jacobian(self, x):
                calls["jacobian"] += 1
                return super().jacobian(x)

            def hessians(self, x):
                calls["hessians"] += 1
                return super().hessians(x)

            def weighted_hessian(self, x, r):
                calls["weighted_hessian"] += 1
                return super().weighted_hessian(x, r)

        fisher = landscape_module.fisher_information

        def counted_fisher(xi_bar):
            calls["fim"] += 1
            return fisher(xi_bar)

        rng = np.random.default_rng(25)
        base = random_quadratic(rng, m=3, S=4)
        fam = _Counting(base.A, base.b, base.c)
        point = LandscapePoint(rng.normal(size=3), rng.normal(size=3))
        monkeypatch.setattr(landscape_module, "fisher_information", counted_fisher)
        report = riemannian_hessian(fam, point)
        assert calls == {"values": 1, "jacobian": 1, "hessians": 0,
                         "weighted_hessian": 1, "fim": 1}
        assert np.array_equal(report.euclidean, euclidean_hessian(fam, point))
        assert np.array_equal(report.metric, metric(point))
        assert report.grad_norm == float(np.linalg.norm(grad_f_bar(fam, point)))

    def test_scan_evaluates_each_candidate_once(self, monkeypatch):
        """One values, jacobian and fisher_information call per candidate,
        critical or not; a critical one keeps f_bar's value, bit for bit."""
        import baryopt.landscape as landscape_module

        calls = {"values": 0, "jacobian": 0, "fim": 0}

        class _Counting(QuadraticFamily):
            def values(self, x):
                calls["values"] += 1
                return super().values(x)

            def jacobian(self, x):
                calls["jacobian"] += 1
                return super().jacobian(x)

        fisher = landscape_module.fisher_information

        def counted_fisher(xi_bar):
            calls["fim"] += 1
            return fisher(xi_bar)

        base = symmetric_quadratic()
        fam = _Counting(base.A, base.b, base.c)
        points = [_equilibrium(), LandscapePoint(np.array([1.7]), np.array([0.8]))]
        monkeypatch.setattr(landscape_module, "fisher_information", counted_fisher)
        report = critical_value_scan(fam, points)
        assert calls == {"values": 2, "jacobian": 2, "fim": 2}
        assert report.n_critical == 1
        assert list(report.values) == [f_bar(base, _equilibrium())]


class _Overflowing(ObjectiveFamily):
    """Losses (inf, 0): the first loss overflows everywhere."""

    def __init__(self):
        self.m, self.S = 1, 2

    def values(self, x):
        self.check_point(x)
        return np.array([np.inf, 0.0])

    def jacobian(self, x):
        self.check_point(x)
        return np.zeros((2, 1))

    def hessians(self, x):
        self.check_point(x)
        return np.ones((2, 1, 1))


class TestNonFiniteLosses:
    """Losses that overflow are a domain error at every entry point, not a
    `not-critical` report with NaN blocks or a dropped scan candidate."""

    @pytest.mark.parametrize("entry", [
        f_bar,
        grad_f_bar,
        euclidean_hessian,
        riemannian_hessian,
        christoffel_correction,
        fix_equals_critical_check,
        pytest.param(lambda fam, point: critical_value_scan(fam, [_equilibrium(), point]),
                     id="critical_value_scan"),
    ])
    def test_entry_points_raise(self, entry):
        point = LandscapePoint(np.zeros(1), np.array([0.4]))
        with pytest.raises(InvalidDomainError, match="^family returned non-finite loss values$"):
            entry(_Overflowing(), point)

    def test_overflow_of_a_quadratic(self):
        point = LandscapePoint(np.array([1e300]), np.zeros(1))
        with np.errstate(over="ignore"), pytest.raises(InvalidDomainError, match="non-finite"):
            riemannian_hessian(symmetric_quadratic(), point)


class TestConnectionCorrection:
    def test_correction_is_exactly_the_block_difference(self):
        """Euclidean block minus correction equals the Riemannian block;
        equivalently the correction is half the Euclidean block."""
        rng = np.random.default_rng(22)
        fam = random_quadratic(rng, m=2, S=4)
        for _ in range(5):
            point = LandscapePoint(rng.normal(size=2), rng.normal(size=3))
            report = riemannian_hessian(fam, point)
            corr = christoffel_correction(fam, point)
            np.testing.assert_allclose(
                report.euclidean[2:, 2:] - corr, report.riemannian[2:, 2:], atol=1e-13
            )
            np.testing.assert_allclose(corr, 0.5 * report.euclidean[2:, 2:], atol=1e-13)


class TestClassification:
    def test_identical_losses_are_degenerate(self):
        """Two copies of the same loss: every point with equal losses is
        critical in the weight directions and the Schur block vanishes."""
        fam = QuadraticFamily(np.ones((2, 1, 1)), np.zeros((2, 1)), np.zeros(2))
        report = riemannian_hessian(fam, LandscapePoint(np.zeros(1), np.array([0.3])))
        assert report.classification == CLASS_DEGENERATE
        np.testing.assert_allclose(report.schur_b2, [[0.0]], atol=1e-12)

    def test_generic_point_is_not_critical(self):
        rng = np.random.default_rng(23)
        fam = random_quadratic(rng, m=2, S=3)
        report = riemannian_hessian(
            fam, LandscapePoint(rng.normal(size=2), rng.normal(size=2))
        )
        assert report.classification == CLASS_NOT_CRITICAL

    def test_flat_x_block_raises(self):
        fam = ConstantFamily(np.array([0.0, 1.0]), m=1)
        with pytest.raises(DegenerateMetricError):
            riemannian_hessian(fam, LandscapePoint(np.zeros(1), np.zeros(1)))

    def test_missing_hessians_raise(self):
        class _FirstOrderOnly(ObjectiveFamily):
            def __init__(self):
                self.m, self.S = 1, 2

            def values(self, x):
                x = self.check_point(x)
                return np.array([x[0] ** 4, 1.0 - x[0]])

            def jacobian(self, x):
                x = self.check_point(x)
                return np.array([[4.0 * x[0] ** 3], [-1.0]])

        point = LandscapePoint(np.array([0.5]), np.zeros(1))
        with pytest.raises(HessiansUnavailableError):
            euclidean_hessian(_FirstOrderOnly(), point)
        with pytest.raises(HessiansUnavailableError):
            riemannian_hessian(_FirstOrderOnly(), point)

    @pytest.mark.parametrize("key", ["eps_critical", "eps_eig_scale"])
    @pytest.mark.parametrize("value", ["abc", float("nan"), -1.0, 0.0, True])
    def test_tolerances_are_validated(self, key, value):
        with pytest.raises(ConfigError, match=key):
            riemannian_hessian(symmetric_quadratic(), _equilibrium(), **{key: value})


class TestCriticalValues:
    def test_ppa_endpoints_share_one_value(self):
        """Endpoints of independent runs are critical with common value 1/2."""
        fam = symmetric_quadratic()
        endpoints = []
        for x0, q1 in [(0.3, 0.3), (-1.0, 0.6), (2.0, 0.45)]:
            tr = run_ppa(fam, np.array([x0]), SimplexPoint.from_probs([q1, 1 - q1]))
            endpoints.append(LandscapePoint.from_hybrid(tr.final))
        report = critical_value_scan(fam, endpoints, tol=1e-4)
        assert report.n_critical == 3
        assert report.passed
        np.testing.assert_allclose(report.values, 0.5, atol=1e-5)

    def test_empty_candidate_set_passes_vacuously(self):
        rng = np.random.default_rng(24)
        fam = symmetric_quadratic()
        points = [
            LandscapePoint(rng.normal(size=1) + 3.0, rng.normal(size=1))
            for _ in range(4)
        ]
        report = critical_value_scan(fam, points)
        assert report.n_critical == 0
        assert report.passed
        assert "no critical points" in report.note


class TestFixedPointCriticalEquivalence:
    def test_agreement_on_and_off_the_equilibrium(self):
        fam = symmetric_quadratic()
        assert fix_equals_critical_check(fam, _equilibrium())
        far = LandscapePoint(np.array([1.7]), np.array([0.8]))
        assert fix_equals_critical_check(fam, far)


@pytest.mark.parametrize("value", [float("nan"), "abc", -1.0, 0.0, True])
def test_critical_tolerances_are_validated(value):
    """A NaN tol used to pass every comparison's negation: the scan reported
    passed=True and the equivalence check True."""
    fam = symmetric_quadratic()
    with pytest.raises(ConfigError, match="tol must be"):
        critical_value_scan(fam, [_equilibrium()], tol=value)
    with pytest.raises(ConfigError, match="tol must be"):
        fix_equals_critical_check(fam, _equilibrium(), tol=value)
