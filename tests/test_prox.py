"""Tests for the entropy-regularized proximal step.

The scalar symmetric pair admits an independent oracle: eliminating the
weights from the stationarity system leaves one equation in z, solved here
by bracketed root finding (`scipy.optimize.brentq`) without reusing any of
the package's descent machinery.
"""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import log_softmax

from baryopt.errors import (
    DimensionMismatchError,
    InvalidDomainError,
    ProxNonConvergenceError,
)
from baryopt.objectives import (
    ConstantFamily,
    ObjectiveFamily,
    QuadraticFamily,
    random_quadratic,
    symmetric_quadratic,
)
from baryopt.prox import (
    ProxConfig,
    _roundoff_floor,
    bfne_gap,
    fixed_point_residual,
    minimize_fixed_weights,
    monotone_operator,
    monotonicity_gap,
    prox,
    resolvent_residual,
    saddle_objective,
)
from baryopt.simplex_geometry import HybridPoint, SimplexPoint


def _oracle_symmetric(x, q1, lam):
    """Saddle x' for the pair (z-1)^2/2, (z+1)^2/2 by 1-d root finding.

    The x block of the stationarity system reads
    z + (rho e^{2 lam z} - 1) / (rho e^{2 lam z} + 1) + (z - x)/lam = 0
    with rho = (1 - q1)/q1, a strictly increasing function of z.
    """
    rho = (1.0 - q1) / q1

    def g(z):
        w = rho * np.exp(2.0 * lam * z)
        return z + (w - 1.0) / (w + 1.0) + (z - x) / lam

    return brentq(g, -50.0, 50.0, xtol=1e-15, rtol=8.9e-16)


def _known_saddle(seed, m, S):
    """Quadratic family whose losses all vanish at x* with sum_s q*_s g_s = 0,
    so (x*, q*) is a fixed point of the proximal map at every step."""
    rng = np.random.default_rng(seed)
    x_star = rng.uniform(-1.0, 1.0, size=m)
    q_star = rng.dirichlet(np.full(S, 4.0))
    G = rng.normal(size=(S, m, m))
    A = np.einsum("sij,skj->sik", G, G) / m + 0.1 * np.eye(m)
    g = rng.normal(size=(S, m))
    g -= q_star @ g
    b = g - np.einsum("sij,j->si", A, x_star)
    c = -(0.5 * np.einsum("i,sij,j->s", x_star, A, x_star) + b @ x_star)
    return QuadraticFamily(A, b, c), x_star, q_star


def _random_hybrid(rng, m, S):
    return HybridPoint(rng.normal(size=m), SimplexPoint(rng.normal(size=S)))


class TestProxAgainstOracle:
    @pytest.mark.parametrize("lam", [0.1, 0.5, 2.0])
    def test_matches_bracketed_root(self, lam):
        """x block agrees with the independent scalar solver."""
        fam = symmetric_quadratic()
        for x, q1 in [(0.3, 0.5), (-1.2, 0.2), (2.0, 0.7), (0.0, 0.9)]:
            res = prox(
                fam,
                np.array([x]),
                SimplexPoint.from_probs([q1, 1.0 - q1]),
                ProxConfig(lam=lam),
            )
            np.testing.assert_allclose(
                res.x[0], _oracle_symmetric(x, q1, lam), atol=1e-9
            )

    def test_weights_closed_form(self):
        """q' is proportional to q * exp(lam * l(x')), exactly in log space."""
        fam = symmetric_quadratic()
        q = SimplexPoint.from_probs([0.3, 0.7])
        cfg = ProxConfig(lam=0.5)
        res = prox(fam, np.array([0.8]), q, cfg)
        expected = log_softmax(q.log_weights + cfg.lam * fam.values(res.x))
        np.testing.assert_allclose(res.q.log_weights, expected, atol=1e-15)

    def test_residual_contract(self):
        """The x-block residual never exceeds inner_tol; the q block is exact."""
        rng = np.random.default_rng(8)
        fam = random_quadratic(rng, m=3, S=4)
        for lam in (0.1, 0.5, 2.0):
            cfg = ProxConfig(lam=lam, inner_tol=1e-10)
            for _ in range(5):
                res = prox(fam, rng.normal(size=3), SimplexPoint(rng.normal(size=4)), cfg)
                r_x, r_q = res.residual
                assert r_x <= cfg.inner_tol
                assert r_q <= 1e-14

    def test_gradient_only_path_agrees_with_newton(self):
        """Backtracking gradient descent reaches the same saddle.

        First-order steps cannot certify gradient norms much below
        sqrt(eps * |phi|) because the per-step decrease drowns in function
        rounding, so the gradient-only run gets a looser inner tolerance.
        """
        rng = np.random.default_rng(9)
        fam = random_quadratic(rng, m=2, S=3)
        x = rng.normal(size=2)
        q = SimplexPoint(rng.normal(size=3))
        newton = prox(fam, x, q, ProxConfig(lam=0.5, allow_newton=True))
        plain = prox(fam, x, q, ProxConfig(lam=0.5, allow_newton=False, inner_tol=1e-7))
        np.testing.assert_allclose(plain.x, newton.x, atol=1e-6)
        np.testing.assert_allclose(plain.q.probs, newton.q.probs, atol=1e-6)

    def test_constant_losses_are_exact(self):
        """For x-independent losses: x' = x and q' reweights by exp(lam c)."""
        fam = ConstantFamily(np.array([0.0, 0.4, 1.0]), m=2)
        q = SimplexPoint.from_probs([0.2, 0.3, 0.5])
        cfg = ProxConfig(lam=2.0)
        x = np.array([1.5, -0.5])
        res = prox(fam, x, q, cfg)
        np.testing.assert_allclose(res.x, x, atol=1e-12)
        expected = log_softmax(q.log_weights + 2.0 * fam.c)
        np.testing.assert_allclose(res.q.log_weights, expected, atol=1e-12)
        assert res.inner_iterations == 0


class TestRoundoff:
    """Round-off must not fail a solve: Newton steps are also accepted when
    the gradient norm halves, and the descent stops at the round-off floor
    of the computed gradient."""

    def test_large_step_near_a_saddle_meets_its_certificates(self):
        """At lam = 500 the stop tolerance inner_tol / lam lies below the
        gradient's round-off; the solve stops at the floor instead, and
        the x-block residual is lam times the gradient norm there."""
        noise = np.random.default_rng(0)
        cfg = ProxConfig(lam=500.0)
        for seed in range(10):
            fam, x_star, q_star = _known_saddle(seed, 50, 8)
            x = x_star + 1e-6 * noise.normal(size=50)
            q = SimplexPoint(np.log(q_star) + 1e-6 * noise.normal(size=8))
            res = prox(fam, x, q, cfg)
            r_x, r_q = res.residual
            floor = _roundoff_floor(cfg.lam, res.values, fam.jacobian(res.x))
            assert r_x <= max(cfg.inner_tol, 1.01 * cfg.lam * floor)
            assert r_q <= 1e-14
            np.testing.assert_allclose(res.x, x_star, atol=1e-5)
            np.testing.assert_allclose(res.q.probs, q_star, atol=1e-5)

    @pytest.mark.parametrize("lam", [0.001, 0.005])
    def test_small_steps_converge_from_every_start(self, lam):
        """phi's value carries |log q| / lam of rounding, which masks the
        Armijo decrease of a Newton step at small lam."""
        fam = random_quadratic(np.random.default_rng(3), m=2, S=3)
        q = SimplexPoint.from_probs([0.2, 0.5, 0.3])
        cfg = ProxConfig(lam=lam, inner_max_iter=300)
        rng = np.random.default_rng(0)
        for _ in range(40):
            res = prox(fam, rng.normal(size=2), q, cfg)
            r_x, r_q = res.residual
            assert r_x <= cfg.inner_tol
            assert r_q <= 1e-14


class TestSaddleStructure:
    def test_output_is_a_saddle_point(self):
        """H(x', r) <= H(x', q') <= H(z, q') over sampled deviations."""
        rng = np.random.default_rng(10)
        fam = random_quadratic(rng, m=2, S=3)
        x = np.array([0.4, -0.9])
        q = SimplexPoint.from_probs([0.5, 0.2, 0.3])
        cfg = ProxConfig(lam=0.7)
        res = prox(fam, x, q, cfg)
        mid = saddle_objective(fam, x, q, res.x, res.q, cfg.lam)
        for _ in range(25):
            r = SimplexPoint(rng.normal(size=3))
            assert saddle_objective(fam, x, q, res.x, r, cfg.lam) <= mid + 1e-9
            z = res.x + rng.normal(size=2)
            assert saddle_objective(fam, x, q, z, res.q, cfg.lam) >= mid - 1e-9

    def test_min_then_max_recovers_the_same_x(self):
        """Minimizing with the saddle weights held fixed lands on x'."""
        rng = np.random.default_rng(11)
        fam = random_quadratic(rng, m=2, S=3)
        x = rng.normal(size=2)
        q = SimplexPoint(rng.normal(size=3))
        cfg = ProxConfig(lam=0.5)
        res = prox(fam, x, q, cfg)
        z = minimize_fixed_weights(fam, x, res.q, cfg)
        np.testing.assert_allclose(z, res.x, atol=1e-7)


class TestOperatorProperties:
    def test_operator_blocks(self):
        fam = symmetric_quadratic()
        p = HybridPoint(np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7]))
        a_x, a_q = monotone_operator(fam, p)
        np.testing.assert_allclose(a_x, [0.7], rtol=1e-13)
        np.testing.assert_allclose(a_q, [-0.245, -0.845], rtol=1e-13)

    def test_monotonicity_on_sampled_pairs(self):
        rng = np.random.default_rng(12)
        fam = random_quadratic(rng, m=3, S=4)
        for _ in range(50):
            gap = monotonicity_gap(
                fam, _random_hybrid(rng, 3, 4), _random_hybrid(rng, 3, 4)
            )
            assert gap >= -1e-10

    def test_firm_nonexpansiveness_on_sampled_pairs(self):
        rng = np.random.default_rng(13)
        fam = random_quadratic(rng, m=2, S=3)
        cfg = ProxConfig(lam=0.5)
        for _ in range(20):
            gap = bfne_gap(fam, _random_hybrid(rng, 2, 3), _random_hybrid(rng, 2, 3), cfg)
            assert gap >= -1e-7

    def test_resolvent_identity(self):
        rng = np.random.default_rng(14)
        fam = random_quadratic(rng, m=2, S=3)
        for lam in (0.1, 0.5, 2.0):
            cfg = ProxConfig(lam=lam)
            p = _random_hybrid(rng, 2, 3)
            res = prox(fam, p.x, p.q, cfg)
            assert resolvent_residual(fam, p, res, lam) <= 1e-9


class TestFixedPoints:
    def test_certificates_vanish_at_the_equilibrium(self):
        fam = symmetric_quadratic()
        p = HybridPoint(np.zeros(1), SimplexPoint.uniform(2))
        barygrad, spread, displacement = fixed_point_residual(fam, p)
        assert barygrad == 0.0
        assert spread == 0.0
        assert displacement <= 1e-15

    def test_certificates_nonzero_away_from_equilibrium(self):
        fam = symmetric_quadratic()
        p = HybridPoint(np.array([0.5]), SimplexPoint.uniform(2))
        barygrad, spread, displacement = fixed_point_residual(fam, p)
        assert barygrad > 0.1
        assert spread > 0.1
        assert displacement > 1e-4


class _Counting(ObjectiveFamily):
    """Delegates to a family, logging every call and the points evaluated."""

    def __init__(self, inner, with_hessians=True):
        self.inner = inner
        self.m, self.S = inner.m, inner.S
        self.with_hessians = with_hessians
        self.calls = {"values": 0, "jacobian": 0, "hessians": 0, "weighted_hessian": 0}
        self.value_points = []
        self.jacobian_points = []

    def values(self, x):
        self.calls["values"] += 1
        self.value_points.append(np.array(x, dtype=float))
        return self.inner.values(x)

    def jacobian(self, x):
        self.calls["jacobian"] += 1
        self.jacobian_points.append(np.array(x, dtype=float))
        return self.inner.jacobian(x)

    def hessians(self, x):
        self.calls["hessians"] += 1
        return self.inner.hessians(x) if self.with_hessians else None

    def weighted_hessian(self, x, r):
        self.calls["weighted_hessian"] += 1
        if not self.with_hessians:
            return super().weighted_hessian(x, r)
        return self.inner.weighted_hessian(x, r)


class TestSingleEvaluation:
    def test_each_point_is_evaluated_once(self):
        """No hessians stack, one weighted Hessian per Newton step, and one
        values and one jacobian call per point the line search tried."""
        rng = np.random.default_rng(15)
        fam = _Counting(random_quadratic(rng, m=4, S=5))
        res = prox(fam, rng.normal(size=4), SimplexPoint(rng.normal(size=5)), ProxConfig(lam=2.0))
        assert res.inner_iterations >= 2
        assert fam.calls["hessians"] == 0
        assert fam.calls["weighted_hessian"] == res.inner_iterations
        assert fam.calls["values"] == fam.calls["jacobian"]
        points = [p.tobytes() for p in fam.value_points]
        assert len(set(points)) == len(points)
        assert points == [p.tobytes() for p in fam.jacobian_points]

    def test_each_point_is_one_fused_evaluation(self):
        """On a quadratic family every point is evaluated by one call to the
        fused kernel, which reads A once, and never by `values`/`jacobian`."""
        calls = {"values": 0, "jacobian": 0}
        points = []

        class _Counting(QuadraticFamily):
            def values(self, x):
                calls["values"] += 1
                return super().values(x)

            def jacobian(self, x):
                calls["jacobian"] += 1
                return super().jacobian(x)

            def _values_jacobian(self, x):
                points.append(np.array(x, dtype=float).tobytes())
                return super()._values_jacobian(x)

        rng = np.random.default_rng(15)
        base = random_quadratic(rng, m=4, S=5)
        fam = _Counting(base.A, base.b, base.c)
        res = prox(fam, rng.normal(size=4), SimplexPoint(rng.normal(size=5)), ProxConfig(lam=2.0))
        assert res.inner_iterations >= 2
        assert calls == {"values": 0, "jacobian": 0}
        assert len(points) >= res.inner_iterations + 1
        assert len(set(points)) == len(points)

    def test_newton_matrix_leaves_the_family_curvature_alone(self):
        """The Newton matrix is built in a fresh buffer, not in the array
        that `weighted_hessian` returned."""

        class _StoredCurvature(ObjectiveFamily):
            def __init__(self, inner):
                self.inner, self.m, self.S = inner, inner.m, inner.S
                self.stored = inner.weighted_hessian(np.zeros(inner.m), np.ones(inner.S) / inner.S)

            def values(self, x):
                return self.inner.values(x)

            def jacobian(self, x):
                return self.inner.jacobian(x)

            def weighted_hessian(self, x, r):
                return self.stored

        rng = np.random.default_rng(19)
        fam = _StoredCurvature(random_quadratic(rng, m=4, S=5))
        before = fam.stored.copy()
        res = prox(fam, rng.normal(size=4), SimplexPoint(rng.normal(size=5)), ProxConfig(lam=2.0))
        assert res.inner_iterations >= 2
        assert np.array_equal(fam.stored, before)

    def test_result_carries_the_final_evaluation(self):
        """l(x') and J^T q' come with the result, equal to evaluating again."""
        rng = np.random.default_rng(18)
        fam = random_quadratic(rng, m=3, S=4)
        res = prox(fam, rng.normal(size=3), SimplexPoint(rng.normal(size=4)))
        assert np.array_equal(res.values, fam.values(res.x))
        assert np.array_equal(res.barygrad, fam.jacobian(res.x).T @ res.q.probs)

    def test_families_without_hessians_take_gradient_steps(self):
        """The first None from weighted_hessian switches to the gradient
        path, which then matches allow_newton=False bit for bit."""
        rng = np.random.default_rng(16)
        inner = random_quadratic(rng, m=2, S=3)
        x, q = rng.normal(size=2), SimplexPoint(rng.normal(size=3))
        cfg = ProxConfig(lam=0.5, inner_tol=1e-7)
        fam = _Counting(inner, with_hessians=False)
        res = prox(fam, x, q, cfg)
        plain = prox(inner, x, q, ProxConfig(lam=0.5, inner_tol=1e-7, allow_newton=False))
        assert res.inner_iterations == plain.inner_iterations > 1
        assert np.array_equal(res.x, plain.x)
        assert fam.calls["weighted_hessian"] == 1

    def test_fixed_weights_newton_uses_the_weighted_hessian(self):
        rng = np.random.default_rng(17)
        fam = _Counting(random_quadratic(rng, m=3, S=4))
        r = SimplexPoint(rng.normal(size=4))
        minimize_fixed_weights(fam, rng.normal(size=3), r, ProxConfig(lam=0.5))
        assert fam.calls["hessians"] == 0
        assert fam.calls["weighted_hessian"] >= 1


class TestFailureModes:
    def test_non_finite_losses_are_rejected(self):
        class _Overflowing(ObjectiveFamily):
            def __init__(self):
                self.m, self.S = 1, 2

            def values(self, x):
                self.check_point(x)
                return np.array([np.inf, 0.0])

            def jacobian(self, x):
                self.check_point(x)
                return np.zeros((2, 1))

        with pytest.raises(InvalidDomainError):
            prox(_Overflowing(), np.zeros(1), SimplexPoint.uniform(2))

    def test_budget_exhaustion_reports_best_iterate(self):
        """Two gradient steps cannot reach tol from a far start; the error
        carries the best iterate, its weights, and the remaining gradient."""
        fam = symmetric_quadratic()
        cfg = ProxConfig(lam=2.0, allow_newton=False, inner_max_iter=2)
        with pytest.raises(ProxNonConvergenceError) as info:
            prox(fam, np.array([3.0]), SimplexPoint.uniform(2), cfg)
        err = info.value
        assert err.iterations == 2
        assert err.x is not None and err.x.shape == (1,)
        assert isinstance(err.q, SimplexPoint)
        assert err.grad_norm > cfg.inner_tol / 2.0

    def test_resolvent_residual_checks_the_input_point(self):
        """A size-1 x against m = 3 used to broadcast silently."""
        fam = random_quadratic(np.random.default_rng(0), m=3, S=2)
        q = SimplexPoint.uniform(2)
        result = prox(fam, np.zeros(3), q)
        with pytest.raises(DimensionMismatchError, match=r"expected x of shape \(3,\)"):
            resolvent_residual(fam, HybridPoint(np.zeros(1), q), result, 0.5)

    def test_config_validation(self):
        with pytest.raises(InvalidDomainError):
            ProxConfig(lam=0.0)
        with pytest.raises(InvalidDomainError):
            ProxConfig(inner_tol=-1e-10)
        with pytest.raises(InvalidDomainError):
            ProxConfig(inner_max_iter=0)

    def test_configs_are_frozen_and_derived_configs_revalidated(self):
        cfg = ProxConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lam = 1.0
        with pytest.raises(InvalidDomainError, match="lam must be positive"):
            dataclasses.replace(cfg, lam=-1)
        with pytest.raises(InvalidDomainError, match="allow_newton must be true or false"):
            dataclasses.replace(cfg, allow_newton="yes")
        assert dataclasses.replace(cfg, lam=2).lam == 2.0
