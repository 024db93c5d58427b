"""Tests for the coupled descent/ascent dynamics in the reduced chart.

The two flow kinds share one vector field up to the sign of the weight
equation; only the ascent version is attracted to the interior equilibrium
of the symmetric pair, which the endpoint tests pin down numerically.
"""

import dataclasses
import math

import numpy as np
import pytest

from baryopt.errors import ConfigError, DimensionMismatchError, InvalidDomainError
from baryopt.flows import (
    KIND_MIN_MAX,
    KIND_MIN_MIN,
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    FlowConfig,
    df_dt_analytic,
    entropy,
    entropy_rate_analytic,
    flow_vector_field,
    integrate_flow,
    integrate_flow_full,
    pseudo_riemannian_residual,
)
from baryopt.objectives import ObjectiveFamily, random_quadratic, symmetric_quadratic
from baryopt.simplex_geometry import SimplexPoint, logits_from_point, point_from_logits


class _CubicBlowup(ObjectiveFamily):
    """Concave cubic pair whose descent flow escapes to infinity in finite time."""

    def __init__(self):
        self.m, self.S = 1, 2

    def values(self, x):
        x = self.check_point(x)
        return np.array([-x[0] ** 3, -x[0] ** 3 + 0.1])

    def jacobian(self, x):
        x = self.check_point(x)
        return np.array([[-3.0 * x[0] ** 2], [-3.0 * x[0] ** 2]])


class _Counting(ObjectiveFamily):
    """Wraps a family and counts its `values` calls."""

    def __init__(self, inner):
        self.inner, self.m, self.S = inner, inner.m, inner.S
        self.values_calls = 0

    def values(self, x):
        self.values_calls += 1
        return self.inner.values(x)

    def jacobian(self, x):
        return self.inner.jacobian(x)


def _start():
    return np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7])


class TestVectorField:
    def test_hand_values(self):
        """At (0.3, (0.3, 0.7)): dx = -0.7 and dxi = (+/-)(-0.6)."""
        fam = symmetric_quadratic()
        x, q = _start()
        xb = logits_from_point(q)
        dx, dxi = flow_vector_field(fam, x, xb, KIND_MIN_MAX)
        np.testing.assert_allclose(dx, [-0.7], rtol=1e-13)
        np.testing.assert_allclose(dxi, [-0.6], rtol=1e-13)
        dx2, dxi2 = flow_vector_field(fam, x, xb, KIND_MIN_MIN)
        np.testing.assert_allclose(dx2, dx)
        np.testing.assert_allclose(dxi2, [0.6], rtol=1e-13)

    def test_analytic_rates_hand_values(self):
        """Objective rate (+/-) Var - ||J^T q||^2 and entropy rate at the start."""
        fam = symmetric_quadratic()
        x, q = _start()
        xb = logits_from_point(q)
        var = 0.3 * 0.7 * 0.6**2  # two-point variance of (0.245, 0.845)
        np.testing.assert_allclose(
            df_dt_analytic(fam, x, xb, KIND_MIN_MAX), var - 0.49, rtol=1e-12
        )
        np.testing.assert_allclose(
            df_dt_analytic(fam, x, xb, KIND_MIN_MIN), -var - 0.49, rtol=1e-12
        )
        rate = entropy_rate_analytic(fam, x, xb, KIND_MIN_MAX)
        np.testing.assert_allclose(
            rate, -xb[0] * (0.3 * (0.245 - 0.665)), rtol=1e-12
        )

    def test_entropy_hand_value(self):
        q = SimplexPoint.from_probs([0.3, 0.7])
        np.testing.assert_allclose(
            entropy(q), -(0.3 * math.log(0.3) + 0.7 * math.log(0.7)), rtol=1e-14
        )

    def test_shape_and_kind_guards(self):
        fam = symmetric_quadratic()
        with pytest.raises(DimensionMismatchError):
            flow_vector_field(fam, np.zeros(1), np.zeros(2), KIND_MIN_MAX)
        with pytest.raises(ConfigError):
            flow_vector_field(fam, np.zeros(1), np.zeros(1), "max_min")

    @pytest.mark.parametrize("rate", [df_dt_analytic, entropy_rate_analytic])
    def test_rates_reject_wrong_chart_size(self, rate):
        with pytest.raises(DimensionMismatchError, match="xi_bar has 2 entries"):
            rate(symmetric_quadratic(), np.zeros(1), np.zeros(2), KIND_MIN_MAX)


class TestAscentFlowEquilibrium:
    def test_long_run_lands_on_the_equilibrium(self):
        x, q = _start()
        tr = integrate_flow(symmetric_quadratic(), x, q, KIND_MIN_MAX)
        assert tr.status == STATUS_COMPLETED
        assert tr.divergence_reason is None and tr.divergence_step is None
        np.testing.assert_allclose(tr.final_x, 0.0, atol=1e-8)
        np.testing.assert_allclose(tr.final_xi_bar, 0.0, atol=1e-8)
        np.testing.assert_allclose(tr.objective[-1], 0.5, atol=1e-8)

    def test_rates_match_trace_differences(self):
        """Central differences of the recorded objective and entropy agree
        with the analytic rates at interior record points."""
        x, q = _start()
        cfg = FlowConfig(t_end=1.0, dt=0.001)
        tr = integrate_flow(symmetric_quadratic(), x, q, KIND_MIN_MAX, cfg)
        dt = tr.t[1] - tr.t[0]
        fd_obj = (tr.objective[2:] - tr.objective[:-2]) / (2 * dt)
        fd_ent = (tr.entropy[2:] - tr.entropy[:-2]) / (2 * dt)
        np.testing.assert_allclose(fd_obj, tr.objective_rate[1:-1], atol=1e-5)
        np.testing.assert_allclose(fd_ent, tr.entropy_rate[1:-1], atol=1e-5)


class TestDescentFlowRunaway:
    def test_weights_collapse_to_a_vertex(self):
        """The descent kind leaves the equilibrium's basin: x settles in the
        favored well while the weights run to a vertex and the objective
        decays monotonically to that well's minimum value."""
        x, q = _start()
        tr = integrate_flow(symmetric_quadratic(), x, q, KIND_MIN_MIN)
        assert tr.status == STATUS_COMPLETED
        np.testing.assert_allclose(tr.final_x, -1.0, atol=1e-6)
        assert tr.final_xi_bar[0] < -50.0
        assert tr.q[-1].max() >= 1.0 - 1e-12
        assert tr.objective[-1] <= 1e-6
        assert np.all(np.diff(tr.objective) <= 1e-12)
        assert tr.entropy[-1] <= 1e-12


class TestRecordingGrid:
    def test_dense_grid(self):
        x, q = _start()
        cfg = FlowConfig(t_end=0.5, dt=0.01)
        tr = integrate_flow(symmetric_quadratic(), x, q, KIND_MIN_MAX, cfg)
        np.testing.assert_allclose(tr.t, np.arange(51) * 0.01, atol=1e-12)
        assert tr.x.shape == (51, 1)
        assert tr.q.shape == (51, 2)

    def test_sparse_grid_keeps_endpoints(self):
        x, q = _start()
        cfg = FlowConfig(t_end=0.5, dt=0.01, record_every=8)
        tr = integrate_flow(symmetric_quadratic(), x, q, KIND_MIN_MAX, cfg)
        np.testing.assert_allclose(
            tr.t, [0.0, 0.08, 0.16, 0.24, 0.32, 0.40, 0.48, 0.50], atol=1e-12
        )

    def test_trace_repr_is_one_line_and_eq_is_identity(self):
        x, q = _start()
        tr = integrate_flow(symmetric_quadratic(), x, q, KIND_MIN_MAX, FlowConfig())
        again = integrate_flow(symmetric_quadratic(), x, q, KIND_MIN_MAX, FlowConfig())
        assert tr.t.size == 5001
        assert "\n" not in repr(tr) and "array" not in repr(tr)
        assert (tr == again) is False and (tr == tr) is True


class TestDivergence:
    def test_logit_cap(self):
        """A small cap turns the vertex runaway into early termination;
        the capped state itself is kept."""
        x, q = _start()
        cfg = FlowConfig(t_end=200.0, dt=0.01, xi_cap=5.0)
        tr = integrate_flow(symmetric_quadratic(), x, q, KIND_MIN_MIN, cfg)
        assert tr.status == STATUS_DIVERGED
        assert np.abs(tr.final_xi_bar).max() > 5.0
        assert tr.t[-1] < 200.0
        assert tr.divergence_reason == "logit_cap"
        assert tr.t[-1] == tr.divergence_step * 0.01
        assert np.all(np.isfinite(tr.xi_bar))

    def test_finite_time_blowup(self):
        """Losses escaping to -inf in finite time end the run as diverged
        with every recorded row still finite."""
        tr = integrate_flow(
            _CubicBlowup(),
            np.array([1.0]),
            SimplexPoint.uniform(2),
            KIND_MIN_MAX,
            FlowConfig(t_end=5.0, dt=0.01),
        )
        assert tr.status == STATUS_DIVERGED
        assert tr.t[-1] < 5.0
        assert tr.divergence_reason == "non_finite_rates"
        assert tr.divergence_step * 0.01 > tr.t[-1]
        for arr in (tr.x, tr.xi_bar, tr.q, tr.objective, tr.objective_rate,
                    tr.entropy, tr.entropy_rate):
            assert np.all(np.isfinite(arr))

    def test_blowup_within_one_step(self):
        """A step that leaves float range ends the run at the last accepted state."""
        tr = integrate_flow(
            _CubicBlowup(),
            np.array([1.0]),
            SimplexPoint.uniform(2),
            KIND_MIN_MAX,
            FlowConfig(t_end=5.0, dt=0.05),
        )
        assert tr.status == STATUS_DIVERGED
        assert tr.divergence_reason == "non_finite_step"
        assert tr.t[-1] == (tr.divergence_step - 1) * 0.05

    def test_initial_state_past_cap_is_rejected(self):
        with pytest.raises(InvalidDomainError):
            integrate_flow(
                symmetric_quadratic(),
                np.zeros(1),
                SimplexPoint(np.array([800.0, 0.0])),
                KIND_MIN_MAX,
            )


class TestFullLogitIntegration:
    def test_pin_last_gauge_freezes_the_last_logit(self):
        fam = symmetric_quadratic()
        tr = integrate_flow_full(
            fam,
            np.array([0.3]),
            np.array([0.2, -0.4]),
            KIND_MIN_MAX,
            FlowConfig(t_end=2.0, dt=0.01),
            gauge="pin_last",
        )
        assert np.all(tr.xi[:, -1] == tr.xi[0, -1])
        np.testing.assert_allclose(tr.q.sum(axis=1), 1.0, atol=1e-12)

    def test_probability_trajectories_are_gauge_invariant(self):
        fam = symmetric_quadratic()
        args = (np.array([0.3]), np.array([0.2, -0.4]), KIND_MIN_MAX,
                FlowConfig(t_end=2.0, dt=0.01))
        zero = integrate_flow_full(fam, *args, gauge="zero")
        pin = integrate_flow_full(fam, *args, gauge="pin_last")
        np.testing.assert_allclose(zero.q, pin.q, atol=1e-8)
        assert np.abs(zero.xi - pin.xi).max() > 1e-3  # the logits do differ
        # Every recorded quantity is gauge-invariant, since Cov(q) 1 = 0.
        for name in ("xi_bar", "objective", "objective_rate", "entropy", "entropy_rate"):
            np.testing.assert_allclose(getattr(zero, name), getattr(pin, name), rtol=0,
                                       atol=1e-10, err_msg=name)

    def test_unknown_gauge(self):
        with pytest.raises(ConfigError):
            integrate_flow_full(
                symmetric_quadratic(),
                np.zeros(1),
                np.zeros(2),
                KIND_MIN_MAX,
                gauge="mean_zero",
            )

    def test_records_follow_the_grid_and_the_cap(self):
        fam = symmetric_quadratic()
        args = (np.array([0.3]), np.array([0.2, -0.4]), KIND_MIN_MIN)
        tr = integrate_flow_full(fam, *args, FlowConfig(t_end=0.5, dt=0.01, record_every=8))
        np.testing.assert_allclose(tr.t, [0.0, 0.08, 0.16, 0.24, 0.32, 0.40, 0.48, 0.50],
                                   atol=1e-12)
        assert tr.xi.shape == tr.q.shape == (8, 2)
        tr = integrate_flow_full(fam, *args, FlowConfig(t_end=200.0, dt=0.01, xi_cap=5.0))
        assert tr.t[-1] < 200.0 and np.abs(tr.xi[-1]).max() > 5.0

    def test_zero_gauge_run_reports_the_logit_cap(self):
        """A zero-gauge run that passes the cap says so, like a pinned run."""
        tr = integrate_flow_full(symmetric_quadratic(), np.array([0.3]), np.array([0.2, -0.4]),
                                 KIND_MIN_MIN, FlowConfig(t_end=200.0, dt=0.01, xi_cap=5.0))
        assert tr.status == STATUS_DIVERGED
        assert tr.divergence_reason == "logit_cap"
        assert tr.divergence_step == 370
        assert tr.t[-1] == tr.divergence_step * 0.01
        assert np.abs(tr.xi[-1]).max() > 5.0

    def test_blowup_reports_its_reason_in_either_gauge(self):
        """The pin_last run ends as `integrate_flow` does; the zero-gauge
        logits grow with the losses, so there the cap fires first."""
        cfg = FlowConfig(t_end=5.0, dt=0.01)
        x0 = np.array([1.0])
        pinned = integrate_flow(_CubicBlowup(), x0, SimplexPoint.uniform(2), KIND_MIN_MAX, cfg)
        pin = integrate_flow_full(_CubicBlowup(), x0, np.zeros(2), KIND_MIN_MAX, cfg,
                                  gauge="pin_last")
        zero = integrate_flow_full(_CubicBlowup(), x0, np.zeros(2), KIND_MIN_MAX, cfg)
        assert (pin.divergence_reason, pin.divergence_step) == ("non_finite_rates", 35)
        assert (pinned.divergence_reason, pinned.divergence_step) == ("non_finite_rates", 35)
        assert (zero.divergence_reason, zero.divergence_step) == ("logit_cap", 33)
        assert pin.status == zero.status == STATUS_DIVERGED

    def test_rejects_bad_start_logits(self):
        fam = symmetric_quadratic()
        with pytest.raises(InvalidDomainError, match="initial logits must be finite"):
            integrate_flow_full(fam, np.zeros(1), np.array([np.nan, 0.0]), KIND_MIN_MAX)
        with pytest.raises(InvalidDomainError, match="logit cap"):
            integrate_flow_full(fam, np.zeros(1), np.array([800.0, 0.0]), KIND_MIN_MAX)

    def test_start_logits_must_match_the_family(self):
        with pytest.raises(DimensionMismatchError,
                           match="^initial logits have 3 entries, family has 2$"):
            integrate_flow_full(symmetric_quadratic(), np.zeros(1), np.zeros(3), KIND_MIN_MAX)


class TestSingleEngine:
    """Every entry point runs the same right-hand side and RK4 loop."""

    def test_records_equal_the_analytic_functions(self):
        """Each recorded row comes from the k1 stage at that very state."""
        quad = random_quadratic(np.random.default_rng(3), m=2, S=3)
        runs = [
            (symmetric_quadratic(), *_start(), KIND_MIN_MAX, FlowConfig(t_end=2.0, dt=0.01)),
            (quad, np.array([0.5, -0.2]), SimplexPoint.from_probs([0.2, 0.3, 0.5]), KIND_MIN_MIN,
             FlowConfig(t_end=2.0, dt=0.01, record_every=3)),
        ]
        for fam, x0, q0, kind, cfg in runs:
            tr = integrate_flow(fam, x0, q0, kind, cfg)
            for x, xb, q, obj, rate, ent, ent_rate in zip(
                tr.x, tr.xi_bar, tr.q, tr.objective, tr.objective_rate, tr.entropy,
                tr.entropy_rate,
            ):
                assert rate == df_dt_analytic(fam, x, xb, tr.kind)
                assert ent_rate == entropy_rate_analytic(fam, x, xb, tr.kind)
                assert obj == float(q @ fam.values(x))
                # The record normalizes the raw logits (xi_bar, 0) itself;
                # `entropy` gets them already normalized by SimplexPoint.
                assert ent == pytest.approx(entropy(point_from_logits(xb)), rel=0, abs=1e-15)

    @staticmethod
    def _wide_logit_run():
        """A (3, 4) ascent run whose logits reach about 113."""
        fam = random_quadratic(np.random.default_rng(3), m=3, S=4)
        q0 = SimplexPoint.from_probs([0.1, 0.2, 0.3, 0.4])
        return integrate_flow(fam, np.array([0.1, -0.2, 0.3]), q0, KIND_MIN_MAX,
                              FlowConfig(record_every=7))

    def test_recorded_entropy_is_the_entropy_of_the_state(self):
        """A row's entropy comes from the same normalised logits as its q."""
        traces = [
            integrate_flow(symmetric_quadratic(), *_start(), kind, FlowConfig(t_end=5.0))
            for kind in (KIND_MIN_MAX, KIND_MIN_MIN)
        ]
        for tr in traces + [self._wide_logit_run()]:
            expected = [entropy(point_from_logits(xb)) for xb in tr.xi_bar]
            assert tr.entropy.tolist() == expected

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    def test_recorded_entropy_matches_an_extended_precision_reference(self):
        """Max-shifted normalisation keeps large logits within 1e-15 of long-double sums."""
        tr = self._wide_logit_run()
        assert np.abs(tr.xi_bar).max() > 100.0
        for xb, ent in zip(tr.xi_bar, tr.entropy):
            xi = np.append(xb, 0.0).astype(np.longdouble)
            log_q = xi - xi.max() - np.log(np.sum(np.exp(xi - xi.max())))
            assert abs(ent - float(-np.sum(np.exp(log_q) * log_q))) <= 1e-15

    def test_pin_last_full_run_is_the_pinned_chart(self):
        fam = random_quadratic(np.random.default_rng(4), m=2, S=3)
        x0, q0 = np.array([0.5, -0.2]), SimplexPoint.from_probs([0.2, 0.3, 0.5])
        for kind in (KIND_MIN_MAX, KIND_MIN_MIN):
            cfg = FlowConfig(t_end=2.0, dt=0.01, record_every=3)
            tr = integrate_flow(fam, x0, q0, kind, cfg)
            full = integrate_flow_full(
                fam, x0, np.append(logits_from_point(q0), 0.0), kind, cfg, gauge="pin_last")
            assert np.all(full.xi[:, -1] == 0.0)
            for name in ("t", "x", "xi", "xi_bar", "q", "objective", "objective_rate",
                         "entropy", "entropy_rate"):
                assert np.array_equal(getattr(full, name), getattr(tr, name)), name
            for name in ("kind", "status", "divergence_reason", "divergence_step"):
                assert getattr(full, name) == getattr(tr, name), name

    @pytest.mark.parametrize("cfg", [
        FlowConfig(t_end=0.5, dt=0.01),
        FlowConfig(t_end=0.5, dt=0.01, record_every=8),
        FlowConfig(t_end=200.0, dt=0.01, xi_cap=5.0),
    ])
    def test_one_extra_evaluation_per_run(self, cfg):
        """4 loss evaluations per RK4 step, plus one for the last state."""
        fam = _Counting(symmetric_quadratic())
        tr = integrate_flow(fam, *_start(), KIND_MIN_MIN, cfg)
        steps = int(round(tr.t[-1] / cfg.dt))
        assert fam.values_calls == 4 * steps + 1
        fam.values_calls = 0
        tr = integrate_flow_full(fam, np.array([0.3]), np.zeros(2), KIND_MIN_MIN, cfg)
        assert fam.values_calls == 4 * int(round(tr.t[-1] / cfg.dt)) + 1


class TestPseudoRiemannianRewrite:
    def test_interior_point(self):
        fam = symmetric_quadratic()
        q = SimplexPoint.from_probs([0.3, 0.7])
        for kind in (KIND_MIN_MAX, KIND_MIN_MIN):
            assert pseudo_riemannian_residual(fam, np.array([0.4]), q, kind) <= 1e-10

    def test_near_vertex_point(self):
        """The eigenvalue-floored pseudo-inverse keeps the residual small
        even when the covariance is nearly singular."""
        fam = symmetric_quadratic()
        q = SimplexPoint.from_probs([1e-8, 1.0 - 1e-8])
        assert pseudo_riemannian_residual(fam, np.array([0.4]), q, KIND_MIN_MAX) <= 1e-6


class TestConfigValidation:
    def test_configs_are_frozen_and_derived_configs_revalidated(self):
        cfg = FlowConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dt = 0.1
        with pytest.raises(ConfigError, match="not a whole number of steps"):
            dataclasses.replace(cfg, dt=0.3)

    def test_rejects_bad_settings(self):
        with pytest.raises(ConfigError):
            FlowConfig(t_end=0.0)
        with pytest.raises(ConfigError):
            FlowConfig(dt=0.0)
        with pytest.raises(ConfigError):
            FlowConfig(t_end=1.0, dt=2.0)
        with pytest.raises(ConfigError):
            FlowConfig(record_every=0)
        with pytest.raises(ConfigError):
            FlowConfig(xi_cap=-1.0)
        with pytest.raises(ConfigError, match="xi_cap must be finite"):
            FlowConfig(xi_cap=float("nan"))
        with pytest.raises(ConfigError, match="record_every must be an integer"):
            FlowConfig(record_every=2.5)
        with pytest.raises(ConfigError, match="record_every must be a number"):
            FlowConfig(record_every=True)
        with pytest.raises(ConfigError, match="t_end must be a number"):
            FlowConfig(t_end="abc")
        for dt in (0.6, 0.4):  # round(t_end / dt) * dt would end at 1.2 or 0.8
            with pytest.raises(ConfigError, match="not a whole number of steps"):
                FlowConfig(t_end=1.0, dt=dt)
