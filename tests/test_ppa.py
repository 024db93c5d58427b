"""Tests for the outer proximal point iteration."""

import dataclasses
import math

import numpy as np
import pytest

from baryopt import ppa
from baryopt.errors import ConfigError
from baryopt.landscape import LandscapePoint, riemannian_hessian
from baryopt.objectives import (
    ConstantFamily,
    ObjectiveFamily,
    QuadraticFamily,
    random_quadratic,
    symmetric_quadratic,
)
from baryopt.ppa import (
    STATUS_CONVERGED,
    STATUS_INNER_FAILURE,
    STATUS_MAX_ITER,
    PpaConfig,
    fejer_diagnostic,
    run_ppa,
)
from baryopt.prox import ProxConfig, prox
from baryopt.simplex_geometry import HybridPoint, SimplexPoint, hybrid_bregman


def _known_saddle(seed, m, S):
    """Quadratic family whose losses all vanish at x* with sum_s q*_s g_s = 0,
    so (x*, q*) is a fixed point; plus a random start drawn after it."""
    rng = np.random.default_rng(seed)
    x_star = rng.uniform(-1.0, 1.0, size=m)
    q_star = rng.dirichlet(np.full(S, 4.0))
    G = rng.normal(size=(S, m, m))
    A = np.einsum("sij,skj->sik", G, G) / m + 0.1 * np.eye(m)
    g = rng.normal(size=(S, m))
    g -= q_star @ g
    b = g - np.einsum("sij,j->si", A, x_star)
    c = -(0.5 * np.einsum("i,sij,j->s", x_star, A, x_star) + b @ x_star)
    x0 = rng.uniform(-1.0, 1.0, size=m)
    q0 = SimplexPoint.from_probs(rng.dirichlet(np.full(S, 2.0)))
    return QuadraticFamily(A, b, c), x_star, q_star, x0, q0


class TestConvergence:
    def test_symmetric_pair_reaches_the_equilibrium(self):
        """From (0.3, (0.3, 0.7)) the iteration contracts to (0, (1/2, 1/2)).

        The run is deterministic, so the iteration count is frozen too.
        """
        tr = run_ppa(
            symmetric_quadratic(),
            np.array([0.3]),
            SimplexPoint.from_probs([0.3, 0.7]),
        )
        assert tr.status == STATUS_CONVERGED
        assert tr.iterations == 10
        assert not tr.no_fixed_point_suspected
        np.testing.assert_allclose(tr.final.x, 0.0, atol=5e-6)
        np.testing.assert_allclose(tr.final.q.probs, 0.5, atol=5e-6)

    def test_converged_iterate_certifies_a_fixed_point(self):
        cfg = PpaConfig(fp_tol=1e-5)
        tr = run_ppa(
            symmetric_quadratic(),
            np.array([0.3]),
            SimplexPoint.from_probs([0.3, 0.7]),
            cfg,
        )
        last = tr.records[-1]
        assert last.step_bregman <= cfg.stop_tol
        assert last.barygrad_norm <= cfg.fp_tol
        assert last.loss_spread <= cfg.fp_tol
        assert last.prox_displacement <= 10.0 * cfg.stop_tol

    def test_objective_settles_at_the_common_loss_value(self):
        """The weighted objective is not monotone for the saddle iteration
        (it can undershoot while the weights rebalance) but settles at the
        shared equilibrium loss 1/2."""
        tr = run_ppa(
            symmetric_quadratic(),
            np.array([1.5]),
            SimplexPoint.from_probs([0.2, 0.8]),
        )
        objectives = np.array([r.objective for r in tr.records])
        np.testing.assert_allclose(objectives[-1], 0.5, atol=1e-6)
        assert objectives.min() < 0.5 - 1e-3


class TestRecording:
    def test_dense_records_are_contiguous(self):
        tr = run_ppa(
            symmetric_quadratic(),
            np.array([0.3]),
            SimplexPoint.from_probs([0.3, 0.7]),
        )
        ks = [r.k for r in tr.records]
        assert ks == list(range(tr.iterations + 1))
        assert math.isnan(tr.records[0].step_bregman)
        assert np.all(np.isfinite([r.step_bregman for r in tr.records[1:]]))

    def test_sparse_records_keep_first_and_last(self):
        tr = run_ppa(
            symmetric_quadratic(),
            np.array([0.3]),
            SimplexPoint.from_probs([0.3, 0.7]),
            PpaConfig(record_every=3),
        )
        ks = [r.k for r in tr.records]
        assert ks == [0, 3, 6, 9, 10]

    def test_displacement_links_consecutive_records(self):
        """With dense recording, a record's prox displacement is exactly the
        next record's consecutive-step divergence."""
        tr = run_ppa(
            symmetric_quadratic(),
            np.array([0.3]),
            SimplexPoint.from_probs([0.3, 0.7]),
        )
        for prev, nxt in zip(tr.records[:-1], tr.records[1:]):
            assert prev.prox_displacement == nxt.step_bregman

    def test_records_are_frozen(self):
        tr = run_ppa(symmetric_quadratic(), np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.records[0].prox_displacement = 0.0

    def test_sparse_max_iter_run_keeps_the_last_displacement(self):
        """The last state's displacement comes from one more prox call at the
        step in effect at the end of the run."""
        fam = symmetric_quadratic()
        tr = run_ppa(fam, np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7]),
                     PpaConfig(max_outer_iter=8, record_every=3))
        assert tr.status == STATUS_MAX_ITER and tr.iterations == 8
        assert [r.k for r in tr.records] == [0, 3, 6, 8]
        assert tr.final_lam == 64.0
        last = tr.records[-1]
        assert math.isfinite(last.prox_displacement)
        image = prox(fam, last.x, last.q, ProxConfig(lam=tr.final_lam)).point
        assert last.prox_displacement == hybrid_bregman(image, tr.final)

    def test_trace_repr_is_one_line_and_eq_is_identity(self):
        args = (symmetric_quadratic(), np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7]))
        tr, again = run_ppa(*args), run_ppa(*args)
        assert len(tr.records) > 10
        assert "\n" not in repr(tr) and "records" not in repr(tr)
        assert "\n" not in repr(tr.records[-1])
        assert (tr == again) is False and (tr == tr) is True


class _Counting(ObjectiveFamily):
    """Delegates to a family and counts its values and jacobian calls."""

    def __init__(self, inner):
        self.inner = inner
        self.m, self.S = inner.m, inner.S
        self.calls = {"values": 0, "jacobian": 0}

    def values(self, x):
        self.calls["values"] += 1
        return self.inner.values(x)

    def jacobian(self, x):
        self.calls["jacobian"] += 1
        return self.inner.jacobian(x)

    def weighted_hessian(self, x, r):
        return self.inner.weighted_hessian(x, r)


class TestSingleEvaluation:
    def test_new_iterates_are_recorded_from_the_prox_evaluation(self, monkeypatch):
        """Outside its prox calls run_ppa evaluates the family once, at the
        start; every record still equals a fresh evaluation bit for bit."""
        fam, _, _, x0, q0 = _known_saddle(3, 3, 4)
        counting = _Counting(fam)
        in_prox = {"values": 0, "jacobian": 0}

        def counted_prox(*args, **kwargs):
            before = dict(counting.calls)
            try:
                return prox(*args, **kwargs)
            finally:
                for key in in_prox:
                    in_prox[key] += counting.calls[key] - before[key]

        monkeypatch.setattr(ppa, "prox", counted_prox)
        tr = run_ppa(counting, x0, q0)
        assert tr.status == STATUS_CONVERGED and tr.iterations >= 10
        assert counting.calls["values"] - in_prox["values"] == 1
        assert counting.calls["jacobian"] - in_prox["jacobian"] == 1
        for rec in tr.records:
            vals, probs = fam.values(rec.x), rec.q.probs
            assert rec.objective == float(probs @ vals)
            assert rec.barygrad_norm == float(np.linalg.norm(fam.jacobian(rec.x).T @ probs))
            assert rec.loss_spread == float(vals.max() - vals.min())


class TestOneProxPerState:
    """Each state is left by one prox call: it gives the state its
    displacement and, unless the state is the last, gives the next state."""

    @staticmethod
    def _count_prox(monkeypatch):
        calls = []

        def counted_prox(*args, **kwargs):
            calls.append(1)
            return prox(*args, **kwargs)

        monkeypatch.setattr(ppa, "prox", counted_prox)
        return calls

    @pytest.mark.parametrize("max_outer_iter, status, n_calls", [
        (5000, STATUS_CONVERGED, 11), (5, STATUS_MAX_ITER, 6),
    ])
    def test_one_call_per_state(self, monkeypatch, max_outer_iter, status, n_calls):
        calls = self._count_prox(monkeypatch)
        tr = run_ppa(symmetric_quadratic(), np.array([0.3]),
                     SimplexPoint.from_probs([0.3, 0.7]),
                     PpaConfig(max_outer_iter=max_outer_iter))
        assert tr.status == status
        assert len(calls) == tr.iterations + 1 == n_calls

    def test_failed_call_is_the_last(self, monkeypatch):
        calls = self._count_prox(monkeypatch)
        cfg = PpaConfig(prox_cfg=ProxConfig(lam=2.0, allow_newton=False, inner_max_iter=2))
        tr = run_ppa(symmetric_quadratic(), np.array([3.0]), SimplexPoint.uniform(2), cfg)
        assert tr.status == STATUS_INNER_FAILURE
        assert len(calls) == tr.iterations == 1

    def test_late_inner_failure_keeps_the_trace_to_the_last_good_state(self):
        fam, _, _, x0, q0 = _known_saddle(2, 2, 3)
        cfg = PpaConfig(prox_cfg=ProxConfig(allow_newton=False, inner_max_iter=30))
        tr = run_ppa(fam, x0, q0, cfg)
        assert tr.status == STATUS_INNER_FAILURE and tr.iterations == 3
        assert [r.k for r in tr.records] == [0, 1, 2]
        assert math.isnan(tr.records[-1].prox_displacement)
        for prev, nxt in zip(tr.records[:-1], tr.records[1:]):
            assert math.isfinite(prev.prox_displacement)
            assert prev.prox_displacement == nxt.step_bregman


class TestFejerMonotonicity:
    def test_divergence_to_the_fixed_point_never_increases(self):
        tr = run_ppa(
            symmetric_quadratic(),
            np.array([0.3]),
            SimplexPoint.from_probs([0.3, 0.7]),
        )
        anchor = HybridPoint(np.zeros(1), SimplexPoint.uniform(2))
        fej = fejer_diagnostic(tr, anchor)
        assert fej[0] > 0.1
        assert np.all(np.diff(fej) <= 1e-10)
        assert fej[-1] <= 1e-10


class TestStepGrowth:
    """The outer step doubles after every step k >= 2, up to its cap.

    With the fixed default step 0.5 the seed-27 family still sits 0.1 from
    its saddle after 5,000 iterations."""

    def test_slow_family_converges_to_its_saddle(self):
        fam, x_star, q_star, x0, q0 = _known_saddle(27, 3, 4)
        tr = run_ppa(fam, x0, q0)
        assert tr.status == STATUS_CONVERGED
        assert tr.iterations <= 300
        assert tr.final_lam > ProxConfig().lam
        np.testing.assert_allclose(tr.final.x, x_star, atol=1e-3)
        np.testing.assert_allclose(tr.final.q.probs, q_star, atol=1e-3)

    def test_fejer_monotone_while_the_step_grows(self):
        """D_f(z*, z_{k+1}) <= D_f(z*, z_k) - D_f(z_{k+1}, z_k) at every step."""
        fam, x_star, q_star, x0, q0 = _known_saddle(27, 3, 4)
        tr = run_ppa(fam, x0, q0)
        assert tr.final_lam > ProxConfig().lam
        anchor = HybridPoint(x_star, SimplexPoint.from_probs(q_star))
        for prev, nxt in zip(tr.records[:-1], tr.records[1:]):
            assert nxt.k == prev.k + 1
            assert nxt.step_bregman == hybrid_bregman(nxt.point, prev.point)
            assert hybrid_bregman(anchor, nxt.point) <= (
                hybrid_bregman(anchor, prev.point) - nxt.step_bregman + 1e-10
            )

    def test_fejer_monotone_at_the_cap(self):
        """The seed-20 (3,4) family reaches the cap; the step still obeys
        the Fejer inequality and the run ends at its saddle."""
        fam, x_star, q_star, x0, q0 = _known_saddle(20, 3, 4)
        tr = run_ppa(fam, x0, q0)
        assert tr.status == STATUS_CONVERGED and tr.iterations <= 100
        assert tr.final_lam == ppa._LAM_CAP
        np.testing.assert_allclose(tr.final.x, x_star, atol=1e-3)
        np.testing.assert_allclose(tr.final.q.probs, q_star, atol=1e-3)
        anchor = HybridPoint(x_star, SimplexPoint.from_probs(q_star))
        for prev, nxt in zip(tr.records[:-1], tr.records[1:]):
            assert hybrid_bregman(anchor, nxt.point) <= (
                hybrid_bregman(anchor, prev.point) - nxt.step_bregman + 1e-10
            )

    @pytest.mark.parametrize("m, S", [(2, 3), (3, 4)])
    def test_small_families_converge_to_their_saddles(self, m, S):
        """Every endpoint lies at its family's saddle and classifies as one."""
        for seed in range(20):
            fam, x_star, q_star, x0, q0 = _known_saddle(seed, m, S)
            tr = run_ppa(fam, x0, q0)
            assert tr.status == STATUS_CONVERGED, seed
            np.testing.assert_allclose(tr.final.x, x_star, atol=1e-3)
            np.testing.assert_allclose(tr.final.q.probs, q_star, atol=1e-3)
            report = riemannian_hessian(fam, LandscapePoint.from_hybrid(tr.final))
            assert report.classification == "saddle", seed

    @pytest.mark.parametrize("seed, m, S", [(9, 2, 3), (23, 3, 4)])
    def test_tight_certificates_converge(self, seed, m, S):
        """fp_tol = 1e-9 asks the solves for gradients near their round-off."""
        fam, x_star, q_star, x0, q0 = _known_saddle(seed, m, S)
        tr = run_ppa(fam, x0, q0, PpaConfig(fp_tol=1e-9))
        assert tr.status == STATUS_CONVERGED
        np.testing.assert_allclose(tr.final.x, x_star, atol=1e-5)
        np.testing.assert_allclose(tr.final.q.probs, q_star, atol=1e-5)

    def test_large_family_converges_on_a_small_inner_budget(self):
        fam, x_star, q_star, x0, q0 = _known_saddle(0, 200, 16)
        tr = run_ppa(fam, x0, q0, PpaConfig(prox_cfg=ProxConfig(inner_max_iter=300)))
        assert tr.status == STATUS_CONVERGED
        np.testing.assert_allclose(tr.final.x, x_star, atol=1e-3)
        np.testing.assert_allclose(tr.final.q.probs, q_star, atol=1e-3)


class TestNoFixedPointDrift:
    def test_constant_losses_drift_to_a_vertex(self):
        """Distinct x-independent losses admit no fixed point: the steps
        shrink geometrically while the weights concentrate, and the run
        must flag the drift rather than report convergence."""
        fam = ConstantFamily(np.array([0.0, 0.4, 1.0]), m=1)
        tr = run_ppa(
            fam, np.zeros(1), SimplexPoint.uniform(3), PpaConfig(max_outer_iter=300)
        )
        assert tr.status == STATUS_MAX_ITER
        assert tr.no_fixed_point_suspected
        assert tr.final.q.probs.max() >= 0.999
        assert tr.records[-1].loss_spread == 1.0

    def test_flag_does_not_depend_on_record_every(self):
        """The flag is judged on every state, not on the kept records: on
        this run max q dips once early, which only dense records see."""
        rng = np.random.default_rng(9)
        fam = random_quadratic(rng, m=2, S=3)
        x0 = rng.uniform(-1, 1, 2)
        q0 = SimplexPoint.from_probs(rng.dirichlet([2, 2, 2]))
        flags = {
            every: run_ppa(fam, x0, q0, PpaConfig(max_outer_iter=50, record_every=every))
            .no_fixed_point_suspected
            for every in (1, 10, 50)
        }
        assert flags == {1: False, 10: False, 50: False}

    def test_converged_runs_are_not_flagged(self):
        tr = run_ppa(
            symmetric_quadratic(),
            np.array([0.3]),
            SimplexPoint.from_probs([0.3, 0.7]),
        )
        assert not tr.no_fixed_point_suspected


class TestInnerFailure:
    def test_budget_exhaustion_preserves_the_trace(self):
        cfg = PpaConfig(prox_cfg=ProxConfig(lam=2.0, allow_newton=False, inner_max_iter=2))
        tr = run_ppa(
            symmetric_quadratic(), np.array([3.0]), SimplexPoint.uniform(2), cfg
        )
        assert tr.status == STATUS_INNER_FAILURE
        assert tr.iterations == 1
        assert len(tr.records) == 1
        assert math.isnan(tr.records[-1].prox_displacement)
        assert not tr.no_fixed_point_suspected


class TestConfigValidation:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            PpaConfig(stop_tol=0.0)
        with pytest.raises(ValueError):
            PpaConfig(fp_tol=-1.0)
        with pytest.raises(ValueError):
            PpaConfig(max_outer_iter=0)
        with pytest.raises(ValueError):
            PpaConfig(record_every=0)

    def test_rejects_a_prox_cfg_that_is_not_a_prox_config(self):
        with pytest.raises(ConfigError, match="prox_cfg must be a ProxConfig"):
            PpaConfig(prox_cfg={"lam": 1.0})

    def test_configs_are_frozen_and_derived_configs_revalidated(self):
        cfg = PpaConfig()
        assert cfg.prox_cfg.lam == ProxConfig().lam
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.stop_tol = 1.0
        with pytest.raises(ConfigError, match="record_every must be an integer"):
            dataclasses.replace(cfg, record_every=2.5)
