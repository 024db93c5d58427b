"""Tests for the self-check registry.

Two of the registered checks measure identities that hold only for the flat
connection on the simplex; the metric connection used throughout leaves a
genuine nonzero correction, so those checks fail on a correct build and are
listed in `KNOWN_FAILING`.  The registry tests treat that set as the exact
expected failure set.
"""

import numpy as np
import pytest

from baryopt.checks import (
    KNOWN_FAILING,
    SCOPES,
    CheckResult,
    check_bfne_inequality,
    format_result,
    run_checks,
)
from baryopt.errors import ConfigError
from baryopt.prox import bfne_gap
from baryopt.simplex_geometry import covariance


@pytest.fixture(scope="module")
def all_seed0():
    """One full registry run at seed 0, shared by the tests that read it."""
    return run_checks("all", seed=0)


@pytest.fixture(scope="module")
def all_seed123():
    """One full registry run at seed 123, the reference for the scope runs."""
    return run_checks("all", seed=123)


@pytest.fixture(scope="module")
def scopes_seed123():
    """Each scope run on its own at seed 123, keyed by scope."""
    return {scope: run_checks(scope, seed=123) for scope in SCOPES}


class TestRegistry:
    def test_full_run_fails_exactly_the_known_set(self, all_seed0):
        results = all_seed0
        assert len(results) == 37
        failures = {r.name for r in results if not r.passed}
        assert failures == set(KNOWN_FAILING)

    def test_scope_filtering(self, all_seed0, scopes_seed123):
        """Names do not depend on the seed, so the seed-123 scope runs serve."""
        all_names = [r.name for r in all_seed0]
        per_scope = []
        for scope in SCOPES:
            per_scope.extend(r.name for r in scopes_seed123[scope])
        assert sorted(per_scope) == sorted(all_names)
        assert len(scopes_seed123["prox_core"]) >= 5

    def test_unknown_scope(self):
        with pytest.raises(ConfigError):
            run_checks("geometry")

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="^seed must be an integer >= 0"):
            run_checks("all", seed=seed)

    def test_random_streams_are_scope_independent(self, all_seed123, scopes_seed123):
        """A check draws identical randomness whether run via its scope or
        via "all", so its measured worst value is bitwise identical."""
        full = {r.name: r.worst for r in all_seed123}
        for scope in SCOPES:
            for res in scopes_seed123[scope]:
                assert res.worst == full[res.name]

    def test_seed_changes_the_draws(self):
        a = {r.name: r.worst for r in run_checks("prox_core", seed=0)}
        b = {r.name: r.worst for r in run_checks("prox_core", seed=1)}
        assert any(a[name] != b[name] for name in a)


class TestNegativeControl:
    def test_sign_flipped_gap_fails_the_bfne_check(self):
        """Feeding the negated slack must trip the inequality check; this
        guards against a vacuously-passing implementation."""
        rng = np.random.default_rng([0, 7])
        flipped = check_bfne_inequality(
            rng, gap_fn=lambda fam, u, v, cfg: -bfne_gap(fam, u, v, cfg)
        )
        assert not flipped.passed

    def test_straight_gap_passes(self):
        rng = np.random.default_rng([0, 7])
        assert check_bfne_inequality(rng).passed


class TestNanNegativeControl:
    """A NaN deviation fails its check wherever it is measured."""

    def test_nan_gap_fails_the_bfne_check(self):
        rng = np.random.default_rng([0, 7])
        res = check_bfne_inequality(rng, gap_fn=lambda *args: float("nan"))
        assert not res.passed
        assert np.isnan(res.worst)

    def test_later_nan_gap_fails_the_bfne_check(self):
        """Only the third pair's slack is NaN; the others are the true ones."""
        calls = []

        def gap_fn(fam, u, v, cfg):
            calls.append(None)
            return float("nan") if len(calls) == 3 else bfne_gap(fam, u, v, cfg)

        res = check_bfne_inequality(np.random.default_rng([0, 7]), gap_fn=gap_fn)
        assert len(calls) > 3
        assert not res.passed
        assert np.isnan(res.worst)

    def test_nan_covariance_fails_the_kernel_check(self, monkeypatch):
        import baryopt.checks as checks

        def nan_covariance(q):
            cov = covariance(q)
            cov[0, 0] = np.nan
            return cov

        monkeypatch.setattr(checks, "covariance", nan_covariance)
        res = checks.check_covariance_kernel_jacobian(np.random.default_rng([0, 8]))
        assert res.name == "covariance_kernel_jacobian"
        assert not res.passed
        assert np.isnan(res.worst)
        assert "worst nan <= 1e-12" in res.detail


class TestFormatting:
    def test_pass_and_fail_tags(self):
        ok = CheckResult("alpha", True, 1e-12, 1e-8, "fine")
        bad = CheckResult("beta", False, 0.3, 1e-10)
        assert format_result(ok) == "[PASS] alpha: worst=1.000e-12 tol=1.000e-08 (fine)"
        assert format_result(bad) == "[FAIL] beta: worst=3.000e-01 tol=1.000e-10"


class TestRegistryOrder:
    #: Registry order fixes each check's `default_rng([seed, index])` stream,
    #: so moving a check re-seeds every check after it.
    ORDER = [
        "softargmax_shift_invariance",
        "negentropy_gradient_roundtrip",
        "kl_divergence_nonnegative",
        "hybrid_bregman_closed_form",
        "fisher_information_jacobian",
        "fisher_inverse_closed_form",
        "christoffel_first_kind",
        "christoffel_potential_correction",
        "covariance_kernel_jacobian",
        "family_derivatives_fd",
        "barygradient_linearity",
        "outer_sum_consistency",
        "rank_one_factor_detection",
        "prox_stationarity",
        "prox_weights_closed_form",
        "prox_bfne_inequality",
        "operator_monotonicity",
        "resolvent_identity",
        "prox_tensor_closure",
        "prox_minimax_order",
        "prox_constant_family_exact",
        "ppa_fejer_monotone",
        "ppa_convergence_certificates",
        "ppa_critical_values_agree",
        "ppa_constant_drift_flag",
        "landscape_gradient_fd",
        "landscape_hessian_fd",
        "riemannian_correction_identity",
        "log_partition_metric_hessian",
        "hessian_inertia_sylvester",
        "critical_points_share_x",
        "min_min_objective_monotone",
        "flow_rates_match_trace",
        "objective_rate_variance_identity",
        "flow_gauge_invariance",
        "equilibria_match_fixed_points",
        "pseudo_riemannian_rewrite",
    ]

    def test_registry_order_is_pinned(self, all_seed0):
        assert [r.name for r in all_seed0] == self.ORDER

    def test_scopes_follow_the_registry(self):
        assert SCOPES == (
            "simplex_geometry", "objectives", "prox_core", "ppa", "landscape", "flows",
        )

    def test_registered_checks_keep_their_names(self):
        """Module-level checks keep their function names, which tracing keys on."""
        import baryopt.checks as checks

        names = [n for n in vars(checks) if n.startswith("check_")]
        assert len(names) == len(self.ORDER)
        for name in names:
            fn = getattr(checks, name)
            assert fn.__name__ == name and fn.__module__ == "baryopt.checks"
