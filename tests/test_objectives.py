"""Tests for loss families, tensorization, and derivative auditing."""

import numpy as np
import pytest

from baryopt.errors import ConfigError, DimensionMismatchError, InvalidDomainError
from baryopt.objectives import (
    ConstantFamily,
    ObjectiveFamily,
    QuadraticFamily,
    barygradient,
    finite_diff_check,
    known_saddle,
    outer_product,
    outer_sum,
    rank_one_factor_check,
    random_quadratic,
    symmetric_quadratic,
)
from baryopt.flows import (
    KIND_MIN_MAX,
    df_dt_analytic,
    entropy_rate_analytic,
    flow_vector_field,
    integrate_flow,
    pseudo_riemannian_residual,
)
from baryopt.landscape import LandscapePoint, riemannian_hessian
from baryopt.ppa import PpaConfig, run_ppa
from baryopt.prox import (
    ProxConfig,
    fixed_point_residual,
    minimize_fixed_weights,
    monotone_operator,
    monotonicity_gap,
    prox,
    resolvent_residual,
    saddle_objective,
)
from baryopt.simplex_geometry import HybridPoint, SimplexPoint, logits_from_point

from _families import Counting, NoHessians, Overflowing


class _WrongJacobian(QuadraticFamily):
    """Quadratic family whose reported jacobian is off by a constant."""

    def jacobian(self, x):
        return super().jacobian(x) + 0.01


class _NanJacobian(QuadraticFamily):
    """Quadratic family whose reported jacobian is all NaN."""

    def jacobian(self, x):
        return np.full((self.S, self.m), np.nan)


class _Shifted(QuadraticFamily):
    """Quadratic family whose reported losses are shifted by 0, 1, ..., S - 1."""

    def values(self, x):
        return super().values(x) + np.arange(self.S)


_NOT_POSITIVE = [np.nan, np.inf, 0.0, -1.0, True, "abc"]


class TestQuadraticFamily:
    def test_symmetric_pair_hand_values(self):
        """l_1(0.3) = (0.3-1)^2/2 = 0.245 and l_2(0.3) = (0.3+1)^2/2 = 0.845."""
        fam = symmetric_quadratic()
        np.testing.assert_allclose(
            fam.values(np.array([0.3])), [0.245, 0.845], rtol=1e-14
        )
        np.testing.assert_allclose(
            fam.jacobian(np.array([0.3])), [[-0.7], [1.3]], rtol=1e-14
        )
        np.testing.assert_allclose(fam.hessians(np.array([0.3])), np.ones((2, 1, 1)))

    def test_rejects_asymmetric_curvature(self):
        A = np.array([[[1.0, 0.5], [0.0, 1.0]]] * 2)
        with pytest.raises(InvalidDomainError):
            QuadraticFamily(A, np.zeros((2, 2)), np.zeros(2))

    def test_rejects_indefinite_curvature(self):
        A = np.array([[[-1.0]], [[1.0]]])
        with pytest.raises(InvalidDomainError):
            QuadraticFamily(A, np.zeros((2, 1)), np.zeros(2))

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(DimensionMismatchError):
            QuadraticFamily(np.ones((2, 1, 1)), np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            QuadraticFamily(np.ones((1, 1, 1)), np.zeros((1, 1)), np.zeros(1))

    @pytest.mark.parametrize("build", [
        lambda: QuadraticFamily(np.zeros((3, 0, 0)), np.zeros((3, 0)), np.zeros(3)),
        lambda: random_quadratic(np.random.default_rng(0), m=0),
        lambda: known_saddle(np.random.default_rng(0), 0, 3),
    ], ids=["QuadraticFamily", "random_quadratic", "known_saddle"])
    def test_rejects_an_empty_domain(self, build):
        with pytest.raises(DimensionMismatchError, match="^m must be an integer >= 1, got 0$"):
            build()

    def test_rejects_bad_points(self):
        fam = symmetric_quadratic()
        with pytest.raises(DimensionMismatchError):
            fam.values(np.array([0.1, 0.2]))
        with pytest.raises(InvalidDomainError):
            fam.values(np.array([np.nan]))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    def test_values_match_an_extended_precision_reference(self):
        """At (m, S) = (50, 8) the values lie within 2e-14 of long-double sums."""
        rng = np.random.default_rng(33)
        fam = random_quadratic(rng, m=50, S=8)
        A, b, c = (v.astype(np.longdouble) for v in (fam.A, fam.b, fam.c))
        worst = 0.0
        for _ in range(200):
            x = rng.normal(size=50)
            xl = x.astype(np.longdouble)
            ref = 0.5 * np.einsum("i,sij,j->s", xl, A, xl) + b @ xl + c
            worst = max(worst, float(np.abs(fam.values(x) - ref).max()))
        assert worst <= 2e-14

    def test_random_family_is_strictly_convex(self):
        rng = np.random.default_rng(0)
        fam = random_quadratic(rng, m=3, S=4, min_curvature=0.1)
        assert (fam.S, fam.m) == (4, 3)
        for s in range(4):
            assert np.linalg.eigvalsh(fam.A[s]).min() >= 0.1 - 1e-12


class TestKnownSaddle:
    """The drawn pair (x*, q*) is a fixed point, and both random generators
    consume a fixed sequence of draws, on which seeded catalogues rely."""

    @pytest.mark.parametrize("m, S", [(1, 2), (3, 4), (50, 8)])
    def test_the_drawn_pair_is_a_fixed_point(self, m, S):
        for seed in range(5):
            fam, x_star, q_star = known_saddle(np.random.default_rng(seed), m, S)
            assert np.abs(fam.values(x_star)).max() <= 1e-12
            assert np.abs(fam.jacobian(x_star).T @ q_star).max() <= 1e-12
            point = HybridPoint(x_star, SimplexPoint.from_probs(q_star))
            assert max(fixed_point_residual(fam, point)) <= 1e-12
            for A in fam.A:
                assert np.array_equal(A, A.T)
                assert np.linalg.eigvalsh(A).min() >= 0.1 - 1e-12

    @pytest.mark.parametrize("m, S", [(1, 2), (3, 4), (50, 8)])
    def test_draw_order(self, m, S):
        """x*, q*, the curvatures' G, then g; and G, b, c for random_quadratic.
        A twin stream that makes the same draws ends in the same state."""
        def curvatures(G):
            return np.einsum("sij,skj->sik", G, G) / m + 0.1 * np.eye(m)

        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        fam, x_star, q_star = known_saddle(rng, m, S)
        assert np.array_equal(x_star, twin.uniform(-1.0, 1.0, size=m))
        assert np.array_equal(q_star, twin.dirichlet(np.full(S, 4.0)))
        np.testing.assert_allclose(fam.A, curvatures(twin.normal(size=(S, m, m))), atol=1e-12)
        g = twin.normal(size=(S, m))
        np.testing.assert_allclose(fam.jacobian(x_star), g - q_star @ g, atol=1e-12)
        assert rng.bit_generator.state == twin.bit_generator.state

        fam = random_quadratic(rng, m, S)
        np.testing.assert_allclose(fam.A, curvatures(twin.normal(size=(S, m, m))), atol=1e-12)
        assert np.array_equal(fam.b, twin.normal(size=(S, m)))
        assert np.array_equal(fam.c, twin.normal(size=S))
        assert rng.bit_generator.state == twin.bit_generator.state


class TestConstantFamily:
    def test_values_and_flat_derivatives(self):
        fam = ConstantFamily(np.array([0.0, 0.4, 1.0]), m=2)
        x = np.array([3.0, -1.0])
        np.testing.assert_allclose(fam.values(x), [0.0, 0.4, 1.0])
        np.testing.assert_allclose(fam.jacobian(x), np.zeros((3, 2)))
        np.testing.assert_allclose(fam.hessians(x), np.zeros((3, 2, 2)))

    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            ConstantFamily(np.array([1.0]))
        with pytest.raises(InvalidDomainError):
            ConstantFamily(np.array([0.0, np.inf]))

    @pytest.mark.parametrize("m", [1.7, True, "2", 0, -1, float("nan")])
    def test_m_must_be_an_integer_at_least_one(self, m):
        with pytest.raises(DimensionMismatchError, match="m must be"):
            ConstantFamily(np.array([0.0, 1.0]), m=m)

    def test_integral_m_is_an_int(self):
        for m in (2, 2.0, np.int64(2)):
            fam = ConstantFamily(np.array([0.0, 1.0]), m=m)
            assert fam.m == 2 and type(fam.m) is int


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("name", ["A", "b", "c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_quadratic_family_rejects_them(self, name, bad):
        coeffs = {"A": np.ones((2, 1, 1)), "b": np.zeros((2, 1)), "c": np.zeros(2)}
        coeffs[name].flat[0] = bad
        with pytest.raises(InvalidDomainError, match="A, b and c must be finite"):
            QuadraticFamily(**coeffs)


class TestOuterSum:
    def test_values_flatten_row_major(self):
        """[l1 (+) l2]_{jk} = l1_j + l2_k with index (j, k) -> j*S2 + k."""
        f1 = ConstantFamily(np.array([1.0, 2.0]), m=1)
        f2 = ConstantFamily(np.array([10.0, 20.0, 30.0]), m=1)
        fam = outer_sum(f1, f2)
        assert (fam.S, fam.m) == (6, 1)
        np.testing.assert_allclose(
            fam.values(np.array([0.0])), [11.0, 21.0, 31.0, 12.0, 22.0, 32.0]
        )

    def test_jacobian_rows_add(self):
        rng = np.random.default_rng(2)
        f1 = random_quadratic(rng, m=2, S=2)
        f2 = random_quadratic(rng, m=2, S=3)
        fam = outer_sum(f1, f2)
        x = rng.normal(size=2)
        jac = fam.jacobian(x)
        j1, j2 = f1.jacobian(x), f2.jacobian(x)
        for j in range(2):
            for k in range(3):
                np.testing.assert_allclose(jac[j * 3 + k], j1[j] + j2[k], rtol=1e-13)

    def test_hessians_add_or_propagate_none(self):
        rng = np.random.default_rng(3)
        f1 = random_quadratic(rng, m=1, S=2)
        fam = outer_sum(f1, f1)
        np.testing.assert_allclose(
            fam.hessians(np.zeros(1))[1], f1.A[0] + f1.A[1], rtol=1e-14
        )
        assert outer_sum(f1, NoHessians()).hessians(np.zeros(1)) is None

    def test_rejects_mismatched_domains(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DimensionMismatchError):
            outer_sum(random_quadratic(rng, m=1), random_quadratic(rng, m=2))


class TestWeightedHessian:
    """weighted_hessian(x, r) is sum_s r_s H_s, or None without Hessians."""

    @pytest.mark.parametrize("make", [
        lambda rng: random_quadratic(rng, m=3, S=4),
        lambda rng: ConstantFamily(np.array([0.0, 0.4, 1.0]), m=2),
        lambda rng: outer_sum(random_quadratic(rng, m=2, S=2), random_quadratic(rng, m=2, S=3)),
    ], ids=["quadratic", "constant", "outer_sum"])
    def test_contracts_the_hessian_stack(self, make):
        rng = np.random.default_rng(30)
        fam = make(rng)
        for _ in range(5):
            x = rng.normal(size=fam.m)
            r = SimplexPoint(rng.normal(size=fam.S)).probs
            expected = np.einsum("s,sij->ij", r, fam.hessians(x))
            got = fam.weighted_hessian(x, r)
            assert got.shape == (fam.m, fam.m)
            assert np.array_equal(got, expected)

    def test_none_without_hessians(self):
        r = np.array([0.5, 0.5])
        assert NoHessians().weighted_hessian(np.zeros(1), r) is None
        f1 = random_quadratic(np.random.default_rng(31), m=1, S=2)
        mixed = outer_sum(f1, NoHessians())
        assert mixed.weighted_hessian(np.zeros(1), np.full(4, 0.25)) is None

    def test_quadratic_does_not_copy_the_stack(self):
        fam = random_quadratic(np.random.default_rng(32), m=3, S=4)
        fam.hessians = None  # any call to the stack would now fail
        assert fam.weighted_hessian(np.zeros(3), np.full(4, 0.25)).shape == (3, 3)


def _prox_outputs(fam, x, q):
    res = prox(fam, x, q, ProxConfig(lam=2.0))
    return [res.x, res.q.log_weights, res.values, res.barygrad]


def _ppa_outputs(fam, x, q):
    trace = run_ppa(fam, x, q, PpaConfig(max_outer_iter=10))
    return [np.array([rec.objective for rec in trace.records]), trace.final.x]


def _flow_outputs(fam, x, q):
    return list(flow_vector_field(fam, x, logits_from_point(q), KIND_MIN_MAX))


def _hessian_outputs(fam, x, q):
    report = riemannian_hessian(fam, LandscapePoint(x, logits_from_point(q)))
    return [report.euclidean, np.array([report.grad_norm])]


class TestFusedEvaluation:
    """`_values_jacobian` is the one evaluation the library makes at a point."""

    @pytest.mark.parametrize("m, S", [(1, 2), (3, 4), (50, 8), (200, 16)])
    def test_quadratic_equals_values_and_jacobian(self, m, S):
        rng = np.random.default_rng(m + S)
        fam = random_quadratic(rng, m=m, S=S)
        for _ in range(3):
            x = rng.normal(size=m)
            vals, jac = fam._values_jacobian(x)
            assert np.array_equal(vals, fam.values(x))
            assert np.array_equal(jac, fam.jacobian(x))

    def test_outer_sum_equals_values_and_jacobian(self):
        rng = np.random.default_rng(33)
        inner = outer_sum(random_quadratic(rng, m=3, S=2), random_quadratic(rng, m=3, S=3))
        fam = outer_sum(inner, ConstantFamily(np.array([0.0, 0.4]), m=3))
        x = rng.normal(size=3)
        vals, jac = fam._values_jacobian(x)
        assert vals.shape == (12,) and jac.shape == (12, 3)
        assert np.array_equal(vals, fam.values(x))
        assert np.array_equal(jac, fam.jacobian(x))

    def test_overrides_of_values_or_jacobian_drop_the_inherited_kernel(self):
        class _CustomHessian(QuadraticFamily):
            def weighted_hessian(self, x, r):
                return super().weighted_hessian(x, r)

        assert _Shifted._values_jacobian is ObjectiveFamily._values_jacobian
        assert _WrongJacobian._values_jacobian is ObjectiveFamily._values_jacobian
        assert _CustomHessian._values_jacobian is QuadraticFamily._values_jacobian

    @pytest.mark.parametrize("outputs", [_prox_outputs, _ppa_outputs, _flow_outputs,
                                         _hessian_outputs],
                             ids=["prox", "run_ppa", "flow_vector_field", "riemannian_hessian"])
    def test_overridden_values_are_honoured(self, outputs):
        """A subclass's `values` reaches every solver, bit for bit as through
        a plain family that forwards to it (`Counting`), and moves the result."""
        rng = np.random.default_rng(34)
        base = random_quadratic(rng, m=3, S=4)
        fam = _Shifted(base.A, base.b, base.c)
        x, q = rng.normal(size=3), SimplexPoint(rng.normal(size=4))
        got = outputs(fam, x, q)
        for a, b in zip(got, outputs(Counting(fam), x, q), strict=True):
            assert np.array_equal(a, b)
        assert not all(np.array_equal(a, b) for a, b in zip(got, outputs(base, x, q)))


def _single_point_calls():
    """The entry points that evaluate the family at a single point, each
    called on the overflowing family."""
    fam = Overflowing()
    x = np.zeros(1)
    q = SimplexPoint.uniform(2)
    p = HybridPoint(x, q)
    return {
        "prox": lambda: prox(fam, x, q),
        "run_ppa": lambda: run_ppa(fam, x, q),
        "minimize_fixed_weights": lambda: minimize_fixed_weights(fam, x, q),
        "saddle_objective": lambda: saddle_objective(fam, x, q, x, q, 0.5),
        "monotone_operator": lambda: monotone_operator(fam, p),
        "monotonicity_gap": lambda: monotonicity_gap(fam, p, HybridPoint(x + 1.0, q)),
        "flow_vector_field": lambda: flow_vector_field(fam, x, np.zeros(1), KIND_MIN_MAX),
        "df_dt_analytic": lambda: df_dt_analytic(fam, x, np.zeros(1), KIND_MIN_MAX),
        "entropy_rate_analytic": lambda: entropy_rate_analytic(fam, x, np.zeros(1), KIND_MIN_MAX),
        "pseudo_riemannian_residual":
            lambda: pseudo_riemannian_residual(fam, x, q, KIND_MIN_MAX),
    }


class TestNonFiniteLosses:
    """Losses that overflow are one domain error at every single-point entry
    point, not a minimizer, objective, gap or velocity built from inf/NaN."""

    @pytest.mark.parametrize("entry", sorted(_single_point_calls()))
    def test_entry_points_raise(self, entry):
        with pytest.raises(InvalidDomainError, match="^family returned non-finite loss values$"):
            _single_point_calls()[entry]()


class TestOuterProductWeights:
    def test_matches_kron(self):
        q1 = SimplexPoint.from_probs(np.array([0.3, 0.7]))
        q2 = SimplexPoint.from_probs(np.array([0.2, 0.5, 0.3]))
        np.testing.assert_allclose(
            outer_product(q1, q2).probs, np.kron(q1.probs, q2.probs), rtol=1e-14
        )

    def test_rank_one_check_recovers_factors(self):
        q1 = SimplexPoint.from_probs(np.array([0.4, 0.6]))
        q2 = SimplexPoint.from_probs(np.array([0.1, 0.9]))
        ok, factors = rank_one_factor_check(outer_product(q1, q2), 2, 2)
        assert ok
        f1, f2 = factors
        np.testing.assert_allclose(f1.probs, q1.probs, atol=1e-12)
        np.testing.assert_allclose(f2.probs, q2.probs, atol=1e-12)

    def test_rank_one_check_rejects_entangled_weights(self):
        q = SimplexPoint.from_probs(np.array([0.4, 0.1, 0.1, 0.4]))
        ok, factors = rank_one_factor_check(q, 2, 2)
        assert not ok and factors is None

    def test_rank_one_check_shape_guard(self):
        with pytest.raises(DimensionMismatchError):
            rank_one_factor_check(SimplexPoint.uniform(6), 2, 2)

    @pytest.mark.parametrize("tol", _NOT_POSITIVE)
    def test_rank_one_check_rejects_a_tolerance_that_is_not_positive(self, tol):
        """A NaN tolerance would pass every weight as a product."""
        q = SimplexPoint(np.random.default_rng(1).normal(size=9))
        with pytest.raises(ConfigError, match="^tol must be"):
            rank_one_factor_check(q, 3, 3, tol=tol)


class TestBarygradient:
    def test_is_weighted_row_combination(self):
        rng = np.random.default_rng(5)
        fam = random_quadratic(rng, m=3, S=4)
        x = rng.normal(size=3)
        q = SimplexPoint(rng.normal(size=4))
        np.testing.assert_allclose(
            barygradient(fam, x, q), fam.jacobian(x).T @ q.probs, rtol=1e-14
        )

    def test_size_mismatch(self):
        fam = symmetric_quadratic()
        with pytest.raises(DimensionMismatchError):
            barygradient(fam, np.zeros(1), SimplexPoint.uniform(3))


class TestFiniteDiffCheck:
    @pytest.mark.parametrize("step", _NOT_POSITIVE)
    def test_rejects_a_step_that_is_not_positive(self, step):
        with pytest.raises(ConfigError, match="^step must be"):
            finite_diff_check(symmetric_quadratic(), [np.array([0.2])], step=step)

    def test_correct_family_is_not_flagged(self):
        rng = np.random.default_rng(6)
        fam = random_quadratic(rng, m=2, S=3)
        points = [rng.normal(size=2) for _ in range(5)]
        reports = finite_diff_check(fam, points)
        assert len(reports) == 5
        for rep in reports:
            assert not rep.flagged
            assert rep.hessian_dev is not None

    def test_jacobian_only_family(self):
        reports = finite_diff_check(NoHessians(), [np.array([0.7])])
        assert not reports[0].flagged
        assert reports[0].hessian_dev is None

    def test_negative_control_flags_biased_jacobian(self):
        """A jacobian off by 0.01 must trip the finite-difference audit."""
        fam = _WrongJacobian(np.ones((2, 1, 1)), np.zeros((2, 1)), np.zeros(2))
        reports = finite_diff_check(fam, [np.array([0.2])])
        assert reports[0].flagged
        assert reports[0].jacobian_dev == pytest.approx(0.01, rel=1e-3)

    def test_nan_jacobian_is_flagged(self):
        """A NaN deviation (here with a NaN threshold too) flags the point."""
        fam = _NanJacobian(np.ones((2, 1, 1)), np.zeros((2, 1)), np.zeros(2))
        (rep,) = finite_diff_check(fam, [np.array([0.2])])
        assert np.isnan(rep.jacobian_dev) and np.isnan(rep.threshold)
        assert rep.flagged


def _mismatched_weights_calls():
    """The entry points taking a family and weights, each called with q of
    size 3 against the 2-loss symmetric family."""
    fam = symmetric_quadratic()
    x = np.array([0.3])
    q3 = SimplexPoint.uniform(3)
    p3 = HybridPoint(x, q3)
    result = prox(fam, x, SimplexPoint.uniform(2))
    return {
        "run_ppa": lambda: run_ppa(fam, x, q3),
        "minimize_fixed_weights": lambda: minimize_fixed_weights(fam, x, q3),
        "saddle_objective": lambda: saddle_objective(fam, x, q3, x, q3, 0.5),
        "fixed_point_residual": lambda: fixed_point_residual(fam, p3),
        "resolvent_residual": lambda: resolvent_residual(fam, p3, result, 0.5),
        "pseudo_riemannian_residual":
            lambda: pseudo_riemannian_residual(fam, x, q3, KIND_MIN_MAX),
        "integrate_flow": lambda: integrate_flow(fam, x, q3, KIND_MIN_MAX),
    }


def _plain_weights_calls():
    """The entry points taking a family and weights, each called with the
    weights (0.3, 0.7) as an array, a list or a tuple, not a SimplexPoint."""
    fam = symmetric_quadratic()
    x = np.array([0.3])
    return {
        "prox": lambda: prox(fam, x, np.array([0.3, 0.7])),
        "run_ppa": lambda: run_ppa(fam, x, [0.3, 0.7]),
        "integrate_flow": lambda: integrate_flow(fam, x, [0.3, 0.7], KIND_MIN_MAX),
        "barygradient": lambda: barygradient(fam, x, (0.3, 0.7)),
        "minimize_fixed_weights": lambda: minimize_fixed_weights(fam, x, [0.3, 0.7]),
        "saddle_objective": lambda: saddle_objective(fam, x, [0.3, 0.7], x, [0.3, 0.7], 0.5),
        "pseudo_riemannian_residual":
            lambda: pseudo_riemannian_residual(fam, x, [0.3, 0.7], KIND_MIN_MAX),
    }


class TestWeightsContract:
    """Every entry point that takes a family and weights checks their size
    with `check_weights`, so a mismatch never reaches numpy."""

    @pytest.mark.parametrize("entry", sorted(_mismatched_weights_calls()))
    def test_mismatched_weights_are_one_documented_error(self, entry):
        with pytest.raises(DimensionMismatchError, match="q has 3 entries, family has 2"):
            _mismatched_weights_calls()[entry]()

    @pytest.mark.parametrize("entry", sorted(_plain_weights_calls()))
    def test_weights_that_are_not_a_simplex_point_are_rejected(self, entry):
        with pytest.raises(InvalidDomainError, match="q must be a SimplexPoint"):
            _plain_weights_calls()[entry]()
