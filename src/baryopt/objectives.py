"""Families of smooth losses on R^m and their tensorized combinations.

An `ObjectiveFamily` evaluates S >= 2 smooth real losses jointly: `values`
returns the S loss values, `jacobian` the S x m matrix of gradients (one row
per loss), `hessians` an (S, m, m) stack or None when second derivatives
are unavailable, and `weighted_hessian` the contraction sum_s r_s H_s that
Newton steps need (built on `hessians` by default; families that can
contract without building the stack override it).

The solvers, flows and landscape functions take values and Jacobian at a
point from one call to the private `_values_jacobian`, which
`QuadraticFamily` and outer sums compute in one pass over their
coefficients; a subclass that overrides `values` or `jacobian` is evaluated
through its own methods.  The solvers, the pinned flow functions and the
landscape functions check the loss values they evaluate with `_finite`
(InvalidDomainError "family returned non-finite loss values"); the flow
integrators instead end a run that leaves float range as diverged.

Tensorization combines two families on the same R^m into the outer-sum
family [l1 (+) l2]_{jk} = l1_j + l2_k, flattened row-major (index (j, k) ->
j * S2 + k), with the matching outer product of weights.

`known_saddle` draws a quadratic family around a known fixed point (x*, q*)
of the proximal map; it and `random_quadratic` share one curvature draw, and
each fixes the order of its draws, so a seed names one family.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InvalidDomainError, positive_number
from .simplex_geometry import SimplexPoint, _vector, as_logits

Array = np.ndarray


class ObjectiveFamily:
    """Base class: S >= 2 smooth real losses evaluated jointly on R^m."""

    m: int
    S: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A fused kernel inherited past an override of `values` or
        # `jacobian` would bypass that override.
        own = vars(cls)
        if "_values_jacobian" not in own and ("values" in own or "jacobian" in own):
            cls._values_jacobian = ObjectiveFamily._values_jacobian

    def values(self, x) -> Array:
        """Vector of the S loss values at x."""
        raise NotImplementedError

    def jacobian(self, x) -> Array:
        """S x m matrix whose rows are the loss gradients at x."""
        raise NotImplementedError

    def _values_jacobian(self, x):
        """(values(x), jacobian(x)); families that share work between the two override it."""
        return self.values(x), self.jacobian(x)

    def hessians(self, x):
        """(S, m, m) stack of loss Hessians, or None when unavailable."""
        return None

    def weighted_hessian(self, x, r):
        """m x m matrix sum_s r_s H_s(x), or None when Hessians are unavailable."""
        hess = self.hessians(x)
        if hess is None:
            return None
        return np.einsum("s,sij->ij", r, hess)

    def check_point(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise DimensionMismatchError(
                f"expected x of shape ({self.m},), got {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise InvalidDomainError("x must be finite")
        return x

    def check_weights(self, q: SimplexPoint) -> SimplexPoint:
        """Return q when it is a SimplexPoint holding one weight per loss
        (InvalidDomainError for another type, DimensionMismatchError for another size)."""
        if not isinstance(q, SimplexPoint):
            raise InvalidDomainError("q must be a SimplexPoint")
        if q.size != self.S:
            raise DimensionMismatchError(f"q has {q.size} entries, family has {self.S}")
        return q

    def check_logits(self, xi_bar) -> Array:
        """Reduced logits of the pinned chart: `as_logits(xi_bar)` with S - 1 entries."""
        xi_bar = as_logits(xi_bar)
        if xi_bar.size != self.S - 1:
            raise DimensionMismatchError(
                f"xi_bar has {xi_bar.size} entries, expected {self.S - 1}"
            )
        return xi_bar


def _finite(vals: Array) -> Array:
    """`vals` when every loss value is finite (InvalidDomainError otherwise)."""
    if not np.all(np.isfinite(vals)):
        raise InvalidDomainError("family returned non-finite loss values")
    return vals


def _finite_values_jacobian(fam: ObjectiveFamily, x):
    """(values, jacobian) at x from one fused evaluation, the values checked by `_finite`."""
    vals, jac = fam._values_jacobian(x)
    return _finite(vals), jac


class QuadraticFamily(ObjectiveFamily):
    """Losses l_s(x) = 0.5 x^T A_s x + b_s^T x + c_s with symmetric PSD A_s."""

    def __init__(self, A, b, c):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise DimensionMismatchError(f"A must have shape (S, m, m), got {A.shape}")
        S, m = A.shape[0], A.shape[1]
        if S < 2:
            raise DimensionMismatchError("a family needs at least 2 losses")
        if m < 1:
            raise DimensionMismatchError(f"m must be an integer >= 1, got {m}")
        if b.shape != (S, m) or c.shape != (S,):
            raise DimensionMismatchError(
                f"inconsistent shapes: A {A.shape}, b {b.shape}, c {c.shape}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise InvalidDomainError("A, b and c must be finite")
        scale = 1.0 + np.abs(A).max()
        if np.abs(A - A.transpose(0, 2, 1)).max() > 1e-12 * scale:
            raise InvalidDomainError("each A_s must be symmetric")
        for s in range(S):
            if np.linalg.eigvalsh(A[s]).min() < -1e-10 * scale:
                raise InvalidDomainError(f"A[{s}] is not positive semidefinite")
        self.A, self.b, self.c = A, b, c
        self.S, self.m = S, m

    # The kernels reduce through the batched matrix-vector product A @ x
    # (BLAS), which is faster and more accurate than a three-operand einsum;
    # the fused one reads A once for both results, with the same grouping.
    # The values are grouped as 0.5 * x^T (A x) + b^T x + c, which rounds
    # like the textbook form at m = 1; (0.5 A x + b)^T x does not.
    def values(self, x):
        x = self.check_point(x)
        return 0.5 * ((self.A @ x) @ x) + self.b @ x + self.c

    def jacobian(self, x):
        x = self.check_point(x)
        return self.A @ x + self.b

    def _values_jacobian(self, x):
        x = self.check_point(x)
        ax = self.A @ x
        return 0.5 * (ax @ x) + self.b @ x + self.c, ax + self.b

    def hessians(self, x):
        self.check_point(x)
        return self.A.copy()

    def weighted_hessian(self, x, r):
        self.check_point(x)
        return np.einsum("s,sij->ij", r, self.A)


class ConstantFamily(ObjectiveFamily):
    """Losses that ignore x entirely: l_s(x) = c_s (zero gradients/Hessians)."""

    def __init__(self, c, m=1):
        c = _vector(c, "constants", min_size=2)
        self.m = positive_number(m, "m", DimensionMismatchError, integer=True)
        self.c = c.copy()
        self.S = c.size

    def values(self, x):
        self.check_point(x)
        return self.c.copy()

    def jacobian(self, x):
        self.check_point(x)
        return np.zeros((self.S, self.m))

    def hessians(self, x):
        self.check_point(x)
        return np.zeros((self.S, self.m, self.m))


class OuterSumFamily(ObjectiveFamily):
    """Outer sum of two families on the same R^m, flattened row-major."""

    def __init__(self, first: ObjectiveFamily, second: ObjectiveFamily):
        if first.m != second.m:
            raise DimensionMismatchError(
                f"outer sum needs a common domain: m={first.m} vs m={second.m}"
            )
        self.first = first
        self.second = second
        self.m = first.m
        self.S = first.S * second.S

    def values(self, x):
        return np.add.outer(self.first.values(x), self.second.values(x)).ravel()

    def jacobian(self, x):
        return self._combine_jacobians(self.first.jacobian(x), self.second.jacobian(x))

    def _values_jacobian(self, x):
        v1, j1 = self.first._values_jacobian(x)
        v2, j2 = self.second._values_jacobian(x)
        return np.add.outer(v1, v2).ravel(), self._combine_jacobians(j1, j2)

    def _combine_jacobians(self, j1, j2):
        return np.repeat(j1, self.second.S, axis=0) + np.tile(j2, (self.first.S, 1))

    def hessians(self, x):
        h1 = self.first.hessians(x)
        h2 = self.second.hessians(x)
        if h1 is None or h2 is None:
            return None
        return np.repeat(h1, self.second.S, axis=0) + np.tile(h2, (self.first.S, 1, 1))


def outer_sum(first: ObjectiveFamily, second: ObjectiveFamily) -> OuterSumFamily:
    """Tensorized family [l1 (+) l2]_{jk}(x) = l1_j(x) + l2_k(x)."""
    return OuterSumFamily(first, second)


def outer_product(q1: SimplexPoint, q2: SimplexPoint) -> SimplexPoint:
    """Product weights (q1 (x) q2)_{jk} = q1_j q2_k, flattened row-major.

    Computed in log space, so the result is exact and interior.
    """
    return SimplexPoint(np.add.outer(q1.log_weights, q2.log_weights).ravel())


def barygradient(fam: ObjectiveFamily, x, q: SimplexPoint) -> Array:
    """Weighted gradient J_l(x)^T q = sum_s q_s grad l_s(x)."""
    return fam.jacobian(x).T @ fam.check_weights(q).probs


def rank_one_factor_check(q: SimplexPoint, s1: int, s2: int, tol: float = 1e-6):
    """Decide whether s1*s2 flattened weights factor as an outer product.

    Reshapes q row-major to (s1, s2) and tests the second singular value
    against tol times the first.  On success returns (True, (f1, f2)) where
    the marginal factors f1 (row sums) and f2 (column sums) satisfy
    f1 (x) f2 = q within tol; otherwise (False, None).  `tol` must be a
    positive number (ConfigError otherwise).
    """
    tol = positive_number(tol, "tol", ConfigError)
    if s1 * s2 != q.size or s1 < 2 or s2 < 2:
        raise DimensionMismatchError(
            f"cannot reshape {q.size} weights to ({s1}, {s2})"
        )
    P = q.probs.reshape(s1, s2)
    svals = np.linalg.svd(P, compute_uv=False)
    if svals[1] > tol * svals[0]:
        return False, None
    f1 = SimplexPoint.from_probs(P.sum(axis=1))
    f2 = SimplexPoint.from_probs(P.sum(axis=0))
    return True, (f1, f2)


@dataclass(frozen=True, slots=True, eq=False)
class DerivativeCheck:
    """Finite-difference audit of one point: worst deviations and a flag."""

    x: Array = field(repr=False)
    jacobian_dev: float
    hessian_dev: float | None
    threshold: float
    flagged: bool = field(init=False)

    def __post_init__(self):
        devs = [d for d in (self.jacobian_dev, self.hessian_dev) if d is not None]
        object.__setattr__(self, "flagged", not all(d <= self.threshold for d in devs))


def _central_diff(fn, z, step):
    """Central differences of `fn` at `z`, one per coordinate, stacked on the last axis."""
    cols = []
    for j in range(z.size):
        e = np.zeros(z.size)
        e[j] = step
        cols.append((fn(z + e) - fn(z - e)) / (2 * step))
    return np.stack(cols, axis=-1)


def finite_diff_check(fam: ObjectiveFamily, points, step: float = 1e-5):
    """Check jacobian (and hessians, when available) against central differences.

    Returns one `DerivativeCheck` per point; a point is flagged unless every
    deviation is at most 1e-5 * (1 + Frobenius norm of the jacobian), so a
    NaN deviation or threshold flags it.  `step` must be a positive number
    (ConfigError otherwise).
    """
    step = positive_number(step, "step", ConfigError)
    reports = []
    for x in points:
        x = fam.check_point(x)
        jac = fam.jacobian(x)
        jac_dev = float(np.abs(jac - _central_diff(fam.values, x, step)).max())
        hess_dev = None
        hess = fam.hessians(x)
        if hess is not None:
            hess_dev = float(np.abs(hess - _central_diff(fam.jacobian, x, step)).max())
        threshold = 1e-5 * (1.0 + float(np.linalg.norm(jac)))
        reports.append(DerivativeCheck(x, jac_dev, hess_dev, threshold))
    return reports


def symmetric_quadratic() -> QuadraticFamily:
    """The two-well pair l_1 = (x-1)^2/2, l_2 = (x+1)^2/2 on R^1.

    Its unique equal-loss point is x = 0 with common value 1/2, where the
    weighted gradient vanishes only at the uniform weights.
    """
    return QuadraticFamily(
        A=np.ones((2, 1, 1)),
        b=np.array([[-1.0], [1.0]]),
        c=np.array([0.5, 0.5]),
    )


def _curvatures(rng, m, S, min_curvature):
    """A_s = G_s G_s^T / m + min_curvature * Id from one draw G ~ N(0, 1)^{S x m x m}."""
    G = rng.normal(size=(S, m, m))
    return np.einsum("sij,skj->sik", G, G) / m + min_curvature * np.eye(m)


def random_quadratic(rng, m: int = 3, S: int = 4, min_curvature: float = 0.1) -> QuadraticFamily:
    """Random strictly convex quadratic family (A_s >= min_curvature * Id).
    Draws the curvatures' G, then b ~ N(0, 1)^{S x m}, then c ~ N(0, 1)^S."""
    A = _curvatures(rng, m, S, min_curvature)
    b = rng.normal(size=(S, m))
    c = rng.normal(size=S)
    return QuadraticFamily(A, b, c)


def known_saddle(rng, m: int, S: int):
    """(family, x*, q*): strictly convex quadratic losses that all vanish at
    x*, with gradients g there such that q*^T g = 0, so (x*, q*) (q* as
    probabilities) is a fixed point of the proximal map at every step.
    Draws x* ~ U(-1, 1)^m, q* ~ Dirichlet(4, ..., 4), the curvatures' G
    (A_s >= 0.1 * Id), then g ~ N(0, 1)^{S x m} less its q*-weighted mean."""
    x_star = rng.uniform(-1.0, 1.0, size=m)
    q_star = rng.dirichlet(np.full(S, 4.0))
    A = _curvatures(rng, m, S, 0.1)
    g = rng.normal(size=(S, m))
    g -= q_star @ g
    b = g - np.einsum("sij,j->si", A, x_star)
    c = -(0.5 * np.einsum("i,sij,j->s", x_star, A, x_star) + b @ x_star)
    return QuadraticFamily(A, b, c), x_star, q_star
