"""Geometry of the open probability simplex in log coordinates.

Interior points are stored as normalized log-probabilities (`SimplexPoint`);
boundary points are not representable, which keeps every divergence below
finite.  The reduced chart used by the landscape and flow modules pins the
last logit to zero: a vector ``xi_bar`` of S-1 free logits stands for the
full logit vector (xi_bar, 0), and ``sigma_bar`` denotes the first S-1
components of its softargmax.

Conventions:

    negentropy          h(q) = sum_s q_s log q_s,   grad h(q) = 1 + log q
    kl(r, q)            sum_s r_s (log r_s - log q_s)
    softargmax(xi)      (grad h)^{-1}(xi - LSE(xi) 1), LSE(xi) = log sum_s e^{xi_s - 1}
    fisher_information  I(xi_bar) = Diag(sigma_bar) - sigma_bar sigma_bar^T
    christoffel         Levi-Civita symbols of I in the xi_bar chart

All log-sum-exp work is max-shifted (`_log_softmax` and `_logsumexp`, numpy
copies of scipy.special's log_softmax and logsumexp); linear-space
probabilities appear only at API boundaries.  `_log_softmax` is the one
normaliser of logits: `SimplexPoint`, `sigma_pinned` and each flow state go
through it.  `prox` keeps `_logsumexp` for its scalar sums, among them the
value phi, whose rounding decides which Armijo steps the line search
accepts: rebuilding phi from `_log_softmax` would move prox digits.
Instances and return values are immutable or freshly allocated, so
everything here is safe to share across threads.
"""

import math

import numpy as np

from .errors import DimensionMismatchError, InvalidDomainError

Array = np.ndarray

# Linear-space probabilities at or below this floor count as boundary points
# and are rejected; log-space representations stay finite instead.
PROB_FLOOR = 1e-300


def _log_softmax(xi: Array) -> Array:
    """scipy.special.log_softmax of a 1-d array, step for step and digit for digit.

    Calling the ufunc reductions directly and entering no errstate (the log
    warns only when every entry is -inf) makes it several times cheaper.
    """
    top = np.maximum.reduce(xi, keepdims=True)
    if not math.isfinite(top[0]):
        top[0] = 0.0
    shifted = xi - top
    return shifted - np.log(np.add.reduce(np.exp(shifted), keepdims=True))


def _logsumexp(a: Array) -> float:
    """scipy.special.logsumexp of a 1-d array, step for step and digit for digit.

    The maximum entries are counted and kept out of the shifted sum.  Where
    that result is not finite (an infinite or NaN maximum, or overflow) scipy
    returns log(sum(exp(a))); an infinite or NaN maximum always ends there,
    so it goes there first and the shifted sum never warns.
    """
    top = np.maximum.reduce(a, keepdims=True)
    if math.isfinite(top[0]):
        is_top = a == top
        count = np.add.reduce(is_top, keepdims=True, dtype=float)
        rest = np.add.reduce(np.exp(np.where(is_top, -np.inf, a) - top), keepdims=True)
        out = float((np.log1p(rest / count) + np.log(count) + top)[0])
        if math.isfinite(out):
            return out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return float(np.log(np.add.reduce(np.exp(a))))


def _frozen(values) -> Array:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _vector(values, what, min_size=1) -> Array:
    """`values` as a finite 1-d float array with at least `min_size` entries.

    Raises DimensionMismatchError for any other shape and InvalidDomainError
    for non-finite entries; `what` names the input in both messages.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < min_size:
        raise DimensionMismatchError(
            f"{what} must be a 1-d vector of length >= {min_size}, got shape {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidDomainError(f"{what} must be finite")
    return v


class SimplexPoint:
    """Interior simplex point stored as normalized log-probabilities.

    The constructor accepts any finite logit vector and normalizes it in log
    space, so ``SimplexPoint(xi)`` realizes softargmax(xi); adding a constant
    to the input yields the same point.  Instances are immutable.
    """

    __slots__ = ("log_weights",)

    def __init__(self, log_weights):
        lw = _vector(log_weights, "logits", min_size=2)
        self.log_weights = _frozen(_log_softmax(lw))

    @classmethod
    def from_probs(cls, probs) -> "SimplexPoint":
        """Build from linear-space weights; boundary points are rejected."""
        p = _vector(probs, "probabilities", min_size=2)
        if np.any(p <= PROB_FLOOR):
            raise InvalidDomainError("probabilities must be strictly positive")
        return cls(np.log(p))

    @classmethod
    def uniform(cls, size: int) -> "SimplexPoint":
        return cls(np.zeros(size))

    @property
    def size(self) -> int:
        return self.log_weights.size

    @property
    def probs(self) -> Array:
        return np.exp(self.log_weights)

    def __repr__(self):
        return f"SimplexPoint(probs={self.probs!r})"


def softargmax(xi) -> SimplexPoint:
    """Map a finite logit vector to the simplex interior.

    Equals (grad h)^{-1}(xi - LSE(xi) 1) for the negentropy h and is
    invariant under adding a constant to xi.
    """
    return SimplexPoint(xi)


def negentropy(q: SimplexPoint):
    """Return h(q) = sum_s q_s log q_s and its gradient 1 + log q."""
    lw = q.log_weights
    value = float(np.exp(lw) @ lw)
    return value, 1.0 + lw


def negentropy_grad_inverse(y) -> Array:
    """(grad h)^{-1}(y) = exp(y - 1), as linear-space weights.

    Sums to one exactly when y lies in the image of grad h.
    """
    return np.exp(np.asarray(y, dtype=float) - 1.0)


def kl(r: SimplexPoint, q: SimplexPoint) -> float:
    """Kullback-Leibler divergence sum_s r_s log(r_s / q_s).

    Finite for all interior points; zero iff the points coincide.
    """
    if r.size != q.size:
        raise DimensionMismatchError(
            f"KL between points of different sizes: {r.size} vs {q.size}"
        )
    return float(np.exp(r.log_weights) @ (r.log_weights - q.log_weights))


class HybridPoint:
    """State (x, q) in R^m x int(simplex)."""

    __slots__ = ("x", "q")

    def __init__(self, x, q: SimplexPoint):
        x = _vector(x, "x")
        if not isinstance(q, SimplexPoint):
            raise InvalidDomainError("q must be a SimplexPoint")
        self.x = _frozen(x)
        self.q = q

    @property
    def m(self) -> int:
        return self.x.size

    def __repr__(self):
        return f"HybridPoint(x={self.x!r}, q={self.q!r})"


def hybrid_bregman(u: HybridPoint, v: HybridPoint) -> float:
    """Bregman divergence of f(x, q) = ||x||^2/2 + h(q).

    D_f(u, v) = 0.5 ||x_u - x_v||^2 + KL(q_u || q_v); the Euclidean part in
    x and the entropic part on the simplex."""
    if u.m != v.m:
        raise DimensionMismatchError(f"x dimensions differ: {u.m} vs {v.m}")
    dx = u.x - v.x
    return 0.5 * float(dx @ dx) + kl(u.q, v.q)


def as_logits(xi_bar) -> Array:
    """Validate a reduced logit vector (finite, 1-d, at least one entry)."""
    return _vector(np.atleast_1d(xi_bar), "reduced logits")


def sigma_pinned(xi_bar) -> Array:
    """Full probability vector of the pinned chart: softargmax((xi_bar, 0))."""
    xb = as_logits(xi_bar)
    return np.exp(_log_softmax(np.append(xb, 0.0)))


def point_from_logits(xi_bar) -> SimplexPoint:
    """Inverse chart map: the simplex point with logits (xi_bar, 0)."""
    return SimplexPoint(np.append(as_logits(xi_bar), 0.0))


def logits_from_point(q: SimplexPoint) -> Array:
    """Chart map q -> xi_bar with xi_bar_s = log(q_s / q_S)."""
    lw = q.log_weights
    return lw[:-1] - lw[-1]


def covariance(q: SimplexPoint) -> Array:
    """Covariance matrix Diag(q) - q q^T of the categorical distribution q.

    Positive semidefinite with kernel spanned by the all-ones vector; equals
    the Jacobian of softargmax at any logit vector representing q.
    """
    p = q.probs
    return np.diag(p) - np.outer(p, p)


def fisher_information(xi_bar):
    """Fisher information of the pinned chart and its closed-form inverse.

    Returns (I, I_inv) with

        I     = Diag(sigma_bar) - sigma_bar sigma_bar^T,
        I_inv = Diag(1/sigma_bar) + (1/sigma_S) 1 1^T,

    where sigma = softargmax((xi_bar, 0)) and sigma_S is its last component.
    I is symmetric positive definite for every finite xi_bar.
    """
    sigma = sigma_pinned(xi_bar)
    sb, s_last = sigma[:-1], sigma[-1]
    mat = np.diag(sb) - np.outer(sb, sb)
    inv = np.diag(1.0 / sb) + 1.0 / s_last
    return mat, inv


def covariance_derivative_tensor(p) -> Array:
    """Derivative tensor of the covariance map p -> Diag(p) - p p^T.

    T[i, j, k] = d[Diag(p) - p p^T]_ij / dp_k
               = delta_ij delta_ik - p_j delta_ik - p_i delta_jk.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    n = p.size
    eye = np.eye(n)
    return (
        np.einsum("ij,ik->ijk", eye, eye)
        - np.einsum("ik,j->ijk", eye, p)
        - np.einsum("jk,i->ijk", eye, p)
    )


def christoffel(xi_bar) -> Array:
    """Levi-Civita symbols of the Fisher metric in the pinned chart.

    Returns gamma with ``gamma[i, j, k]`` = Gamma^k_{ij}
        = 1/2 (delta_ij delta_ik - delta_ik sigma_bar_j - delta_jk sigma_bar_i),
    symmetric in (i, j).  Lowering the raised index with the metric recovers
    the first-kind symbols (1/2) dI_ij / dxi_bar_k, which is the defining
    property (I is the Hessian of the log-partition of the chart, so the
    first-kind symbols are half its third derivatives).
    """
    sigma = sigma_pinned(xi_bar)
    return 0.5 * covariance_derivative_tensor(sigma[:-1])
