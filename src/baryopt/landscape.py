"""Joint objective landscape in the reduced chart (x, xi_bar).

The weighted objective F(x, q) = q^T l(x), expressed through the pinned
chart q = softargmax((xi_bar, 0)), becomes a smooth function f_bar on
R^m x R^{S-1}.  This module provides its gradient, its Euclidean and
Riemannian Hessians under the product metric

    M(x, xi_bar) = blockdiag(Id_m, I(xi_bar)),

and the resulting critical-point classification.  With sigma the pinned
probabilities, sb = sigma[:-1], lbar the loss vector relative to the last
loss, and I the Fisher information:

    grad f_bar = (J_l^T sigma,  I lbar)
    Euclidean Hessian = [[sum_s sigma_s H_s,   J_lbar^T I],
                         [I J_lbar,            2H        ]]
    H = (Diag(sb) D - D sb sb^T - sb sb^T D) / 2,   D = Diag(lbar - 1 sb^T lbar).

2H is the closed form of (T(sb) x_2 lbar) I, T the covariance-derivative
tensor; the checks test it against that contraction and finite differences.
The Riemannian Hessian differs only in the xi_bar block, where the
Christoffel correction (half the Euclidean block) leaves H.

At a critical point the x block B1 is positive semidefinite and the Schur
complement B2 = H - I J_lbar B1^{-1} J_lbar^T I is negative semidefinite, so
interior critical points are saddles or degenerate, never local minima.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateMetricError,
    HessiansUnavailableError,
    positive_number,
)
from .objectives import ObjectiveFamily, _finite, _finite_values_jacobian
from .prox import ProxConfig, prox
from .simplex_geometry import (
    HybridPoint,
    SimplexPoint,
    _vector,
    as_logits,
    christoffel,
    fisher_information,
    hybrid_bregman,
    logits_from_point,
    point_from_logits,
    sigma_pinned,
)

Array = np.ndarray

EPS_CRITICAL = 1e-8
EPS_EIG_SCALE = 1e-8

CLASS_SADDLE = "saddle"
CLASS_DEGENERATE = "degenerate"
CLASS_NOT_CRITICAL = "not-critical"


class LandscapePoint:
    """Chart point (x, xi_bar) with q = softargmax((xi_bar, 0))."""

    __slots__ = ("x", "xi_bar")

    def __init__(self, x, xi_bar):
        self.x = _vector(np.atleast_1d(x), "x").copy()
        self.xi_bar = as_logits(xi_bar).copy()

    @classmethod
    def from_hybrid(cls, p: HybridPoint) -> "LandscapePoint":
        return cls(p.x, logits_from_point(p.q))

    @property
    def q(self) -> SimplexPoint:
        return point_from_logits(self.xi_bar)

    def __repr__(self):
        return f"LandscapePoint(x={self.x!r}, xi_bar={self.xi_bar!r})"


def f_bar(fam: ObjectiveFamily, point: LandscapePoint) -> float:
    """Objective sigma(xi)^T l(x) in the reduced chart."""
    x = fam.check_point(point.x)
    xb = fam.check_logits(point.xi_bar)
    return float(sigma_pinned(xb) @ _finite(fam.values(x)))


def _evaluate(fam: ObjectiveFamily, point: LandscapePoint):
    """Checked x, pinned probabilities, finite losses, Jacobian and Fisher information."""
    x = fam.check_point(point.x)
    xb = fam.check_logits(point.xi_bar)
    vals, jac = _finite_values_jacobian(fam, x)
    fim, _ = fisher_information(xb)
    return x, sigma_pinned(xb), vals, jac, fim


def _gradient(sigma, vals, jac, fim) -> Array:
    lbar = vals[:-1] - vals[-1]
    return np.concatenate([jac.T @ sigma, fim @ lbar])


def _metric(m, fim) -> Array:
    n = fim.shape[0]
    out = np.zeros((m + n, m + n))
    out[:m, :m] = np.eye(m)
    out[m:, m:] = fim
    return out


def _riemannian_xi_block(sigma, vals):
    sb = sigma[:-1]
    lbar = vals[:-1] - vals[-1]
    d = lbar - float(sb @ lbar)
    v = sb * d
    return 0.5 * (np.diag(v) - np.outer(v, sb) - np.outer(sb, v))


def _euclidean(fam: ObjectiveFamily, x, sigma, vals, jac, fim) -> Array:
    curvature = fam.weighted_hessian(x, sigma)
    if curvature is None:
        raise HessiansUnavailableError(
            "euclidean_hessian needs a family with second derivatives"
        )
    cross = (jac[:-1] - jac[-1]).T @ fim  # J_lbar^T I
    return np.block([[curvature, cross], [cross.T, 2.0 * _riemannian_xi_block(sigma, vals)]])


def grad_f_bar(fam: ObjectiveFamily, point: LandscapePoint) -> Array:
    """Gradient (J_l^T sigma, I(xi_bar) lbar), concatenated to length m + S - 1."""
    _, sigma, vals, jac, fim = _evaluate(fam, point)
    return _gradient(sigma, vals, jac, fim)


def metric(point: LandscapePoint) -> Array:
    """Product metric blockdiag(Id_m, I(xi_bar))."""
    fim, _ = fisher_information(point.xi_bar)
    return _metric(point.x.size, fim)


def euclidean_hessian(fam: ObjectiveFamily, point: LandscapePoint) -> Array:
    """Euclidean Hessian of f_bar in the chart, assembled blockwise.

    The x block is the family's `weighted_hessian` at the pinned weights
    (HessiansUnavailableError when it has none); the xi_bar block is 2H, the
    closed form of the covariance-derivative contraction (T(sb) x_2 lbar) I,
    which the `riemannian_correction_identity` check and finite differences
    of the gradient confirm; the cross block is J_lbar^T I.
    """
    return _euclidean(fam, *_evaluate(fam, point))


def _inertia(mat, eps_scale=EPS_EIG_SCALE):
    """(positive, negative, zero) eigenvalue counts of sym(mat), and the zero
    band eps = eps_scale * (1 + max |eigenvalue|) they were counted with."""
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    eps = eps_scale * (1.0 + float(np.abs(eigs).max()))
    counts = (int(np.sum(eigs > eps)), int(np.sum(eigs < -eps)), int(np.sum(np.abs(eigs) <= eps)))
    return counts, eps


@dataclass(frozen=True, slots=True, eq=False)
class HessianReport:
    """Second-order audit of a chart point."""

    euclidean: Array = field(repr=False)
    riemannian: Array = field(repr=False)
    metric: Array = field(repr=False)
    grad_norm: float
    inertia: tuple  # (positive, negative, zero) eigenvalue counts
    schur_b2: Array = field(repr=False)
    classification: str


def riemannian_hessian(
    fam: ObjectiveFamily,
    point: LandscapePoint,
    eps_critical: float = EPS_CRITICAL,
    eps_eig_scale: float = EPS_EIG_SCALE,
) -> HessianReport:
    """Riemannian Hessian report under the product metric.

    Only the xi_bar block differs from the Euclidean Hessian: the Christoffel
    correction sum_k Gamma^k_ij (I lbar)_k equals exactly half the Euclidean
    block, leaving H.  The correction is linear in the xi_bar gradient
    I lbar, so it vanishes at critical points, where the two Hessians agree
    (both xi_bar blocks are zero there).  The report includes the inertia of
    the Riemannian Hessian, the Schur complement B2 of its x block B1 (raises
    DegenerateMetricError when B1 is singular), and the classification:
    "saddle" when the point is critical, B1 is positive definite, and B2 has
    a negative eigenvalue; "degenerate" when critical with B2 vanishing to
    tolerance; "not-critical" otherwise.  The tolerances must be positive
    numbers (ConfigError otherwise).

    The family's values, Jacobian and weighted Hessian and the Fisher
    information are evaluated once and shared by every block.
    """
    eps_critical = positive_number(eps_critical, "eps_critical", ConfigError)
    eps_eig_scale = positive_number(eps_eig_scale, "eps_eig_scale", ConfigError)
    x, sigma, vals, jac, fim = _evaluate(fam, point)
    euclid = _euclidean(fam, x, sigma, vals, jac, fim)
    m = fam.m

    riem = euclid.copy()
    riem[m:, m:] *= 0.5

    grad_norm = float(np.linalg.norm(_gradient(sigma, vals, jac, fim)))
    inertia, eps_eig = _inertia(riem, eps_eig_scale)

    b1 = riem[:m, :m]
    b1_eigs = np.linalg.eigvalsh(0.5 * (b1 + b1.T))
    if b1_eigs.min() <= 1e-12 * (1.0 + abs(b1_eigs.max())):
        raise DegenerateMetricError(
            "x block of the Hessian is singular; Schur complement unavailable"
        )
    coupling = riem[m:, :m]  # I J_lbar, (S-1) x m
    b2 = riem[m:, m:] - coupling @ np.linalg.solve(b1, coupling.T)

    b2_eigs = np.linalg.eigvalsh(0.5 * (b2 + b2.T))
    critical = grad_norm <= eps_critical
    if critical and b1_eigs.min() > 0 and b2_eigs.min() < -eps_eig:
        classification = CLASS_SADDLE
    elif critical and np.abs(b2_eigs).max() <= eps_eig:
        classification = CLASS_DEGENERATE
    else:
        classification = CLASS_NOT_CRITICAL

    return HessianReport(euclid, riem, _metric(m, fim), grad_norm, inertia, b2, classification)


def christoffel_correction(fam: ObjectiveFamily, point: LandscapePoint) -> Array:
    """Correction term sum_k Gamma^k_ij * (grad f_bar)_{xi_bar, k}.

    This is the exact difference between the Euclidean and Riemannian xi_bar
    blocks; exposed for cross-checks against the geometry module.
    """
    _, sigma, vals, jac, fim = _evaluate(fam, point)
    grad_xi = _gradient(sigma, vals, jac, fim)[fam.m:]
    return np.einsum("ijk,k->ij", christoffel(point.xi_bar), grad_xi)


@dataclass(frozen=True, slots=True, eq=False)
class CriticalValueReport:
    """Objective values over the critical subset of scanned points."""

    n_points: int
    n_critical: int
    values: Array = field(repr=False)
    spread: float
    threshold: float
    passed: bool
    note: str


def critical_value_scan(fam: ObjectiveFamily, points, tol: float = 1e-6) -> CriticalValueReport:
    """Filter candidate points by ||grad f_bar|| <= tol and compare their values.

    All critical points of the same family share one objective value; the
    report passes when max - min <= tol * (1 + max |value|) over the filtered
    set (vacuously when the filtered set is empty).  `tol` must be a positive
    number (ConfigError otherwise).
    """
    tol = positive_number(tol, "tol", ConfigError)
    values = []
    for point in points:
        _, sigma, vals, jac, fim = _evaluate(fam, point)
        if float(np.linalg.norm(_gradient(sigma, vals, jac, fim))) <= tol:
            values.append(float(sigma @ vals))
    values = np.array(values)
    # An empty set has spread 0 and threshold tol, so it passes vacuously.
    spread = float(np.ptp(values)) if values.size else 0.0
    threshold = tol * (1.0 + float(np.abs(values).max(initial=0.0)))
    return CriticalValueReport(
        n_points=len(points),
        n_critical=int(values.size),
        values=values,
        spread=spread,
        threshold=threshold,
        passed=spread <= threshold,
        note="" if values.size else "no critical points among candidates",
    )


def fix_equals_critical_check(
    fam: ObjectiveFamily,
    point: LandscapePoint,
    prox_cfg: ProxConfig = None,
    tol: float = 1e-6,
) -> bool:
    """True iff the critical-point and prox-fixed-point tests agree at point.

    Compares ||grad f_bar|| <= tol with the hybrid Bregman displacement of
    the proximal map D_f(prox(x, q), (x, q)) <= tol.  `tol` must be a positive
    number (ConfigError otherwise).
    """
    tol = positive_number(tol, "tol", ConfigError)
    x, sigma, vals, jac, fim = _evaluate(fam, point)
    is_critical = float(np.linalg.norm(_gradient(sigma, vals, jac, fim))) <= tol
    state = HybridPoint(x, point.q)
    displacement = hybrid_bregman(prox(fam, state.x, state.q, prox_cfg).point, state)
    is_fixed = displacement <= tol
    return is_critical == is_fixed
