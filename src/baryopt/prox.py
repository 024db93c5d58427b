"""Entropy-regularized proximal step on R^m x int(simplex).

For a loss family l and step size lam > 0 the proximal map sends (x, q) to
the unique saddle point (x', q') of

    H(z, r) = r^T l(z) + ||z - x||^2 / (2 lam) - KL(r || q) / lam,

which is strongly convex in z and strongly concave in r.  Maximizing over r
in closed form (log r(z) = log q + lam * l(z), normalized) leaves the reduced
objective

    phi(z) = (1/lam) log sum_s q_s exp(lam l_s(z)) + ||z - x||^2 / (2 lam),

a (1/lam)-strongly convex function whose gradient is the barygradient under
the reweighted point r(z) plus (z - x)/lam.  The solver descends phi from the
warm start z = x with Armijo backtracking; when the family provides
`weighted_hessian` it takes damped Newton directions (the plain gradient path
remains available via `ProxConfig.allow_newton=False`).

Stationarity of the returned pair:

    x = x' + lam J_l(x')^T q'          (x block)
    grad h(q') - lam l(x') = grad h(q) + c 1   for some scalar c   (q block)

Residuals of both blocks are returned with the result; the q block is exact
up to rounding because q' is computed in closed form from x'.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDomainError, ProxNonConvergenceError, positive_fields
from .objectives import ObjectiveFamily, _finite, _finite_values_jacobian
from .simplex_geometry import (
    HybridPoint,
    SimplexPoint,
    _log_softmax,
    _logsumexp,
    hybrid_bregman,
    kl,
)

Array = np.ndarray

_ARMIJO_SLOPE = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_HALVINGS = 60
# Accept steps whose exact decrease is masked by rounding; without this the
# line search stalls once |phi| * eps exceeds the per-step decrease, well
# before tight gradient tolerances are reached.
_ROUNDOFF_SLACK = 1e-15
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, slots=True, eq=False)
class ProxConfig:
    """Step size and inner-solver budget for the proximal map."""

    lam: float = 0.5
    inner_tol: float = 1e-10
    inner_max_iter: int = 10000
    allow_newton: bool = True

    def __post_init__(self):
        if not isinstance(self.allow_newton, (bool, np.bool_)):
            raise InvalidDomainError(
                f"allow_newton must be true or false, got {self.allow_newton!r}"
            )
        object.__setattr__(self, "allow_newton", bool(self.allow_newton))
        positive_fields(self, InvalidDomainError)


@dataclass(frozen=True, slots=True, eq=False)
class ProxResult:
    """Proximal step output: the new pair plus solver certificates."""

    x: Array = field(repr=False)
    q: SimplexPoint = field(repr=False)
    inner_iterations: int
    residual: tuple  # (x-block, q-block) stationarity residuals
    values: Array = field(repr=False)  # l(x'), from the last evaluation
    barygrad: Array = field(repr=False)  # J_l(x')^T q'

    @property
    def point(self) -> HybridPoint:
        return HybridPoint(self.x, self.q)


def _descend(evaluate, hess, z0, cfg: ProxConfig, floor=None):
    """Armijo descent to ||grad|| <= cfg.inner_tol / max(1, cfg.lam).

    evaluate(z) -> (value, grad, ev), where ev carries what the caller
    computed at z; hess(z, ev) -> SPD matrix, or None when second derivatives
    are unavailable, after which every step is a gradient step (all of them
    when `cfg.allow_newton` is False); gradient steps start at t = cfg.lam.
    The Newton matrix at z reuses the evaluation that accepted z, so no point
    is evaluated twice.  Returns (z, ev, steps); raises ProxNonConvergenceError
    with the best iterate attached after `cfg.inner_max_iter` steps.

    Two rules keep round-off from turning into failures:

    (a) A Newton step tried at t = 1 is also accepted when ||grad|| at least
        halves.  Inside Newton's quadratic region the gradient norm is the
        merit function that still resolves progress (Boyd & Vandenberghe
        2004, Sec. 9.5.3): the value's rounding error can exceed the Armijo
        decrease there, and at small lam it does so by orders of magnitude.
    (b) floor(ev), when given, is the round-off floor of the computed
        gradient at the evaluated point; the descent also stops once
        ||grad|| falls to it, since below it the gradient is rounding noise
        and no step can reduce it further.
    """
    tol = cfg.inner_tol / max(1.0, cfg.lam)
    hess = hess if cfg.allow_newton else None
    z = np.array(z0, dtype=float)
    value, grad, ev = evaluate(z)
    steps = 0
    while True:
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol or (floor is not None and grad_norm <= floor(ev)):
            return z, ev, steps
        if steps >= cfg.inner_max_iter:
            raise ProxNonConvergenceError(
                f"inner solver: no convergence after {steps} steps "
                f"(|grad| = {grad_norm:.3e}, tol = {tol:.3e})",
                x=z,
                grad_norm=grad_norm,
                iterations=steps,
            )
        direction, newton = None, False
        step0 = cfg.lam
        if hess is not None:
            H = hess(z, ev)
            if H is None:
                hess = None
            else:
                try:
                    candidate = -np.linalg.solve(H, grad)
                    if candidate @ grad < 0:
                        direction, newton = candidate, True
                        step0 = 1.0
                except np.linalg.LinAlgError:
                    pass
        if direction is None:
            direction = -grad
        slope = float(direction @ grad)
        t = step0
        slack = _ROUNDOFF_SLACK * (1.0 + abs(value))
        for _ in range(_MAX_HALVINGS):
            z_new = z + t * direction
            value_new, grad_new, ev_new = evaluate(z_new)
            if value_new <= value + _ARMIJO_SLOPE * t * slope + slack:
                break
            if newton and t == 1.0 and np.linalg.norm(grad_new) <= 0.5 * grad_norm:
                break
            t *= _ARMIJO_SHRINK
        else:
            raise ProxNonConvergenceError(
                f"inner solver: line search stalled at |grad| = {grad_norm:.3e}",
                x=z,
                grad_norm=grad_norm,
                iterations=steps,
            )
        z, value, grad, ev = z_new, value_new, grad_new, ev_new
        steps += 1


def prox(fam: ObjectiveFamily, x, q: SimplexPoint, cfg: ProxConfig = None) -> ProxResult:
    """Proximal step: the saddle point (x', q') of H at (x, q).

    Descends the reduced objective phi from z = x until
    ||grad phi(z)|| * max(1, lam) <= inner_tol, or until ||grad phi(z)||
    reaches the round-off floor of its own evaluation (`_roundoff_floor`),
    then recovers q' proportional to q * exp(lam * l(x')) in log space.  A
    Newton step is accepted on an Armijo decrease of phi or on a halving of
    ||grad phi|| (see `_descend`).  The returned residuals are the
    stationarity defects of the two blocks; the x-block one is
    lam ||grad phi(x')||, so it stays within inner_tol except where the floor
    stops the descent first, which happens at large lam.

    Each point is evaluated once, by one call to the family's fused
    `_values_jacobian`: the loss values, Jacobian and weights that
    the line search computed at an accepted point also build the Newton
    matrix there (with `weighted_hessian`, which is None for families
    without Hessians, so the solver then takes gradient steps) and, at the
    last point, the residuals.
    """
    if cfg is None:
        cfg = ProxConfig()
    x = fam.check_point(x)
    lam = cfg.lam
    lq = fam.check_weights(q).log_weights

    def evaluate(z):
        vals, jac = _finite_values_jacobian(fam, z)
        shifted = lq + lam * vals
        r = np.exp(_log_softmax(shifted))
        dz = z - x
        value = _logsumexp(shifted) / lam + 0.5 * float(dz @ dz) / lam
        mean_grad = jac.T @ r
        return value, mean_grad + dz / lam, (vals, jac, r, mean_grad)

    def hess(z, ev):
        _, jac, r, mean_grad = ev
        curvature = fam.weighted_hessian(z, r)
        if curvature is None:
            return None
        # curvature + lam * spread + eye(m) / lam, built in one fresh buffer
        # with the same rounding; `curvature` may be the family's own array.
        newton = (jac.T * r) @ jac
        newton -= np.outer(mean_grad, mean_grad)
        newton *= lam
        newton += curvature
        newton.flat[::fam.m + 1] += 1.0 / lam
        return newton

    def floor(ev):
        vals, jac, _, _ = ev
        return _roundoff_floor(lam, vals, jac)

    try:
        z, ev, steps = _descend(evaluate, hess, x, cfg, floor)
    except ProxNonConvergenceError as err:
        if err.x is not None and err.q is None:
            err.q = SimplexPoint(lq + lam * fam.values(err.x))
        raise

    vals, jac, _, _ = ev
    q_out = SimplexPoint(lq + lam * vals)
    barygrad = jac.T @ q_out.probs
    r_x = float(np.linalg.norm(x - z - lam * barygrad))
    gauge = q_out.log_weights - lam * vals - lq
    r_q = 0.5 * float(gauge.max() - gauge.min())
    return ProxResult(z, q_out, steps, (r_x, r_q), vals, barygrad)


def _roundoff_floor(lam: float, vals: Array, jac: Array) -> float:
    """Round-off floor of the computed grad phi = J^T r + (z - x) / lam.

    With g = max|J|, L = max|l| and m the dimension of x, the floor is

        m eps g (1 + lam g (1 + L)),

    a first-order forward-error bound in which every length-m sum carries
    the dot-product error gamma_m ~ m eps (Higham 2002, Sec. 3.1).  The sums
    that form J and J^T r contribute about m eps g.  Each loss carries an
    absolute error of m eps g (1 + L): the terms of a loss can be of the
    size of its gradient when they cancel to a small value, as at a saddle
    whose losses vanish.  The weights r = softmax(log q + lam l) inherit lam times that
    error, and J^T (diag r - r r^T) carries it into the gradient with a factor
    of at most g.  On known-saddle quadratics up to (m, S) = (200, 16) and
    lam up to 1e4, Newton's gradient norm levelled off below
    0.16 m eps lam g^2, under a sixth of the floor.
    """
    g = float(np.abs(jac).max())
    return jac.shape[1] * _EPS * g * (1.0 + lam * g * (1.0 + float(np.abs(vals).max())))


def saddle_objective(fam: ObjectiveFamily, x, q: SimplexPoint, z, r: SimplexPoint, lam: float) -> float:
    """H_{x,q}(z, r) = r^T l(z) + ||z - x||^2 / (2 lam) - KL(r||q) / lam."""
    x = fam.check_point(x)
    z = fam.check_point(z)
    fam.check_weights(q)
    fam.check_weights(r)
    dz = z - x
    return float(r.probs @ _finite(fam.values(z))) + 0.5 * float(dz @ dz) / lam - kl(r, q) / lam


def minimize_fixed_weights(fam: ObjectiveFamily, x, r: SimplexPoint, cfg: ProxConfig = None):
    """Minimizer of z -> r^T l(z) + ||z - x||^2 / (2 lam) for fixed weights r.

    Used to evaluate the min-then-max order of the saddle problem with the
    same descent machinery as the proximal map.
    """
    if cfg is None:
        cfg = ProxConfig()
    x = fam.check_point(x)
    lam = cfg.lam
    p = fam.check_weights(r).probs

    def evaluate(z):
        vals, jac = _finite_values_jacobian(fam, z)
        dz = z - x
        value = float(p @ vals) + 0.5 * float(dz @ dz) / lam
        grad = jac.T @ p + dz / lam
        return value, grad, None

    def hess(z, _):
        curvature = fam.weighted_hessian(z, p)
        return None if curvature is None else curvature + np.eye(fam.m) / lam

    z, _, _ = _descend(evaluate, hess, x, cfg)
    return z


def monotone_operator(fam: ObjectiveFamily, p: HybridPoint):
    """The saddle operator A(x, q) = (J_l(x)^T q, -l(x)) of (x, q) -> q^T l(x)."""
    x = fam.check_point(p.x)
    probs = fam.check_weights(p.q).probs
    vals, jac = _finite_values_jacobian(fam, x)
    return jac.T @ probs, -vals


def monotonicity_gap(fam: ObjectiveFamily, u: HybridPoint, v: HybridPoint) -> float:
    """<(u - v), A(u) - A(v)> in R^m x R^S; nonnegative for every pair."""
    au_x, au_q = monotone_operator(fam, u)
    av_x, av_q = monotone_operator(fam, v)
    return float((u.x - v.x) @ (au_x - av_x) + (u.q.probs - v.q.probs) @ (au_q - av_q))


def bfne_gap(fam: ObjectiveFamily, u: HybridPoint, v: HybridPoint, cfg: ProxConfig = None) -> float:
    """Slack of the firm-nonexpansiveness inequality in the hybrid geometry.

    With T the proximal map and f(x, q) = ||x||^2/2 + h(q), returns

        <Tu - Tv, grad f(u) - grad f(v)> - <Tu - Tv, grad f(Tu) - grad f(Tv)>,

    which is nonnegative up to inner-solver error.  Gradient differences in
    the simplex block reduce to log-weight differences, so the gauge constant
    cancels exactly.
    """
    pu = prox(fam, u.x, u.q, cfg)
    pv = prox(fam, v.x, v.q, cfg)
    dx = pu.x - pv.x
    dq = pu.q.probs - pv.q.probs
    lhs = float(dx @ dx) + float(dq @ (pu.q.log_weights - pv.q.log_weights))
    rhs = float(dx @ (u.x - v.x)) + float(dq @ (u.q.log_weights - v.q.log_weights))
    return rhs - lhs


def resolvent_residual(fam: ObjectiveFamily, p: HybridPoint, result: ProxResult, lam: float) -> float:
    """Max-norm defect of the f-resolvent identity at a prox input/output pair.

    Checks grad f(x', q') + lam A(x', q'), gauge-shifted by
    LSE(xi) = log sum_s exp(xi_s - 1) in the simplex block, against the
    gauge-shifted grad f(x, q).  For exact solves both blocks agree exactly;
    note LSE(grad h(q)) = 0 for any simplex point q.
    """
    x = fam.check_point(p.x)
    fam.check_weights(p.q)
    vals_out, jac_out = fam._values_jacobian(result.x)
    out_x = result.x + lam * (jac_out.T @ result.q.probs)
    arg_out = (1.0 + result.q.log_weights) - lam * vals_out
    out_q = arg_out - _logsumexp(arg_out - 1.0)
    in_q = (1.0 + p.q.log_weights) - _logsumexp(p.q.log_weights)
    return float(
        max(np.abs(out_x - x).max(), np.abs(out_q - in_q).max())
    )


def fixed_point_residual(fam: ObjectiveFamily, p: HybridPoint, cfg: ProxConfig = None):
    """Fixed-point certificates (barygradient norm, loss spread, prox displacement).

    All three vanish exactly at fixed points of the proximal map: the
    weighted gradient J^T q, the spread max l - min l, and the hybrid
    Bregman divergence D_f(prox(x, q), (x, q)).
    """
    vals, jac = fam._values_jacobian(p.x)
    barygrad_norm, spread = _certificates(vals, jac.T @ fam.check_weights(p.q).probs)
    displacement = hybrid_bregman(prox(fam, p.x, p.q, cfg).point, p)
    return barygrad_norm, spread, displacement


def _certificates(vals: Array, barygrad: Array):
    """Weighted-gradient norm ||J^T q|| and loss spread from l(x) and J^T q."""
    return float(np.linalg.norm(barygrad)), float(vals.max() - vals.min())
