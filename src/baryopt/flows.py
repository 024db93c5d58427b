"""Coupled gradient flows on R^m x int(simplex).

Two continuous-time dynamics share the x equation dx/dt = -J_l(x)^T q and
differ in the weight equation, written for xi_bar with q = softargmax((xi_bar, 0)):

    min_max:  dxi_bar/dt = +lbar(x)      (ascent in the weights)
    min_min:  dxi_bar/dt = -lbar(x)      (descent in the weights)

with lbar = l[:-1] - l[-1].  Along either flow the objective F = q^T l(x)
satisfies

    dF/dt = (+/-) Var_q(l) - ||J_l^T q||^2,

and the Shannon entropy of q changes at rate -(+/-) xi^T Cov(q) l with
xi = (xi_bar, 0).  The weight equation is the gradient flow of F with respect
to the degenerate (pseudo-Riemannian) metric Cov(q) on logit space: any field
b with Cov(q) b = (+/-) Cov(q) l generates the same probability path, and the
pinned-chart field is one such representative.

One engine serves every entry point: `_field` is the right-hand side on the
full logit vector xi in R^S (in the pinned gauge its weight velocity
(+/-)(l - l_S 1) ends in an exact zero, so xi = (xi_bar, 0) stays the pinned
chart), `_rk4_step` one classical RK4 step on it and `_integrate` the loop,
which builds the `FlowTrace` of `integrate_flow_full` and its pinned case.
A run takes n = round(t_end / dt) steps; `FlowConfig` requires n dt = t_end
to 1e-9 relative.  States are recorded at t = 0, every `record_every`-th step
and the end.  A recorded row's q, objective, entropy and rates all come from
the first RK4 stage (k1) of the step leaving its state, which normalises the
logits once, so a run of n steps makes 4n + 1 loss evaluations.

A run that diverges says why in `FlowTrace.divergence_reason`, with the index
k of the step whose state (t = k dt) triggered it in `divergence_step`:
"non_finite_step" (a step left float range; the last accepted state is
recorded), "logit_cap" (max |xi| passed `xi_cap`, where exp() nears overflow;
the capped state is kept) or "non_finite_rates" (the objective or a rate at a
recorded state left float range; that row and all later ones are dropped, but
row 0 is always kept).  min_min runs from generic starts are expected to
diverge toward a vertex of the simplex.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InvalidDomainError, positive_fields
from .objectives import ObjectiveFamily, _finite_values_jacobian
from .simplex_geometry import (
    SimplexPoint,
    _log_softmax,
    _vector,
    covariance,
    logits_from_point,
    negentropy,
)

Array = np.ndarray

KIND_MIN_MAX = "min_max"
KIND_MIN_MIN = "min_min"
_KINDS = (KIND_MIN_MAX, KIND_MIN_MIN)

GAUGE_ZERO = "zero"
GAUGE_PIN_LAST = "pin_last"

STATUS_COMPLETED = "completed"
STATUS_DIVERGED = "diverged"

_COV_EIG_FLOOR = 1e-12


def _sign(kind: str) -> float:
    if kind not in _KINDS:
        raise ConfigError(f"unknown flow kind {kind!r}; expected one of {_KINDS}")
    return 1.0 if kind == KIND_MIN_MAX else -1.0


@dataclass(frozen=True, slots=True, eq=False)
class FlowConfig:
    """Fixed-step integration parameters; dt must divide t_end (to 1e-9 relative)."""

    t_end: float = 50.0
    dt: float = 0.01
    record_every: int = 1
    xi_cap: float = 700.0

    def __post_init__(self):
        positive_fields(self, ConfigError)
        steps = self.t_end / self.dt
        if not (steps < 2.0**53 and abs(round(steps) * self.dt - self.t_end) <= 1e-9 * self.t_end):
            raise ConfigError(f"t_end = {self.t_end!r} is not a whole number of steps dt = {self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def _field(evaluate, x: Array, xi: Array, sign: float, pin: bool):
    """Right-hand side at (x, xi) for the full logit vector xi in R^S.

    `evaluate(x)` returns the losses and their Jacobian: the family's
    `_values_jacobian` in the integrators, which judge divergence themselves,
    and `_finite_values_jacobian` at the single-point entry points.  Returns
    (dx, dxi, sigma, log_sigma, vals): the velocities, q = softargmax(xi),
    log q and the losses l(x).  No validation of x or xi: callers pass
    checked arrays.
    """
    log_sigma = _log_softmax(xi)
    sigma = np.exp(log_sigma)
    vals, jac = evaluate(x)
    dx = -(jac.T @ sigma)
    dxi = sign * (vals - vals[-1] if pin else vals)
    return dx, dxi, sigma, log_sigma, vals


def _rates(sign: float, xi: Array, k1):
    """Objective q^T l, its rate, the entropy -q^T log q and its rate at k1's state."""
    dx, _, sigma, log_sigma, vals = k1
    mean = float(sigma @ vals)
    var = float(sigma @ (vals - mean) ** 2)
    cov_l = sigma * vals - sigma * mean  # Cov(q) l without forming Cov
    return mean, sign * var - float(dx @ dx), -float(sigma @ log_sigma), -sign * float(xi @ cov_l)


def _pinned(fam: ObjectiveFamily, x: Array, xi_bar: Array, kind: str):
    """Validate a pinned-chart state; return (sign, (xi_bar, 0), k1 there).

    Loss values that are not finite are an InvalidDomainError.
    """
    sign = _sign(kind)
    x = fam.check_point(x)
    xi = np.append(fam.check_logits(xi_bar), 0.0)
    return sign, xi, _field(partial(_finite_values_jacobian, fam), x, xi, sign, True)


def flow_vector_field(fam: ObjectiveFamily, x: Array, xi_bar: Array, kind: str):
    """Right-hand side (dx/dt, dxi_bar/dt) of the chosen flow."""
    _, _, (dx, dxi, *_) = _pinned(fam, x, xi_bar, kind)
    return dx, dxi[:-1]


def df_dt_analytic(fam: ObjectiveFamily, x: Array, xi_bar: Array, kind: str) -> float:
    """Exact rate of F = q^T l along the flow: (+/-) Var_q(l) - ||J^T q||^2."""
    sign, xi, k1 = _pinned(fam, x, xi_bar, kind)
    return _rates(sign, xi, k1)[1]


def entropy_rate_analytic(fam: ObjectiveFamily, x: Array, xi_bar: Array, kind: str) -> float:
    """Exact entropy rate -(+/-) xi^T Cov(q) l with xi = (xi_bar, 0)."""
    sign, xi, k1 = _pinned(fam, x, xi_bar, kind)
    return _rates(sign, xi, k1)[3]


def entropy(q: SimplexPoint) -> float:
    """Shannon entropy -sum q log q."""
    return -negentropy(q)[0]


@dataclass(frozen=True, slots=True, eq=False)
class FlowTrace:
    """Recorded trajectory of one flow run.

    `xi` holds the full logits in the run's gauge, `xi_bar` the chart logits
    xi[:, :-1] - xi[:, -1:].  `divergence_reason` and `divergence_step` are
    None for a completed run.
    """

    kind: str
    status: str
    t: Array = field(repr=False)
    x: Array = field(repr=False)
    xi: Array = field(repr=False)
    q: Array = field(repr=False)
    objective: Array = field(repr=False)
    objective_rate: Array = field(repr=False)
    entropy: Array = field(repr=False)
    entropy_rate: Array = field(repr=False)
    divergence_reason: str
    divergence_step: int

    @property
    def xi_bar(self) -> Array:
        return self.xi[:, :-1] - self.xi[:, -1:]

    @property
    def final_x(self) -> Array:
        return self.x[-1]

    @property
    def final_xi_bar(self) -> Array:
        return self.xi_bar[-1]


def _rk4_step(evaluate, x, xi, dt, sign, pin):
    """One classical RK4 step; returns the new state and the first stage k1."""
    k1 = _field(evaluate, x, xi, sign, pin)
    k2x, k2s, *_ = _field(evaluate, x + 0.5 * dt * k1[0], xi + 0.5 * dt * k1[1], sign, pin)
    k3x, k3s, *_ = _field(evaluate, x + 0.5 * dt * k2x, xi + 0.5 * dt * k2s, sign, pin)
    k4x, k4s, *_ = _field(evaluate, x + dt * k3x, xi + dt * k3s, sign, pin)
    new_x = x + (dt / 6.0) * (k1[0] + 2.0 * k2x + 2.0 * k3x + k4x)
    new_xi = xi + (dt / 6.0) * (k1[1] + 2.0 * k2s + 2.0 * k3s + k4s)
    return new_x, new_xi, k1


def _integrate(fam, x, xi, kind, pin, cfg) -> FlowTrace:
    """The RK4 loop over checked start arrays; returns the recorded trace."""
    sign = _sign(kind)
    evaluate = fam._values_jacobian
    n_steps, every, dt = cfg.n_steps, cfg.record_every, cfg.dt
    size = n_steps // every + 2
    t = np.empty(size)
    xs = np.empty((size, x.size))
    xis = np.empty((size, xi.size))
    qs = np.empty((size, xi.size))
    rec = np.empty((4, size))
    n = k = 0
    reason = step = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            k1 = None
            stop = k == n_steps or reason is not None
            if not stop:
                # A state can leave float range inside a single step
                # (finite-time blow-up), in which case the stage evaluations
                # themselves trip the domain validators.
                try:
                    new_x, new_xi, k1 = _rk4_step(evaluate, x, xi, dt, sign, pin)
                    stop = not (np.all(np.isfinite(new_x)) and np.all(np.isfinite(new_xi)))
                except InvalidDomainError:
                    stop = True
                if stop:
                    reason, step = "non_finite_step", k + 1
            if stop or k % every == 0:
                if k1 is None:
                    k1 = _field(evaluate, x, xi, sign, pin)
                t[n], xs[n], xis[n], qs[n] = k * dt, x, xi, k1[2]
                rec[:, n] = _rates(sign, xi, k1)
                if not np.all(np.isfinite(rec[:, n])):
                    # Near a finite-time blow-up the state can stay in float
                    # range while the losses or rates at it overflow.
                    reason, step, n = "non_finite_rates", k, max(n, 1)
                    break
                n += 1
            if stop:
                break
            x, xi, k = new_x, new_xi, k + 1
            if np.abs(xi).max() > cfg.xi_cap:
                reason, step = "logit_cap", k
    status = STATUS_COMPLETED if reason is None else STATUS_DIVERGED
    return FlowTrace(kind, status, t[:n], xs[:n], xis[:n], qs[:n], *rec[:, :n], reason, step)


def integrate_flow(
    fam: ObjectiveFamily,
    x0: Array,
    q0: SimplexPoint,
    kind: str,
    cfg: FlowConfig = None,
) -> FlowTrace:
    """Integrate the flow from (x0, q0) with fixed-step RK4 in the pinned chart.

    The "pin_last" run of `integrate_flow_full` from the logits (xi_bar(q0), 0),
    so the last logit stays exactly 0.
    """
    xi0 = np.append(logits_from_point(fam.check_weights(q0)), 0.0)
    return integrate_flow_full(fam, x0, xi0, kind, cfg, gauge=GAUGE_PIN_LAST)


def integrate_flow_full(
    fam: ObjectiveFamily,
    x0: Array,
    xi0: Array,
    kind: str,
    cfg: FlowConfig = None,
    gauge: str = GAUGE_ZERO,
) -> FlowTrace:
    """Integrate the flow in unreduced logit coordinates xi in R^S.

    The weight equation dxi/dt = (+/-)(l + gamma * 1) is defined only up to
    a multiple of the ones vector; `gauge` picks the representative:
    "zero" uses gamma = 0, "pin_last" uses gamma = -l_S (freezing xi_S).
    Probability trajectories agree across gauges, which the checks module
    verifies.  Records the state at t = 0, every `record_every`-th step and
    the last valid state; see the module docstring for the divergence rules.
    Returns the run's `FlowTrace`, with the full logits in `xi`.
    """
    cfg = cfg or FlowConfig()
    if gauge not in (GAUGE_ZERO, GAUGE_PIN_LAST):
        raise ConfigError(f"unknown gauge {gauge!r}")
    xi = _vector(xi0, "initial logits")
    if xi.size != fam.S:
        raise DimensionMismatchError(f"initial logits have {xi.size} entries, family has {fam.S}")
    x = fam.check_point(x0)
    if np.abs(xi).max() > cfg.xi_cap:
        raise InvalidDomainError("initial weights are already past the logit cap")
    return _integrate(fam, x, xi, kind, gauge == GAUGE_PIN_LAST, cfg)


def pseudo_riemannian_residual(fam: ObjectiveFamily, x: Array, q: SimplexPoint, kind: str) -> float:
    """Consistency gap between the logit field and its metric rewriting.

    The pin-last field a = (+/-)(l - l_S 1) should solve Cov(q) b = (+/-) Cov(q) l.
    Reconstructing b = (+/-) Cov^+ (Cov l) + [gamma (+/-) mean(l)] 1 with
    gamma = -(+/-) l_S via an explicit eigendecomposition pseudo-inverse
    (eigenvalues below 1e-12 zeroed) and returning ||Cov (a - b)||_inf, which
    vanishes exactly when the rewriting holds.
    """
    sgn = _sign(kind)
    x = fam.check_point(x)
    xi = fam.check_weights(q).log_weights
    _, field_a, *_, vals = _field(partial(_finite_values_jacobian, fam), x, xi, sgn, True)
    cov = covariance(q)

    eigvals, eigvecs = np.linalg.eigh(cov)
    inv = np.where(eigvals > _COV_EIG_FLOOR, 1.0 / np.where(eigvals > 0, eigvals, 1.0), 0.0)
    pinv = (eigvecs * inv) @ eigvecs.T
    gamma = -sgn * vals[-1]
    field_b = sgn * (pinv @ (cov @ vals)) + (gamma + sgn * vals.mean()) * np.ones_like(vals)

    return float(np.abs(cov @ (field_a - field_b)).max())
