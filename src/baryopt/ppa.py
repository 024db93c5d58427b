"""Proximal point iteration on the hybrid space.

Repeats the entropy-regularized proximal step from a starting pair and stops
when the hybrid Bregman divergence between consecutive iterates falls below
`stop_tol` *and* the iterate certifies a fixed point (weighted-gradient norm
and loss spread below `fp_tol`).  The certification matters: on families with
no fixed point the consecutive-step divergence can still decay to zero while
the weights drift to a simplex vertex, and such runs must terminate as
`max_iter` with the drift flagged, not as converged.

The outer step starts at `prox_cfg.lam` and doubles after every step
k >= 2, up to max(lam, `_LAM_CAP`).  Changing the step keeps Fejer
monotonicity: every proximal map is Bregman firmly nonexpansive for the same
f = ||x||^2/2 + h(q), and its fixed points (J^T q = 0 with equal losses) do
not depend on the step, so D_f(z*, z_{k+1}) <= D_f(z*, z_k) - D_f(z_{k+1}, z_k)
holds at every step whatever the schedule.  With steps that grow without
bound the iteration is superlinear (Rockafellar 1976, Thm 2; Eckstein 1993
for Bregman distances), so the step grows at every step rather than only
when the iteration stalls.  Large steps are safe for the inner solver because
`prox` stops at the round-off floor of its gradient.

One prox call leaves each state z_k: its divergence D_f(prox(z_k), z_k) is
both the fixed-point certificate of z_k (it vanishes exactly at fixed
points) and the step D_{k+1} to the next state, so the iteration makes one
call per state, the last one for the certificate only.

Terminal statuses: "converged", "max_iter", "inner_failure" (the inner solver
gave up; the trace up to the last good iterate is preserved).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .objectives import ObjectiveFamily, _finite_values_jacobian
from .prox import ProxConfig, _certificates, prox
from .errors import ConfigError, ProxNonConvergenceError, positive_fields
from .simplex_geometry import HybridPoint, SimplexPoint, hybrid_bregman

Array = np.ndarray

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_INNER_FAILURE = "inner_failure"

# Outer step schedule (see the module docstring).  Geometric growth reaches
# the cap from the default step 0.5 after 21 steps; a linear schedule
# 0.5 * k took over twice the outer iterations on small known-saddle families.
_LAM_GROWTH = 2.0
# The cap keeps the step finite on runs with no fixed point, which would
# double it past the float range within max_outer_iter = 5,000 steps.  With
# the cap at 1e6, the 400 known-saddle solves at (2,3) and (3,4), seeds
# 0-199, all converge, the prox stopping at its round-off floor; with the
# cap at 500, 3 of them end max_iter.
_LAM_CAP = 1e6


@dataclass(frozen=True, slots=True, eq=False)
class PpaConfig:
    """Outer-loop settings wrapped around a ProxConfig.

    `prox_cfg.lam` is the initial outer step; `run_ppa` doubles it after
    every step k >= 2, up to max(lam, 1e6).
    """

    prox_cfg: ProxConfig = None
    stop_tol: float = 1e-12
    max_outer_iter: int = 5000
    fp_tol: float = 1e-5
    record_every: int = 1

    def __post_init__(self):
        if self.prox_cfg is None:
            object.__setattr__(self, "prox_cfg", ProxConfig())
        if not isinstance(self.prox_cfg, ProxConfig):
            raise ConfigError(f"prox_cfg must be a ProxConfig, got {self.prox_cfg!r}")
        positive_fields(self, ConfigError)


@dataclass(frozen=True, slots=True, eq=False)
class PpaRecord:
    """One recorded iterate: state, objective, and fixed-point certificates."""

    k: int
    x: Array = field(repr=False)
    q: SimplexPoint = field(repr=False)
    objective: float
    barygrad_norm: float
    loss_spread: float
    prox_displacement: float
    step_bregman: float

    @property
    def point(self) -> HybridPoint:
        return HybridPoint(self.x, self.q)


@dataclass(frozen=True, slots=True, eq=False)
class PpaTrace:
    """Recorded iterates, the terminal status, the drift diagnostic and the
    outer step in effect at the end of the run."""

    records: list = field(repr=False)
    status: str
    iterations: int
    no_fixed_point_suspected: bool
    final_lam: float

    @property
    def final(self) -> HybridPoint:
        return self.records[-1].point


def run_ppa(fam: ObjectiveFamily, x0, q0: SimplexPoint, cfg: PpaConfig = None) -> PpaTrace:
    """Iterate the proximal map from (x0, q0) until convergence or a cap.

    Starts at the step `cfg.prox_cfg.lam` and doubles it after every step
    k >= 2, up to max(lam, `_LAM_CAP`) (see the module docstring).

    Each state k is recorded once, after the one prox call that leaves it:
    that call's divergence D_f(prox(z_k), z_k) is state k's
    `prox_displacement` and, as `step_bregman`, state k + 1's.  At the last
    state (converged or at `max_outer_iter`) the call is made for the
    displacement only; when the inner solver fails the displacement is NaN,
    and the run ends `inner_failure` unless the state was already the last.
    State 0, every `record_every`-th state and the last one are kept; the
    drift flag is judged on every state.
    """
    if cfg is None:
        cfg = PpaConfig()
    prox_cfg = cfg.prox_cfg
    lam_cap = max(prox_cfg.lam, _LAM_CAP)
    state = HybridPoint(fam.check_point(x0), fam.check_weights(q0))
    vals, jac = _finite_values_jacobian(fam, state.x)
    barygrad = jac.T @ state.q.probs

    records = []
    status = STATUS_MAX_ITER
    step = math.nan
    # The drift flag needs the largest weight never to fall along the run.
    max_q, drifting = -math.inf, True
    for k in range(cfg.max_outer_iter + 1):
        probs = state.q.probs
        barygrad_norm, spread = _certificates(vals, barygrad)
        prev_max_q, max_q = max_q, probs.max()
        drifting = drifting and max_q - prev_max_q >= -1e-9
        last = k == cfg.max_outer_iter
        if step <= cfg.stop_tol and barygrad_norm <= cfg.fp_tol and spread <= cfg.fp_tol:
            status, last = STATUS_CONVERGED, True
        elif k >= 2 and prox_cfg.lam < lam_cap:
            prox_cfg = replace(prox_cfg, lam=min(_LAM_GROWTH * prox_cfg.lam, lam_cap))
        try:
            result = prox(fam, state.x, state.q, prox_cfg)
        except ProxNonConvergenceError:
            displacement = math.nan
            if not last:
                status, last = STATUS_INNER_FAILURE, True
        else:
            new_state = result.point
            displacement = hybrid_bregman(new_state, state)
        if last or k % cfg.record_every == 0:
            records.append(PpaRecord(k, state.x, state.q, float(probs @ vals),
                                     barygrad_norm, spread, displacement, step))
        if last:
            break
        state, vals, barygrad = new_state, result.values, result.barygrad
        step = displacement

    no_fixed_point = (status != STATUS_CONVERGED and k >= 1 and drifting
                      and max_q >= 0.999 and spread > cfg.fp_tol)
    iterations = k + 1 if status == STATUS_INNER_FAILURE else k
    return PpaTrace(records, status, iterations, bool(no_fixed_point), prox_cfg.lam)


def fejer_diagnostic(trace: PpaTrace, anchor: HybridPoint) -> Array:
    """D_f(anchor, state_k) for every recorded iterate.

    Nonincreasing along the iteration whenever the anchor is a fixed point of
    the proximal map; for other anchors the values are informational only.
    """
    return np.array([hybrid_bregman(anchor, rec.point) for rec in trace.records])
