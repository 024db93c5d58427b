"""Self-contained property checks, runnable per module scope or all at once.

Every advertised identity of the package has a check here that measures the
worst violation over randomized instances and compares it against a stated
tolerance.  Checks are grouped by the module whose contract they exercise;
`run_checks(scope, seed)` runs one group or all of them with a reproducible
per-check random stream, so results do not depend on which scope was chosen.

Two checks fail by construction (see `KNOWN_FAILING`): they probe identities
that hold for the flat exponential-family connection but not for the metric
(Levi-Civita) connection this package implements.  They are kept because the
measured violation is informative; `checks all` therefore exits nonzero on a
correct build.

Adding a check: define a generator `check_<name>(rng)` under
`@_check(scope, tol, note)`, which registers it as a `CheckResult` named
`<name>`.  The check yields each deviation it measures; the registry drains
it at once, so draws keep their order, and passes it when the largest,
`worst`, is `<= tol`.  A NaN deviation makes `worst` NaN and fails the check;
yield a `0.0` floor where the deviations may all be negative, or absent.
The generator may return `ok`, `(ok, fields)` or `(ok, fields, tol)`:

- `ok` is a further condition the check must meet besides the bound (reduce
  a worst value that feeds it with `_worst`, which keeps a NaN);
- `fields` fills the `{}` slots of the note, which then becomes a format
  string (write a literal brace as `{{`);
- a third item replaces the registered `tol`, for a tolerance computed at
  run time (register such a check with `tol=None`).

`at_least=True` takes the smallest deviation and turns the bound around
(`worst >= tol`), for a gap that must stay above a negative slack.  Notes
are string literals in the decorator, not docstrings, so `python -OO`
keeps them.

Each check draws from `default_rng([seed, index])`, where `index` is its
place in definition order.  A check inserted before existing ones therefore
changes the random streams, and so the reported digits, of every check after
it; list such a change in CHANGES.md.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flows import (
    KIND_MIN_MAX,
    KIND_MIN_MIN,
    FlowConfig,
    df_dt_analytic,
    flow_vector_field,
    integrate_flow,
    integrate_flow_full,
    pseudo_riemannian_residual,
)
from .landscape import (
    LandscapePoint,
    _inertia,
    christoffel_correction,
    critical_value_scan,
    euclidean_hessian,
    f_bar,
    grad_f_bar,
    riemannian_hessian,
)
from .objectives import (
    ConstantFamily,
    _central_diff,
    barygradient,
    finite_diff_check,
    outer_product,
    outer_sum,
    rank_one_factor_check,
    random_quadratic,
    symmetric_quadratic,
)
from .ppa import (
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    PpaConfig,
    fejer_diagnostic,
    run_ppa,
)
from .prox import (
    ProxConfig,
    bfne_gap,
    fixed_point_residual,
    minimize_fixed_weights,
    monotonicity_gap,
    prox,
    resolvent_residual,
    saddle_objective,
)
from .simplex_geometry import (
    HybridPoint,
    SimplexPoint,
    christoffel,
    covariance,
    covariance_derivative_tensor,
    fisher_information,
    hybrid_bregman,
    kl,
    negentropy,
    negentropy_grad_inverse,
    sigma_pinned,
    softargmax,
)

Array = np.ndarray

#: Checks that measure identities of the flat connection, which the metric
#: connection used here does not satisfy.  They fail on a correct build.
KNOWN_FAILING = ("christoffel_potential_correction", "log_partition_metric_hessian")


@dataclass(frozen=True, slots=True, eq=False)
class CheckResult:
    """Outcome of one property check."""

    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "worst", float(self.worst))
        object.__setattr__(self, "tol", float(self.tol))


def format_result(res: CheckResult) -> str:
    tag = "PASS" if res.passed else "FAIL"
    line = f"[{tag}] {res.name}: worst={res.worst:.3e} tol={res.tol:.3e}"
    if res.detail:
        line += f" ({res.detail})"
    return line


#: (scope, check) pairs in definition order; `_check` appends to it.
_REGISTRY = []


def _worst(values, least=False) -> float:
    """The largest (or smallest) of `values`; NaN if any of them is NaN."""
    return float(np.min(values) if least else np.max(values))


def _drain(gen):
    """The items `gen` yields, in order, and the value it returns."""
    items = []
    while True:
        try:
            items.append(next(gen))
        except StopIteration as stop:
            return items, stop.value


def _check(scope, tol, note, *, name=None, at_least=False):
    """Register the decorated check under `scope` (see the module docstring)."""

    def register(fn):
        result_name = name or fn.__name__.removeprefix("check_")

        @functools.wraps(fn)
        def run(rng, **kwargs):
            deviations, out = _drain(fn(rng, **kwargs))
            worst = _worst(deviations, at_least)
            out = () if out is None else out if isinstance(out, tuple) else (out,)
            ok, fields, bound = out + (True, None, tol)[len(out):]
            within = worst >= bound if at_least else worst <= bound
            detail = note.format(**fields) if fields else note
            return CheckResult(result_name, ok and within, worst, bound, detail)

        _REGISTRY.append((scope, run))
        return run

    return register


def _random_simplex(rng, size, scale=1.5) -> SimplexPoint:
    return SimplexPoint(rng.uniform(-scale, scale, size=size))


def _random_hybrid(rng, fam, scale=1.5) -> HybridPoint:
    return HybridPoint(rng.uniform(-scale, scale, size=fam.m), _random_simplex(rng, fam.S))


def _prox_instances(rng):
    return [
        symmetric_quadratic(),
        random_quadratic(rng, m=1, S=2),
        random_quadratic(rng, m=2, S=3),
        random_quadratic(rng, m=3, S=4),
        random_quadratic(rng, m=2, S=5),
    ]


_LAMBDAS = (0.1, 0.5, 2.0)
_INNER_TOL = 1e-10


# ---------------------------------------------------------------------------
# simplex_geometry


@_check("simplex_geometry", 1e-14, "softargmax(xi + c 1) = softargmax(xi)")
def check_softargmax_shift_invariance(rng):
    for _ in range(50):
        size = int(rng.integers(2, 7))
        xi = rng.uniform(-4.0, 4.0, size=size)
        shift = float(rng.uniform(-100.0, 100.0))
        yield float(np.abs(softargmax(xi + shift).probs - softargmax(xi).probs).max())


@_check("simplex_geometry", 1e-12, "(grad h)^{-1}(grad h(q)) recovers q")
def check_negentropy_gradient_roundtrip(rng):
    for _ in range(50):
        q = _random_simplex(rng, int(rng.integers(2, 7)), scale=3.0)
        _, grad = negentropy(q)
        yield float(np.abs(negentropy_grad_inverse(grad) - q.probs).max())


@_check("simplex_geometry", 1e-12, "KL(r||q) >= 0 with equality at r = q")
def check_kl_divergence_nonnegative(rng):
    for _ in range(50):
        size = int(rng.integers(2, 7))
        r = _random_simplex(rng, size, scale=3.0)
        q = _random_simplex(rng, size, scale=3.0)
        yield -kl(r, q)
        yield abs(kl(q, q))


@_check(
    "simplex_geometry", 1e-10,
    "||dx||^2/2 + KL matches f(u) - f(v) - <grad f(v), u - v>",
)
def check_hybrid_bregman_closed_form(rng):
    for _ in range(30):
        size = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        u = HybridPoint(rng.normal(size=m), _random_simplex(rng, size))
        v = HybridPoint(rng.normal(size=m), _random_simplex(rng, size))
        fu = 0.5 * float(u.x @ u.x) + negentropy(u.q)[0]
        fv, grad_v = 0.5 * float(v.x @ v.x) + negentropy(v.q)[0], negentropy(v.q)[1]
        generic = (
            fu - fv
            - float(v.x @ (u.x - v.x))
            - float(grad_v @ (u.q.probs - v.q.probs))
        )
        yield abs(hybrid_bregman(u, v) - generic)


@_check("simplex_geometry", 1e-6, "I(xi_bar) is SPD and equals d sigma_bar / d xi_bar")
def check_fisher_information_jacobian(rng):
    spd = True
    for _ in range(20):
        n = int(rng.integers(1, 6))
        xb = rng.uniform(-2.0, 2.0, size=n)
        fim, _ = fisher_information(xb)
        spd = spd and float(np.linalg.eigvalsh(fim).min()) > 0.0
        fd = _central_diff(lambda z: sigma_pinned(z)[:-1], xb, 1e-6)
        yield float(np.abs(fd - fim).max())
    return spd


@_check("simplex_geometry", 1e-10, "I(xi_bar) I(xi_bar)^{-1} = Id for S = 2..8")
def check_fisher_inverse_closed_form(rng):
    for size in range(2, 9):
        for _ in range(5):
            xb = rng.uniform(-4.0, 4.0, size=size - 1)
            fim, inv = fisher_information(xb)
            yield float(np.abs(fim @ inv - np.eye(size - 1)).max())


@_check("simplex_geometry", 1e-6, "sum_s I_ks Gamma^s_ij = (1/2) dI_ij/dxi_k")
def check_christoffel_first_kind(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        xb = rng.uniform(-2.0, 2.0, size=n)
        gamma = christoffel(xb)
        fim, _ = fisher_information(xb)
        lowered = np.einsum("ijs,sk->ijk", gamma, fim)
        d_fim = _central_diff(lambda z: fisher_information(z)[0], xb, 1e-5)
        yield float(np.abs(lowered - 0.5 * d_fim).max())


@_check(
    "simplex_geometry", 1e-10,
    "sum_k Gamma^k_ij sigma_bar_k = 0 holds only for the flat connection, "
    "whose symbols vanish; for the metric connection the contraction is "
    "(Diag(sigma_bar) - 2 sigma_bar sigma_bar^T)/2",
)
def check_christoffel_potential_correction(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        xb = rng.uniform(-2.0, 2.0, size=n)
        contracted = np.einsum("ijk,k->ij", christoffel(xb), sigma_pinned(xb)[:-1])
        yield float(np.abs(contracted).max())


@_check(
    "simplex_geometry", 1e-6,
    "Cov(q) 1 = 0 (worst {kernel:.1e} <= 1e-12) and "
    "Cov(q) is the softargmax Jacobian",
)
def check_covariance_kernel_jacobian(rng):
    kernel = []
    for _ in range(15):
        size = int(rng.integers(2, 6))
        q = _random_simplex(rng, size)
        cov = covariance(q)
        kernel.append(float(np.abs(cov @ np.ones(size)).max()))
        fd = _central_diff(lambda z: softargmax(z).probs, q.log_weights, 1e-6)
        yield float(np.abs(fd - cov).max())
    kernel = _worst(kernel)
    return kernel <= 1e-12, {"kernel": kernel}


# ---------------------------------------------------------------------------
# objectives


@_check(
    "objectives", 1.0,
    "analytic Jacobians/Hessians match central differences "
    "(worst as a fraction of the per-point threshold)",
)
def check_family_derivatives_fd(rng):
    flagged = 0
    fams = [
        random_quadratic(rng, m=2, S=3),
        random_quadratic(rng, m=1, S=2),
        outer_sum(random_quadratic(rng, m=2, S=2), random_quadratic(rng, m=2, S=3)),
    ]
    for fam in fams:
        points = [rng.uniform(-1.5, 1.5, size=fam.m) for _ in range(4)]
        for chk in finite_diff_check(fam, points):
            flagged += int(chk.flagged)
            yield chk.jacobian_dev / chk.threshold
            yield chk.hessian_dev / chk.threshold
    return flagged == 0


@_check("objectives", 1e-12, "J^T q is affine in the weights")
def check_barygradient_linearity(rng):
    for _ in range(20):
        fam = random_quadratic(rng, m=int(rng.integers(1, 4)), S=int(rng.integers(2, 5)))
        x = rng.uniform(-1.5, 1.5, size=fam.m)
        q1 = _random_simplex(rng, fam.S)
        q2 = _random_simplex(rng, fam.S)
        alpha = float(rng.uniform(0.1, 0.9))
        mix = SimplexPoint.from_probs(alpha * q1.probs + (1 - alpha) * q2.probs)
        lhs = barygradient(fam, x, mix)
        rhs = alpha * barygradient(fam, x, q1) + (1 - alpha) * barygradient(fam, x, q2)
        yield float(np.abs(lhs - rhs).max())


@_check("objectives", 1e-10, "tensorized values/Jacobian/weights match their factor composition")
def check_outer_sum_consistency(rng):
    for _ in range(10):
        f1 = random_quadratic(rng, m=2, S=int(rng.integers(2, 4)))
        f2 = random_quadratic(rng, m=2, S=int(rng.integers(2, 5)))
        fam = outer_sum(f1, f2)
        x = rng.uniform(-1.0, 1.0, size=2)
        expected = np.add.outer(f1.values(x), f2.values(x)).ravel()
        yield float(np.abs(fam.values(x) - expected).max())
        jac = fam.jacobian(x)
        j1, j2 = f1.jacobian(x), f2.jacobian(x)
        for s1 in range(f1.S):
            for s2 in range(f2.S):
                row = jac[s1 * f2.S + s2]
                yield float(np.abs(row - j1[s1] - j2[s2]).max())
        q1 = _random_simplex(rng, f1.S)
        q2 = _random_simplex(rng, f2.S)
        kron = np.kron(q1.probs, q2.probs)
        yield float(np.abs(outer_product(q1, q2).probs - kron).max())


@_check("objectives", 1e-6, "product weights are detected and factored; perturbed ones rejected")
def check_rank_one_factor_detection(rng):
    yield 0.0
    ok = True
    for _ in range(10):
        s1 = int(rng.integers(2, 5))
        s2 = int(rng.integers(2, 5))
        q1 = _random_simplex(rng, s1)
        q2 = _random_simplex(rng, s2)
        is_product, factors = rank_one_factor_check(outer_product(q1, q2), s1, s2)
        ok = ok and is_product and factors is not None
        if factors is not None:
            yield float(np.abs(factors[0].probs - q1.probs).max())
            yield float(np.abs(factors[1].probs - q2.probs).max())
    for _ in range(5):
        s1, s2 = 3, 3
        base = outer_product(_random_simplex(rng, s1), _random_simplex(rng, s2))
        noisy = SimplexPoint(base.log_weights + rng.normal(scale=0.5, size=s1 * s2))
        detected, _ = rank_one_factor_check(noisy, s1, s2)
        ok = ok and not detected
    return ok


# ---------------------------------------------------------------------------
# prox_core


@_check(
    "prox_core", _INNER_TOL,
    "x = x' + lam J(x')^T q' and the q block hold to the inner tolerance",
)
def check_prox_stationarity(rng):
    for fam in _prox_instances(rng)[:3]:
        for lam in _LAMBDAS:
            cfg = ProxConfig(lam=lam, inner_tol=_INNER_TOL)
            for _ in range(3):
                p = _random_hybrid(rng, fam)
                res = prox(fam, p.x, p.q, cfg)
                yield float(np.linalg.norm(
                    p.x - res.x - lam * (fam.jacobian(res.x).T @ res.q.probs)
                ))
                yield res.residual[1]


@_check("prox_core", 1e-10, "q' is proportional to q exp(lam l(x'))")
def check_prox_weights_closed_form(rng):
    for fam in _prox_instances(rng)[:3]:
        for lam in _LAMBDAS:
            cfg = ProxConfig(lam=lam)
            for _ in range(3):
                p = _random_hybrid(rng, fam)
                res = prox(fam, p.x, p.q, cfg)
                expected = SimplexPoint(p.q.log_weights + lam * fam.values(res.x))
                yield float(np.abs(res.q.probs - expected.probs).max())
                yield abs(float(res.q.probs.sum()) - 1.0)


@_check(
    "prox_core", -1e-7,
    "firm-nonexpansiveness slack over {pairs} pairs stays above -1e-07",
    name="prox_bfne_inequality", at_least=True,
)
def check_bfne_inequality(rng, gap_fn=None):
    gap_fn = gap_fn or bfne_gap
    pairs = 0
    for fam in _prox_instances(rng):
        for lam in _LAMBDAS:
            cfg = ProxConfig(lam=lam, inner_tol=1e-12)
            for _ in range(15):
                u = _random_hybrid(rng, fam)
                v = _random_hybrid(rng, fam)
                yield gap_fn(fam, u, v, cfg)
                pairs += 1
    return True, {"pairs": pairs}


@_check(
    "prox_core", -1e-9, "<u - v, A(u) - A(v)> >= 0 for the saddle operator", at_least=True,
)
def check_operator_monotonicity(rng):
    for fam in _prox_instances(rng)[:3]:
        for _ in range(30):
            u = _random_hybrid(rng, fam)
            v = _random_hybrid(rng, fam)
            yield monotonicity_gap(fam, u, v)


@_check(
    "prox_core", 10 * _INNER_TOL,
    "grad f + lam A at the output matches grad f at the input (gauge-shifted)",
)
def check_resolvent_identity(rng):
    for fam in _prox_instances(rng)[:3]:
        for lam in _LAMBDAS:
            cfg = ProxConfig(lam=lam, inner_tol=_INNER_TOL)
            for _ in range(2):
                p = _random_hybrid(rng, fam)
                res = prox(fam, p.x, p.q, cfg)
                yield resolvent_residual(fam, p, res, lam)


@_check("prox_core", 1e-6, "the prox of a tensorized family keeps product weights product")
def check_prox_tensor_closure(rng):
    ok = True
    cfg = ProxConfig(lam=0.5, inner_tol=1e-12)
    for _ in range(10):
        f1 = random_quadratic(rng, m=2, S=int(rng.integers(2, 4)))
        f2 = random_quadratic(rng, m=2, S=int(rng.integers(2, 5)))
        fam = outer_sum(f1, f2)
        x = rng.uniform(-1.0, 1.0, size=2)
        q = outer_product(_random_simplex(rng, f1.S), _random_simplex(rng, f2.S))
        res = prox(fam, x, q, cfg)
        matrix = res.q.probs.reshape(f1.S, f2.S)
        svals = np.linalg.svd(matrix, compute_uv=False)
        yield float(svals[1] / svals[0])
        ok = ok and rank_one_factor_check(res.q, f1.S, f2.S)[0]
    return ok


@_check(
    "prox_core", 1e-6,
    "min-then-max agrees with the saddle value; r' maximizes at fixed x'",
)
def check_prox_minimax_order(rng):
    for fam in _prox_instances(rng)[:3]:
        for lam in (0.5, 2.0):
            cfg = ProxConfig(lam=lam, inner_tol=1e-12)
            p = _random_hybrid(rng, fam)
            res = prox(fam, p.x, p.q, cfg)
            h_saddle = saddle_objective(fam, p.x, p.q, res.x, res.q, lam)
            scale = 1.0 + abs(h_saddle)
            z2 = minimize_fixed_weights(fam, p.x, res.q, cfg)
            h_inner = saddle_objective(fam, p.x, p.q, z2, res.q, lam)
            yield abs(h_inner - h_saddle) / scale
            for _ in range(10):
                r = _random_simplex(rng, fam.S)
                h_r = saddle_objective(fam, p.x, p.q, res.x, r, lam)
                yield (h_r - h_saddle) / scale


@_check(
    "prox_core", 1e-12,
    "for x-independent losses the prox fixes x and reweights in closed form",
)
def check_prox_constant_family_exact(rng):
    for _ in range(10):
        size = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        fam = ConstantFamily(rng.uniform(-1.0, 2.0, size=size), m=m)
        lam = float(rng.choice(_LAMBDAS))
        p = _random_hybrid(rng, fam)
        res = prox(fam, p.x, p.q, ProxConfig(lam=lam))
        expected = SimplexPoint(p.q.log_weights + lam * fam.values(p.x))
        yield float(np.abs(res.x - p.x).max())
        yield float(np.abs(res.q.probs - expected.probs).max())
        yield from res.residual


# ---------------------------------------------------------------------------
# ppa


def _symmetric_ppa_cfg(stop_tol=1e-14, max_outer_iter=500, record_every=1):
    return PpaConfig(
        prox_cfg=ProxConfig(lam=0.5, inner_tol=1e-12),
        stop_tol=stop_tol,
        max_outer_iter=max_outer_iter,
        record_every=record_every,
    )


@_check(
    "ppa", 1e-10,
    "D_f(anchor, new) <= D_f(anchor, old) - D_f(new, old) at a fixed anchor",
)
def check_ppa_fejer_monotone(rng):
    fam = symmetric_quadratic()
    anchor = HybridPoint(np.zeros(1), SimplexPoint.from_probs([0.5, 0.5]))
    starts = [
        (np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7])),
        (np.array([-1.2]), SimplexPoint.from_probs([0.8, 0.2])),
    ]
    for x0, q0 in starts:
        trace = run_ppa(fam, x0, q0, _symmetric_ppa_cfg(max_outer_iter=150))
        dists = fejer_diagnostic(trace, anchor)
        steps = np.array([r.step_bregman for r in trace.records])
        yield float((dists[1:] - dists[:-1] + steps[1:]).max())


@_check(
    "ppa", 1e-5,
    "status={status} after {iterations} iterations; "
    "certificates vanish at the reported fixed point",
)
def check_ppa_convergence_certificates(rng):
    fam = symmetric_quadratic()
    trace = run_ppa(
        fam, np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7]), _symmetric_ppa_cfg()
    )
    final = trace.records[-1]
    yield final.barygrad_norm
    yield final.loss_spread
    fields = {"status": trace.status, "iterations": trace.iterations}
    return trace.status == STATUS_CONVERGED, fields


@_check(
    "ppa", None,
    "{n_critical} critical endpoints from {starts} starts share one objective value",
)
def check_ppa_critical_values_agree(rng):
    fam = symmetric_quadratic()
    starts = [
        (np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7])),
        (np.array([-0.8]), SimplexPoint.from_probs([0.6, 0.4])),
        (np.array([1.5]), SimplexPoint.from_probs([0.2, 0.8])),
    ]
    candidates = []
    converged = 0
    for x0, q0 in starts:
        trace = run_ppa(fam, x0, q0, _symmetric_ppa_cfg())
        converged += int(trace.status == STATUS_CONVERGED)
        candidates.append(LandscapePoint.from_hybrid(trace.final))
    candidates.append(LandscapePoint(np.array([0.7]), np.array([0.3])))  # not critical
    # The scan's threshold is relative, 1e-6 (1 + max |value|), so it is
    # returned as this check's tolerance.
    report = critical_value_scan(fam, candidates, tol=1e-6)
    ok = converged == len(starts) and report.n_critical == len(starts)
    fields = {"n_critical": report.n_critical, "starts": len(starts)}
    yield report.spread
    return ok, fields, report.threshold


@_check(
    "ppa", 1e-3,
    "status={status}, suspected={suspected}; "
    "weights concentrate on the largest loss without ever converging",
)
def check_ppa_constant_drift_flag(rng):
    fam = ConstantFamily(np.array([0.0, 0.4, 1.0]), m=1)
    cfg = PpaConfig(
        prox_cfg=ProxConfig(lam=0.5),
        stop_tol=1e-12,
        max_outer_iter=300,
        record_every=1,
    )
    trace = run_ppa(fam, np.array([0.3]), SimplexPoint.uniform(3), cfg)
    yield 1.0 - float(trace.records[-1].q.probs.max())
    ok = trace.status == STATUS_MAX_ITER and trace.no_fixed_point_suspected
    fields = {"status": trace.status, "suspected": trace.no_fixed_point_suspected}
    return ok, fields


# ---------------------------------------------------------------------------
# landscape


def _random_landscape_point(rng, fam) -> LandscapePoint:
    return LandscapePoint(
        rng.uniform(-1.0, 1.0, size=fam.m),
        rng.uniform(-1.5, 1.5, size=fam.S - 1),
    )


def _at(fn, fam):
    """`fn(fam, point)` as a function of the stacked coordinates (x, xi_bar)."""
    return lambda z: fn(fam, LandscapePoint(z[: fam.m], z[fam.m:]))


@_check("landscape", 1e-6, "(J^T sigma, I lbar) matches central differences of the objective")
def check_landscape_gradient_fd(rng):
    fams = [random_quadratic(rng, m=2, S=3), random_quadratic(rng, m=1, S=2)]
    for fam in fams:
        for _ in range(5):
            pt = _random_landscape_point(rng, fam)
            grad = grad_f_bar(fam, pt)
            fd = _central_diff(_at(f_bar, fam), np.concatenate([pt.x, pt.xi_bar]), 1e-6)
            scale = 1.0 + float(np.abs(grad).max())
            yield float(np.abs(fd - grad).max()) / scale


@_check("landscape", 1e-5, "blockwise Hessian matches FD of the gradient; asymmetry {sym:.1e}")
def check_landscape_hessian_fd(rng):
    sym = []
    fams = [random_quadratic(rng, m=2, S=3), random_quadratic(rng, m=1, S=2)]
    for fam in fams:
        for _ in range(4):
            pt = _random_landscape_point(rng, fam)
            hess = euclidean_hessian(fam, pt)
            sym.append(float(np.abs(hess - hess.T).max()))
            fd = _central_diff(_at(grad_f_bar, fam), np.concatenate([pt.x, pt.xi_bar]), 1e-5)
            scale = 1.0 + float(np.abs(hess).max())
            yield float(np.abs(fd - hess).max()) / scale
    sym = _worst(sym)
    return sym <= 1e-12, {"sym": sym}


@_check(
    "landscape", 1e-10,
    "Euclidean block minus Christoffel correction equals the Riemannian "
    "block, equivalently (T x_2 lbar) I = 2H",
)
def check_riemannian_correction_identity(rng):
    for _ in range(8):
        fam = random_quadratic(rng, m=2, S=int(rng.integers(2, 5)))
        pt = _random_landscape_point(rng, fam)
        report = riemannian_hessian(fam, pt)
        corr = christoffel_correction(fam, pt)
        m = fam.m
        diff = report.euclidean[m:, m:] - corr - report.riemannian[m:, m:]
        yield float(np.abs(diff).max())
        # same statement via the covariance-derivative tensor
        sb = sigma_pinned(pt.xi_bar)[:-1]
        vals = fam.values(pt.x)
        lbar = vals[:-1] - vals[-1]
        fim, _ = fisher_information(pt.xi_bar)
        tensor_block = np.einsum("ijk,j->ik", covariance_derivative_tensor(sb), lbar) @ fim
        yield float(np.abs(tensor_block - 2.0 * report.riemannian[m:, m:]).max())


@_check(
    "landscape", 1e-10,
    "the log-partition Hessian equals the metric only under the flat "
    "connection; the metric connection leaves a nonzero correction",
)
def check_log_partition_metric_hessian(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        xb = rng.uniform(-2.0, 2.0, size=n)
        fim, _ = fisher_information(xb)
        correction = np.einsum("ijk,k->ij", christoffel(xb), sigma_pinned(xb)[:-1])
        riem = fim - correction
        yield float(np.abs(riem - fim).max())


@_check(
    "landscape", 0.0,
    "inertia(B1) + inertia(B2) matched the full inertia at {total} points; "
    "reference equilibrium classified {classification!r}",
)
def check_hessian_inertia_sylvester(rng):
    mismatches = 0
    total = 0
    for _ in range(8):
        fam = random_quadratic(rng, m=2, S=3)
        pt = _random_landscape_point(rng, fam)
        report = riemannian_hessian(fam, pt)
        b1, _ = _inertia(report.riemannian[:fam.m, :fam.m])
        b2, _ = _inertia(report.schur_b2)
        combined = tuple(a + b for a, b in zip(b1, b2))
        total += 1
        mismatches += int(combined != report.inertia)
    # The known two-state saddle: classification and inertia must match.
    fam = symmetric_quadratic()
    report = riemannian_hessian(fam, LandscapePoint(np.zeros(1), np.zeros(1)))
    saddle_ok = report.classification == "saddle" and report.inertia == (1, 1, 0)
    yield mismatches
    return saddle_ok, {"total": total, "classification": report.classification}


@_check("landscape", 1e-5, "with strictly convex losses every critical point has the same x")
def check_critical_points_share_x(rng):
    fam = symmetric_quadratic()
    starts = [
        (np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7])),
        (np.array([-0.8]), SimplexPoint.from_probs([0.55, 0.45])),
        (np.array([1.5]), SimplexPoint.from_probs([0.25, 0.75])),
    ]
    xs = []
    converged = True
    for x0, q0 in starts:
        trace = run_ppa(fam, x0, q0, _symmetric_ppa_cfg())
        converged = converged and trace.status == STATUS_CONVERGED
        xs.append(trace.final.x)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            yield float(np.abs(xs[i] - xs[j]).max())
    return converged


# ---------------------------------------------------------------------------
# flows


@_check(
    "flows", 1e-8,
    "the descent flow never increases the objective (largest analytic rate {rate:.1e})",
)
def check_min_min_objective_monotone(rng):
    yield 0.0
    rates = []
    runs = [
        (symmetric_quadratic(), np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7]),
         FlowConfig(t_end=20.0, dt=0.01, record_every=5)),
        (random_quadratic(rng, m=2, S=3), rng.uniform(-1.0, 1.0, size=2),
         _random_simplex(rng, 3), FlowConfig(t_end=10.0, dt=0.01, record_every=5)),
    ]
    for fam, x0, q0, cfg in runs:
        trace = integrate_flow(fam, x0, q0, KIND_MIN_MIN, cfg)
        yield float(np.diff(trace.objective).max())
        rates.append(float(trace.objective_rate.max()))
    rate = _worst(rates)
    return rate <= 1e-12, {"rate": rate}


@_check(
    "flows", 1.0,
    "analytic objective/entropy rates match finite differences of the "
    "recorded trace (worst as a fraction of max(1e-5, 1e-3 |rate|))",
)
def check_flow_rates_match_trace(rng):
    fam = symmetric_quadratic()
    cfg = FlowConfig(t_end=2.0, dt=0.002, record_every=1)
    for kind in (KIND_MIN_MAX, KIND_MIN_MIN):
        trace = integrate_flow(fam, np.array([0.3]),
                               SimplexPoint.from_probs([0.3, 0.7]), kind, cfg)
        dt2 = trace.t[2:] - trace.t[:-2]
        for series, rates in (
            (trace.objective, trace.objective_rate),
            (trace.entropy, trace.entropy_rate),
        ):
            fd = (series[2:] - series[:-2]) / dt2
            analytic = rates[1:-1]
            allowance = np.maximum(1e-5, 1e-3 * np.abs(analytic))
            yield float((np.abs(fd - analytic) / allowance).max())


@_check(
    "flows", 1e-10,
    "Var_q(l) computed from moments, lbar^T I lbar, and the full "
    "covariance agree; the two flow rates differ by exactly 2 Var",
)
def check_objective_rate_variance_identity(rng):
    for _ in range(15):
        fam = random_quadratic(rng, m=2, S=int(rng.integers(2, 5)))
        x = rng.uniform(-1.0, 1.0, size=2)
        xb = rng.uniform(-1.5, 1.5, size=fam.S - 1)
        sigma = sigma_pinned(xb)
        vals = fam.values(x)
        mean = float(sigma @ vals)
        var_moments = float(sigma @ (vals - mean) ** 2)
        lbar = vals[:-1] - vals[-1]
        fim, _ = fisher_information(xb)
        var_quadratic = float(lbar @ (fim @ lbar))
        var_full = float(vals @ (sigma * vals) - mean * mean)
        scale = 1.0 + var_moments
        yield abs(var_moments - var_quadratic) / scale
        yield abs(var_moments - var_full) / scale
        rate_gap = df_dt_analytic(fam, x, xb, KIND_MIN_MAX) - df_dt_analytic(
            fam, x, xb, KIND_MIN_MIN
        )
        yield abs(rate_gap - 2.0 * var_moments) / scale


@_check("flows", 1e-8, "probability trajectories agree across logit gauges")
def check_flow_gauge_invariance(rng):
    fam = symmetric_quadratic()
    cfg = FlowConfig(t_end=10.0, dt=0.002, record_every=1)
    x0 = np.array([0.3])
    xi0 = np.array([0.2, -0.3])
    q_zero = integrate_flow_full(fam, x0, xi0, KIND_MIN_MIN, cfg, gauge="zero").q
    q_pin = integrate_flow_full(fam, x0, xi0, KIND_MIN_MIN, cfg, gauge="pin_last").q
    yield float(np.abs(q_zero - q_pin).max())


@_check("flows", 1e-8, "fixed points are equilibria and the attracting flow limit is fixed")
def check_equilibria_match_fixed_points(rng):
    # Known fixed points are flow equilibria.
    instances = [
        (symmetric_quadratic(), np.zeros(1), np.zeros(1)),
        (outer_sum(symmetric_quadratic(), symmetric_quadratic()), np.zeros(1), np.zeros(3)),
    ]
    for fam, x, xb in instances:
        for kind in (KIND_MIN_MAX, KIND_MIN_MIN):
            dx, dxi = flow_vector_field(fam, x, xb, kind)
            yield float(np.linalg.norm(dx))
            yield float(np.linalg.norm(dxi))
    # The flow limit is a fixed point of the proximal map.
    fam = symmetric_quadratic()
    trace = integrate_flow(
        fam, np.array([0.3]), SimplexPoint.from_probs([0.3, 0.7]),
        KIND_MIN_MAX, FlowConfig(t_end=50.0, dt=0.01, record_every=100),
    )
    limit = HybridPoint(
        trace.final_x, SimplexPoint.from_probs(trace.q[-1])
    )
    yield from fixed_point_residual(fam, limit, ProxConfig(lam=0.5, inner_tol=1e-12))


@_check(
    "flows", 1e-6,
    "the logit field solves Cov(q) b = (+/-) Cov(q) l "
    "(interior worst {interior:.1e} <= 1e-08)",
)
def check_pseudo_riemannian_rewrite(rng):
    interior = []
    for _ in range(10):
        fam = random_quadratic(rng, m=2, S=int(rng.integers(3, 5)))
        x = rng.uniform(-1.0, 1.0, size=2)
        q_int = _random_simplex(rng, fam.S, scale=2.0)
        near = rng.uniform(-1.0, 0.0, size=fam.S)
        near[int(rng.integers(0, fam.S))] = -30.0
        q_vtx = SimplexPoint(near)
        for kind in (KIND_MIN_MAX, KIND_MIN_MIN):
            interior.append(pseudo_riemannian_residual(fam, x, q_int, kind))
            yield interior[-1]
            yield pseudo_riemannian_residual(fam, x, q_vtx, kind)
    interior = _worst(interior)
    return interior <= 1e-8, {"interior": interior}


# ---------------------------------------------------------------------------
# registry


SCOPES = tuple(dict.fromkeys(scope for scope, _ in _REGISTRY))


def run_checks(scope: str = "all", seed: int = 0):
    """Run the checks of one scope (or all) and return their results.

    Each check draws from `default_rng([seed, index])` with its stable
    registry index, so a check's random stream is identical whether it runs
    alone, inside its scope, or inside "all".  The seed must be an integer
    >= 0 (ConfigError otherwise).
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    if scope != "all" and scope not in SCOPES:
        raise ConfigError(
            f"unknown scope {scope!r}; expected one of {SCOPES + ('all',)}"
        )
    results = []
    for index, (module, fn) in enumerate(_REGISTRY):
        if scope != "all" and module != scope:
            continue
        rng = np.random.default_rng([seed, index])
        results.append(fn(rng))
    return results
