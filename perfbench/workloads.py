"""Workload inputs, the operations run on them, and each operation's check.

A workload is a list of operations built from the seed (one *pass*); the
benchmark repeats whole passes, so every run times the same mix.  Each
operation calls one public baryopt entry point and is checked afterwards,
outside the timed region.  A check returns a `Verdict`: `failed` for an
operation that raised, returned an unexpected status or exit code, or
missed its check; `wrong` additionally when the program claimed success but
its answer is incorrect.

Operations look their entry points up through the baryopt modules at call
time, so the tracer's wrappers are seen when it is installed.
"""

import contextlib
import hashlib
import io
import json
import os
import re

import numpy as np

from baryopt import checks, cli, landscape, objectives, ppa
from baryopt.simplex_geometry import SimplexPoint

# ppa_small takes its known-saddle families and their start points from this
# fixed catalogue stream; the run seed draws the symmetric families' start
# points and the order.  Whether a solve stalls at max_iter depends on its
# start: the two stalling catalogue families stalled from 19 of 20 seeded
# starts, and from the other one converged in 99 iterations, which moved
# ops_per_s by 40%.
# Over random families the PPA needs about 50 to over 5,000 outer
# iterations, so per-seed draws would make the seed, not the code, set the
# timings.  The catalogue is used as drawn, unfiltered.
CATALOGUE_SEED = 0
SMALL_SIZES = ((1, 2), (2, 3), (3, 4))
SMALL_PER_SIZE = 3
# Max-norm distance from the known saddle that a converged solve must meet.
# Converged solves certify stationarity to fp_tol = 1e-5; the distance
# follows from it through the saddle's conditioning; the worst seen is 1.8e-4.
SADDLE_TOL = 1e-3

# Two of three ppa_large operations are at the larger size, so the median
# operation is a (200, 16) solve.
LARGE_SIZES = ((50, 8), (200, 16), (200, 16))
# The ppa_large check recomputes run_ppa's certificates and the Hessian
# report's gradient norm from copies of the family's coefficients.  Its
# round-off differs from the package's (by about 1e-11 fp_tol in the gradient
# norm), so the certificates may exceed fp_tol by the share CERT_SLACK, and
# the two gradient norms may differ by GRAD_NORM_TOL * fp_tol.
CERT_SLACK = 1e-6
GRAD_NORM_TOL = 1e-6

FLOW_QUADRATIC_SIZE = (3, 4)


class Verdict:
    __slots__ = ("failed", "wrong", "note", "out_bytes")

    def __init__(self, failed=False, wrong=False, note="", out_bytes=0):
        self.failed = failed or wrong
        self.wrong = wrong
        self.note = note
        self.out_bytes = out_bytes


class Op:
    """One operation: `run()` is timed, `check(result)` is not."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def known_saddle(rng, m, S):
    """Quadratic family whose losses all vanish at x* with sum_s q*_s g_s = 0.

    Returns (family, x*, q*): (x*, q*) is a fixed point of the proximal map.
    """
    x_star = rng.uniform(-1.0, 1.0, size=m)
    q_star = rng.dirichlet(np.full(S, 4.0))
    G = rng.normal(size=(S, m, m))
    A = np.einsum("sij,skj->sik", G, G) / m + 0.1 * np.eye(m)
    g = rng.normal(size=(S, m))
    g -= q_star @ g
    b = g - np.einsum("sij,j->si", A, x_star)
    c = -(0.5 * np.einsum("i,sij,j->s", x_star, A, x_star) + b @ x_star)
    return objectives.QuadraticFamily(A, b, c), x_star, q_star


def random_start(rng, m, S):
    return rng.uniform(-1.0, 1.0, size=m), rng.dirichlet(np.full(S, 2.0))


# -- ppa_small ----------------------------------------------------------------


def _solve_op(label, fam, x0, q0, on_saddle):
    q0 = SimplexPoint.from_probs(q0)

    def run():
        return ppa.run_ppa(fam, x0, q0)

    def check(trace):
        if trace.status != ppa.STATUS_CONVERGED:
            return Verdict(failed=True, note=f"status {trace.status} after {trace.iterations}")
        final = trace.records[-1]
        dist = on_saddle(final.x, final.q.probs)
        if not dist <= SADDLE_TOL:
            return Verdict(wrong=True, note=f"converged {dist:.3e} away from the saddle")
        return Verdict()

    return Op(label, run, check)


def ppa_small(seed, workdir):
    catalogue = np.random.default_rng(CATALOGUE_SEED)
    families = [(f"saddle_{m}x{S}_{i}", m, S, *known_saddle(catalogue, m, S))
                for m, S in SMALL_SIZES for i in range(SMALL_PER_SIZE)]
    ops = []
    for label, m, S, fam, x_star, q_star in families:

        def on_saddle(x, q, x_star=x_star, q_star=q_star):
            return max(np.abs(x - x_star).max(), np.abs(q - q_star).max())

        ops.append(_solve_op(label, fam, *random_start(catalogue, m, S), on_saddle))

    rng = np.random.default_rng(seed)
    sym = objectives.symmetric_quadratic()
    ops.append(_solve_op(
        "symmetric_quadratic", sym, *random_start(rng, 1, 2),
        lambda x, q: max(abs(x[0]), abs(q[0] - 0.5)),
    ))
    # Fixed points of the outer sum: x = 0 and any q with q_11 = q_22 (the
    # weighted gradient -2 q_11 + 2 q_22 vanishes there).
    ops.append(_solve_op(
        "outer_sum_symmetric", objectives.outer_sum(sym, sym), *random_start(rng, 1, 4),
        lambda x, q: max(abs(x[0]), abs(q[0] - q[3])),
    ))
    return [ops[i] for i in rng.permutation(len(ops))]


# -- ppa_large ----------------------------------------------------------------


def quadratic_gradients(A, b, c, x, q):
    """Loss values, weighted gradient and chart gradient of a quadratic family.

    Computed from the coefficients alone, not through the family's methods,
    so a check built on it does not share the code paths it checks.  The
    chart gradient is landscape's (J^T sigma, I(xi_bar) lbar), with sigma = q
    and I = Diag(q_bar) - q_bar q_bar^T.
    """
    vals = 0.5 * np.einsum("i,sij,j->s", x, A, x) + b @ x + c
    barygrad = q @ (A @ x + b)
    q_bar = q[:-1]
    lbar = vals[:-1] - vals[-1]
    chart = np.concatenate([barygrad, q_bar * lbar - q_bar * (q_bar @ lbar)])
    return vals, barygrad, chart


def ppa_large(seed, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for i, (m, S) in enumerate(LARGE_SIZES):
        fam = objectives.random_quadratic(rng, m=m, S=S)
        coeffs = (fam.A.copy(), fam.b.copy(), fam.c.copy())
        x0, q0 = random_start(rng, m, S)
        q0 = SimplexPoint.from_probs(q0)
        cfg = ppa.PpaConfig()

        def run(fam=fam, x0=x0, q0=q0, cfg=cfg):
            trace = ppa.run_ppa(fam, x0, q0, cfg)
            point = landscape.LandscapePoint.from_hybrid(trace.final)
            return trace, landscape.riemannian_hessian(fam, point)

        def check(result, cfg=cfg, coeffs=coeffs, dim=m + S - 1):
            trace, report = result
            if trace.status != ppa.STATUS_CONVERGED:
                return Verdict(failed=True, note=f"status {trace.status} after {trace.iterations}")
            final = trace.final
            vals, barygrad, chart = quadratic_gradients(*coeffs, final.x, final.q.probs)
            limit = cfg.fp_tol * (1.0 + CERT_SLACK)
            if not (np.linalg.norm(barygrad) <= limit and np.ptp(vals) <= limit):
                return Verdict(wrong=True, note=(
                    f"converged, but |J^T q| = {np.linalg.norm(barygrad):.3e} and loss "
                    f"spread {np.ptp(vals):.3e} against fp_tol {cfg.fp_tol:g}"))
            grad_norm = np.linalg.norm(chart)
            if not abs(report.grad_norm - grad_norm) <= GRAD_NORM_TOL * cfg.fp_tol:
                return Verdict(wrong=True, note=(
                    f"Hessian report grad_norm {report.grad_norm:.6e}, expected {grad_norm:.6e}"))
            if sum(report.inertia) != dim:
                return Verdict(wrong=True, note=f"inertia {report.inertia} does not add up to {dim}")
            return Verdict()

        ops.append(Op(f"random_{m}x{S}_{i}", run, check))
    return ops


# -- flow_cli -----------------------------------------------------------------


def _quiet_main(argv):
    """cli.main(argv) with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _flow_op(label, config, workdir):
    path = os.path.join(workdir, f"{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out_dir = os.path.join(workdir, "out")
    written = [os.path.join(out_dir, f"{label}.trace.csv"),
               os.path.join(out_dir, f"{label}.summary.json")]
    reference = []

    def run():
        return _quiet_main(["run", path, "--out-dir", out_dir])

    def check(result):
        code, _, err = result
        if code != cli.EXIT_OK:
            return Verdict(failed=True, note=f"exit code {code}: {err.strip()}")
        digest = hashlib.sha256()
        size = 0
        for name in written:
            with open(name, "rb") as fh:
                data = fh.read()
            digest.update(data)
            size += len(data)
        if not reference:
            reference.append(digest.hexdigest())
        if digest.hexdigest() != reference[0]:
            return Verdict(wrong=True, note="outputs differ from the first run", out_bytes=size)
        return Verdict(out_bytes=size)

    return Op(label, run, check)


def flow_cli(seed, workdir):
    rng = np.random.default_rng(seed)
    x0, q0 = random_start(rng, 1, 2)
    init = {"x": x0.tolist(), "q": q0.tolist()}
    ops = [
        _flow_op(method, {"problem": {"kind": "symmetric_quadratic"},
                          "method": method, "init": init}, workdir)
        for method in ("flow_min_max", "flow_min_min")
    ]
    m, S = FLOW_QUADRATIC_SIZE
    fam, _, _ = known_saddle(rng, m, S)
    x0, q0 = random_start(rng, m, S)
    ops.append(_flow_op("quadratic_min_max", {
        "problem": {"kind": "quadratic", "A": fam.A.tolist(), "b": fam.b.tolist(),
                    "c": fam.c.tolist()},
        "method": "flow_min_max",
        "params": {"record_every": 100},
        "init": {"x": x0.tolist(), "q": q0.tolist()},
    }, workdir))
    return ops


# -- checks_all ---------------------------------------------------------------

_FAIL_LINE = re.compile(r"^\[FAIL\] (\S+):", re.MULTILINE)


def checks_all(seed, workdir):
    argv = ["checks", "all", "--seed", str(seed)]

    def run():
        return _quiet_main(argv)

    def check(result):
        code, out, err = result
        failing = set(_FAIL_LINE.findall(out))
        if failing != set(checks.KNOWN_FAILING):
            return Verdict(wrong=True, note=f"failing checks {sorted(failing)}")
        if code != cli.EXIT_FAILED:
            return Verdict(failed=True, note=f"exit code {code}: {err.strip()}")
        return Verdict()

    return [Op("checks_all", run, check)]


WORKLOADS = {
    "ppa_small": ppa_small,
    "ppa_large": ppa_large,
    "flow_cli": flow_cli,
    "checks_all": checks_all,
}
