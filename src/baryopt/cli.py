"""Command-line interface.

Two subcommands:

    baryopt run <config.json> [--seed N] [--out-dir DIR] [--format {csv,json}]
    baryopt checks [scope]    [--seed N] [--format {csv,json}]

`run` executes one experiment described by a JSON config (see the README for
the schema) and writes `<base>.summary.json` plus, for iterative methods, a
trace file `<base>.trace.csv` or `<base>.trace.json`; `<base>` is `--out-dir`
joined with `output.path`, whose directories are created before the method
runs.  `checks` runs the property-check registry for one module scope or all
of them and prints one `[PASS]`/`[FAIL]` line per check or, with
`--format json`, the checks document that `run` also writes into its summary
for the `checks` method.

Outputs are byte-identical across repeated invocations with the same inputs:
floats are serialized with their shortest round-trip representation, JSON
keys are sorted, and nothing time- or host-dependent is written.

Exit codes: 0 on success; 2 when the requested computation did not converge
(proximal inner failure, iteration cap, flow divergence); 1 for config or
domain errors, for outputs that cannot be written, for allocations that fail
and for failed checks.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields
from functools import partial

import numpy as np

from .checks import SCOPES, format_result, run_checks
from .errors import (
    ConfigError,
    DegenerateMetricError,
    DimensionMismatchError,
    HessiansUnavailableError,
    InvalidDomainError,
    ProxNonConvergenceError,
)
from .flows import KIND_MIN_MAX, KIND_MIN_MIN, STATUS_COMPLETED, FlowConfig, integrate_flow
from .landscape import LandscapePoint, riemannian_hessian
from .objectives import (
    ConstantFamily,
    QuadraticFamily,
    outer_sum,
    symmetric_quadratic,
)
from .ppa import STATUS_CONVERGED, STATUS_INNER_FAILURE, PpaConfig, run_ppa
from .prox import ProxConfig, prox
from .simplex_geometry import SimplexPoint, logits_from_point

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_NOT_CONVERGED = 2

# ---------------------------------------------------------------------------
# config parsing


def _require_dict(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _check_keys(d, allowed, required, where):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in d:
            raise ConfigError(f"missing key {key!r} in {where}")


def _array(node, key, where):
    """`node[key]` as a float array; ConfigError when it is not one."""
    try:
        return np.asarray(node[key], dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(
            f"{where}.{key} must be a number or a rectangular array of numbers"
        ) from err


def _build_problem(node, where="problem"):
    _require_dict(node, where)
    kind = node.get("kind")
    if kind == "symmetric_quadratic":
        _check_keys(node, ("kind",), ("kind",), where)
        return symmetric_quadratic()
    if kind == "quadratic":
        _check_keys(node, ("kind", "A", "b", "c"), ("kind", "A", "b", "c"), where)
        return QuadraticFamily(
            _array(node, "A", where),
            _array(node, "b", where),
            _array(node, "c", where),
        )
    if kind == "constant":
        _check_keys(node, ("kind", "c", "m"), ("kind", "c"), where)
        return ConstantFamily(_array(node, "c", where), m=node.get("m", 1))
    if kind == "outer_sum":
        _check_keys(node, ("kind", "first", "second"), ("kind", "first", "second"), where)
        first = _build_problem(node["first"], where + ".first")
        second = _build_problem(node["second"], where + ".second")
        return outer_sum(first, second)
    raise ConfigError(
        f"unknown problem kind {kind!r} in {where}; expected one of "
        "('symmetric_quadratic', 'quadratic', 'constant', 'outer_sum')"
    )


def _parse_init(doc, fam):
    """The start (x, q) from the config's `init` node."""
    if "init" not in doc:
        raise ConfigError(f"missing key 'init' in config (method {doc['method']!r})")
    node = _require_dict(doc["init"], "init")
    _check_keys(node, ("x", "q"), ("x", "q"), "init")
    x = _array(node, "x", "init")
    q = fam.check_weights(SimplexPoint.from_probs(_array(node, "q", "init")))
    return fam.check_point(x), q


def _subset(params, keys):
    return {k: params[k] for k in keys if k in params}


def _field_names(cls, skip=()):
    """The field names of a config dataclass: the params a method accepts."""
    return tuple(f.name for f in fields(cls) if f.name not in skip)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"invalid JSON in {path}: line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    _require_dict(doc, "config")
    _check_keys(doc, ("problem", "method", "params", "init", "output"),
                ("problem", "method"), "config")
    method = doc["method"]
    if not isinstance(method, str) or method not in _METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {tuple(_METHODS)}")
    params = _require_dict(doc.get("params", {}), "params")
    _check_keys(params, _METHODS[method][0], (), f"params (method {method!r})")
    output = _require_dict(doc.get("output", {}), "output")
    _check_keys(output, ("path", "format"), (), "output")
    # A missing, null or empty path means the config's file name stem.
    if not isinstance(output.get("path") or "", str):
        raise ConfigError(f"output.path must be a string, got {output['path']!r}")
    if "format" in output and output["format"] not in ("csv", "json"):
        raise ConfigError(
            f"unknown output format {output['format']!r}; expected 'csv' or 'json'"
        )
    return doc, method, params, output


# ---------------------------------------------------------------------------
# deterministic serialization


def _json_safe(value):
    # bool is a subclass of int; keep it boolean in the output
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return None if math.isnan(f) else f
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


def _dump_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(doc), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cell(value):
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    f = float(value)
    return "nan" if math.isnan(f) else repr(f)


def _write_trace(base, columns, rows, fmt):
    if fmt == "csv":
        path = base + ".trace.csv"
        lines = [",".join(columns)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        path = base + ".trace.json"
        _dump_json(path, {"columns": list(columns), "rows": [list(r) for r in rows]})
    return path


def _vector_columns(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


# ---------------------------------------------------------------------------
# method runners


def _run_prox_eval(fam, doc, params, summary):
    x, q = _parse_init(doc, fam)
    cfg = ProxConfig(**params)
    try:
        res = prox(fam, x, q, cfg)
    except ProxNonConvergenceError as err:
        summary.update(status=STATUS_INNER_FAILURE, message=str(err))
        return None, EXIT_NOT_CONVERGED
    summary.update(
        status="ok",
        x=res.x,
        q=res.q.probs,
        residual_x=res.residual[0],
        residual_q=res.residual[1],
        inner_iterations=res.inner_iterations,
    )
    return None, EXIT_OK


def _run_ppa(fam, doc, params, summary):
    x, q = _parse_init(doc, fam)
    prox_cfg = ProxConfig(**_subset(params, _field_names(ProxConfig)))
    cfg = PpaConfig(prox_cfg=prox_cfg, **_subset(params, _field_names(PpaConfig, ("prox_cfg",))))
    trace = run_ppa(fam, x, q, cfg)
    final = trace.records[-1]
    summary.update(
        status=trace.status,
        iterations=trace.iterations,
        no_fixed_point_suspected=trace.no_fixed_point_suspected,
        x=final.x,
        q=final.q.probs,
        objective=final.objective,
        barygrad_norm=final.barygrad_norm,
        loss_spread=final.loss_spread,
        n_records=len(trace.records),
        final_lam=trace.final_lam,
    )
    columns = (
        ["k"]
        + _vector_columns("x", fam.m)
        + _vector_columns("q", fam.S)
        + ["F", "barygrad_norm", "loss_spread", "prox_displacement", "step_bregman"]
    )
    rows = [
        [r.k, *r.x, *r.q.probs, r.objective, r.barygrad_norm, r.loss_spread,
         r.prox_displacement, r.step_bregman]
        for r in trace.records
    ]
    code = EXIT_OK if trace.status == STATUS_CONVERGED else EXIT_NOT_CONVERGED
    return (columns, rows), code


def _run_flow(fam, doc, params, summary, kind):
    x, q = _parse_init(doc, fam)
    cfg = FlowConfig(**params)
    trace = integrate_flow(fam, x, q, kind, cfg)
    summary.update(
        status=trace.status,
        kind=kind,
        t_final=trace.t[-1],
        x=trace.x[-1],
        q=trace.q[-1],
        objective=trace.objective[-1],
        n_records=int(trace.t.size),
        divergence_reason=trace.divergence_reason,
        divergence_step=trace.divergence_step,
    )
    columns = (
        ["t"]
        + _vector_columns("x", fam.m)
        + _vector_columns("q", fam.S)
        + ["F", "df_dt_analytic", "entropy", "entropy_rate_analytic"]
    )
    rows = np.column_stack((trace.t, trace.x, trace.q, trace.objective, trace.objective_rate,
                            trace.entropy, trace.entropy_rate)).tolist()
    code = EXIT_OK if trace.status == STATUS_COMPLETED else EXIT_NOT_CONVERGED
    return (columns, rows), code


def _run_landscape(fam, doc, params, summary):
    x, q = _parse_init(doc, fam)
    point = LandscapePoint(x, logits_from_point(q))
    report = riemannian_hessian(fam, point, **params)
    summary.update(
        classification=report.classification,
        grad_norm=report.grad_norm,
        inertia=list(report.inertia),
        schur_b2=report.schur_b2,
        riemannian=report.riemannian,
        euclidean=report.euclidean,
    )
    return None, EXIT_OK


def _checks_report(scope, seed):
    """Run the checks of `scope`: their JSON document and their text lines."""
    results = run_checks(scope=scope, seed=seed)
    n_passed = sum(r.passed for r in results)
    n_failed = len(results) - n_passed
    doc = {
        "scope": scope,
        "seed": seed,
        "passed": n_failed == 0,
        "n_passed": n_passed,
        "n_failed": n_failed,
        "results": [asdict(r) for r in results],
    }
    lines = [format_result(r) for r in results] + [f"{n_passed} passed, {n_failed} failed"]
    return doc, "\n".join(lines)


def _run_checks_method(fam, doc, params, summary):
    report, text = _checks_report(params.get("scope", "all"), summary["seed"])
    print(text)
    summary.update(report)
    return None, EXIT_OK if report["passed"] else EXIT_FAILED


# Each method's params (the fields of its config class; `ppa` takes ProxConfig's
# and PpaConfig's but `prox_cfg`) and its runner, which reads its start from the
# config's `init` and fills in the summary, where the seed is.
_METHODS = {
    "prox_eval": (_field_names(ProxConfig), _run_prox_eval),
    "ppa": (_field_names(ProxConfig) + _field_names(PpaConfig, ("prox_cfg",)), _run_ppa),
    "flow_min_max": (_field_names(FlowConfig), partial(_run_flow, kind=KIND_MIN_MAX)),
    "flow_min_min": (_field_names(FlowConfig), partial(_run_flow, kind=KIND_MIN_MIN)),
    "landscape": (("eps_critical", "eps_eig_scale"), _run_landscape),
    "checks": (("scope",), _run_checks_method),
}


def _cmd_run(args):
    doc, method, params, output = load_config(args.config)
    fam = _build_problem(doc["problem"])
    summary = {
        "method": method,
        "problem": doc["problem"]["kind"],
        "seed": args.seed,
    }

    stem = output.get("path") or os.path.splitext(os.path.basename(args.config))[0]
    base = os.path.join(args.out_dir, stem)
    fmt = args.format or output.get("format") or "csv"
    # Made before the run, so an unwritable output fails before any computation.
    try:
        os.makedirs(os.path.dirname(base) or ".", exist_ok=True)
    except OSError as err:
        raise OSError(f"cannot write output {base}: {err}") from err

    trace_data, code = _METHODS[method][1](fam, doc, params, summary)

    written = []
    if trace_data is not None:
        written.append(_write_trace(base, trace_data[0], trace_data[1], fmt))
    summary_path = base + ".summary.json"
    _dump_json(summary_path, summary)
    written.append(summary_path)
    for path in written:
        print(f"wrote {path}")
    status = summary.get("status") or summary.get("classification") or (
        "ok" if code == EXIT_OK else "failed"
    )
    print(f"{method}: {status}")
    return code


def _cmd_checks(args):
    doc, text = _checks_report(args.scope, args.seed)
    print(json.dumps(_json_safe(doc), sort_keys=True, indent=2) if args.format == "json" else text)
    return EXIT_OK if doc["passed"] else EXIT_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="baryopt",
        description="Proximal saddle steps, weighted-loss landscapes, and "
        "coupled flows on R^m x int(simplex).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one JSON experiment config")
    run_p.add_argument("config", help="path to the JSON config file")

    checks_p = sub.add_parser("checks", help="run property checks")
    checks_p.add_argument(
        "scope", nargs="?", default="all", choices=SCOPES + ("all",),
        help="module scope to check (default: all)",
    )

    for p in (run_p, checks_p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized checks (default: 0)")
    run_p.add_argument("--out-dir", default=".",
                       help="directory for output files (default: .)")
    run_p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="trace format; overrides the config (default: csv)")
    checks_p.add_argument("--format", choices=("csv", "json"), default=None,
                          help="json prints the checks document; csv (the "
                          "default) prints one line per check")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A non-finite result ends in one `error:` line or a reported status;
    # numpy's floating-point warnings would only print before it.
    try:
        with np.errstate(all="ignore"):
            if args.command == "run":
                return _cmd_run(args)
            return _cmd_checks(args)
    except (ConfigError, InvalidDomainError, DimensionMismatchError,
            DegenerateMetricError, HessiansUnavailableError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILED
    except ProxNonConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
