"""Benchmark of the baryopt library and CLI: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; baryopt is imported from its
`src/`.  The load is a closed loop with one client: each operation starts
when the previous one has finished.  After one warm-up operation the run
repeats whole passes over the workload's operations until `--seconds` have
passed, and checks every operation's result.

`--trace 0` reports the end-to-end metrics.  `setup_s` is the median, over
several fresh processes, of the time from process start until the inputs of
the first operation are built (`import baryopt` plus building the inputs).
`ops_per_s` is the number of measured operations that passed their check
over the time spent in them, so operations that fail (counted in `failed`)
do not set it: a solve that stalls sooner does not read as a speed-up.

`--trace 1` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (see tracer.py), together with the median
operation time of both kinds of pass and their ratio: the tracing overhead.
Spans are written to perfbench/out/spans-<workload>.npz.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable report.  The full result, including the op_s_p90 percentile and
the per-operation outcomes, goes to perfbench/out/<workload>-trace<k>.json.
"""

import os

# BLAS threads are pinned before numpy loads; child processes inherit this.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("ppa_small", "ppa_large", "flow_cli", "checks_all")
SETUP_REPEATS = 5
# op_s_p90 is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100


def import_baryopt():
    """Import baryopt from this checkout's src/; exit with an error when it is missing."""
    init = os.path.join(SRC, "baryopt", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no baryopt sources at {init}; run from a source checkout")
    sys.path.insert(0, SRC)
    import baryopt

    if os.path.dirname(os.path.abspath(baryopt.__file__)) != os.path.dirname(init):
        sys.exit(f"error: imported baryopt from {baryopt.__file__}, not from {SRC}")
    return baryopt


def setup_probe(workload, seed):
    """Child side of a setup measurement: import, build inputs, report."""
    t0 = time.perf_counter()
    import_baryopt()
    import_s = time.perf_counter() - t0
    import workloads

    workdir = tempfile.mkdtemp(prefix=f"probe-{workload}-", dir=OUT)
    try:
        workloads.WORKLOADS[workload](seed, workdir)
        print(json.dumps({"import_s": import_s}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload, seed, repeats):
    """Median setup time and import time over `repeats` fresh processes."""
    setup, imports = [], []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or not line:
                sys.exit(f"error: setup probe for {workload} exited with {proc.returncode}")
        setup.append(elapsed)
        imports.append(json.loads(line)["import_s"])
    return statistics.median(setup), statistics.median(imports)


class Outcome:
    __slots__ = ("label", "seconds", "measured", "traced", "verdict")

    def __init__(self, label, seconds, measured, traced, verdict):
        self.label = label
        self.seconds = seconds
        self.measured = measured
        self.traced = traced
        self.verdict = verdict


def run_op(op, tracer, measured):
    """Run and check one operation; an exception counts as a failure."""
    import workloads

    error = None
    with tracer.traced_op() if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = op.run()
        except (Exception, SystemExit) as err:
            error = err
        seconds = time.perf_counter() - t0
    if error is not None:
        verdict = workloads.Verdict(failed=True, note=f"raised {type(error).__name__}: {error}")
    else:
        verdict = op.check(result)
    return Outcome(op.label, seconds, measured, tracer is not None, verdict)


def run_workload(workload, seed, seconds, trace):
    """Warm up, then repeat passes for `seconds`; return the outcomes."""
    import workloads

    tracer = None
    if trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        ops = workloads.WORKLOADS[workload](seed, workdir)
        outcomes = [run_op(ops[0], None, measured=False)]
        passes = 0
        t_begin = time.perf_counter()
        while True:
            pass_tracer = tracer if trace and passes % 2 == 1 else None
            outcomes += [run_op(op, pass_tracer, measured=True) for op in ops]
            passes += 1
            wall = time.perf_counter() - t_begin
            if wall >= seconds and (passes >= 2 or not trace):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcomes, wall, passes, tracer


def measure(workload, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns (result line, full result)."""
    import_baryopt()
    os.makedirs(OUT, exist_ok=True)
    setup_s, import_s = measure_setup(workload, seed, setup_repeats)
    outcomes, wall, passes, tracer = run_workload(workload, seed, seconds, trace)

    attempted = len(outcomes)
    failed = sum(o.verdict.failed for o in outcomes)
    measured = [o for o in outcomes if o.measured]
    untraced = [o.seconds for o in measured if not o.traced]
    if trace:
        traced = [o for o in measured if o.traced]
        traced_p50 = statistics.median(o.seconds for o in traced)
        values = tracer.summary()
        values.update({
            "setup.import_s": import_s,
            "cli.trace_bytes": sum(o.verdict.out_bytes for o in traced) / len(traced),
            "trace.op_s_p50_untraced": statistics.median(untraced),
            "trace.op_s_p50_traced": traced_p50,
            "trace.overhead": traced_p50 / statistics.median(untraced) - 1.0,
        })
        tracer.save(os.path.join(OUT, f"spans-{workload}.npz"))
        spec = "per_layer"
    else:
        passed = [o.seconds for o in measured if not o.verdict.failed]
        values = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(untraced),
            "ops_per_s": len(passed) / sum(passed) if passed else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        spec = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in benchmark_spec()[spec]}

    line = {
        "correct": not any(o.verdict.wrong for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    full = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **line,
        "op_samples": len(untraced),
        "op_s_p90": (statistics.quantiles(untraced, n=10)[-1]
                     if len(untraced) >= P90_MIN_OPS else None),
        "failed_frac": failed / attempted,
        "measured_wall_s": wall,
        "passes": passes,
        "outcomes": [
            {"label": o.label, "seconds": o.seconds, "measured": o.measured,
             "traced": o.traced, "failed": o.verdict.failed, "wrong": o.verdict.wrong,
             "note": o.verdict.note, "out_bytes": o.verdict.out_bytes}
            for o in outcomes
        ],
    }
    return line, full


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def print_report(line, full):
    print(f"workload {full['workload']}  seed {full['seed']}  trace {full['trace']}  "
          f"passes {full['passes']}  measured {full['measured_wall_s']:.2f} s")
    for name, metric in line["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    if not full["trace"]:
        p90 = full["op_s_p90"]
        print(f"  {'op_s_p50 samples':28s} {full['op_samples']}")
        print(f"  {'op_s_p90':28s} "
              + (f"{p90:.6g} s" if p90 is not None else f"n/a (fewer than {P90_MIN_OPS} ops)"))
    print(f"  {'failed_frac':28s} {full['failed_frac']:.6g} "
          f"({line['failed']} of {line['attempted']} ops)")
    for o in full["outcomes"]:
        if o["failed"]:
            print(f"  failed op {o['label']}: {o['note']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    line, full = measure(args.workload, args.seed, args.seconds, args.trace)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print_report(line, full)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
