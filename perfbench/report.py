"""Run every workload over several seeds and print (and save) the results.

    python3 perfbench/report.py [--seeds 0-9] [--out perfbench/results/BENCH_<n>.json]

For each workload and seed this runs `run.py --trace 0` for BENCHMARK.json's
`run_seconds` in its own process, then `run.py --trace 1` for the first seed.
It prints, by name and with units, setup_s, op_s_p50 with its sample count,
op_s_p90 where a run has at least 100 operations, ops_per_s, failed_frac and
peak_rss_mb: the median over the seeds and the quartile spread
(q3 - q1) / median.  Next to them it prints
the traced run's operation median and the tracing overhead, then the
per-layer metrics, and last the stall probe's counts (stall_probe.py).  With
`--out` it writes everything, with the environment, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run
import stall_probe

SECONDS = run.benchmark_spec()["run_seconds"]
E2E_ORDER = ("setup_s", "op_s_p50", "ops_per_s", "peak_rss_mb")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def environment():
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_threads": {var: os.environ.get(var) for var in run.BLAS_THREAD_VARS},
    }


def run_once(workload, seed, trace):
    argv = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {workload} seed {seed} trace {trace} exited with "
                 f"{proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(run.OUT, f"{workload}-trace{trace}.json"), encoding="utf-8") as fh:
        full = json.load(fh)
    full.pop("outcomes")
    return full


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def summarize(workload, seeds):
    runs = []
    for seed in seeds:
        t0 = time.perf_counter()
        runs.append(run_once(workload, seed, 0))
        print(f"  {workload} seed {seed} ({time.perf_counter() - t0:.1f} s): "
              + "  ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
              flush=True)
    traced = run_once(workload, seeds[0], 1)
    p90 = [r["op_s_p90"] for r in runs if r["op_s_p90"] is not None]
    return {
        "end_to_end": {name: spread([r["metrics"][name]["value"] for r in runs])
                       for name in E2E_ORDER},
        "units": {name: m["unit"] for name, m in runs[0]["metrics"].items()},
        "op_samples": [r["op_samples"] for r in runs],
        "op_s_p90": spread(p90) if len(p90) == len(runs) else None,
        "failed_frac": spread([r["failed_frac"] for r in runs]),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "correct": all(r["correct"] for r in runs) and traced["correct"],
        "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        "per_layer_units": {name: m["unit"] for name, m in traced["metrics"].items()},
        "traced_seed": seeds[0],
    }


def print_table(results):
    for workload, res in results.items():
        e2e = res["end_to_end"]
        print(f"\n{workload}  (correct: {res['correct']}; median over seeds, "
              "spread = (q3 - q1) / median)")
        for name in E2E_ORDER:
            print(f"  {name:14s} {e2e[name]['median']:10.5g} {res['units'][name]:5s}"
                  f" spread {e2e[name]['spread']:.3f}")
        print(f"  {'op samples':14s} {statistics.median(res['op_samples']):10g} per run")
        if res["op_s_p90"] is None:
            print(f"  {'op_s_p90':14s} {'n/a':>10s}       (fewer than {run.P90_MIN_OPS} ops per run)")
        else:
            print(f"  {'op_s_p90':14s} {res['op_s_p90']['median']:10.5g} s")
        print(f"  {'failed_frac':14s} {res['failed_frac']['median']:10.5g}       "
              f"(failed {res['failed']} of {res['attempted']})")
        layers = res["per_layer"]
        print(f"  traced run, seed {res['traced_seed']}: op_s_p50 untraced "
              f"{layers['trace.op_s_p50_untraced']:.5g} s, traced "
              f"{layers['trace.op_s_p50_traced']:.5g} s, overhead {layers['trace.overhead']:.3f}")
        for name, value in layers.items():
            if not name.startswith("trace."):
                print(f"    {name:28s} {value:12.6g} {res['per_layer_units'][name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    doc = {"environment": environment(), "seeds": args.seeds, "seconds": SECONDS,
           "workloads": {}}
    for workload in run.WORKLOAD_NAMES:
        doc["workloads"][workload] = summarize(workload, args.seeds)
    print_table(doc["workloads"])
    print("\nstall probe")
    doc["stall_probe"] = stall_probe.probe()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
