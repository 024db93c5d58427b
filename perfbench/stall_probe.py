"""Stall probe: exact work counts of PPA solves whose prox calls stall.

    python3 perfbench/stall_probe.py

Runs the known-saddle construction at (m, S) = (50, 8) for seeds 0-7 with
the inner solver's budget cut to `inner_max_iter=200` through the public
`ProxConfig`.  With the default budget single prox calls take hundreds of
inner steps, most of them Armijo halvings at the round-off floor, and a
solve can run for minutes; the cut budget turns those stalls into
`inner_failure` within seconds.  For each seed it prints the status and the
exact counts of prox calls, inner steps and family evaluations.  Counts
only, no timings: this is not a timed workload, it keeps the stall visible
until the prox line search is fixed.
"""

import json

import run

SIZE = (50, 8)
SEEDS = range(8)
INNER_MAX_ITER = 200


def probe():
    run.import_baryopt()
    import numpy as np

    import tracer as tracer_module
    import workloads
    from baryopt import ppa
    from baryopt.prox import ProxConfig
    from baryopt.simplex_geometry import SimplexPoint

    cfg = ppa.PpaConfig(prox_cfg=ProxConfig(inner_max_iter=INNER_MAX_ITER))
    rows = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        fam, _, _ = workloads.known_saddle(rng, *SIZE)
        x0, q0 = workloads.random_start(rng, *SIZE)
        q0 = SimplexPoint.from_probs(q0)
        tracer = tracer_module.Tracer()
        with tracer.traced_op():
            trace = ppa.run_ppa(fam, x0, q0, cfg)
        counts = tracer.summary()
        rows.append({
            "seed": seed,
            "status": trace.status,
            "outer_iters": trace.iterations,
            "prox_calls": int(counts["prox.calls"]),
            "inner_steps": int(counts["prox.inner_steps"]),
            "family_evals": int(counts["prox.family_evals"]),
            "inner_failures": int(counts["prox.inner_failures"]),
        })
        print(json.dumps(rows[-1]), flush=True)
    return {"size": list(SIZE), "inner_max_iter": INNER_MAX_ITER, "runs": rows}


if __name__ == "__main__":
    probe()
