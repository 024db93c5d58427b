"""Smoke test of the benchmark: a few operations per workload, every metric named.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload in-process on its first operations only, untraced and
traced, and checks that the result line carries exactly the metrics that
BENCHMARK.json names, that every operation passed its check, and that the
result line is the last line a run prints.  Takes about a minute.
"""

import os
import shutil
import subprocess
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

FIRST_OPS = {"ppa_small": 2, "ppa_large": 1, "flow_cli": 1, "checks_all": 1}


@pytest.fixture
def short_workloads(monkeypatch):
    run.import_baryopt()
    import workloads

    for name, count in FIRST_OPS.items():
        build = workloads.WORKLOADS[name]
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            lambda seed, workdir, build=build, count=count:
                            build(seed, workdir)[:count])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted(short_workloads, workload, trace):
    line, full = run.measure(workload, seed=0, seconds=0, trace=trace, setup_repeats=1)
    spec = run.benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
    # Failed operations are allowed (ppa_small has solves that end at
    # max_iter); wrong answers are not.
    assert line["correct"] and line["attempted"] >= 2
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_exits_nonzero_without_sources():
    """A directory holding only the benchmark gives no result and a failure code."""
    os.makedirs(run.OUT, exist_ok=True)
    root = tempfile.mkdtemp(dir=run.OUT)
    try:
        shutil.copytree(run.HERE, os.path.join(root, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ppa_small", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(root)
    assert proc.returncode != 0
    assert proc.stdout == ""
