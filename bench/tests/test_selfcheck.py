"""Self-check of the benchmark: metric names, repeatable counts, seeded inputs.

Run from the repository root:

    python3 -m pytest -q bench/tests

Each workload runs untraced once and traced once or twice, so the whole
check takes several minutes (the quench-ladder study alone is about 35 s
per pass).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATABLE = [
    "rk.step.calls",
    "dynamics.field.calls",
    "integrate.forward.accepted_steps",
    "solve.grad_sweep.calls",
    "barrier.quad.calls",
]

_runs = {}


def bench(workload, seed, trace, fresh=False):
    """Last-line JSON of one benchmark run (cached unless fresh)."""
    key = (workload, seed, trace)
    if fresh or key not in _runs:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        _runs[key] = json.loads(done.stdout.strip().splitlines()[-1])
    return _runs[key]


def _expect(result, specs):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {s["name"]: s["unit"] for s in specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    result = bench(workload, 0, 0)
    _expect(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_present(workload):
    _expect(bench(workload, 0, 1), SPEC["per_layer"])


@pytest.mark.parametrize("workload", ["chart-verify", "bound-sweeps"])
def test_traced_counts_repeat(workload):
    first = bench(workload, 0, 1)["metrics"]
    second = bench(workload, 0, 1, fresh=True)["metrics"]
    for name in REPEATABLE:
        assert first[name]["value"] == second[name]["value"], name
    assert any(first[name]["value"] > 0 for name in REPEATABLE)


def test_trace_matches_the_profile():
    sweeps = bench("bound-sweeps", 0, 1)["metrics"]
    assert all(v["value"] == 0 for k, v in sweeps.items() if k.startswith(("solve.", "pmp.")))
    quench = bench("quench-ladder", 0, 1)["metrics"]
    solver_s = quench["solve.grad_sweep.s"]["value"] + quench["solve.forward.s"]["value"]
    assert solver_s > 0.5 * quench["solve.solve_alpha.s"]["value"]
    assert bench("chart-verify", 0, 1)["metrics"]["pmp.bang_polish.calls"]["value"] == 0


@pytest.mark.parametrize("workload", ["chart-verify", "bound-sweeps"])
def test_seed_changes_inputs(workload):
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    try:
        import workloads
    finally:
        del sys.path[:2]
    cls = workloads.WORKLOADS[workload]
    a, a2, b = cls(0), cls(0), cls(1)
    for k in range(6):
        assert json.dumps(a.inputs(k), default=repr) == json.dumps(a2.inputs(k), default=repr)
        assert json.dumps(a.inputs(k), default=repr) != json.dumps(b.inputs(k), default=repr)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
