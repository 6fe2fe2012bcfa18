"""Self-test of the benchmark: tiny inputs, every metric emitted, no failed op.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import padded_costs, solve  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
# hp-grid is runnable but not gated: its run-to-run spread exceeds the largest
# allowed bound (see design.json).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["hp-grid"]


def _run(workload, trace, seed=7):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)


def _parse(done):
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_no_failed_op(workload, trace):
    result, details = _parse(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    if trace:
        assert details["fail_ratio"]["value"] == 0
        assert details["missing_targets"] == []
    else:
        latency = details["latency"]
        assert latency["fail_ratio"]["value"] == 0
        assert latency["op_s_p50"]["unit"] == latency["op_s_tail"]["unit"] == "s"
        assert 0 < latency["op_s_p50"]["value"] <= latency["op_s_tail"]["value"]


def test_same_seed_same_inputs():
    first = _parse(_run("hp-grid", 0, seed=3))[1]["inputs"]
    again = _parse(_run("hp-grid", 0, seed=3))[1]["inputs"]
    other = _parse(_run("hp-grid", 0, seed=4))[1]["inputs"]
    assert first == again
    assert first["digest"] != other["digest"]


def test_refuses_to_run_without_program_sources():
    bare = os.path.join(ROOT, ".perfbench-out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hp-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_reference_matches_enumeration(p):
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = rng.integers(0, 4, size=2)
        births = rng.uniform(0, 3, size=(n + m,))
        points = [(float(b), float(b + rng.uniform(0.1, 2))) for b in births]
        left, right = points[:n], points[n:]
        costs = padded_costs(left, right, p)
        r = len(costs)
        want = 0.0
        if r:
            picked = costs[np.arange(r), np.array(list(itertools.permutations(range(r))))]
            totals = picked.max(axis=1) if p == math.inf else (picked ** p).sum(axis=1) ** (1 / p)
            want = totals.min()
        assert math.isclose(solve(costs, p), want, rel_tol=1e-12, abs_tol=1e-15)
