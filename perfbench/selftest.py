"""Tests of the benchmark itself. They run the launcher in a copy of the
checkout, one or two passes per run, and take about two minutes:

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

WORKLOADS = ("descent", "coverage", "ode", "logreg")
EXACT_COUNTS = ("problems.grad.calls", "optimizers.run_steps", "continuous.rk4_steps",
                "cli.build_problem.per_invocation")


def make_checkout(dest: Path, with_sources: bool = True) -> Path:
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def bench(root: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One short run: returns the printed result and the logged record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    log = (root / "perfbench" / "out" / "results.jsonl").read_text().splitlines()
    return result, json.loads(log[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced run and two traced runs of seed 3."""
    root = make_checkout(tmp_path_factory.mktemp("checkout"))
    return {w: [bench(root, w, 3, trace) for trace in (0, 1, 1)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported(runs, workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for (result, _), kind in zip(runs[workload][:2], ("end_to_end", "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in declared[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reproduces_untraced_verdicts(runs, workload):
    (_, untraced), (_, traced), _ = runs[workload]
    assert traced["failures"] == []
    assert traced["digests"] == untraced["digests"]
    assert traced["checks"] == untraced["checks"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_self_time_is_negative(runs, workload):
    for _, record in runs[workload][1:]:
        selfs = {k: v for k, v in record["layers"].items() if k.endswith("self_s")}
        assert selfs and all(v >= 0.0 for v in selfs.values()), selfs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_times_fit_in_the_traced_pass(runs, workload):
    for _, record in runs[workload][1:]:
        wall = record["traced_wall_s"]
        assert record["exclusive_s"] <= wall  # self times of all layers
        assert all(v <= wall for k, v in record["layers"].items() if k.endswith("_s"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_traced_runs(runs, workload):
    (_, a), (_, b) = runs[workload][1:]
    for name in EXACT_COUNTS:
        assert a["layers"][name] == b["layers"][name], name


def test_counts_reach_every_layer(runs):
    layers = {w: runs[w][1][1]["layers"] for w in WORKLOADS}
    assert layers["descent"]["cli.build_problem.per_invocation"] == 10
    assert layers["coverage"]["cli.build_problem.per_invocation"] == 1
    assert layers["descent"]["optimizers.run_steps"] == 40_000
    assert layers["ode"]["continuous.rk4_steps"] > 0
    assert layers["logreg"]["problems.eval.calls"] > 0
    assert layers["coverage"]["seeding.rng_for.calls"] > 0


def test_injected_bad_reference_is_a_failed_unit(tmp_path):
    root = make_checkout(tmp_path)
    path = root / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    c1 = next(c for c in refs["units"]["coverage/constants"] if c[0] == "C1")
    c1[1] *= 1.001
    path.write_text(json.dumps(refs))
    result, record = bench(root, "coverage", 11, 0)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 4
    assert record["error_rate"] == 0.25
    assert "C1" in record["failures"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    root = make_checkout(tmp_path, with_sources=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_rejects_non_strict_json_and_changed_bytes():
    gate = worker.Gate(None, 0, {"u": True})
    good = b'{"passed": true, "checks": [{"name": "a", "value": 1.0, "threshold": null}]}'
    gate.judge("u", (0, good))
    gate.judge("u", (0, good.replace(b"1.0", b"NaN")))
    gate.judge("u", (0, good.replace(b"1.0", b"2.0")))
    gate.judge("u", (1, good))
    gate.judge("u", ValueError("boom"))
    assert gate.attempted == 5 and len(gate.failures) == 4
    assert "strict JSON" in gate.failures[0] and "differ" in gate.failures[1]


def test_reference_tolerance_scales_with_threshold():
    assert worker.matches(1.5e-9, 1.5e-9 + 1e-12, 1e-4, 1e-6)
    assert not worker.matches(1106.19, 1106.18, None, 1e-6)
    assert worker.matches(None, None, None, 1e-6)
    assert not worker.matches(0.0, None, None, 1e-6)
