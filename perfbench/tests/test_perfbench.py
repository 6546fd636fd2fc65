"""Tests of the benchmark itself: each workload completes at a tiny size,
and the correctness gate counts tampered certificates, wrong digests and
changed counts as failures.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_critgraph()

TINY = {
    "construct": {"kind": "construct", "k": 6, "restarts": 5},
    "verify": {
        "kind": "verify",
        "dense": [[6, 2]],
        "tree_k": 6,
        "random_trees": 2,
        "random_tree_edges": [3, 5],
        "hub_trees": [[5, 2]],
    },
    "validate": {
        "kind": "validate",
        "max_n": {"obs1": 4, "blocks": 4},
        "edgebound": 10,
        "sparsity-oracle": 10,
        "matching-oracle": 5,
        "sweep_s": 3,
        "sweep_n": [6, 9],
        "sweep_chunks": 2,
        "sweep_samples": 3,
    },
}

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _tiny(kind: str, trace: bool, reference: dict | None = None) -> dict:
    return run.run_benchmark(kind, TINY[kind], seed=3, seconds=0, trace=trace,
                             reference=reference, setup_repeats=1, min_ops=0)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", sorted(TINY))
def test_workload_completes_at_tiny_size(kind, trace):
    result = _tiny(kind, trace)
    assert result["correct"], [p["failures"] for p in result["passes"]]
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared


def test_traced_self_times_add_up_to_wall():
    metrics = _tiny("construct", trace=True)["metrics"]
    self_total = sum(value for name, (value, _) in metrics.items() if name.endswith(".self_s"))
    assert self_total + metrics["unattributed_s"][0] == pytest.approx(metrics["trace.wall_s"][0])


def test_deterministic_counts_repeat():
    first = _tiny("validate", trace=True)["counts"]
    assert first == _tiny("validate", trace=True)["counts"]
    assert first["suites.obs1_checked"] > 0 and first["matching.pm_calls"] > 0


def test_gate_counts_tampered_certificate(tmp_path):
    spec = TINY["verify"]
    run.generate_corpus(spec, 3, tmp_path / "corpus")
    target = sorted((tmp_path / "corpus").glob("dense-*.json"))[0]
    doc = json.loads(target.read_text())
    entry = next(e for e in doc["matchability"]["per_vertex"] if e["status"] == "matched")
    unused = next(e for e in doc["hypergraph"]["edges"] if e not in entry["matching"])
    entry["matching"][0] = unused  # one witness edge swapped
    target.write_text(json.dumps(doc, indent=2) + "\n")

    workload = run.Verify(spec, 3, tmp_path)
    result = run.check_pass(workload, run.run_pass(workload, 0, tmp_path / "pass", []))
    failed = [workload.corpus[i].name for i, _ in result["failures"]]
    assert failed == [target.name]


def test_gate_counts_wrong_digest_and_count():
    result = _tiny("construct", trace=False, reference={"digests": {"0": {"report": "0" * 64}}})
    assert not result["correct"] and result["failed"] == 1

    result = _tiny("construct", trace=True, reference={"counts": {"sampling.calls": -1}})
    assert not result["correct"] and result["failed"] == 1


def test_sweep_gate_rejects_decreasing_curve(tmp_path):
    table = tmp_path / "sweep.csv"
    table.write_text("n,p,samples,successes,fraction\n6,0.0,3,0,0.0\n6,0.1,3,2,0.66\n6,0.2,3,1,0.33\n")
    assert run.sweep_curve_problem(table) == "curve decreases in p"
    table.write_text("n,p,samples,successes,fraction\n6,0.0,3,1,0.33\n")
    assert run.sweep_curve_problem(table) == "curve is not zero at p = 0"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
