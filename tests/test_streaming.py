"""The restart loop's streaming rejection against the full pipeline.

An attempt scores 0 as soon as its sample fails sparsity while the edges
stream in (cli._attempt returns None); the score must always be the one
verify_construction(stop_early=True) gives the whole sample, and an
attempt that survives streaming returns that very certificate.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import critgraph
from critgraph.cli import _attempt, main
from critgraph.certify import verify_construction
from critgraph.matching import MATCHING_BUDGET
from critgraph.sampling import derive_params, derive_seed, sample_fails_sparsity, sample_hypergraph
from critgraph.sparsity import check_sparsity, forced_violator_size


def _full_certificate(params, base_seed, idx, budget):
    seed = derive_seed(base_seed, idx)
    h = sample_hypergraph(params.n, params.s, params.q, seed)
    return verify_construction(h, params, seed=seed, matching_budget=budget, stop_early=True)


def _full_summary(params, base_seed, idx, budget):
    cert = _full_certificate(params, base_seed, idx, budget)
    score = cert.stages_passed()
    assert cert.conclusions.robust_to_r == (score == 3)
    return score


def _streamed_summary(params, base_seed, idx, budget):
    cert = _attempt(params, derive_seed(base_seed, idx), budget)
    if cert is None:
        return 0
    assert cert == _full_certificate(params, base_seed, idx, budget)
    return cert.stages_passed()


@pytest.mark.parametrize(
    "k, attempts",
    [(2, 40), (6, 40), (11, 25), (16, 10), (33, 3)],  # k = 2 samples at q = 1
)
def test_streaming_summary_equals_full_path(k, attempts):
    params = derive_params(1, k)
    if k == 2:
        assert params.q == 1.0
    for idx in range(attempts):
        job = (params, 20261018, idx, MATCHING_BUDGET)
        assert _streamed_summary(*job) == _full_summary(*job)


def test_streaming_falls_back_when_sparsity_passes():
    # A tiny C leaves so few edges that sparsity often holds; those
    # attempts take the full path and score past the sparsity stage.
    C = 0.25
    params = derive_params(1, 6, C)
    fallbacks = passed = 0
    for idx in range(40):
        job = (params, 7, idx, MATCHING_BUDGET)
        score = _streamed_summary(*job)
        assert score == _full_summary(*job)
        if not sample_fails_sparsity(params.n, params.s, params.q, params.m, derive_seed(7, idx)):
            fallbacks += 1
            passed += score >= 1
    assert fallbacks >= 5 and passed >= 1


def _rule_fires(edges, n, s, m) -> bool:
    """Either rejection rule, judged on the whole edge list."""
    forced = forced_violator_size(n, s)
    if forced <= m and len(edges) >= forced:
        return True
    return m >= 2 and any(len(set(a) & set(b)) >= 3 for a, b in combinations(edges, 2))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda s: st.tuples(st.just(s), st.integers(s, 11))),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(1, 40),
    st.integers(0, 2**64 - 1),
)
def test_streaming_rejection_is_exact(sn, p, m, seed):
    s, n = sn
    h = sample_hypergraph(n, s, p, seed)
    fails = sample_fails_sparsity(n, s, p, m, seed)
    assert fails == _rule_fires(h.edges, n, s, m)
    if fails:
        assert not check_sparsity(h, m, s).holds


def test_construct_report_bytes_equal_across_workers(tmp_path):
    # At this C some attempts are rejected while streaming, others fall back.
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"report-{workers}.json"
        argv = ["construct", "--r", "1", "--k", "6", "--C", "0.25", "--seed", "5",
                "--restarts", "30", "--workers", workers, "--quiet", "--out", str(out)]
        assert main(argv) == 2
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_commands_run_without_numpy(tmp_path):
    # numpy is a test-only dependency: with every import of it failing,
    # each command still runs, and no worker count loads a process pool.
    report = tmp_path / "report.json"
    script = f"""
import sys
sys.modules["numpy"] = None
from critgraph.cli import main
assert main(["construct", "--r", "1", "--k", "6", "--seed", "3", "--restarts", "20",
             "--workers", "1", "--quiet", "--out", {str(report)!r}]) == 2
assert main(["verify", {str(report)!r}]) == 0
assert main(["sweep", "--s", "3", "--n", "6,9", "--p", "0,0.2,0.5", "--samples", "5", "--seed", "1"]) == 0
for suite, size in [("obs1", ["--max-n", "4"]), ("blocks", ["--max-n", "4"]), ("edgebound", ["--count", "10"]),
                    ("sparsity-oracle", ["--count", "10"]), ("matching-oracle", ["--count", "5"])]:
    assert main(["lemma-check", "--suite", suite, *size]) == 0, suite
assert main(["construct", "--r", "1", "--k", "6", "--seed", "3", "--restarts", "20",
             "--workers", "2", "--quiet", "--out", {str(report)!r}]) == 2
print("concurrent.futures.process" in sys.modules)
"""
    src = str(Path(critgraph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"
