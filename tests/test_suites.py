"""The counted `obs1` and the depth-first `blocks` walk against the
enumerating suites they replaced, kept in `reference_suites`: equal
`SuiteReport` dicts, counts, skips and counterexamples in the same order.
The `obs1` counts also against the connected labelled graph numbers. Also
the shared (s+1)-subset scan of `edge_bound_check` against the scan it
replaced, the randomized suites' unranked instances against the
list-indexed ones, and the suites' exact bounded integers and Floyd
sampling."""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference_suites
from conftest import uniform_hypergraphs
from critgraph import suites
from critgraph.hypergraph import Matching
from critgraph.lemmas import (
    CapExceeded,
    CounterexampleFound,
    HypothesisNotMet,
    RequestRefused,
    candidate_edges,
    edge_bound_check,
    find_small_cut,
    require_within_cap,
)
from critgraph.matching import find_perfect_matching
from critgraph.sampling import _uniforms, derive_seed
from critgraph.sparsity import check_sparsity

SIZE_SETS = [set(c) for k in range(1, 5) for c in combinations(range(1, 5), k)]


def _within_cap(min_n: int, max_n: int, max_edges: int, sizes: set[int], cap: int) -> tuple[int, int]:
    """Shrink max_n (down to min_n), then max_edges, until the request
    enumerates at most cap hypergraphs, so the reference stays quick."""
    while True:
        try:
            require_within_cap(range(min_n, max_n + 1), max_edges, sizes, cap)
        except CapExceeded:
            if max_n > min_n:
                max_n -= 1
            else:
                max_edges -= 1
            continue
        return max_n, max_edges


@given(
    sizes=st.sampled_from(SIZE_SETS),
    max_n=st.integers(1, 6),
    max_edges=st.integers(0, 5),
)
@settings(max_examples=80, deadline=None)
def test_obs1_walk_equals_reference(sizes, max_n, max_edges):
    max_n, max_edges = _within_cap(1, max_n, max_edges, sizes, cap=60_000)
    walked = suites.connected_bound_suite(max_n, max_edges, set(sizes))
    assert walked.to_dict() == reference_suites.connected_bound_suite(max_n, max_edges, set(sizes)).to_dict()


@given(
    sizes=st.sampled_from(SIZE_SETS),
    min_n=st.integers(4, 6),
    extra_n=st.integers(0, 2),
    max_edges=st.integers(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_blocks_walk_equals_reference(sizes, min_n, extra_n, max_edges):
    max_n, max_edges = _within_cap(min_n, min(6, min_n + extra_n), max_edges, sizes, cap=3_000)
    walked = suites.small_cut_suite(min_n, max_n, max_edges, set(sizes))
    assert walked.to_dict() == reference_suites.small_cut_suite(min_n, max_n, max_edges, set(sizes)).to_dict()


@pytest.mark.parametrize("sizes", SIZE_SETS, ids=lambda s: "".join(map(str, sorted(s))))
def test_every_size_set_equals_reference(sizes):
    # Size 1 edges, and size 4 as the full vertex set at n = 4.
    assert (
        suites.connected_bound_suite(4, 3, set(sizes)).to_dict()
        == reference_suites.connected_bound_suite(4, 3, set(sizes)).to_dict()
    )
    assert (
        suites.small_cut_suite(4, 4, 3, set(sizes)).to_dict()
        == reference_suites.small_cut_suite(4, 4, 3, set(sizes)).to_dict()
    )


@pytest.mark.parametrize("max_edges", [1, 2, 3])
@pytest.mark.parametrize("sizes", SIZE_SETS, ids=lambda s: "".join(map(str, sorted(s))))
def test_obs1_in_place_level_equals_reference(sizes, max_edges):
    # The counts truncated at one, two and three edges, and the slack
    # walk's room for the rest: none left after the first edge at
    # max_edges 1, one or two after it at 2 and 3. Every n up to 6.
    for max_n in range(1, 7):
        assert (
            suites.connected_bound_suite(max_n, max_edges, set(sizes)).to_dict()
            == reference_suites.connected_bound_suite(max_n, max_edges, set(sizes)).to_dict()
        )


def test_obs1_counts_equal_connected_graph_numbers():
    # With 2-edges a row counts the connected labelled graphs by edge
    # count: row sums are OEIS A001187, and the trees, n - 1 edges, number
    # n^(n-2) by Cayley's formula.
    rows = suites._connected_spanning_counts(6, 15, {2})
    assert [sum(row) for row in rows[1:]] == [1, 1, 4, 38, 728, 26704]
    assert all(rows[n][n - 1] == n ** (n - 2) for n in range(2, 7))
    assert rows[4] == [0, 0, 0, 16, 15, 6, 1] + [0] * 9
    assert suites.connected_bound_suite(6, 15, {2}).checked == 27_476


@pytest.mark.parametrize("sizes", [{1, 2}, {2, 3}, {2, 4}, {3}], ids=lambda s: "".join(map(str, sorted(s))))
def test_slack_walk_meets_every_covering_set_below_the_bound(sizes, monkeypatch):
    # No counterexample exists, so the walk's pruning is otherwise
    # untested. With every edge set taken as connected, each one that
    # covers V with bound 1 + sum(|e| - 1) < n must come back, in order.
    monkeypatch.setattr(suites, "mask_components", lambda masks, active: [active])
    met = 0
    for n in range(1, 7):
        expected = [
            {"n": n, "edges": [list(e) for e in chosen], "bound": 1 + sum(len(e) - 1 for e in chosen)}
            for count in range(1, 5)
            for chosen in combinations(candidate_edges(n, sizes), count)
            if set().union(*chosen) == set(range(n)) and sum(len(e) - 1 for e in chosen) < n - 1
        ]
        assert suites._slack_walk(n, 4, sizes) == expected
        met += len(expected)
    assert met > 0


def test_blocks_counterexamples_in_reference_order(monkeypatch):
    def planted(h):
        witness = find_small_cut(h)  # HypothesisNotMet passes through
        if sum(v for e in h.edges for v in e) % 7 == 3:
            raise CounterexampleFound(f"planted on n={h.n} edges={h.edges}")
        return witness

    monkeypatch.setattr(suites, "find_small_cut", planted)
    monkeypatch.setattr(reference_suites, "find_small_cut", planted)
    walked = suites.small_cut_suite(4, 5, 3, {2, 3}).to_dict()
    expected = reference_suites.small_cut_suite(4, 5, 3, {2, 3}).to_dict()
    found = walked["counterexamples"]
    # Planted on several edge counts and both n, so depth-first order
    # differs from the enumeration order the report keeps.
    assert {(cx["n"], len(cx["edges"])) for cx in found} == {(n, k) for n in (4, 5) for k in (1, 2, 3)}
    assert walked == expected


def test_blocks_default_caps_equal_reference():
    assert suites.small_cut_suite().to_dict() == reference_suites.small_cut_suite().to_dict()


@pytest.mark.parametrize("max_n, max_edges", [(30, 1), (12, 2)])
def test_obs1_large_n_small_cap_equals_reference(max_n, max_edges):
    # No one or two edges of at most 4 vertices cover more than 4 or 8
    # vertices, so the suite neither counts nor walks any larger n.
    walked = suites.connected_bound_suite(max_n=max_n, max_edges=max_edges)
    assert walked.to_dict() == reference_suites.connected_bound_suite(max_n, max_edges).to_dict()


def test_default_cap_counts():
    obs1 = suites.connected_bound_suite()
    assert (obs1.checked, obs1.skipped, obs1.counterexamples) == (2_030_210, 0, [])
    blocks = suites.small_cut_suite()
    assert (blocks.checked, blocks.skipped, blocks.counterexamples) == (2372, 19_966, [])


@pytest.mark.parametrize(
    "call",
    [
        lambda: suites.connected_bound_suite(max_n=0),
        lambda: suites.connected_bound_suite(max_edges=-1),
        lambda: suites.small_cut_suite(min_n=3),
        lambda: suites.small_cut_suite(max_n=3),
        lambda: suites.small_cut_suite(max_edges=-1),
        lambda: suites.two_section_bound_suite(count=0),
        lambda: suites.two_section_bound_suite(max_n=6),
        lambda: suites.sparsity_oracle_suite(count=0),
        lambda: suites.sparsity_oracle_suite(max_n=4),
        lambda: suites.matching_oracle_suite(count_per_s=0),
        lambda: suites.matching_oracle_suite(max_n=3),
    ],
)
def test_suites_refuse_vacuous_requests(call):
    with pytest.raises(RequestRefused, match="must be at least"):
        call()


def test_edgebound_shortfall_is_cap_exceeded():
    # About half the draws at max_n = 7 pass the sparsity window.
    with pytest.raises(CapExceeded, match=r"only \d+ of 50 instances .* cap of 30 attempts"):
        suites.two_section_bound_suite(count=50, max_n=7, max_attempts=30)
    assert suites.two_section_bound_suite(count=5, max_n=7, max_attempts=30).checked == 5


@pytest.mark.parametrize("s", [3, 4])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_edge_bound_scan_equals_reference(s, data):
    h = data.draw(uniform_hypergraphs(s=s, max_n=10, max_edges=5))
    if h.n < s + 1 or not check_sparsity(h, 2 ** (s + 1) - 1, s).holds:
        with pytest.raises((ValueError, HypothesisNotMet)):
            edge_bound_check(h, s)
        return
    holds, evidence = edge_bound_check(h, s)
    worst, count = reference_suites.max_subset_edges(h, s)
    assert evidence == (worst, count)
    assert holds == (count <= math.comb(s, 2) + 2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda s: st.tuples(st.just(s), st.integers(s, 14))),
    st.integers(1, 400),
    st.integers(0, 2**64 - 1),
)
def test_random_instance_equals_list_indexed_reference(shape, count, seed):
    # count may exceed C(n, s): both then take every candidate edge.
    s, n = shape
    fast = suites._random_uniform_hypergraph(_uniforms(seed), n, s, count)
    slow = reference_suites.random_uniform_hypergraph(_uniforms(seed), n, s, count)
    assert fast == slow
    assert len(fast.edges) == min(count, math.comb(n, s))
    assert all(type(v) is int for e in fast.edges for v in e)


_RANDOM_SUITES = {
    "edgebound": lambda seed: suites.two_section_bound_suite(count=150, seed=seed),
    "sparsity-oracle": lambda seed: suites.sparsity_oracle_suite(count=150, seed=seed),
    "matching-oracle": lambda seed: suites.matching_oracle_suite(count_per_s=40, seed=seed),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("suite", sorted(_RANDOM_SUITES))
def test_random_suite_reports_unchanged(suite, seed, monkeypatch):
    run = _RANDOM_SUITES[suite]
    report = run(seed).to_dict()
    monkeypatch.setattr(suites, "_random_uniform_hypergraph", reference_suites.random_uniform_hypergraph)
    assert report == run(seed).to_dict()
    assert report["checked"] > 0


@pytest.mark.parametrize("seed", [2, 5, 9])
def test_matching_oracle_instances_equal_the_old_draw_loop(seed, monkeypatch):
    # Up to max_n = 12 every edge count the old loop drew was at most 17,
    # so it never threw an instance away: bounding the count draws the
    # same instances.
    seen = []

    def recording(h, *args, **kwargs):
        seen.append(h)
        return find_perfect_matching(h, *args, **kwargs)

    monkeypatch.setattr(suites, "find_perfect_matching", recording)
    report = suites.matching_oracle_suite(count_per_s=200, seed=seed, max_n=12)
    assert report.checked == 600
    assert seen == reference_suites.matching_oracle_instances(200, seed, 12)


def test_matching_oracle_flags_a_witness_of_non_edges(monkeypatch):
    # Swapping the lowest vertices of two witness edges keeps a disjoint
    # cover of V, by sets that need not be edges of the instance.
    def swapped(h, *args, **kwargs):
        found = find_perfect_matching(h, *args, **kwargs)
        if found is None or len(found.edges) < 2:
            return found
        (a, *rest_a), (b, *rest_b), *others = found.edges
        return Matching([(b, *rest_a), (a, *rest_b), *others])

    monkeypatch.setattr(suites, "find_perfect_matching", swapped)
    report = suites.matching_oracle_suite(count_per_s=50, seed=2)
    assert report.counterexamples
    assert {tuple(cx["problems"]) for cx in report.counterexamples} == {("witness uses non-edges",)}


def test_below_rejects_then_accepts():
    # For bound 3, 2**53 % 3 == 2, so an x whose product 3x has low part
    # 0 or 1 is redrawn: x = 0 is, and x = 2**52 gives 3 * 2**52 >> 53 == 1.
    draws = iter([0.0, 0.5])
    assert suites._below(draws, 3) == 1
    assert next(draws, None) is None


def test_below_bound_one_is_zero():
    for u in (0.0, 0.5, 1 - 2.0**-53):
        assert suites._below(iter([u]), 1) == 0


def test_below_concatenates_draws_past_53_bits():
    bound = 2**53 + 1  # 2**106 % bound == 1, so x = 0 is redrawn
    draws = iter([0.0, 0.0, 0.5, 0.0])
    assert suites._below(draws, bound) == 2**52  # x = 2**105
    assert next(draws, None) is None
    top = 1 - 2.0**-53  # x = 2**106 - 1
    assert suites._below(iter([top, top]), bound) == bound - 1
    assert suites._below(iter([top] * 3), 2**106 + 1) == 2**106


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**200), st.integers(0, 2**64 - 1))
def test_below_stays_in_range(bound, seed):
    assert 0 <= suites._below(_uniforms(seed), bound) < bound


@pytest.mark.parametrize("total, count", [(1, 1), (10, 3), (10, 10), (10, 25), (35, 34), (math.comb(100, 15), 6)])
def test_distinct_below_sizes(total, count):
    for seed in range(20):
        ranks = suites._distinct_below(_uniforms(seed), total, count)
        assert ranks == sorted(set(ranks))
        assert len(ranks) == min(count, total)
        assert 0 <= ranks[0] and ranks[-1] < total


def test_random_instance_past_53_bit_ranks():
    # C(100, 15) > 2**57: both the ranks and their draws go past one double.
    h = suites._random_uniform_hypergraph(_uniforms(3), 100, 15, 6)
    assert len(h.edges) == 6
    assert all(len(e) == 15 and list(e) == sorted(set(e)) and e[-1] < 100 for e in h.edges)


def test_distinct_below_is_uniform_over_subsets():
    # Every 3-subset of C(5, 2) = 10 ranks, 120 in all, at 25 expected
    # each over 3000 seeds. The seeds are fixed, so the statistic is
    # too; 172.4 is the 0.999 quantile of chi-square with 119 degrees.
    seeds = 3000
    counts = Counter(
        tuple(suites._distinct_below(_uniforms(derive_seed(4242, i)), math.comb(5, 2), 3)) for i in range(seeds)
    )
    assert set(counts) == set(combinations(range(10), 3))
    expected = seeds / 120
    statistic = sum((c - expected) ** 2 / expected for c in counts.values())
    assert statistic < 172.4
