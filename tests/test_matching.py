from __future__ import annotations

import dataclasses
import pickle
import time
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from critgraph import matching
from critgraph.certformat import write_certificate
from critgraph.certify import verify_construction
from critgraph.hypergraph import Hypergraph, Matching, complement, two_section
from critgraph.matching import (
    MATCHED,
    SKIPPED,
    TIMEOUT,
    UNMATCHABLE,
    SearchBudgetExceeded,
    all_deletions_matchable,
    find_matching_avoiding,
    find_perfect_matching,
    matching_to_coloring,
)
from critgraph.sampling import derive_params, derive_seed, sample_hypergraph
from critgraph.suites import _matching_exists_oracle

from conftest import is_proper_coloring, uniform_hypergraphs, valid_matching_for
from reference_matching import reference_matching_avoiding, reference_perfect_matching


def complete_uniform(n, s):
    return Hypergraph(n, combinations(range(n), s))


def test_matching_type_rejects_overlap():
    with pytest.raises(ValueError):
        Matching([(0, 1, 2), (2, 3, 4)])


def test_find_pm_complete_small():
    m = find_perfect_matching(complete_uniform(6, 3))
    assert m is not None
    assert m.is_perfect_for(frozenset(range(6)))


def test_find_pm_uncoverable_vertex():
    assert find_perfect_matching(Hypergraph(6, [(0, 1, 2), (2, 3, 4)])) is None


def test_find_pm_divisibility_short_circuit():
    # A zero budget raises at the first search node, so returning None
    # shows that no search ran.
    assert find_perfect_matching(complete_uniform(5, 3), budget=0) is None


def test_find_pm_rejects_non_uniform():
    with pytest.raises(ValueError):
        find_perfect_matching(Hypergraph(4, [(0, 1), (1, 2, 3)]))


def test_find_pm_empty_vertex_set():
    m = find_perfect_matching(Hypergraph(0, []))
    assert m is not None and m.edges == ()


@given(uniform_hypergraphs(s=3, max_n=12, max_edges=10))
@settings(max_examples=200, deadline=None)
def test_solver_equals_oracle_s3(h):
    got = find_perfect_matching(h)
    assert (got is not None) == _matching_exists_oracle(h, 3)
    if got is not None:
        assert valid_matching_for(h, got, set(range(h.n)))


@given(uniform_hypergraphs(s=2, max_n=10, max_edges=12))
@settings(max_examples=150, deadline=None)
def test_solver_equals_oracle_s2(h):
    got = find_perfect_matching(h)
    assert (got is not None) == _matching_exists_oracle(h, 2)


@given(uniform_hypergraphs(s=4, max_n=12, max_edges=8))
@settings(max_examples=150, deadline=None)
def test_solver_equals_oracle_s4(h):
    got = find_perfect_matching(h)
    assert (got is not None) == _matching_exists_oracle(h, 4)


@given(st.sampled_from([2, 3, 4]).flatmap(lambda s: uniform_hypergraphs(s=s, max_n=13, max_edges=16)))
@settings(max_examples=300, deadline=None)
def test_witnesses_equal_reference_search(h):
    # Same branching order as the reference, so the same witness, not just
    # the same verdict.
    assert find_perfect_matching(h, budget=None) == reference_perfect_matching(h, budget=None)
    for v in range(h.n):
        got = find_matching_avoiding(h, v, budget=None)
        assert got == reference_matching_avoiding(h, v, budget=None)


@given(
    st.sampled_from([2, 3, 4]).flatmap(lambda s: uniform_hypergraphs(s=s, max_n=12, max_edges=16)),
    st.one_of(st.integers(0, 2**16 - 1), st.just(2**16 - 1)),
)
@settings(max_examples=300, deadline=None)
def test_masked_search_equals_search_of_sub_hypergraph(h, edge_mask):
    # The sweep's probes search a level as an edge mask over the top
    # sample: the same nodes in the same index order as a search of the
    # level's own hypergraph, so the same witness, or None.
    sub = Hypergraph(h.n, [e for i, e in enumerate(h.edges) if edge_mask >> i & 1])
    got = find_perfect_matching(h, budget=None, edge_mask=edge_mask)
    assert got == find_perfect_matching(sub, budget=None)
    assert got == reference_perfect_matching(sub, budget=None)


def test_masked_search_skips_masked_out_witness():
    h = Hypergraph(6, combinations(range(6), 3))
    first = find_perfect_matching(h, budget=None)
    assert first.edges == ((0, 1, 2), (3, 4, 5))
    without = ((1 << len(h.edges)) - 1) ^ (1 << h.edges.index((0, 1, 2)))
    got = find_perfect_matching(h, budget=None, edge_mask=without)
    sub = Hypergraph(6, [e for e in h.edges if e != (0, 1, 2)])
    assert got == find_perfect_matching(sub, budget=None) == Matching([(0, 1, 3), (2, 4, 5)])
    assert find_perfect_matching(h, budget=None, edge_mask=0) is None


def test_dense_sample_witnesses_equal_reference_search():
    params = derive_params(1, 11)
    h = sample_hypergraph(params.n, params.s, params.q, derive_seed(41, 0))
    report = all_deletions_matchable(h, budget=None)
    assert h.n == 41 and report.all_matchable
    for v in range(h.n):
        assert report.per_vertex[v].matching == reference_matching_avoiding(h, v, budget=None)


def test_early_column_stop_keeps_reference_witness():
    # The root branches on vertex 1. Below its first edge (0, 1), vertex 2
    # has one live edge and vertex 5, scanned later, has none: the full
    # rule fails that node at once, the early stop branches on (2, 3)
    # first. Both then back up to (1, 5) and find the same cover.
    edges = [(0, 1), (0, 2), (0, 4), (0, 5), (1, 5), (2, 3), (3, 4)]
    h = Hypergraph(6, edges)
    live = h.disjoint_edges[h.edges.index((0, 1))]
    assert (h.incidence[2] & live).bit_count() == 1
    assert not h.incidence[5] & live
    got = find_perfect_matching(h, budget=None)
    assert got == reference_perfect_matching(h, budget=None)
    assert got.edges == ((0, 2), (1, 5), (3, 4))
    # The same search as the deletion of an extra vertex 6.
    h6 = Hypergraph(7, edges + [(0, 6), (5, 6)])
    assert find_matching_avoiding(h6, 6, budget=None) == got
    for v in range(h6.n):
        assert find_matching_avoiding(h6, v, budget=None) == reference_matching_avoiding(h6, v, budget=None)


def test_column_scan_passes_count_two_for_later_count_one():
    # At the root vertex 1 has two live edges and vertex 3 only (2, 3):
    # the rule branches on vertex 3. Stopping at vertex 1 would find
    # ((0, 5), (1, 4), (2, 3)) first.
    h = Hypergraph(6, [(0, 2), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3)])
    got = find_perfect_matching(h, budget=None)
    assert got == reference_perfect_matching(h, budget=None)
    assert got.edges == ((0, 4), (1, 5), (2, 3))


def test_n61_sample_witnesses_equal_reference_search():
    params = derive_params(1, 16)
    h = sample_hypergraph(params.n, params.s, params.q, derive_seed(1, 0))
    assert h.n == 61
    for v in range(5):
        got = find_matching_avoiding(h, v, budget=None)
        assert got is not None
        assert got == reference_matching_avoiding(h, v, budget=None)


def test_search_index_leaves_value_semantics_alone(tmp_path):
    params = derive_params(1, 3)
    h = sample_hypergraph(params.n, params.s, params.q, 11)
    cert = verify_construction(h, params, seed=11)
    assert {"incidence", "disjoint_edges", "_uniformity"} <= set(vars(h))
    fresh = Hypergraph(h.n, h.edges)
    assert h == fresh and hash(h) == hash(fresh)
    assert pickle.dumps(h) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(h)) == fresh
    write_certificate(cert, tmp_path / "indexed.json")
    write_certificate(dataclasses.replace(cert, hypergraph=fresh), tmp_path / "fresh.json")
    assert (tmp_path / "indexed.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_s2_agrees_with_classical_graph_matching():
    # Graph case anchor: verdict equals maximum-matching size reaching n/2.
    import networkx as nx

    agreements = 0
    for i in range(200):
        n = 4 + (i % 4) * 2  # 4, 6, 8, 10
        h = sample_hypergraph(n, 2, 0.25 + 0.05 * (i % 5), derive_seed(31337, i))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(h.edges)
        classical = 2 * len(nx.max_weight_matching(nxg, maxcardinality=True)) == n
        assert (find_perfect_matching(h) is not None) == classical
        agreements += 1
    assert agreements == 200


def test_all_deletions_on_complete_hypergraph():
    report = all_deletions_matchable(complete_uniform(7, 3))
    assert report.all_matchable
    assert set(report.per_vertex) == set(range(7))
    for v, outcome in report.per_vertex.items():
        assert outcome.status == MATCHED
        assert valid_matching_for(complete_uniform(7, 3), outcome.matching, set(range(7)) - {v})


def test_all_deletions_isolated_vertex_fails():
    # Vertex 6 is isolated: any other deletion cannot cover it.
    h = Hypergraph(7, [(0, 1, 2), (3, 4, 5), (0, 3, 5), (1, 2, 4)])
    report = all_deletions_matchable(h)
    assert not report.all_matchable
    assert report.per_vertex[0].status == UNMATCHABLE
    assert report.per_vertex[6].status == MATCHED


def test_all_deletions_rejects_bad_modulus():
    with pytest.raises(ValueError):
        all_deletions_matchable(complete_uniform(6, 3))


def test_all_deletions_stop_early_marks_skipped():
    h = Hypergraph(7, [(0, 1, 2), (3, 4, 5)])
    report = all_deletions_matchable(h, stop_early=True)
    assert not report.all_matchable
    statuses = [report.per_vertex[v].status for v in range(7)]
    assert statuses[0] == UNMATCHABLE
    assert set(statuses[1:]) == {SKIPPED}


def test_all_deletions_edgeless_requires_explicit_s():
    h = Hypergraph(7, [])
    with pytest.raises(ValueError):
        all_deletions_matchable(h)
    report = all_deletions_matchable(h, s=3)
    assert not report.all_matchable


@given(uniform_hypergraphs(s=3, max_n=10, max_edges=9))
@settings(max_examples=60, deadline=None)
def test_per_vertex_verdicts_match_oracle(h):
    if h.n % 3 != 1:
        h = Hypergraph(h.n + (1 - h.n % 3) % 3, h.edges)
    report = all_deletions_matchable(h, s=3)
    for v in range(h.n):
        kept = Hypergraph(
            h.n, [e for e in h.edges if v not in e]
        )
        # Oracle over the surviving edges, cover target V - v.
        expect = _deleted_oracle(kept, v, 3)
        assert (report.per_vertex[v].status == MATCHED) == expect


def _deleted_oracle(h: Hypergraph, removed: int, s: int) -> bool:
    want, rem = divmod(h.n - 1, s)
    if rem != 0:
        return False
    target = ((1 << h.n) - 1) & ~(1 << removed)
    for idx in combinations(range(len(h.edges)), want):
        union = 0
        ok = True
        for i in idx:
            m = h.edge_masks[i]
            if union & m:
                ok = False
                break
            union |= m
        if ok and union == target:
            return True
    return False


def test_budget_exhaustion_is_distinct():
    # A zero-node budget trips at the first search node.
    h = complete_uniform(12, 3)
    with pytest.raises(SearchBudgetExceeded):
        find_perfect_matching(h, budget=0)
    # Every deletion gets its own budget, so each one times out rather
    # than only the first.
    report = all_deletions_matchable(complete_uniform(13, 3), budget=0, stop_early=False)
    assert not report.all_matchable
    assert {o.status for o in report.per_vertex.values()} == {TIMEOUT}


def test_budget_counts_search_nodes_and_reads_no_clock(monkeypatch):
    # Each deletion of the complete 3-graph on 13 vertices is covered by
    # its first choice at each of 4 nodes: 4 nodes suffice and 3 do not.
    h = complete_uniform(13, 3)
    assert all_deletions_matchable(h, budget=4).all_matchable
    expected = all_deletions_matchable(h, budget=3, stop_early=False)
    assert {o.status for o in expected.per_vertex.values()} == {TIMEOUT}

    def no_clock():
        raise AssertionError("the matching search read a clock")

    assert "time" not in vars(matching)
    monkeypatch.setattr(time, "monotonic", no_clock)
    monkeypatch.setattr(time, "perf_counter", no_clock)
    assert all_deletions_matchable(h, budget=3, stop_early=False) == expected


def test_matching_to_coloring_examples():
    m = Matching([(0, 1, 2), (3, 4, 5)])
    coloring = matching_to_coloring(m, removed=6, n=7)
    assert coloring == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    assert len(set(coloring.values())) == (7 - 1) // 3

    single = Matching([(0, 1, 2, 3)])
    assert set(matching_to_coloring(single, removed=4, n=5).values()) == {0}

    with pytest.raises(ValueError):
        matching_to_coloring(m, removed=0, n=7)


def test_coloring_proper_on_pipeline_complement():
    # On a real sampled instance, the derived coloring is proper for the
    # complement construction minus the removed vertex (edge-scan recheck).
    h = sample_hypergraph(10, 3, 0.5, 5)
    g = complement(two_section(h))
    report = all_deletions_matchable(h)
    for v, outcome in report.per_vertex.items():
        if outcome.status != MATCHED:
            continue
        coloring = matching_to_coloring(outcome.matching, v, h.n)
        assert is_proper_coloring(g, coloring, skip={v})
