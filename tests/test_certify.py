from __future__ import annotations

import copy
import random
from dataclasses import replace
from itertools import combinations, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference_certify
from critgraph.certformat import certificate_from_dict, certificate_to_dict
from critgraph.certify import (
    Certificate,
    Conclusions,
    SubsetEdgeCount,
    _conclusions,
    check_certificate,
    min_subset_edges,
    verify_construction,
)
from critgraph.hypergraph import Graph, Hypergraph, complement, two_section
from critgraph.matching import CORRUPT, MATCHED, MatchabilityReport, VertexOutcome
from critgraph.sampling import derive_params, derive_seed, sample_hypergraph
from critgraph.sparsity import SparsityVerdict, Violator, check_sparsity

from chromatic import cross_check_with_oracles, exact_chromatic, exact_independence
from conftest import is_proper_coloring, matching_to_coloring
from graph_ops import delete_edges


def complete_graph(n):
    return Graph(n, combinations(range(n), 2))


def test_min_subset_edges_examples():
    assert min_subset_edges(complete_graph(5), 5) == (10, (0, 1, 2, 3, 4))
    assert min_subset_edges(Graph(6, []), 5) == (0, (0, 1, 2, 3, 4))
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert min_subset_edges(c5, 5) == (5, (0, 1, 2, 3, 4))


def test_min_subset_edges_brute_force_agreement():
    import random

    rng = random.Random(7)
    for trial in range(30):
        n = rng.randrange(5, 10)
        pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, pairs)
        t = rng.randrange(2, 5)
        count, witness = min_subset_edges(g, t)
        best = min(
            (sum(1 for a, b in g.edges if a in set(x) and b in set(x)), x)
            for x in combinations(range(n), t)
        )
        assert count == best[0]
        assert witness == best[1]


def test_min_subset_edges_early_exit_upper_bound():
    g = Graph(6, [(0, 1)])
    count, witness = min_subset_edges(g, 3, early_exit_at=0)
    assert count == 0
    inside = set(witness)
    assert sum(1 for a, b in g.edges if a in inside and b in inside) == count


def test_min_subset_edges_rejects_oversize():
    with pytest.raises(ValueError):
        min_subset_edges(Graph(3, []), 4)


def test_min_subset_edges_rejects_a_negative_size():
    with pytest.raises(ValueError, match="^subset size must be nonnegative$"):
        min_subset_edges(Graph(3, []), -1)


def _tiny_params():
    # r=1, k=2: five vertices, q clamps to 1, the sample is the complete
    # 4-uniform hypergraph.
    return derive_params(1, 2)


def test_verify_construction_tiny_instance():
    params = _tiny_params()
    h = sample_hypergraph(params.n, params.s, params.q, 7)
    cert = verify_construction(h, params, seed=7)
    assert cert.graph == complement(two_section(h))
    assert cert.matchability is not None and cert.matchability.all_matchable
    assert cert.sparsity is not None and not cert.sparsity.holds
    assert cert.min_subset_edges is not None and cert.min_subset_edges.count == 0
    assert cert.conclusions == Conclusions(chi=None, vertex_critical=False, robust_to_r=False)
    ok, reasons = check_certificate(cert)
    assert ok, reasons


def test_verify_construction_stop_early_skips_stages():
    params = _tiny_params()
    h = sample_hypergraph(params.n, params.s, params.q, 7)
    cert = verify_construction(h, params, seed=7, stop_early=True)
    assert cert.sparsity is not None and not cert.sparsity.holds
    assert cert.matchability is None
    assert cert.min_subset_edges is None
    assert not cert.conclusions.robust_to_r
    ok, reasons = check_certificate(cert)
    assert ok, reasons


def test_verify_construction_records_failing_vertex():
    # Sparse enough to pass the window, but vertex 0 appears in the only
    # edge, so deleting any co-member leaves it uncoverable.
    params = _tiny_params()
    h = Hypergraph(5, [(0, 1, 2, 3)])
    cert = verify_construction(h, params, seed=1, stop_early=True)
    assert cert.sparsity is not None and cert.sparsity.holds
    assert cert.matchability is not None and not cert.matchability.all_matchable
    assert cert.matchability.first_failure() == 0
    assert cert.min_subset_edges is None
    assert not cert.conclusions.robust_to_r
    ok, reasons = check_certificate(cert)
    assert ok, reasons


def test_check_certificate_reports_inconsistent_params():
    # The decoder refuses such params, so only an in-memory certificate
    # reaches this check; frozen params are altered past their own check.
    cert = verify_construction(sample_hypergraph(5, 4, 1.0, 1), _tiny_params(), seed=1)
    assert check_certificate(cert) == (True, [])
    params = copy.copy(cert.params)
    object.__setattr__(params, "q", 0.5)
    ok, reasons = check_certificate(replace(cert, params=params))
    assert not ok
    assert "params inconsistent: inconsistent derived fields: q" in reasons


def test_verify_construction_dimension_mismatch():
    params = _tiny_params()
    with pytest.raises(ValueError):
        verify_construction(Hypergraph(4, [(0, 1, 2, 3)]), params)
    with pytest.raises(ValueError):
        verify_construction(Hypergraph(5, [(0, 1, 2)]), params)


def _stage_records(params):
    """Every combination of stage records: sparsity and matchability each
    absent, failing or passing; the subset minimum absent, or inexact or
    exact with each count from 0 to r + 2."""
    sparsities = [None, *(SparsityVerdict(holds, None, params.m, params.s) for holds in (False, True))]
    matchings = [None, *(MatchabilityReport({}, ok) for ok in (False, True))]
    subsets = [None] + [
        SubsetEdgeCount(count, tuple(range(params.s + 1)), exact)
        for exact in (False, True)
        for count in range(params.r + 3)
    ]
    return product(sparsities, matchings, subsets)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_stage_ladder_is_one_rule(r):
    # robust_to_r, which check_certificate re-derives, is exactly the
    # third rung of the ladder that ranks attempts.
    params = derive_params(r, 6)
    for sparsity, matchability, subset in _stage_records(params):
        conclusions = _conclusions(params, matchability, sparsity, subset)
        cert = Certificate(
            params, Hypergraph(params.n, []), Graph(params.n, []), matchability, sparsity, subset, conclusions, 0
        )
        assert conclusions.robust_to_r == (cert.stages_passed() == 3)


def test_inexact_minimum_is_not_robust():
    # A minimum that stopped early is only an upper bound, so a count of
    # r + 1 or more proves nothing; the subset stage fails.
    params = derive_params(1, 6)
    matched = MatchabilityReport({}, True)
    sparse = SparsityVerdict(True, None, params.m, params.s)
    subset = SubsetEdgeCount(2, (0, 1, 2, 3, 4), exact=False)
    conclusions = _conclusions(params, matched, sparse, subset)
    assert conclusions == Conclusions(chi=None, vertex_critical=False, robust_to_r=False)
    cert = Certificate(params, Hypergraph(params.n, []), Graph(params.n, []), matched, sparse, subset, conclusions, 0)
    assert cert.stages_passed() == 2
    exact = replace(subset, exact=True)
    assert _conclusions(params, matched, sparse, exact) == Conclusions(chi=6, vertex_critical=True, robust_to_r=True)


def _certified_fixture():
    """Tamper target: the complete 4-uniform hypergraph on 5 vertices.
    Matchability passes with real witnesses, sparsity fails with a real
    violator, and the subset scan runs exactly, so every record type is
    populated and internally consistent."""
    params = derive_params(1, 2)
    h = sample_hypergraph(params.n, params.s, 1.0, 3)
    return verify_construction(h, params, seed=3)


def test_check_certificate_catches_tampered_count():
    cert = _certified_fixture()
    tampered = replace(
        cert,
        min_subset_edges=SubsetEdgeCount(
            count=cert.min_subset_edges.count + 3,
            witness=cert.min_subset_edges.witness,
            exact=True,
        ),
    )
    ok, reasons = check_certificate(tampered)
    assert not ok
    assert any("witness induces" in r for r in reasons)


def test_check_certificate_catches_conclusion_mismatch():
    cert = _certified_fixture()
    lying = replace(cert, conclusions=Conclusions(chi=2, vertex_critical=True, robust_to_r=True))
    ok, reasons = check_certificate(lying)
    assert not ok
    assert any("conclusion mismatch" in r for r in reasons)


def test_check_certificate_catches_tampered_matching():
    cert = _certified_fixture()
    report = cert.matchability
    v0 = 0
    good = report.per_vertex[v0]
    # Swap in a cover of the wrong vertex set (misses the removed vertex's
    # complement): reuse the witness for vertex 1.
    wrong = report.per_vertex[1].matching
    bad_report = replace(
        report, per_vertex={**report.per_vertex, v0: VertexOutcome(MATCHED, wrong)}
    )
    tampered = replace(cert, matchability=bad_report)
    ok, reasons = check_certificate(tampered)
    assert not ok
    assert any("not disjoint/covering" in r for r in reasons)
    assert good.matching != wrong


# The witness check accepts a matched witness as hyperedges of H covering
# exactly V - v. The check that re-colored G - v from it and walked every
# edge of G is the oracle: on certificates with consistent params the two
# must give the same (ok, reasons) however the witnesses are tampered with.


@st.composite
def all_matched_documents(draw):
    """The document of a certificate whose every deletion is matched: H
    holds, for each vertex v, a random partition of V - v into s-sets."""
    params = derive_params(*draw(st.sampled_from([(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = set()
    for v in range(params.n):
        rest = [u for u in range(params.n) if u != v]
        rng.shuffle(rest)
        edges.update(tuple(sorted(rest[i : i + params.s])) for i in range(0, params.n - 1, params.s))
    cert = verify_construction(Hypergraph(params.n, edges), params, seed=0)
    assert cert.matchability.all_matchable
    return certificate_to_dict(cert)


WITNESS_MUTATIONS = (
    "non-edge", "drop vertex", "add vertex", "drop edge", "exchange",
    "status", "all_matchable", "remove entry", "overlap",
)


def _mutate_witnesses(doc: dict, kind: str, rng: random.Random) -> None:
    report = doc["matchability"]
    entries = report["per_vertex"]
    if kind == "all_matchable":
        report["all_matchable"] = not report["all_matchable"]
        return
    witnessed = [e for e in entries if e["matching"]]
    if not witnessed:
        return
    entry = rng.choice(witnessed)
    v, witness = entry["vertex"], entry["matching"]
    row = rng.choice(witness)
    if kind == "non-edge":  # an s-set holding the deleted vertex
        row[rng.randrange(len(row))] = v
        row.sort()
    elif kind == "drop vertex":
        row.remove(rng.choice(row))
    elif kind == "add vertex":
        row.append(rng.randrange(doc["params"]["n"]))
        row.sort()
    elif kind == "drop edge":
        witness.remove(row)
    elif kind == "exchange":
        other = rng.choice(entries)
        entry["matching"], other["matching"] = other["matching"], witness
    elif kind == "status":
        entry["status"] = rng.choice(["unmatchable", "timeout", "skipped", "corrupt"])
        if rng.random() < 0.5:
            entry["matching"] = None
    elif kind == "remove entry":
        entries.remove(entry)
    elif kind == "overlap":  # two rows sharing a vertex
        witness.append(list(row))


@settings(max_examples=150, deadline=None)
@given(all_matched_documents(), st.lists(st.sampled_from(WITNESS_MUTATIONS), max_size=3), st.randoms())
def test_witness_check_equals_the_recoloring_check(doc, kinds, rng):
    for kind in kinds:
        _mutate_witnesses(doc, kind, rng)
    cert = certificate_from_dict(doc)
    if kinds == ["overlap"]:
        assert CORRUPT in {o.status for o in cert.matchability.per_vertex.values()}
    assert check_certificate(cert) == reference_certify.check_certificate(cert)
    if not kinds:
        assert check_certificate(cert) == (True, [])


def test_check_certificate_catches_wrong_graph():
    cert = _certified_fixture()
    tampered = replace(cert, graph=complete_graph(cert.graph.n))
    ok, reasons = check_certificate(tampered)
    assert not ok
    assert any("2-section" in r for r in reasons)


@pytest.mark.parametrize(
    "edges, reasons",
    [
        # 4-uniform, but on far more vertices than params.n.
        ([(0, 1, 2, 3)], ["hypergraph has 16000 vertices, params say 5"]),
        ([tuple(range(16_000))],
         ["hypergraph has 16000 vertices, params say 5", "hypergraph is not 4-uniform"]),
    ],
)
def test_check_certificate_reports_wrong_shape_before_rebuilding_the_graph(edges, reasons, monkeypatch):
    # Rebuilding the 2-section's complement on 16,000 vertices would take
    # 32 MB of masks; the shape reasons come back without it.
    import critgraph.certify as certify

    def no_rebuild(*_):
        raise AssertionError("graph rebuilt for a hypergraph of the wrong shape")

    wrong = replace(_certified_fixture(), hypergraph=Hypergraph(16_000, edges))
    monkeypatch.setattr(certify, "two_section", no_rebuild)
    monkeypatch.setattr(certify, "complement", no_rebuild)
    assert check_certificate(wrong) == (False, reasons)


def test_check_certificate_catches_false_sparsity_claim():
    cert = _certified_fixture()
    lying_sparsity = replace(cert.sparsity, holds=True, violator=None)
    tampered = replace(cert, sparsity=lying_sparsity)
    ok, reasons = check_certificate(tampered)
    assert not ok
    assert any("violator exists" in r for r in reasons)


def test_check_certificate_catches_split_violator():
    # Edges 0-1 violate (5 vertices, s = 4) and edges 2-3 meet only each
    # other (excess 0). All four violate, and no single edge can be
    # dropped to show they are not inclusion-minimal.
    params = derive_params(1, 4)
    h = Hypergraph(params.n, [(0, 1, 2, 3), (0, 1, 2, 4), (5, 6, 7, 8), (5, 6, 9, 10)])
    cert = verify_construction(h, params)
    assert cert.sparsity.violator == Violator((0, 1), 5)
    split = replace(cert.sparsity, violator=Violator((0, 1, 2, 3), 11))
    assert check_certificate(replace(cert, sparsity=split)) == (
        False,
        ["violator is not inclusion-minimal"],
    )


def test_edge_floor_on_sparse_instances():
    # Any hypergraph passing the full window keeps the complement
    # construction's minimum (s+1)-subset edge count at s - 2 or more.
    params = derive_params(1, 2)
    found = 0
    for seed in range(200):
        h = sample_hypergraph(params.n, params.s, 0.12, derive_seed(17, seed))
        if not check_sparsity(h, params.m, params.s).holds:
            continue
        found += 1
        g = complement(two_section(h))
        count, _ = min_subset_edges(g, params.s + 1)
        assert count >= params.s - 2
    assert found > 50


def test_edge_floor_on_sparse_uniformity_three():
    # Same floor with s=3 instances that keep several edges, so the
    # subset scan sees non-trivial structure.
    s, m = 3, 16
    found = 0
    for seed in range(300):
        h = sample_hypergraph(10, s, 0.03, derive_seed(23, seed))
        if len(h.edges) < 2 or not check_sparsity(h, m, s).holds:
            continue
        found += 1
        g = complement(two_section(h))
        count, _ = min_subset_edges(g, s + 1)
        assert count >= s - 2
    assert found > 20


def test_soundness_chain_on_synthetic_robust_instance():
    # A hand-built uniformity-2 instance where every check passes: the
    # 7-cycle as a 2-uniform hypergraph. Every vertex deletion leaves a
    # path with a perfect matching on 6 vertices, the cycle is locally
    # sparse in the pair sense, and the complement has no 3 mutually
    # non-adjacent vertices... alpha(C7 complement) = 2 < 3 means every
    # 3-subset of the complement spans an edge.
    h = Hypergraph(7, [(i, (i + 1) % 7) for i in range(7)])
    g = complement(two_section(h))
    verdict = check_sparsity(h, 8, 2)
    assert verdict.holds  # pairs of cycle edges span >= 2 = (s-1)*2
    from critgraph.matching import all_deletions_matchable

    report = all_deletions_matchable(h)
    assert report.all_matchable
    count, _ = min_subset_edges(g, 3)
    assert count >= 1
    # Colorings derived from the witnesses are proper 3-colorings of g - v.
    for v, outcome in report.per_vertex.items():
        coloring = matching_to_coloring(outcome.matching, v, 7)
        assert is_proper_coloring(g, coloring, skip={v})
        assert len(set(coloring.values())) == 3
    assert exact_chromatic(g) == 4  # complement of C7: chi = ceil(7/2)
    assert exact_independence(g) == 2


def test_sixty_edge_hypertree_certificate_checks():
    # A passing sparsity verdict is universal, so check_certificate runs
    # the search again. Fifteen edges hang on each vertex of edge 0, so
    # more than 2^57 edge sets of at most m = 32 edges are connected; the
    # incidence-core peel removes every edge before the search starts.
    params = derive_params(1, 47)  # s = 4, n = 185: four vertices stay isolated
    s = params.s
    edges = [tuple(range(s))]
    for i in range(1, 60):
        covered = s + (i - 1) * (s - 1)
        edges.append((i % s, *range(covered, covered + s - 1)))
    h = Hypergraph(params.n, edges)
    cert = verify_construction(h, params, stop_early=True)
    assert cert.sparsity.holds
    assert check_certificate(cert) == (True, [])


def test_cross_check_oracles_on_uncertified():
    cert = _certified_fixture()
    results = cross_check_with_oracles(cert)
    assert results == {}  # nothing certified, nothing to confirm


def test_spot_check_random_deletions_keep_alpha_small():
    # When the minimum (s+1)-subset edge count is at least r+1, deleting
    # any r edges keeps independence at most s (spot check on random R).
    import random

    s = 4
    h = Hypergraph(5, [(0, 1, 2, 3)])
    g = complement(two_section(h))
    count, _ = min_subset_edges(g, s + 1)
    assert count == 4  # the only 5-subset carries all complement edges
    r = 2
    assert count >= r + 1
    rng = random.Random(5)
    for _ in range(50):
        removed = rng.sample(g.edges, r)
        shrunk = delete_edges(g, removed)
        assert exact_independence(shrunk) <= s
