"""`certify.check_certificate` and its matchability check as they were
while every matched witness was re-colored and G was walked edge by edge,
kept verbatim as the oracle for the witness check that replaced them:
on every certificate with consistent params both must return the same
(ok, reasons). The sparsity, subset and conclusion checks are the live
ones, which did not change."""

from __future__ import annotations

from critgraph.certify import (
    Certificate,
    _check_conclusions,
    _check_sparsity_record,
    _check_subset_record,
)
from critgraph.hypergraph import Graph, complement, two_section
from critgraph.matching import CORRUPT, MATCHED
from critgraph.sampling import ConstructionParams

from conftest import matching_to_coloring


def check_certificate(cert: Certificate) -> tuple[bool, list[str]]:
    """Re-derive a certificate's conclusions from its stored witnesses.

    Everything is recomputed except the matching searches: the graph is
    rebuilt from the hypergraph, matching witnesses and their colorings are
    re-validated edge by edge, violators are re-validated including
    inclusion-minimality, the subset witness is recounted, and the claims
    no witness can carry are re-checked in full: a positive sparsity
    verdict, and an exact subset minimum above 0, by the subset scan.
    Returns (ok, reasons); honest failed-search certificates check out as
    ok. A hypergraph with the wrong vertex count or uniformity is reported
    before any graph is rebuilt, without the checks that follow.
    """
    reasons: list[str] = []
    params = cert.params
    h = cert.hypergraph

    try:
        ConstructionParams(**vars(params))
    except (ValueError, TypeError) as err:
        reasons.append(f"params inconsistent: {err}")

    shape = []
    if h.n != params.n:
        shape.append(f"hypergraph has {h.n} vertices, params say {params.n}")
    if not h.is_uniform(params.s):
        shape.append(f"hypergraph is not {params.s}-uniform")
    if shape:
        # The checks below are about a hypergraph of the stated shape, and
        # the graph of another one may need memory quadratic in its h.n.
        return (False, reasons + shape)

    expected_graph = complement(two_section(h))
    if cert.graph != expected_graph:
        reasons.append("graph is not the complement of the hypergraph 2-section")

    if cert.matchability is not None:
        reasons.extend(_check_matchability(cert, expected_graph))
    if cert.sparsity is not None:
        reasons.extend(_check_sparsity_record(cert))
    if cert.min_subset_edges is not None:
        reasons.extend(_check_subset_record(cert, expected_graph))

    reasons.extend(_check_conclusions(cert))
    return (not reasons, reasons)


def _check_matchability(cert: Certificate, graph: Graph) -> list[str]:
    reasons = []
    h = cert.hypergraph
    report = cert.matchability
    assert report is not None
    edge_set = set(h.edges)
    k = cert.params.k
    valid_matches = 0
    for v in report.per_vertex:
        if not 0 <= v < h.n:
            reasons.append(f"matchability report has vertex {v} outside [0, {h.n})")
    for v in range(h.n):
        outcome = report.per_vertex.get(v)
        if outcome is None:
            reasons.append(f"vertex {v} missing from matchability report")
            continue
        if outcome.status == CORRUPT:
            reasons.append(f"matching for vertex {v} is not a valid disjoint cover")
            continue
        if outcome.status != MATCHED:
            if outcome.matching is not None:
                reasons.append(f"vertex {v} marked {outcome.status} but carries a matching")
            continue
        m = outcome.matching
        if m is None:
            reasons.append(f"vertex {v} marked matched without a witness")
            continue
        if any(e not in edge_set for e in m.edges):
            reasons.append(f"matching for vertex {v} uses non-hyperedges")
            continue
        if m.covered != frozenset(range(h.n)) - {v}:
            reasons.append(f"matching for vertex {v} is not disjoint/covering")
            continue
        coloring = matching_to_coloring(m, v, h.n)
        ok = True
        if len(set(coloring.values())) != k - 1:
            reasons.append(f"coloring for vertex {v} does not use exactly {k - 1} colors")
            ok = False
        for a, b in graph.edges:
            if a != v and b != v and coloring[a] == coloring[b]:
                reasons.append(f"coloring for vertex {v} is improper on edge ({a}, {b})")
                ok = False
                break
        if ok:
            valid_matches += 1
    fully_matched = valid_matches == h.n and len(report.per_vertex) == h.n
    if report.all_matchable and not fully_matched:
        reasons.append("all_matchable claimed but per-vertex outcomes disagree")
    if not report.all_matchable and fully_matched:
        reasons.append("all_matchable denied but every vertex matched")
    return reasons
