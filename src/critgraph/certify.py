"""Assemble and re-check certificates for one sampled hypergraph.

A certificate records the sampled hypergraph, the target graph (complement
of the 2-section), the matchability witnesses, the sparsity verdict, and
the minimum edge count over (s+1)-vertex subsets. Its stages, in pipeline
order, are one ladder (`stage_results`):

  stage 1  the sparsity condition holds;
  stage 2  every vertex deletion has a matching witness;
  stage 3  the (s+1)-subset minimum is exact and at least r + 1.

Conclusions follow by pure arithmetic:

  chromatic number = k   when every deletion has a matching witness (upper
                         bound: each witness is a (k-1)-coloring of G - v,
                         plus one color) and the exact (s+1)-subset minimum
                         is at least 1 (lower bound: independence <= s on
                         n = s(k-1)+1 vertices forces >= k colors);
  vertex-critical        under the same two facts;
  robust to r deletions  when all three stages pass, so after any r
                         deletions every (s+1)-subset still spans an edge.

check_certificate re-derives everything from the stored witnesses without
re-running the matching search. A deletion witness is checked as
hyperedges of H that partition V - v, which makes it a coloring of G - v:
two vertices of one hyperedge are adjacent in the 2-section, so not in G.
The universal claims no witness can carry are re-checked in full: a
positive sparsity verdict, and an exact nonzero (s+1)-subset minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Graph, Hypergraph, complement, two_section
from .matching import (
    CORRUPT,
    MATCHED,
    MATCHING_BUDGET,
    MatchabilityReport,
    all_deletions_matchable,
)
from .sampling import ConstructionParams
from .sparsity import SparsityVerdict, check_sparsity, union_size, violator_problems

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class SubsetEdgeCount:
    count: int
    witness: tuple[int, ...]
    exact: bool  # False when the scan stopped early at a disqualifying subset


@dataclass(frozen=True)
class Conclusions:
    chi: int | None
    vertex_critical: bool
    robust_to_r: bool


@dataclass(frozen=True)
class Certificate:
    params: ConstructionParams
    hypergraph: Hypergraph
    graph: Graph
    matchability: MatchabilityReport | None
    sparsity: SparsityVerdict | None
    min_subset_edges: SubsetEdgeCount | None
    conclusions: Conclusions
    seed: int
    tool_version: str = TOOL_VERSION

    def stage_results(self) -> tuple[bool, bool, bool]:
        return stage_results(self.params, self.matchability, self.sparsity, self.min_subset_edges)

    def stages_passed(self) -> int:
        """How many stages passed before the first that did not, in
        pipeline order; used to rank failed attempts. 3 is robust."""
        results = self.stage_results()
        return results.index(False) if False in results else len(results)


def stage_results(
    params: ConstructionParams,
    matchability: MatchabilityReport | None,
    sparsity: SparsityVerdict | None,
    subset: SubsetEdgeCount | None,
) -> tuple[bool, bool, bool]:
    """Whether each of the three stages passed, judged on its own record;
    an absent record fails its stage."""
    return (
        sparsity is not None and sparsity.holds,
        matchability is not None and matchability.all_matchable,
        subset is not None and subset.exact and subset.count >= params.r + 1,
    )


def min_subset_edges(
    g: Graph, t: int, early_exit_at: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Minimum number of edges induced by any t-vertex subset, with the
    lexicographically smallest witness attaining it.

    Subsets are scanned in lexicographic order with incremental edge
    counts; a branch whose partial count already reaches the best seen is
    pruned, since adding vertices never removes edges. With early_exit_at,
    the scan aborts at the first subset of count <= early_exit_at and
    returns it (an upper-bound witness, sufficient for rejection).
    """
    if t > g.n:
        raise ValueError(f"subset size {t} exceeds vertex count {g.n}")
    if t < 0:
        raise ValueError("subset size must be nonnegative")
    masks = g.adjacency_masks
    best_count = t * t + 1  # more than any t-subset can induce
    best_witness: tuple[int, ...] = ()

    def scan(next_vertex: int, chosen: list[int], chosen_mask: int, count: int) -> bool:
        nonlocal best_count, best_witness
        if count >= best_count:
            return False
        if len(chosen) == t:
            best_count = count
            best_witness = tuple(chosen)
            return early_exit_at is not None and count <= early_exit_at
        # Leave room for the remaining picks.
        for v in range(next_vertex, g.n - (t - len(chosen)) + 1):
            added = (masks[v] & chosen_mask).bit_count()
            chosen.append(v)
            if scan(v + 1, chosen, chosen_mask | 1 << v, count + added):
                chosen.pop()
                return True
            chosen.pop()
        return False

    scan(0, [], 0, 0)
    return best_count, best_witness


def _conclusions(
    params: ConstructionParams,
    matchability: MatchabilityReport | None,
    sparsity: SparsityVerdict | None,
    subset: SubsetEdgeCount | None,
) -> Conclusions:
    stages = stage_results(params, matchability, sparsity, subset)
    chi_certified = stages[1] and subset is not None and subset.exact and subset.count >= 1
    return Conclusions(
        chi=params.k if chi_certified else None,
        vertex_critical=chi_certified,
        robust_to_r=all(stages),
    )


def verify_construction(
    h: Hypergraph,
    params: ConstructionParams,
    seed: int = 0,
    matching_budget: int | None = MATCHING_BUDGET,
    stop_early: bool = False,
) -> Certificate:
    """Run the verification pipeline on a sampled hypergraph and assemble
    the certificate. With stop_early, stages after the first failing one
    are skipped (recorded as absent), which is how the restart loop rejects
    bad samples cheaply: sparsity first (instant on over-dense samples),
    then matchability, then the subset scan with early exit.
    """
    if h.n != params.n:
        raise ValueError(f"hypergraph has {h.n} vertices, params expect {params.n}")
    if not h.is_uniform(params.s):
        raise ValueError(f"hypergraph is not {params.s}-uniform")

    graph = complement(two_section(h))

    sparsity = check_sparsity(h, params.m, params.s)
    matchability: MatchabilityReport | None = None
    subset: SubsetEdgeCount | None = None

    if sparsity.holds or not stop_early:
        matchability = all_deletions_matchable(
            h, budget=matching_budget, stop_early=stop_early, s=params.s
        )
    if matchability is not None and (matchability.all_matchable or not stop_early):
        exit_at = params.r if stop_early else None
        count, witness = min_subset_edges(graph, params.s + 1, early_exit_at=exit_at)
        exact = exit_at is None or count > exit_at
        subset = SubsetEdgeCount(count=count, witness=witness, exact=exact)

    return Certificate(
        params=params,
        hypergraph=h,
        graph=graph,
        matchability=matchability,
        sparsity=sparsity,
        min_subset_edges=subset,
        conclusions=_conclusions(params, matchability, sparsity, subset),
        seed=seed,
    )


def check_certificate(cert: Certificate) -> tuple[bool, list[str]]:
    """Re-derive a certificate's conclusions from its stored witnesses.

    Everything is recomputed except the matching searches: the graph is
    rebuilt from the hypergraph, each matching witness is checked as
    hyperedges that partition V - v (so a coloring of G - v, since no edge
    of G joins two vertices of one hyperedge), violators are re-validated
    including inclusion-minimality, the subset witness is recounted, and
    the claims no witness can carry are re-checked in full: a positive
    sparsity verdict, and an exact subset minimum above 0, by the subset
    scan.
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
        reasons.extend(_check_matchability(cert))
    if cert.sparsity is not None:
        reasons.extend(_check_sparsity_record(cert))
    if cert.min_subset_edges is not None:
        reasons.extend(_check_subset_record(cert, expected_graph))

    reasons.extend(_check_conclusions(cert))
    return (not reasons, reasons)


def _check_matchability(cert: Certificate) -> list[str]:
    """Check each MATCHED witness as hyperedges of H that cover exactly
    V - v; the decoder marks overlapping ones corrupt, and Matching holds
    only disjoint edges. Such a witness is a proper (k - 1)-coloring of
    G - v, with color class i its i-th edge: the edges are s-sets, so there
    are (n - 1)/s = k - 1 of them when the params are consistent, and two
    vertices of one hyperedge are adjacent in the 2-section, so not in G."""
    reasons = []
    h = cert.hypergraph
    report = cert.matchability
    assert report is not None
    edge_set = set(h.edges)
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
        valid_matches += 1
    fully_matched = valid_matches == h.n and len(report.per_vertex) == h.n
    if report.all_matchable and not fully_matched:
        reasons.append("all_matchable claimed but per-vertex outcomes disagree")
    if not report.all_matchable and fully_matched:
        reasons.append("all_matchable denied but every vertex matched")
    return reasons


def _check_sparsity_record(cert: Certificate) -> list[str]:
    verdict = cert.sparsity
    assert verdict is not None
    params = cert.params
    if verdict.m != params.m or verdict.s != params.s:
        return ["sparsity verdict window does not match params"]
    if verdict.holds:
        if verdict.violator is not None:
            return ["sparsity claimed to hold but a violator is recorded"]
        if not check_sparsity(cert.hypergraph, params.m, params.s).holds:
            return ["sparsity claimed to hold but a violator exists"]
        return []
    violator = verdict.violator
    if violator is None:
        return ["sparsity failure recorded without a violator"]
    idx = list(violator.edge_indices)
    reasons = violator_problems(cert.hypergraph, idx, params.s, params.m)
    if reasons:
        return reasons
    spanned = union_size(cert.hypergraph, idx)
    if violator.spanned != spanned:
        return [f"violator spans {spanned} vertices, certificate says {violator.spanned}"]
    return []


def _check_subset_record(cert: Certificate, graph: Graph) -> list[str]:
    reasons = []
    record = cert.min_subset_edges
    assert record is not None
    t = cert.params.s + 1
    witness = record.witness
    if len(witness) != t or len(set(witness)) != t:
        reasons.append(f"subset witness is not a {t}-vertex set")
        return reasons
    if any(not 0 <= v < graph.n for v in witness):
        reasons.append("subset witness out of range")
        return reasons
    inside = sum(1 << v for v in witness)
    recount = sum((graph.adjacency_masks[v] & inside).bit_count() for v in witness) // 2
    if recount != record.count:
        reasons.append(
            f"subset witness induces {recount} edges, certificate says {record.count}"
        )
    elif record.exact and record.count >= 1:
        # A claimed minimum of 0 needs no search; any other is re-derived,
        # stopping at the first subset below it.
        count, smaller = min_subset_edges(graph, t, early_exit_at=record.count - 1)
        if count < record.count:
            reasons.append(
                f"subset {list(smaller)} induces {count} edges, below the claimed minimum {record.count}"
            )
    return reasons


def _check_conclusions(cert: Certificate) -> list[str]:
    reasons = []
    expected = _conclusions(
        cert.params, cert.matchability, cert.sparsity, cert.min_subset_edges
    )
    if cert.conclusions != expected:
        reasons.append("conclusion mismatch: conclusions do not follow from the recorded checks")
    return reasons
