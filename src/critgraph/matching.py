"""Exact perfect-matching search in uniform hypergraphs.

A perfect matching is an exact cover of the vertices by hyperedges, found
with Knuth's Algorithm X and its minimum-column rule (D. E. Knuth, "Dancing
Links", arXiv cs/0011047): branch on the lowest uncovered vertex with the
fewest live edges, trying them in ascending index, and fail a state as
soon as some uncovered vertex has none. The column scan stops at the first
vertex with at most one live edge, which keeps the rule's first cover (see
_cover_search). Complete: it never misses an existing matching.

Instead of linked lists the search state is two bitsets, the uncovered
vertices and the live edges (those lying inside the uncovered set). The
index it works on is cached on the Hypergraph and built once however many
searches run: per vertex, the bitset of incident edges, and per edge, the
bitset of every edge disjoint from it. A column size is then one AND and
one bit count, choosing an edge is one AND of the live set with its
disjoint bitset, and deleting a vertex starts from every edge minus its
incidence bitset. Divisibility of the uncovered count by the uniformity is
checked once up front and then preserved, since every step removes exactly
one full edge. A budget of search nodes per search separates "no matching
exists" from "gave up searching", and gives the same verdict on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Hypergraph, Matching


class SearchBudgetExceeded(Exception):
    """Raised when the matching search spends its node budget; distinct
    from a definite refutation."""


# Search nodes per matching call, over 10x the largest search of the tests,
# the goldens and the benchmark workloads (see README).
MATCHING_BUDGET = 1_000_000

MATCHED = "matched"
UNMATCHABLE = "unmatchable"
TIMEOUT = "timeout"
SKIPPED = "skipped"
CORRUPT = "corrupt"  # assigned by the certificate decoder, never by search


@dataclass(frozen=True)
class VertexOutcome:
    status: str  # MATCHED / UNMATCHABLE / TIMEOUT / SKIPPED
    matching: Matching | None


@dataclass(frozen=True)
class MatchabilityReport:
    """Per-vertex verdicts for single-vertex deletions: a witness matching
    where one exists, a failure marker otherwise."""

    per_vertex: dict[int, VertexOutcome]
    all_matchable: bool

    def first_failure(self) -> int | None:
        for v in sorted(self.per_vertex):
            if self.per_vertex[v].status != MATCHED:
                return v
        return None


def _uniformity_or_raise(h: Hypergraph) -> int | None:
    s = h.uniformity()
    if s is None and h.edges:
        raise ValueError("hypergraph is not uniform")
    return s


def _cover_search(
    h: Hypergraph, uncovered: int, alive: int, budget: int | None
) -> Matching | None:
    """Pairwise-disjoint edges of h whose union is exactly the vertex
    bitset `uncovered`, or None. `alive` is the edge bitset of the edges
    lying inside `uncovered`; the caller guarantees that the size of
    `uncovered` is a multiple of the uniformity. Raises
    SearchBudgetExceeded once `budget` nodes (calls with vertices left to
    cover) are spent; None means no budget.

    Each node branches on the lowest uncovered vertex with the fewest live
    edges, except that the scan stops at the first vertex with at most one.
    That keeps the first cover of the full rule. With no vertex of count 0,
    the lowest vertex of count 1 is exactly the rule's choice. With a
    vertex z of count 0 further on, the rule fails the node at once, while
    this search branches on the single edge; that edge is live, so it does
    not hold z, and z's live set only shrinks below it, so the subtree fails
    too. Only subtrees without a cover change, so the depth-first order of
    the covers, and hence the first one, is the same. The indices are
    gathered on the way back up from the cover that was found."""
    masks = h.edge_masks
    incidence = h.incidence
    disjoint = h.disjoint_edges
    more_than_any = len(masks) + 1
    left = float("inf") if budget is None else budget

    def recurse(uncovered: int, alive: int) -> list[int] | None:
        nonlocal left
        if not uncovered:
            return []
        if left <= 0:
            raise SearchBudgetExceeded
        left -= 1
        fewest = more_than_any
        m = uncovered
        while m:
            bit = m & -m
            m ^= bit
            live = incidence[bit.bit_length() - 1] & alive
            count = live.bit_count()
            if count < fewest:
                if count < 2:
                    if not count:
                        return None
                    best = live
                    break
                fewest = count
                best = live
        while best:
            bit = best & -best
            best ^= bit
            i = bit.bit_length() - 1
            picked = recurse(uncovered ^ masks[i], alive & disjoint[i])
            if picked is not None:
                picked.append(i)
                return picked
        return None

    picked = recurse(uncovered, alive)
    # recurse refers to itself through its closure: unbinding it lets h's
    # index go with h rather than at the next cycle collection.
    del recurse
    return None if picked is None else Matching(h.edges[i] for i in picked)


def find_perfect_matching(
    h: Hypergraph, budget: int | None = MATCHING_BUDGET, edge_mask: int | None = None
) -> Matching | None:
    """A perfect matching of h, or None if none exists. Raises
    SearchBudgetExceeded once `budget` search nodes are spent.

    With edge_mask, only the edges i with bit i set are searched, on h's
    cached index. The sub-hypergraph of those edges keeps their order, so
    every node sees the same live counts and tries the same edges in the
    same order as a search of that sub-hypergraph would: the result is the
    same matching, or None."""
    s = _uniformity_or_raise(h)
    if h.n == 0:
        return Matching(())
    everything = (1 << len(h.edges)) - 1
    alive = everything if edge_mask is None else everything & edge_mask
    if s is None or h.n % s != 0:
        return None
    return _cover_search(h, (1 << h.n) - 1, alive, budget)


def find_matching_avoiding(
    h: Hypergraph, v: int, budget: int | None = MATCHING_BUDGET
) -> Matching | None:
    """A perfect matching of the deletion of vertex v, expressed in the
    original vertex ids."""
    s = _uniformity_or_raise(h)
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range [0, {h.n})")
    if h.n == 1:
        return Matching(())
    if s is None or (h.n - 1) % s != 0:
        return None
    target = ((1 << h.n) - 1) ^ (1 << v)
    alive = ((1 << len(h.edges)) - 1) ^ h.incidence[v]
    return _cover_search(h, target, alive, budget)


def all_deletions_matchable(
    h: Hypergraph,
    budget: int | None = MATCHING_BUDGET,
    stop_early: bool = False,
    s: int | None = None,
) -> MatchabilityReport:
    """Check that every single-vertex deletion has a perfect matching,
    keeping the witnesses. With stop_early, vertices after the first
    failure are marked skipped. An edgeless hypergraph needs the intended
    uniformity s passed explicitly."""
    inferred = _uniformity_or_raise(h)
    if inferred is not None and s is not None and inferred != s:
        raise ValueError(f"hypergraph is {inferred}-uniform, expected {s}-uniform")
    s = inferred if inferred is not None else s
    if s is None:
        raise ValueError("hypergraph has no edges; pass the uniformity s explicitly")
    if h.n % s != 1:
        raise ValueError(f"need n = 1 (mod s), got n={h.n}, s={s}")
    per_vertex: dict[int, VertexOutcome] = {}
    failed = False
    for v in range(h.n):
        if failed and stop_early:
            per_vertex[v] = VertexOutcome(SKIPPED, None)
            continue
        try:
            m = find_matching_avoiding(h, v, budget=budget)
        except SearchBudgetExceeded:
            per_vertex[v] = VertexOutcome(TIMEOUT, None)
            failed = True
            continue
        if m is None:
            per_vertex[v] = VertexOutcome(UNMATCHABLE, None)
            failed = True
        else:
            per_vertex[v] = VertexOutcome(MATCHED, m)
    all_ok = all(o.status == MATCHED for o in per_vertex.values())
    return MatchabilityReport(per_vertex=per_vertex, all_matchable=all_ok)

