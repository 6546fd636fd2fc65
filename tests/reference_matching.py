"""Reference perfect-matching search: the list-based exact-cover search
that the bitset search in critgraph.matching replaced, kept verbatim but
for its budget, which counts search nodes.

Both searches branch on the lowest uncovered vertex with the fewest
available edges and try edges in ascending index, so they must return
equal Matching values, not only equal verdicts; the tests compare them.
"""

from __future__ import annotations

from critgraph.hypergraph import Hypergraph, Matching
from critgraph.matching import MATCHING_BUDGET, SearchBudgetExceeded, _uniformity_or_raise


def _cover_search(
    edge_masks: list[int],
    target_mask: int,
    s: int,
    budget: int | None,
) -> list[int] | None:
    """Indices of pairwise-disjoint edges whose union is exactly
    target_mask, or None. Edges must already lie inside target_mask.
    Raises SearchBudgetExceeded once `budget` nodes are spent."""
    n_bits = target_mask.bit_count()
    if n_bits % s != 0:
        return None

    incident: dict[int, list[int]] = {}
    v = target_mask
    while v:
        bit = v & -v
        incident[bit] = []
        v ^= bit
    for idx, mask in enumerate(edge_masks):
        m = mask
        while m:
            bit = m & -m
            incident[bit].append(idx)
            m ^= bit

    chosen: list[int] = []
    left = float("inf") if budget is None else budget

    def recurse(uncovered: int) -> bool:
        nonlocal left
        if uncovered == 0:
            return True
        if left <= 0:
            raise SearchBudgetExceeded
        left -= 1
        # Branch on the most constrained uncovered vertex.
        best_edges: list[int] | None = None
        m = uncovered
        while m:
            bit = m & -m
            m ^= bit
            avail = [i for i in incident[bit] if edge_masks[i] & ~uncovered == 0]
            if best_edges is None or len(avail) < len(best_edges):
                best_edges = avail
                if not avail:
                    return False
        assert best_edges is not None
        for i in best_edges:
            chosen.append(i)
            if recurse(uncovered & ~edge_masks[i]):
                return True
            chosen.pop()
        return False

    return chosen if recurse(target_mask) else None


def reference_perfect_matching(h: Hypergraph, budget: int | None = MATCHING_BUDGET) -> Matching | None:
    """A perfect matching of h, or None if none exists. Raises
    SearchBudgetExceeded once `budget` search nodes are spent."""
    s = _uniformity_or_raise(h)
    if h.n == 0:
        return Matching(())
    if not h.edges:
        return None
    assert s is not None
    if h.n % s != 0:
        return None
    full = (1 << h.n) - 1
    picked = _cover_search(list(h.edge_masks), full, s, budget)
    if picked is None:
        return None
    return Matching(h.edges[i] for i in picked)


def reference_matching_avoiding(
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
    target = ((1 << h.n) - 1) & ~(1 << v)
    keep = [(m, e) for m, e in zip(h.edge_masks, h.edges) if not m & (1 << v)]
    picked = _cover_search([m for m, _ in keep], target, s, budget)
    if picked is None:
        return None
    return Matching(keep[i][1] for i in picked)
