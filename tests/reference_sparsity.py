"""The sparsity search as it was before the incidence-core peel, kept
verbatim as the oracle for `critgraph.sparsity`: the peeled search must
return the same verdicts and the same violator tuples."""

from __future__ import annotations

from critgraph.hypergraph import Hypergraph
from critgraph.sparsity import SparsityVerdict, Violator


def _union_size(h: Hypergraph, idx) -> int:
    union = 0
    for i in idx:
        union |= h.edge_masks[i]
    return union.bit_count()


def _min_cardinality_violator(masks, limit: int, s: int) -> list[int] | None:
    """Smallest edge set (by cardinality, at most `limit`) whose union has
    fewer than (s-1) times its size vertices, or None.

    Iterative deepening on |F|: at each depth, grow candidate sets from
    every start edge by edges of larger index that intersect the running
    union, with a forbidden set so each connected edge set is visited once.
    Complete because an inclusion-minimal violator is connected under
    pairwise-intersection reachability (splitting it into parts with
    disjoint unions makes the excess additive, and each part alone is
    non-violating by minimality, so the sum could not be negative), hence
    reachable from its lowest-index edge. The first violator found has
    globally minimum cardinality, smaller depths having been exhausted, and
    is therefore inclusion-minimal: every proper subset is smaller and was
    cleared.
    """
    n_edges = len(masks)

    def grow(
        chosen: list[int], union: int, exc: int, start: int, forbidden: set[int], depth: int
    ) -> list[int] | None:
        remaining = depth - len(chosen)
        if remaining <= 0:
            return None
        # Adding an edge with t vertices already in the union changes the
        # excess by 1 - t >= 1 - s, so `remaining` steps drop it by at most
        # remaining * (s - 1); prune when even that cannot reach -1.
        if exc - remaining * (s - 1) > -1:
            return None
        local_forbidden = set(forbidden)
        local_forbidden.update(chosen)
        for j in range(start + 1, n_edges):
            if j in local_forbidden or not masks[j] & union:
                continue
            overlap = (masks[j] & union).bit_count()
            new_exc = exc + 1 - overlap
            new_chosen = chosen + [j]
            if new_exc <= -1:
                return new_chosen
            found = grow(new_chosen, union | masks[j], new_exc, start, local_forbidden, depth)
            if found is not None:
                return found
            local_forbidden.add(j)
        return None

    for depth in range(2, limit + 1):
        for start in range(n_edges):
            found = grow([start], masks[start], 1, start, set(), depth)
            if found is not None:
                return found
    return None


def check_sparsity(h: Hypergraph, m: int, s: int) -> SparsityVerdict:
    """Decide whether every F with 1 <= |F| <= m spans at least (s-1)|F|
    vertices; on failure return an inclusion-minimal violator.

    Dense shortcut: once |E| >= ceil((n+1)/(s-1)) =: f and f <= m, any f
    edges span at most n <= (s-1)f - 1 vertices, so a violator certainly
    exists among the first f edges alone and the search is confined to
    them. A cardinality-minimal violator found there is still
    inclusion-minimal in the whole hypergraph: violating depends only on
    the edge set itself.
    """
    if not h.is_uniform(s):
        raise ValueError(f"hypergraph is not {s}-uniform")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if s < 2:
        raise ValueError(f"need s >= 2, got s={s}")

    masks = h.edge_masks
    forced = -(-(h.n + 1) // (s - 1))
    if forced <= m and len(masks) >= forced:
        found = _min_cardinality_violator(masks[:forced], limit=forced, s=s)
        if found is None:
            raise RuntimeError("counting bound guarantees a violator in the prefix")
        return SparsityVerdict(False, Violator(tuple(found), _union_size(h, found)), m=m, s=s)

    found = _min_cardinality_violator(masks, limit=min(m, len(masks)), s=s)
    if found is None:
        return SparsityVerdict(True, None, m=m, s=s)
    return SparsityVerdict(False, Violator(tuple(found), _union_size(h, found)), m=m, s=s)
