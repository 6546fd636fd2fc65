"""Local sparsity of uniform hypergraphs: every set F of at most m
hyperedges must span at least (s-1)|F| vertices. The checker returns an
inclusion-minimal violating edge set when the condition fails, and a
brute-force enumerator serves as its validation oracle.

The search is exponential in the window, but it only ever looks at the
2-core of the vertex-edge incidence graph, where every inclusion-minimal
violator lies; hypertrees and other tree-like parts peel away in linear
time, with the same verdicts and the same witnesses as a search over all
edges. A core whose components each have cycle rank at most 1 (a Berge
cycle, a hypertree with one chord) holds without any search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .hypergraph import Hypergraph, cycle_ranks


class EnumerationCapExceeded(Exception):
    """The brute-force oracle was asked to enumerate too many subsets."""


@dataclass(frozen=True)
class Violator:
    edge_indices: tuple[int, ...]
    spanned: int


@dataclass(frozen=True)
class SparsityVerdict:
    holds: bool
    violator: Violator | None
    m: int
    s: int


def union_size(h: Hypergraph, edge_indices) -> int:
    """Number of vertices covered by the given edges."""
    union = 0
    for i in edge_indices:
        union |= h.edge_masks[i]
    return union.bit_count()


def excess(h: Hypergraph, edge_indices, s: int) -> int:
    """|union of the edges| - (s-1) * |F|; the sparsity condition for F is
    excess >= 0."""
    idx = list(edge_indices)
    return union_size(h, idx) - (s - 1) * len(idx)


def violator_problems(h: Hypergraph, idx: list[int], s: int, m: int) -> list[str]:
    """Why the edge indices `idx` are not an inclusion-minimal violator
    within the window m, or [] when they are one; checking stops at the
    first problem found.

    Minimality drops one edge at a time, which leaves one kind of
    non-minimal violator undetected: one whose edges split into parts with
    disjoint unions. Excess adds up over such parts, so one part violates
    alone; the intersection components rule that out. Passing both, every
    edge meets the others in at least 2 vertices (see _incidence_core).
    """
    if not 1 <= len(idx) <= m:
        return ["violator size out of range"]
    if any(not 0 <= i < len(h.edges) for i in idx):
        return ["violator indexes nonexistent edges"]
    if len(set(idx)) != len(idx):
        return ["violator repeats an edge index"]
    if excess(h, idx, s) > -1:
        return ["claimed violator does not violate the span bound"]
    if len(cycle_ranks(h.edge_masks[i] for i in idx)) > 1 or any(excess(h, [j for j in idx if j != i], s) <= -1 for i in idx):
        return ["violator is not inclusion-minimal"]
    return []


def forced_violator_size(n: int, s: int) -> int:
    """f = ceil((n+1)/(s-1)): any f s-edges on n vertices span at most
    n <= (s-1)f - 1 vertices, so every set of f edges violates."""
    return -(-(n + 1) // (s - 1))


def _incidence_core(masks) -> list[int]:
    """Positions of the edges in the 2-core of the vertex-edge incidence
    graph, ascending: repeatedly drop any edge that shares at most one
    vertex with the other remaining edges.

    Every inclusion-minimal violator F lies in the core. For e in F let
    t = |e & union(F - e)|; then excess(F) = excess(F - e) + 1 - t, so
    t <= 1 would make F - e a violator too. Every edge of F therefore
    meets the rest of F in at least 2 vertices, and none of them is ever
    the first of F to be dropped.

    An edge shares the vertices it has in `twice`, the vertices of at
    least two edges. When some edge shares at most one, per-vertex holder
    counts and a worklist finish the peel in time linear in the total edge
    size: an edge is queued once, when its shared count falls to 1 (or
    starts at most 1). Over-dense prefixes usually peel nothing and stop
    after the first pass.
    """
    once = twice = 0
    for mask in masks:
        twice |= once & mask
        once |= mask
    shared = [(mask & twice).bit_count() for mask in masks]
    stack = [i for i, t in enumerate(shared) if t <= 1]
    if not stack:
        return list(range(len(masks)))
    holders: dict[int, list[int]] = {}
    for i, mask in enumerate(masks):
        mask &= twice
        while mask:
            bit = mask & -mask
            holders.setdefault(bit, []).append(i)
            mask ^= bit
    count = {bit: len(edges) for bit, edges in holders.items()}
    alive = [True] * len(masks)
    while stack:
        i = stack.pop()
        alive[i] = False
        mask = masks[i] & twice
        while mask:
            bit = mask & -mask
            mask ^= bit
            count[bit] -= 1
            if count[bit] == 1:
                # The last holder of this vertex no longer shares it.
                for j in holders[bit]:
                    if alive[j]:
                        shared[j] -= 1
                        if shared[j] == 1:
                            stack.append(j)
                        break
    return [i for i, keep in enumerate(alive) if keep]


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

    The search runs on the incidence 2-core of `masks` only (see
    _incidence_core), in ascending original index, with `limit` capped at
    the core size, and maps the positions it finds back. It returns
    exactly what the search over all of `masks` would, tuple order
    included: a candidate set is always the list of chosen edges, so a set
    made only of core edges is reached along the same path and in the same
    relative order, the peeled edges having added only branches and
    forbidden entries that such a set never uses. The first violator the
    full search meets has minimum cardinality, hence lies in the core, and
    is met first here too.
    """
    core = _incidence_core(masks)
    masks = [masks[i] for i in core]
    # No F inside a core component of cycle rank <= 1 violates.
    if all(beta <= 1 for _, beta in cycle_ranks(masks)):
        return None
    limit = min(limit, len(masks))
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
                return [core[i] for i in found]
    return None


def check_sparsity(h: Hypergraph, m: int, s: int) -> SparsityVerdict:
    """Decide whether every F with 1 <= |F| <= m spans at least (s-1)|F|
    vertices; on failure return an inclusion-minimal violator.

    Dense shortcut: once |E| >= ceil((n+1)/(s-1)) =: f and f <= m, any f
    edges span at most n <= (s-1)f - 1 vertices, so a violator certainly
    exists among the first f edges alone and the search is confined to
    them. A cardinality-minimal violator found there is still
    inclusion-minimal in the whole hypergraph: violating depends only on
    the edge set itself. Only that prefix is peeled to its incidence
    2-core, so rejecting a sample of any size peels f edges.
    """
    if not h.is_uniform(s):
        raise ValueError(f"hypergraph is not {s}-uniform")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if s < 2:
        raise ValueError(f"need s >= 2, got s={s}")

    masks = h.edge_masks
    forced = forced_violator_size(h.n, s)
    if forced <= m and len(masks) >= forced:
        found = _min_cardinality_violator(masks[:forced], limit=forced, s=s)
        if found is None:
            raise RuntimeError("counting bound guarantees a violator in the prefix")
        return SparsityVerdict(False, Violator(tuple(found), union_size(h, found)), m=m, s=s)

    found = _min_cardinality_violator(masks, limit=min(m, len(masks)), s=s)
    if found is None:
        return SparsityVerdict(True, None, m=m, s=s)
    return SparsityVerdict(False, Violator(tuple(found), union_size(h, found)), m=m, s=s)


def brute_force_sparsity(h: Hypergraph, m: int, s: int, cap: int = 2_000_000) -> SparsityVerdict:
    """Ground truth by enumerating every edge subset of size <= m, in
    increasing size then lexicographic order; the first violator found is
    cardinality-minimal and therefore inclusion-minimal."""
    if not h.is_uniform(s):
        raise ValueError(f"hypergraph is not {s}-uniform")
    n_edges = len(h.edges)
    limit = min(m, n_edges)
    total = sum(math.comb(n_edges, size) for size in range(1, limit + 1))
    if total > cap:
        raise EnumerationCapExceeded(f"{total} subsets exceeds cap {cap}")
    for size in range(1, limit + 1):
        for idx in combinations(range(n_edges), size):
            spanned = union_size(h, idx)
            if spanned < (s - 1) * size:
                return SparsityVerdict(False, Violator(idx, spanned), m=m, s=s)
    return SparsityVerdict(True, None, m=m, s=s)
