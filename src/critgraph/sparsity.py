"""Local sparsity of uniform hypergraphs: every set F of at most m
hyperedges must span at least (s-1)|F| vertices. The checker returns an
inclusion-minimal violating edge set when the condition fails, and a
brute-force enumerator serves as its validation oracle.

The search is exponential in the window, but it only ever looks where an
inclusion-minimal violator can lie: in the intersection components of
cycle rank at least 2, peeled to the 2-core of their vertex-edge
incidence graph. It gives the same verdicts and the same witnesses as a
search over all edges. A hypertree, a Berge cycle or a hypertree with one
chord has no such component, so it holds without a peel or a search.
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

    Each round finds the vertices held by two or more kept edges and drops
    every edge with fewer than two of them, until a round drops nothing.
    """
    core = list(range(len(masks)))
    while True:
        once = twice = 0
        for i in core:
            twice |= once & masks[i]
            once |= masks[i]
        kept = [i for i in core if (masks[i] & twice).bit_count() >= 2]
        if len(kept) == len(core):
            return core
        core = kept


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

    An inclusion-minimal violator F is connected with cycle rank
    β(F) >= 2, so it lies in an intersection component of cycle rank
    β >= 2 (see cycle_ranks), and in the incidence 2-core (see
    _incidence_core). The search runs on the core of those components'
    edges only, in ascending original index, with `limit` capped at its
    size, and maps the positions it finds back. It returns exactly what
    the search over all of `masks` would, tuple order included: a
    candidate set is always the list of chosen edges, so a set made only
    of kept edges is reached along the same path and in the same relative
    order, the dropped edges having added only branches and forbidden
    entries that such a set never uses. The first violator the full
    search meets has minimum cardinality, hence lies in what is kept, and
    is met first here too.
    """
    cyclic = [comp for comp, beta in cycle_ranks(masks) if beta >= 2]
    kept = [i for i, mask in enumerate(masks) if any(mask & comp for comp in cyclic)]
    core = [kept[i] for i in _incidence_core([masks[i] for i in kept])]
    masks = [masks[i] for i in core]
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
    the edge set itself. Only that prefix is filtered and peeled, so
    rejecting a sample of any size looks at f edges.
    """
    if not h.is_uniform(s):
        raise ValueError(f"hypergraph is not {s}-uniform")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if s < 2:
        raise ValueError(f"need s >= 2, got s={s}")

    masks = h.edge_masks
    limit = min(m, len(masks))
    forced = forced_violator_size(h.n, s)
    dense = forced <= limit
    if dense:
        masks, limit = masks[:forced], forced
    found = _min_cardinality_violator(masks, limit=limit, s=s)
    if found is None and dense:
        raise RuntimeError("counting bound guarantees a violator in the prefix")
    violator = None if found is None else Violator(tuple(found), union_size(h, found))
    return SparsityVerdict(found is None, violator, m=m, s=s)


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
