"""Shared strategies and independent brute-force oracles for the suite.

The oracles deliberately use different algorithms from the library code
they check: chromatic number by dynamic programming over vertex subsets,
independence number by full subset scan, matching existence by exhaustive
edge-subset enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import hypothesis.strategies as st

from critgraph.hypergraph import Graph, Hypergraph


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 0):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph(n, [])
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(n, chosen)


@st.composite
def hypergraphs(draw, max_n: int = 8, sizes: tuple[int, ...] = (1, 2, 3, 4), max_edges: int = 6):
    n = draw(st.integers(1, max_n))
    candidates = [e for size in sizes if size <= n for e in combinations(range(n), size)]
    if not candidates:
        return Hypergraph(n, [])
    chosen = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=max_edges))
    return Hypergraph(n, chosen)


@st.composite
def uniform_hypergraphs(draw, s: int = 3, max_n: int = 10, max_edges: int = 8):
    n = draw(st.integers(s, max_n))
    candidates = list(combinations(range(n), s))
    chosen = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=max_edges))
    return Hypergraph(n, chosen)


@st.composite
def linear_hypertrees(draw, s: int = 3, max_edges: int = 8):
    """s-uniform linear hypertrees: each edge after the first meets the
    union of the earlier ones in exactly one vertex, and every vertex is
    covered. Vertex labels are shuffled, so the canonical edge order does
    not follow the growth order."""
    count = draw(st.integers(1, max_edges))
    n = 1 + count * (s - 1)
    labels = draw(st.permutations(range(n)))
    edges = [tuple(range(s))]
    for i in range(1, count):
        covered = s + (i - 1) * (s - 1)
        anchor = draw(st.integers(0, covered - 1))
        edges.append((anchor, *range(covered, covered + s - 1)))
    return Hypergraph(n, [tuple(labels[v] for v in e) for e in edges])


def brute_force_independence(g: Graph) -> int:
    masks = g.adjacency_masks
    best = 0
    for subset in range(1 << g.n):
        size = subset.bit_count()
        if size <= best:
            continue
        ok = True
        scan = subset
        while scan:
            bit = scan & -scan
            v = bit.bit_length() - 1
            scan ^= bit
            if masks[v] & subset:
                ok = False
                break
        if ok:
            best = size
    return best


def brute_force_chromatic(g: Graph) -> int:
    """Minimum blocks over partitions into independent sets, as a DP over
    vertex subsets."""
    if g.n == 0:
        return 0
    masks = g.adjacency_masks
    full = (1 << g.n) - 1

    independent = [False] * (1 << g.n)
    independent[0] = True
    for subset in range(1, 1 << g.n):
        bit = subset & -subset
        v = bit.bit_length() - 1
        rest = subset ^ bit
        independent[subset] = independent[rest] and not masks[v] & rest

    @lru_cache(maxsize=None)
    def chi(subset: int) -> int:
        if subset == 0:
            return 0
        bit = subset & -subset
        best = g.n
        # Enumerate subsets of `subset` containing its lowest vertex.
        piece = subset
        while piece:
            if piece & bit and independent[piece]:
                best = min(best, 1 + chi(subset & ~piece))
            piece = (piece - 1) & subset
        return best

    return chi(full)


def is_proper_coloring(g: Graph, coloring: dict[int, int], skip: set[int] | None = None) -> bool:
    skip = skip or set()
    for u, v in g.edges:
        if u in skip or v in skip:
            continue
        if coloring[u] == coloring[v]:
            return False
    return True


def valid_matching_for(h: Hypergraph, matching, expected_cover: set[int]) -> bool:
    edge_set = set(h.edges)
    seen: set[int] = set()
    for e in matching.edges:
        if e not in edge_set:
            return False
        if seen & set(e):
            return False
        seen.update(e)
    return seen == expected_cover
