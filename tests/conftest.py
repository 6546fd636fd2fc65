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
from hypothesis import assume, settings

from critgraph.hypergraph import Graph, Hypergraph, Matching

# No per-example deadline for any property test: on a loaded machine a slow
# example is load, not a regression, and the suite's timing checks are
# explicit elapsed-time asserts.
settings.register_profile("critgraph", deadline=None)
settings.load_profile("critgraph")


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


def berge_chains(s: int, chains) -> tuple[int, list[tuple[int, ...]]]:
    """(vertex count, edges) of s-uniform Berge chains between branch
    vertices 0, 1, ...: a chain (u, v, length) is `length` edges from u to
    v, consecutive edges sharing one new vertex, each edge with s - 2
    private vertices. A chain (u, u, length) is a Berge cycle through u."""
    n = 1 + max(max(u, v) for u, v, _ in chains)
    edges = []
    for u, v, length in chains:
        path = [u, *range(n, n + length - 1), v]
        n += length - 1
        for a, b in zip(path, path[1:]):
            edges.append((a, b, *range(n, n + s - 2)))
            n += s - 2
    return n, edges


def berge_cycle(s: int, length: int, labels=None) -> Hypergraph:
    """The s-uniform Berge cycle of `length` edges (see berge_chains):
    every edge meets the others in exactly 2 vertices, the incidence graph
    is one cycle (cycle rank 1), and sparsity holds at every window.
    `labels` relabels the vertices."""
    n, edges = berge_chains(s, [(0, 0, length)])
    labels = labels or range(n)
    return Hypergraph(n, [tuple(labels[v] for v in e) for e in edges])


@st.composite
def berge_cycles(draw, s: int = 3, max_length: int = 8):
    """Berge cycles (see berge_cycle) with shuffled labels."""
    length = draw(st.integers(3 if s == 2 else 2, max_length))
    return berge_cycle(s, length, draw(st.permutations(range(length * (s - 1)))))


@st.composite
def hypertrees_with_chord(draw, s: int = 3, max_edges: int = 8):
    """A linear hypertree plus one edge through t >= 2 of its vertices and
    s - t new ones: t = 2 closes one cycle (cycle rank 1, sparsity holds),
    t >= 3 makes cycle rank t - 1 >= 2, so the whole edge set violates."""
    tree = draw(linear_hypertrees(s=s, max_edges=max_edges))
    t = draw(st.integers(2, min(s, tree.n)))
    old = draw(st.lists(st.integers(0, tree.n - 1), min_size=t, max_size=t, unique=True))
    chord = tuple(sorted([*old, *range(tree.n, tree.n + s - t)]))
    assume(chord not in tree.edges)
    return Hypergraph(tree.n + s - t, [*tree.edges, chord])


@st.composite
def bicycles_beside_trees(draw, s: int = 3):
    """A theta, dumbbell or figure-eight of Berge chains (cycle rank 2),
    beside a disjoint Berge cycle (cycle rank 1), plus pendant edges that
    each meet the earlier edges in one vertex, with vertex labels shuffled
    so that the edge indices of the parts interleave. Returns the
    hypergraph and the bicycle's edge count: the bicycle is the one
    inclusion-minimal violator."""
    shortest = 3 if s == 2 else 2  # the shortest Berge cycle of s-edges
    loop = st.integers(shortest, 3)
    shape = draw(st.sampled_from(["theta", "dumbbell", "figure-eight"]))
    if shape == "theta":
        lengths = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
        assume(s > 2 or lengths.count(1) <= 1)  # no repeated 2-edge
        chains = [(0, 1, length) for length in lengths]
    elif shape == "dumbbell":
        chains = [(0, 0, draw(loop)), (1, 1, draw(loop)), (0, 1, draw(st.integers(1, 2)))]
    else:
        chains = [(0, 0, draw(loop)), (0, 0, draw(loop))]
    size = sum(length for _, _, length in chains)
    cycle_node = 1 + max(v for _, v, _ in chains)
    n, edges = berge_chains(s, [*chains, (cycle_node, cycle_node, draw(st.integers(shortest, 4)))])
    for _ in range(draw(st.integers(0, 2))):
        edges.append((draw(st.integers(0, n - 1)), *range(n, n + s - 1)))
        n += s - 1
    labels = draw(st.permutations(range(n)))
    return Hypergraph(n, [tuple(labels[v] for v in e) for e in edges]), size


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


def matching_to_coloring(m: Matching, removed: int, n: int) -> dict[int, int]:
    """Color class i = vertices of the i-th matching edge; a proper
    coloring of the complement construction minus `removed`, using
    exactly (n - 1) / s colors."""
    expected = set(range(n)) - {removed}
    if set(m.covered) != expected:
        raise ValueError("matching does not partition the vertex set minus the removed vertex")
    coloring: dict[int, int] = {}
    for i, e in enumerate(m.edges):
        for v in e:
            coloring[v] = i
    return coloring


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
