"""Canonical hypergraph and graph values plus the structural transforms
(2-section, complement, components on vertex masks) everything else is
built on. A graph is canonical as its neighbour bitmasks, which the
2-section and the complement build directly; its edge list is derived.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph on dense vertex ids 0..n-1 with a canonical edge list.

    Edges are stored sorted internally and lexicographically as a list,
    so equal hypergraphs compare equal and serialize byte-identically.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon = []
        for e in edges:
            e = tuple(sorted(e))
            if len(e) == 0:
                raise ValueError("empty hyperedge")
            if len(set(e)) != len(e):
                raise ValueError(f"repeated vertex in hyperedge {e}")
            if e[0] < 0 or e[-1] >= n:
                raise ValueError(f"hyperedge {e} out of range [0, {n})")
            canon.append(e)
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate hyperedge {a}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))

    @classmethod
    def _from_canonical(cls, n: int, edges: tuple[tuple[int, ...], ...]) -> Hypergraph:
        """The hypergraph with exactly these fields, unchecked: for callers
        whose edges are already a tuple of distinct increasing tuples, in
        increasing order and within range(n), as the sampler emits them."""
        h = object.__new__(cls)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "edges", edges)
        return h

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """Each edge as a vertex bitmask (bit v set iff v in the edge)."""
        out = []
        for e in self.edges:
            mask = 0
            for v in e:
                mask |= 1 << v
            out.append(mask)
        return tuple(out)

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Each vertex as an edge bitset (bit i set iff v in edge i)."""
        inc = [0] * self.n
        for i, e in enumerate(self.edges):
            bit = 1 << i
            for v in e:
                inc[v] |= bit
        return tuple(inc)

    @cached_property
    def disjoint_edges(self) -> tuple[int, ...]:
        """Each edge as the edge bitset of the edges disjoint from it: every
        edge but the OR of the incidence bitsets of its vertices, so itself
        excluded."""
        inc = self.incidence
        everything = (1 << len(self.edges)) - 1
        out = []
        for e in self.edges:
            meeting = 0
            for v in e:
                meeting |= inc[v]
            out.append(everything ^ meeting)
        return tuple(out)

    @cached_property
    def _uniformity(self) -> int | None:
        sizes = {len(e) for e in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def uniformity(self) -> int | None:
        """Common edge size, or None if sizes differ or there are no edges."""
        return self._uniformity

    def is_uniform(self, s: int) -> bool:
        """Whether every edge has s vertices (true of no edges)."""
        return not self.edges or self._uniformity == s


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on dense vertex ids 0..n-1.

    Stored as neighbour bitmasks (bit u of adjacency_masks[v] iff uv is an
    edge); the sorted tuple of (u, v) pairs with u < v is derived lazily.
    """

    n: int
    adjacency_masks: tuple[int, ...]

    def __init__(self, n: int, edges) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
        bit = [1 << v for v in range(n)]
        for u, v in edges:
            if u >= v:  # rows are mostly increasing pairs: one test for them
                if u == v:
                    raise ValueError(f"self-loop at {u}")
                u, v = v, u
            if u < 0 or v >= n:
                raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")
            masks[u] |= bit[v]
            masks[v] |= bit[u]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency_masks", tuple(masks))

    @classmethod
    def _from_masks(cls, n: int, masks: tuple[int, ...]) -> Graph:
        """The graph with these fields, unchecked: for n symmetric, loop-free
        masks within range(n), as two_section and complement build them."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adjacency_masks", masks)
        return g

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge as (u, v) with u < v, in increasing order."""
        return tuple(
            (u, v)
            for u, mask in enumerate(self.adjacency_masks)
            for v in range(u + 1, mask.bit_length())
            if mask >> v & 1
        )


@dataclass(frozen=True)
class Matching:
    """A set of pairwise-disjoint hyperedges and the vertex set they cover."""

    edges: tuple[tuple[int, ...], ...]
    covered: frozenset[int]

    def __init__(self, edges) -> None:
        canon = tuple(sorted(tuple(sorted(e)) for e in edges))
        covered: set[int] = set()
        total = 0
        for e in canon:
            total += len(e)
            covered.update(e)
        if len(covered) != total:
            raise ValueError("matching edges are not pairwise disjoint")
        object.__setattr__(self, "edges", canon)
        object.__setattr__(self, "covered", frozenset(covered))

    def is_perfect_for(self, vertices: frozenset[int] | set[int]) -> bool:
        return self.covered == frozenset(vertices)


def two_section(h: Hypergraph) -> Graph:
    """Graph on the same vertices joining every two vertices that share a
    hyperedge: each vertex's mask is the OR of its edges' masks, less
    itself. Size-1 hyperedges contribute nothing."""
    masks = [0] * h.n
    for e, mask in zip(h.edges, h.edge_masks):
        for v in e:
            masks[v] |= mask
    return Graph._from_masks(h.n, tuple(mask & ~(1 << v) for v, mask in enumerate(masks)))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    masks = tuple(full & ~(mask | 1 << v) for v, mask in enumerate(g.adjacency_masks))
    return Graph._from_masks(g.n, masks)


def merge_component(comps: list[int], mask: int) -> list[int]:
    """The intersection components of an edge set, as disjoint vertex
    masks, after adding an edge with vertex mask `mask`: every component
    the edge meets merges with it into one, appended last."""
    rest = []
    for c in comps:
        if c & mask:
            mask |= c
        else:
            rest.append(c)
    rest.append(mask)
    return rest


def cycle_ranks(edge_masks) -> list[tuple[int, int]]:
    """The intersection components of an edge set as (vertex mask, β)
    pairs, in merge_component's order: β(C) = Σ_{e in C}(|e| - 1) - |C| + 1
    is the cycle rank of C's vertex-edge incidence graph.

    A connected F spans at least Σ_F(|e| - 1) vertices iff β(F) <= 1; for
    s-edges, F breaks local sparsity ((s-1)|F| > |∪F|) iff β(F) >= 2. A
    connected F inside a component C has β(F) <= β(C): F's incidence graph
    is a connected subgraph of C's, so its cycle space is a subspace of
    C's. Hence every connected F meets the span bound iff every component
    has β <= 1, and then so does every F: the spans and the sums
    Σ(|e| - 1) add up over parts with disjoint unions.
    """
    masks = list(edge_masks)
    comps: list[int] = []
    for mask in masks:
        comps = merge_component(comps, mask)
    return [(c, sum(m.bit_count() - 1 for m in masks if m & c) - c.bit_count() + 1) for c in comps]


def mask_components(edge_masks, active: int) -> list[int]:
    """Connected components of the 2-section induced on the vertex mask
    `active`, as vertex masks ordered by smallest member: two active
    vertices are joined when some edge holds both, and an active vertex in
    no such edge is a component of its own."""
    comps: list[int] = []
    covered = 0
    for mask in edge_masks:
        mask &= active
        if mask:
            comps = merge_component(comps, mask)
            covered |= mask
    alone = active & ~covered
    while alone:
        bit = alone & -alone
        comps.append(bit)
        alone ^= bit
    comps.sort(key=lambda c: c & -c)
    return comps
