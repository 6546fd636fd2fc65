"""Canonical hypergraph and graph values plus the structural transforms
(2-section, complement, components on vertex masks) everything else is
built on.

All values are immutable after construction and every operation is a pure
function, so they can be shared freely across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


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

    def __getstate__(self) -> dict:
        # Only the fields: cached views stay out of pickles, so equal
        # hypergraphs pickle to equal bytes whatever has been computed.
        return {"n": self.n, "edges": self.edges}

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
    def edge_conflicts(self) -> tuple[int, ...]:
        """Each edge as the edge bitset of the edges meeting it, itself
        included: the OR of the incidence bitsets of its vertices."""
        inc = self.incidence
        out = []
        for e in self.edges:
            conflict = 0
            for v in e:
                conflict |= inc[v]
            out.append(conflict)
        return tuple(out)

    def uniformity(self) -> int | None:
        """Common edge size, or None if sizes differ or there are no edges."""
        sizes = {len(e) for e in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def is_uniform(self, s: int) -> bool:
        return all(len(e) == s for e in self.edges)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on dense vertex ids 0..n-1.

    Stored as a canonical sorted tuple of (u, v) pairs with u < v;
    adjacency sets and bitmasks are derived lazily.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u > v:
                u, v = v, u
            if u < 0 or v >= n:
                raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")
            canon.add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbr: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return tuple(frozenset(s) for s in nbr)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)


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
    hyperedge. Size-1 hyperedges contribute nothing."""
    pairs: set[tuple[int, int]] = set()
    for e in h.edges:
        pairs.update(combinations(e, 2))
    return Graph(h.n, pairs)


def complement(g: Graph) -> Graph:
    present = g.edge_set
    pairs = [(u, v) for u, v in combinations(range(g.n), 2) if (u, v) not in present]
    return Graph(g.n, pairs)


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
