"""The pair-set `Graph`, `two_section` and `complement` as they were before
graphs were stored as neighbour bitmasks, kept verbatim as the oracle for
`critgraph.hypergraph`: the mask-built graphs must have the same edge
tuples, the same masks and the same certificate bytes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from critgraph.hypergraph import Hypergraph


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
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)


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
