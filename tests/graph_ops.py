"""Structural transforms only the tests use: vertex and edge deletion,
restriction to a vertex set, adjacency sets, edge lookup, degrees and
components. The transforms return fresh canonical values; where vertices
go, ids are recompacted and the old->new map is returned so witnesses can
be translated back."""

from __future__ import annotations

from critgraph.hypergraph import Graph, Hypergraph, mask_components


def adjacency(g: Graph) -> tuple[frozenset[int], ...]:
    """Each vertex's neighbours, read off the edge list."""
    nbr: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return tuple(frozenset(s) for s in nbr)


def edge_set(g: Graph) -> frozenset[tuple[int, int]]:
    return frozenset(g.edges)


def has_edge(g: Graph, u: int, v: int) -> bool:
    if u > v:
        u, v = v, u
    return (u, v) in edge_set(g)


def degree(g: Graph, v: int) -> int:
    return len(adjacency(g)[v])


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by smallest
    member."""
    comps = mask_components([1 << u | 1 << v for u, v in g.edges], (1 << g.n) - 1)
    return tuple(tuple(v for v in range(g.n) if c >> v & 1) for c in comps)


def is_connected(g: Graph) -> bool:
    """Vacuously true on 0 or 1 vertices."""
    return len(components(g)) <= 1


def compaction_map(keep: set[int] | frozenset[int]) -> dict[int, int]:
    """Old id -> new dense id, preserving order of the kept vertices."""
    return {old: new for new, old in enumerate(sorted(keep))}


def delete_vertex(h: Hypergraph, v: int) -> tuple[Hypergraph, dict[int, int]]:
    """Remove vertex v and every hyperedge through it; remaining ids are
    recompacted and the old->new map is returned so witnesses can be
    translated back to the original ids."""
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range [0, {h.n})")
    keep = set(range(h.n)) - {v}
    remap = compaction_map(keep)
    edges = [tuple(remap[u] for u in e) for e in h.edges if v not in e]
    return Hypergraph(h.n - 1, edges), remap


def restrict(h: Hypergraph, x: set[int] | frozenset[int]) -> tuple[Hypergraph, dict[int, int]]:
    """Restrict to vertex set x: keep projections e & x of size >= 2,
    deduplicated; ids recompacted with the old->new map returned."""
    x = set(x)
    if not all(0 <= v < h.n for v in x):
        raise ValueError("restriction set out of range")
    remap = compaction_map(x)
    projected = set()
    for e in h.edges:
        cut = tuple(sorted(remap[u] for u in e if u in x))
        if len(cut) >= 2:
            projected.add(cut)
    return Hypergraph(len(x), projected), remap


def delete_edges(g: Graph, removed) -> Graph:
    """Delete the given edge set; all vertices stay."""
    present = edge_set(g)
    gone = set()
    for u, v in removed:
        if u > v:
            u, v = v, u
        if (u, v) not in present:
            raise ValueError(f"({u}, {v}) is not an edge")
        gone.add((u, v))
    return Graph(g.n, [e for e in g.edges if e not in gone])


def delete_vertices(g: Graph, w: set[int] | frozenset[int]) -> tuple[Graph, dict[int, int]]:
    """Delete the vertex set w with incident edges; ids recompacted,
    old->new map returned."""
    w = set(w)
    if not all(0 <= v < g.n for v in w):
        raise ValueError("deletion set out of range")
    keep = set(range(g.n)) - w
    remap = compaction_map(keep)
    edges = [(remap[u], remap[v]) for u, v in g.edges if u not in w and v not in w]
    return Graph(len(keep), edges), remap
