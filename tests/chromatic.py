"""Exact chromatic number and independence number for small graphs, and
the cross-check of a certificate's conclusions against them.

Both solvers are test oracles for the certified bounds the construction
produces, so they are deliberately independent of the construction path: chromatic number by iterative deepening on k with a
saturation-guided k-colorability backtracker, independence number by
branch-and-bound with a greedy clique-cover upper bound.
"""

from __future__ import annotations

from critgraph.certify import Certificate
from critgraph.hypergraph import Graph
from graph_ops import adjacency


class SizeCapExceeded(Exception):
    """Input larger than the configured exact-solver cap."""


def _greedy_clique(g: Graph) -> list[int]:
    """A maximal clique grown greedily from the highest-degree vertex."""
    if g.n == 0:
        return []
    masks = g.adjacency_masks
    adj = adjacency(g)
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    clique = [order[0]]
    common = masks[order[0]]
    for v in order[1:]:
        if common >> v & 1:
            clique.append(v)
            common &= masks[v]
    return clique


def _greedy_coloring_count(g: Graph) -> int:
    """Colors used by largest-first greedy coloring (upper bound)."""
    adj = adjacency(g)
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    colors: dict[int, int] = {}
    used = 0
    for v in order:
        taken = {colors[u] for u in adj[v] if u in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
        used = max(used, c + 1)
    return used


def find_coloring(g: Graph, k: int) -> list[int] | None:
    """A proper coloring with at most k colors, or None.

    Backtracking over vertices in saturation order (most distinctly
    colored neighbors first, ties by degree then id); new colors are
    introduced at most one at a time, which breaks color-class symmetry.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = g.n
    if n == 0:
        return []
    if k == 0:
        return None
    adj = adjacency(g)
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]

    def pick() -> int:
        best = -1
        key = (-1, -1)
        for v in range(n):
            if colors[v] == -1:
                cand = (len(neighbor_colors[v]), len(adj[v]))
                if cand > key:
                    key = cand
                    best = v
        return best

    def backtrack(used: int) -> bool:
        v = pick()
        if v == -1:
            return True
        tryable = min(used + 1, k)
        for c in range(tryable):
            if c in neighbor_colors[v]:
                continue
            colors[v] = c
            touched = []
            for u in adj[v]:
                if colors[u] == -1 and c not in neighbor_colors[u]:
                    neighbor_colors[u].add(c)
                    touched.append(u)
            if backtrack(max(used, c + 1)):
                return True
            for u in touched:
                neighbor_colors[u].remove(c)
            colors[v] = -1
        return False

    return colors[:] if backtrack(0) else None


def exact_chromatic(g: Graph, cap: int = 45) -> int:
    """Exact chromatic number; refuses graphs above the vertex cap."""
    if g.n > cap:
        raise SizeCapExceeded(f"{g.n} vertices exceeds cap {cap}")
    if g.n == 0:
        return 0
    lower = max(1, len(_greedy_clique(g)))
    upper = max(lower, _greedy_coloring_count(g))
    for k in range(lower, upper + 1):
        if find_coloring(g, k) is not None:
            return k
    raise AssertionError("greedy upper bound was not colorable")


def exact_independence(g: Graph, cap: int = 60) -> int:
    """Exact maximum independent set size; refuses graphs above the cap.

    Branch and bound on candidate bitsets: the bound partitions the
    candidates greedily into cliques, each of which contributes at most
    one vertex.
    """
    if g.n > cap:
        raise SizeCapExceeded(f"{g.n} vertices exceeds cap {cap}")
    if g.n == 0:
        return 0
    masks = g.adjacency_masks
    best = 0

    def clique_cover_bound(candidates: int) -> int:
        count = 0
        rest = candidates
        while rest:
            count += 1
            bit = rest & -rest
            v = bit.bit_length() - 1
            rest ^= bit
            clique_common = masks[v]
            scan = rest & clique_common
            while scan:
                b2 = scan & -scan
                u = b2.bit_length() - 1
                rest ^= b2
                clique_common &= masks[u]
                scan = rest & clique_common
        return count

    def recurse(candidates: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if not candidates:
            return
        if size + clique_cover_bound(candidates) <= best:
            return
        bit = candidates & -candidates
        v = bit.bit_length() - 1
        # Include v, then exclude it.
        recurse(candidates & ~(masks[v] | bit), size + 1)
        recurse(candidates ^ bit, size)

    recurse((1 << g.n) - 1, 0)
    return best


def cross_check_with_oracles(
    cert: Certificate,
    chi_cap: int = 45,
    independence_cap: int = 60,
) -> dict[str, bool]:
    """Independent exact-solver confirmation of a fully certified
    instance; only meaningful when the conclusions were certified."""
    results = {}
    g = cert.graph
    if cert.conclusions.chi is not None and g.n <= chi_cap:
        results["chi"] = exact_chromatic(g, cap=chi_cap) == cert.conclusions.chi
    if cert.conclusions.robust_to_r and g.n <= independence_cap:
        results["independence"] = exact_independence(g, cap=independence_cap) <= cert.params.s
    return results
