"""The exhaustive lemma-check suites as they were before the depth-first
walks, kept verbatim as the oracle for `critgraph.suites`: the walks must
return equal `SuiteReport` dicts. Also the per-instance helpers that only
tests call: the labelled-hypergraph enumerator, the connected-bound check,
the (s+1)-subset scan that `edge_bound_check` used before it shared
`certify.min_subset_edges`, `find_small_cut` with the graph-search
components it used before it worked on vertex masks, the exhaustive span
check it used before `hypergraph.cycle_ranks`, the instance
constructor of the randomized suites before it unranked its draws, and
the `matching-oracle` draw loop before it bounded each edge count."""

from __future__ import annotations

import math
from itertools import combinations

from critgraph.hypergraph import Graph, Hypergraph, two_section
from critgraph.lemmas import (
    ENUMERATION_CAP,
    CapExceeded,
    CounterexampleFound,
    CutWitness,
    HypothesisNotMet,
    _validate_cut,
    candidate_edges,
    require_within_cap,
)
from critgraph.sampling import _uniforms, derive_seed
from critgraph.suites import SuiteReport, _below, _distinct_below, _random_uniform_hypergraph
from graph_ops import adjacency, is_connected


def connected_bound_check(h: Hypergraph) -> bool:
    """Whether |V| <= 1 + sum(|e| - 1); holds for every connected
    hypergraph. Raises on disconnected input."""
    if not is_connected(two_section(h)):
        raise ValueError("hypergraph is not connected")
    return h.n <= 1 + sum(len(e) - 1 for e in h.edges)


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by smallest
    member."""
    return components_within(g, range(g.n))


def components_within(g: Graph, active) -> tuple[tuple[int, ...], ...]:
    """Connected components of the subgraph induced by `active`, without
    building the induced graph; same ordering contract as components()."""
    active_set = set(active)
    adj = adjacency(g)
    seen: set[int] = set()
    out = []
    for start in sorted(active_set):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v in active_set and v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return tuple(out)


def density_hypothesis_check(h: Hypergraph, cap_edges: int = 22) -> bool:
    """Exhaustively test that every nonempty edge subset F spans at least
    sum over F of (|e| - 1) vertices."""
    if len(h.edges) > cap_edges:
        raise CapExceeded(f"{len(h.edges)} edges exceeds brute-force cap {cap_edges}")
    masks = h.edge_masks
    sizes = [len(e) for e in h.edges]
    for r in range(1, len(h.edges) + 1):
        for idx in combinations(range(len(h.edges)), r):
            union = 0
            need = 0
            for i in idx:
                union |= masks[i]
                need += sizes[i] - 1
            if union.bit_count() < need:
                return False
    return True


def find_small_cut(h: Hypergraph) -> CutWitness:
    """A set W of at most two vertices whose deletion disconnects the
    2-section, for any hypergraph with n >= 4, V not an edge, satisfying
    the per-subset span condition of density_hypothesis_check.

    When some edge e0 has size >= 3: delete e0, take the component C of the
    smallest vertex outside e0, and cut at W = e0 & C; the span condition
    forces |W| <= 2 and both remaining sides nonempty. Otherwise the
    2-section is a graph of maximum degree <= 2 after dropping size-1
    edges, where the lexicographically smallest disconnecting W of size
    <= 2 is found directly.
    """
    if h.n < 4:
        raise ValueError(f"need at least 4 vertices, got {h.n}")
    if tuple(range(h.n)) in h.edges:
        raise ValueError("the full vertex set is a hyperedge")
    if not density_hypothesis_check(h):
        raise HypothesisNotMet("an edge subset spans fewer vertices than required")

    g = two_section(h)
    big = [e for e in h.edges if len(e) >= 3]
    if big:
        e0 = big[0]
        outside = sorted(set(range(h.n)) - set(e0))
        v = outside[0]
        reduced = Hypergraph(h.n, [e for e in h.edges if e != e0])
        comp = next(
            c for c in components(two_section(reduced)) if v in c
        )
        w = tuple(sorted(set(e0) & set(comp)))
        if len(w) > 2:
            raise CounterexampleFound(
                f"component meets the removed edge in {len(w)} > 2 vertices: "
                f"n={h.n} edges={h.edges}"
            )
        side_a = tuple(sorted(set(comp) - set(e0)))
        side_b = tuple(sorted(set(range(h.n)) - set(comp)))
        witness = CutWitness(w=w, side_a=side_a, side_b=side_b)
        _validate_cut(g, witness, h)
        return witness

    # All edges have size <= 2; size-1 edges do not affect the 2-section,
    # so the graph has max degree <= 2 here and a tiny brute-force scan in
    # lexicographic order finds the smallest valid cut set.
    candidates: list[tuple[int, ...]] = [()]
    candidates += [(v,) for v in range(h.n)]
    candidates += list(combinations(range(h.n), 2))
    for w in candidates:
        active = set(range(h.n)) - set(w)
        if len(active) < 2:
            continue
        comps = components_within(g, active)
        if len(comps) >= 2:
            witness = CutWitness(
                w=w,
                side_a=comps[0],
                side_b=tuple(sorted(v for c in comps[1:] for v in c)),
            )
            _validate_cut(g, witness, h)
            return witness
    raise CounterexampleFound(
        f"no cut of size <= 2 exists despite the span condition: n={h.n} edges={h.edges}"
    )


def enumerate_hypergraphs(
    n: int,
    max_edges: int,
    sizes: set[int],
    cap: int = ENUMERATION_CAP,
):
    """All labelled hypergraphs on n vertices with at most max_edges edges
    drawn from the given size classes, in canonical order (by edge count,
    then lexicographic edge combination). The cap is checked at the call,
    before anything is enumerated."""
    require_within_cap([n], max_edges, sizes, cap)
    candidates = candidate_edges(n, sizes)
    return (
        Hypergraph(n, chosen)
        for count in range(min(max_edges, len(candidates)) + 1)
        for chosen in combinations(candidates, count)
    )


def max_subset_edges(h: Hypergraph, s: int) -> tuple[tuple[int, ...], int]:
    """The (s+1)-vertex subset of the 2-section inducing the most edges,
    the lexicographically first among ties, with its edge count."""
    g = two_section(h)
    masks = g.adjacency_masks
    worst_count = -1
    worst: tuple[int, ...] = ()
    for subset in combinations(range(g.n), s + 1):
        mask = 0
        count = 0
        for v in subset:
            count += (masks[v] & mask).bit_count()
            mask |= 1 << v
        if count > worst_count:
            worst_count = count
            worst = subset
    return worst, worst_count


def connected_bound_suite(
    max_n: int = 6, max_edges: int = 5, sizes: set[int] | None = None
) -> SuiteReport:
    """Every connected labelled hypergraph within the caps satisfies
    |V| <= 1 + sum(|e| - 1).

    Works on raw edge masks instead of Hypergraph values: the full
    enumeration for n = 6 covers a few million instances and the check is
    pure arithmetic plus a component merge. Raises CapExceeded before
    enumerating anything when the whole request is past the cap.
    """
    sizes = sizes or {2, 3, 4}
    require_within_cap(range(1, max_n + 1), max_edges, sizes)
    report = SuiteReport("obs1")
    for n in range(1, max_n + 1):
        full = (1 << n) - 1
        cands = [(sum(1 << v for v in e), len(e), e) for e in candidate_edges(n, sizes)]
        for count in range(min(max_edges, len(cands)) + 1):
            for chosen in combinations(cands, count):
                union = 0
                for mask, _, _ in chosen:
                    union |= mask
                if union != full and n > 1:
                    continue  # an uncovered vertex is isolated
                comps: list[int] = []
                for mask, _, _ in chosen:
                    merged = mask
                    rest = []
                    for c in comps:
                        if c & merged:
                            merged |= c
                        else:
                            rest.append(c)
                    comps = rest + [merged]
                if len(comps) > 1 or (not chosen and n > 1):
                    continue
                report.checked += 1
                slack = 1 + sum(size - 1 for _, size, _ in chosen)
                if n > slack:
                    report.counterexamples.append(
                        {"n": n, "edges": [list(e) for _, _, e in chosen], "bound": slack}
                    )
    return report


def small_cut_suite(
    min_n: int = 4, max_n: int = 5, max_edges: int = 5, sizes: set[int] | None = None
) -> SuiteReport:
    """find_small_cut returns a valid witness of size <= 2 on every
    labelled hypergraph within the caps that has V not an edge and
    satisfies the span condition; witness validity is re-verified against
    the full 2-section inside find_small_cut itself. Raises CapExceeded
    before enumerating anything when the whole request is past the cap."""
    sizes = sizes or {2, 3}
    require_within_cap(range(min_n, max_n + 1), max_edges, sizes)
    report = SuiteReport("blocks")
    for n in range(min_n, max_n + 1):
        for h in enumerate_hypergraphs(n, max_edges, sizes):
            if tuple(range(n)) in h.edges:
                continue
            try:
                find_small_cut(h)
            except HypothesisNotMet:
                report.skipped += 1
                continue
            except CounterexampleFound as err:
                report.counterexamples.append(
                    {"n": h.n, "edges": [list(e) for e in h.edges], "error": str(err)}
                )
                report.checked += 1
                continue
            report.checked += 1
    return report


def random_uniform_hypergraph(draws, n: int, s: int, edge_count: int) -> Hypergraph:
    """edge_count distinct s-edges drawn without replacement: the same
    ranks as the suites draw, each an index into the list of every s-edge."""
    all_edges = list(combinations(range(n), s))
    picked = _distinct_below(draws, math.comb(n, s), edge_count)
    return Hypergraph(n, [all_edges[i] for i in picked])


def matching_oracle_instances(
    count_per_s: int, seed: int, max_n: int, uniformities=(2, 3, 4), max_oracle_edges: int = 18
) -> list[Hypergraph]:
    """The instances `matching_oracle_suite` checked when it drew an edge
    count up to 3n/s - 1 and threw away any instance above
    max_oracle_edges, with no cap on the draws."""
    out = []
    for s in uniformities:
        produced = 0
        attempt = 0
        while produced < count_per_s:
            draws = _uniforms(derive_seed(seed, s, attempt))
            attempt += 1
            n = s + _below(draws, max_n - s + 1)
            h = _random_uniform_hypergraph(draws, n, s, 1 + _below(draws, max(1, 3 * n // s - 1)))
            if len(h.edges) > max_oracle_edges:
                continue
            produced += 1
            out.append(h)
    return out
