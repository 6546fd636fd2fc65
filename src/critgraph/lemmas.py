"""Executable checks of the deterministic structural facts behind the
construction, validated exhaustively on small instances:

  * a connected hypergraph has at most 1 + sum(|e| - 1) vertices;
  * a hypergraph whose every edge subset F spans >= sum over F of (|e| - 1)
    vertices has a cut set of at most 2 vertices (found constructively);
  * in the 2-section of a locally sparse uniform hypergraph, every
    (s+1)-vertex subset induces at most C(s,2) + 2 edges.

The first is checked by `suites.connected_bound_suite`, which counts the
connected hypergraphs and builds only the edge sets that could break it.

Each check either returns a verdict/witness or raises a typed error;
unexpected internal contradictions surface as CounterexampleFound so the
suite runner can serialize them instead of guessing a repair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .certify import min_subset_edges
from .hypergraph import Graph, Hypergraph, complement, cycle_ranks, mask_components, two_section
from .sparsity import check_sparsity


class CapExceeded(Exception):
    """A request is larger than a configured cap: an enumeration past its
    size cap, or a randomized suite that runs out of attempts before enough
    instances meet its hypothesis."""


class RequestRefused(ValueError):
    """A suite request with nothing to check: a count below 1, a negative
    edge cap, or a vertex range below the smallest instance it uses."""


class HypothesisNotMet(Exception):
    """The check's structural hypothesis fails on this input, so the bound
    is not claimed; distinct from a violated bound."""


class CounterexampleFound(Exception):
    """An internal step contradicted the structural fact being checked."""


@dataclass(frozen=True)
class CutWitness:
    """A separating set of at most two vertices with the two sides it
    leaves disconnected (side_b may itself be a union of components)."""

    w: tuple[int, ...]
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


def density_hypothesis_check(h: Hypergraph) -> bool:
    """Whether every nonempty edge subset F spans at least sum over F of
    (|e| - 1) vertices: by hypergraph.cycle_ranks, exactly when every
    intersection component has incidence cycle rank at most 1. No edge
    subset is enumerated."""
    return all(beta <= 1 for _, beta in cycle_ranks(h.edge_masks))


def _validate_cut(g: Graph, witness: CutWitness, h: Hypergraph) -> None:
    """Re-verify a cut witness directly against the full 2-section instead
    of trusting the construction's bookkeeping."""
    w, a, b = set(witness.w), set(witness.side_a), set(witness.side_b)
    problems = []
    if len(w) > 2:
        problems.append(f"cut set has {len(w)} > 2 vertices")
    if not a or not b:
        problems.append("a cut side is empty")
    if a & b or a & w or b & w:
        problems.append("cut parts overlap")
    if a | b | w != set(range(g.n)):
        problems.append("cut parts do not cover the vertex set")
    for u, v in g.edges:
        if (u in a and v in b) or (u in b and v in a):
            problems.append(f"edge ({u}, {v}) joins the two sides")
            break
    if problems:
        raise CounterexampleFound(
            f"invalid cut witness for {h.n=} edges={h.edges}: " + "; ".join(problems)
        )


def find_small_cut(h: Hypergraph) -> CutWitness:
    """A set W of at most two vertices whose deletion disconnects the
    2-section, for any hypergraph with n >= 4, V not an edge, satisfying
    the per-subset span condition of density_hypothesis_check.

    When some edge e0 has size >= 3: delete e0, take the component C of the
    smallest vertex outside e0, and cut at W = e0 & C; the span condition
    forces |W| <= 2 and both remaining sides nonempty. Otherwise each
    component of the 2-section, the graph of the size-2 edges, is a tree
    or has one cycle. So for n >= 4 a W of at most 2 vertices cuts it:
    none if it is disconnected, else an internal tree vertex, two
    non-adjacent vertices of a pure cycle, or a cycle vertex carrying a
    pendant tree. A scan finds the lexicographically smallest one.
    """
    if h.n < 4:
        raise ValueError(f"need at least 4 vertices, got {h.n}")
    if tuple(range(h.n)) in h.edges:
        raise ValueError("the full vertex set is a hyperedge")
    if not density_hypothesis_check(h):
        raise HypothesisNotMet("an edge subset spans fewer vertices than required")

    g = two_section(h)
    full = (1 << h.n) - 1
    masks = h.edge_masks
    big = [i for i, e in enumerate(h.edges) if len(e) >= 3]
    if big:
        i0 = big[0]
        e0 = masks[i0]
        outside = full & ~e0
        v = outside & -outside
        comps = mask_components(masks[:i0] + masks[i0 + 1 :], full)
        comp = next(c for c in comps if c & v)
        w = _members(e0 & comp)
        if len(w) > 2:
            raise CounterexampleFound(
                f"component meets the removed edge in {len(w)} > 2 vertices: "
                f"n={h.n} edges={h.edges}"
            )
        witness = CutWitness(w=w, side_a=_members(comp & ~e0), side_b=_members(full & ~comp))
        _validate_cut(g, witness, h)
        return witness

    # All edges have size <= 2 (size-1 ones leave the 2-section alone):
    # scan the cut sets of at most 2 vertices in lexicographic order.
    candidates: list[tuple[int, ...]] = [()]
    candidates += [(v,) for v in range(h.n)]
    candidates += list(combinations(range(h.n), 2))
    for w in candidates:
        active = full & ~sum(1 << v for v in w)
        comps = mask_components(masks, active)
        if len(comps) >= 2:
            witness = CutWitness(
                w=w, side_a=_members(comps[0]), side_b=_members(active & ~comps[0])
            )
            _validate_cut(g, witness, h)
            return witness
    raise CounterexampleFound(
        f"no cut of size <= 2 exists despite the span condition: n={h.n} edges={h.edges}"
    )


def _members(mask: int) -> tuple[int, ...]:
    """The vertices of a vertex mask, ascending."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def edge_bound_check(h: Hypergraph, s: int) -> tuple[bool, tuple[tuple[int, ...], int]]:
    """Whether every (s+1)-vertex subset of the 2-section induces at most
    C(s,2) + 2 edges; returns the maximizing subset (lexicographically
    first among ties) and its edge count as evidence either way.

    Requires the span condition for all edge subsets smaller than 2^(s+1)
    (checked through the sparsity window 2^(s+1) - 1); failing that raises
    HypothesisNotMet rather than reporting on an out-of-scope instance.
    """
    if s < 3:
        raise ValueError(f"need s >= 3, got {s}")
    if not h.is_uniform(s):
        raise ValueError(f"hypergraph is not {s}-uniform")
    if h.n < s + 1:
        raise ValueError(f"need at least {s + 1} vertices, got {h.n}")
    window = 2 ** (s + 1) - 1
    if not check_sparsity(h, window, s).holds:
        raise HypothesisNotMet("sparsity window check failed")
    bound = math.comb(s, 2) + 2
    # The densest subset of the 2-section is the sparsest of its complement.
    fewest, worst = min_subset_edges(complement(two_section(h)), s + 1)
    worst_count = math.comb(s + 1, 2) - fewest
    return worst_count <= bound, (worst, worst_count)


ENUMERATION_CAP = 6_000_000


def candidate_edges(n: int, sizes: set[int]) -> list[tuple[int, ...]]:
    """Every possible edge on n vertices with a size in `sizes`, sorted."""
    out: list[tuple[int, ...]] = []
    for size in sorted(sizes):
        if 1 <= size <= n:
            out.extend(combinations(range(n), size))
    out.sort()
    return out


def require_within_cap(ns, max_edges: int, sizes: set[int], cap: int = ENUMERATION_CAP) -> None:
    """Raise CapExceeded unless enumerating every labelled hypergraph with
    at most max_edges edges of the given sizes, summed over every vertex
    count in ns, stays within cap. Arithmetic only: nothing is enumerated,
    and the count stops as soon as it passes cap (every term is >= 0).
    With no edges each n adds only the empty edge set: the count is len(ns)."""
    if max_edges == 0:
        if len(ns) > cap:
            raise CapExceeded(f"more than {cap} hypergraphs (counted {len(ns)} before stopping)")
        return
    total = 0
    for n in ns:
        count = sum(math.comb(n, size) for size in sizes if 1 <= size <= n)
        for j in range(min(max_edges, count) + 1):
            total += math.comb(count, j)
            if total > cap:
                raise CapExceeded(f"more than {cap} hypergraphs (counted {total} before stopping)")
