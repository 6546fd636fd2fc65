"""Exhaustive and randomized validation suites over small instances.

Each suite returns a SuiteReport with the number of instances checked,
skipped (hypothesis not met), and any counterexamples found, serialized as
plain dicts so the command line can emit them. A correct implementation
finds zero counterexamples in every suite; the suites exist to make that
falsifiable.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations

from .hypergraph import Hypergraph, cycle_ranks, mask_components
from .lemmas import (
    CapExceeded,
    CounterexampleFound,
    HypothesisNotMet,
    RequestRefused,
    candidate_edges,
    edge_bound_check,
    find_small_cut,
    require_within_cap,
)
from .matching import find_perfect_matching
from .sampling import _uniforms, _unrank_sorted, check_unrank_table, derive_seed
from .sparsity import brute_force_sparsity, check_sparsity, violator_problems


@dataclass
class SuiteReport:
    suite: str
    checked: int = 0
    skipped: int = 0
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checked": self.checked,
            "skipped": self.skipped,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
        }


# The fixed shapes of the randomized suites' instances: lemma-check sets
# only their count, seed and max_n.
EDGEBOUND_S = 3
SPARSITY_ORACLE_S, SPARSITY_ORACLE_M, SPARSITY_ORACLE_MAX_EDGES = 3, 16, 12
MATCHING_ORACLE_UNIFORMITIES, MATCHING_ORACLE_MAX_EDGES = (2, 3, 4), 18


def _at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise RequestRefused(f"{name} must be at least {low}, got {value}")


def _in_enumeration_order(found: list[tuple[list[int], dict]]) -> list[dict]:
    """Counterexamples found depth first, put back in the order of an
    enumeration by edge count, then lexicographic index combination."""
    found.sort(key=lambda item: (len(item[0]), item[0]))
    return [cx for _, cx in found]


def connected_bound_suite(
    max_n: int = 6, max_edges: int = 5, sizes: set[int] | None = None
) -> SuiteReport:
    """Every connected labelled hypergraph within the caps satisfies
    |V| <= 1 + sum(|e| - 1).

    The connected hypergraphs are counted (_connected_spanning_counts),
    and only the edge sets that could break the bound are walked
    (_slack_walk). Past n = max(1, max_edges * max(sizes)) no edge set
    within the caps covers V, so none is connected. Raises CapExceeded
    before enumerating anything when the whole request is past the cap,
    and RequestRefused for a negative cap.
    """
    sizes = sizes or {2, 3, 4}
    _at_least("max_n", max_n, 1)
    _at_least("max_edges", max_edges, 0)
    require_within_cap(range(1, max_n + 1), max_edges, sizes)
    top = min(max_n, max(1, max_edges * max(sizes)))
    report = SuiteReport("obs1")
    report.checked = sum(map(sum, _connected_spanning_counts(top, max_edges, sizes)))
    for n in range(1, top + 1):
        report.counterexamples += _slack_walk(n, max_edges, sizes)
    return report


def _connected_spanning_counts(max_n: int, max_edges: int, sizes: set[int]) -> list[list[int]]:
    """Row k, entry j: the number of j-edge sets of candidate edges on k
    labelled vertices that cover all k and are connected, for k <= max_n
    and j <= max_edges. Row 1 counts the empty set, the one vertex alone;
    row 0 counts nothing.

    With I_k(x) = sum_j C(c_k, j) x^j, where c_k is the number of
    candidates on k vertices (of a size in `sizes`, 1 <= size <= k, as
    candidate_edges filters), and G_k the generating polynomial of row k:
    any edge set on k vertices splits into the block of vertex 0, a
    connected spanning set on some b vertices holding vertex 0, chosen in
    C(k - 1, b - 1) ways, and any edge set on the other k - b vertices.
    So I_k = sum_{b <= k} C(k - 1, b - 1) G_b I_{k-b}, with I_0 = 1, which
    gives G_k = I_k - sum_{b < k} C(k - 1, b - 1) G_b I_{k-b}, truncated
    at degree max_edges.
    """
    counts = [sum(math.comb(k, size) for size in sizes if 1 <= size <= k) for k in range(max_n + 1)]
    width = min(max_edges, counts[-1]) + 1  # no set has more edges than there are candidates
    every = [[math.comb(c, j) for j in range(width)] for c in counts]  # every[k]: I_k
    rows = [[0] * width]
    for k in range(1, max_n + 1):
        row = every[k][:]
        for b in range(1, k):
            ways, rest = math.comb(k - 1, b - 1), every[k - b]
            for i, g in enumerate(rows[b]):
                for j in range(width - i):
                    row[i + j] -= ways * g * rest[j]
        rows.append(row)
    return rows


def _slack_walk(n: int, max_edges: int, sizes: set[int]) -> list[dict]:
    """Every connected edge set on n vertices, of at most max_edges
    candidate edges, that covers V with bound 1 + sum(|e| - 1) < n: the
    counterexamples to the fact, in enumeration order.

    Sets grow in index order, and only while the bound stays below n,
    since an edge never lowers it. A set is dropped when the edges it has
    room for cannot cover the rest of V: each adds at most one vertex more
    than it adds to the bound, and at most max(sizes) vertices.
    """
    cands = candidate_edges(n, sizes)
    masks = [sum(1 << v for v in e) for e in cands]
    widest = max(sizes)
    full = (1 << n) - 1
    chosen: list[int] = []
    found: list[tuple[list[int], dict]] = []

    def visit(start: int, union: int, slack: int) -> None:
        if union == full and len(mask_components([masks[i] for i in chosen], full)) == 1:
            found.append((list(chosen), {"n": n, "edges": [list(cands[i]) for i in chosen], "bound": slack}))
        left = max_edges - len(chosen) - 1  # edges a child has room for
        if left < 0:
            return
        low = ~union & (union + 1)  # the lowest vertex left to cover
        for j in range(start, len(cands)):
            if masks[j] & -masks[j] > low:
                break  # edges come by lowest vertex: no later one covers it
            grown = slack + len(cands[j]) - 1
            if grown >= n:
                continue
            if (union | masks[j]).bit_count() + min(left * widest, n - 1 - grown + left) >= n:
                chosen.append(j)
                visit(j + 1, union | masks[j], grown)
                chosen.pop()

    visit(0, 0, 1)
    return _in_enumeration_order(found)


def small_cut_suite(
    min_n: int = 4, max_n: int = 5, max_edges: int = 5, sizes: set[int] | None = None
) -> SuiteReport:
    """find_small_cut returns a valid witness of size <= 2 on every
    labelled hypergraph within the caps that has V not an edge and
    satisfies the span condition; witness validity is re-verified against
    the full 2-section inside find_small_cut itself.

    One depth-first walk per n over increasing candidate-index sets. The
    span condition holds iff every intersection component has cycle rank
    at most 1 (hypergraph.cycle_ranks), and it is hereditary, so a set
    that fails it counts its whole subtree as skipped without visiting it.
    Edge sets holding V as an edge are counted neither checked nor
    skipped. Raises CapExceeded before enumerating
    anything when the whole request is past the cap, and RequestRefused
    for a range or cap with nothing to check.
    """
    sizes = sizes or {2, 3}
    _at_least("min_n", min_n, 4)
    _at_least("max_n", max_n, min_n)
    _at_least("max_edges", max_edges, 0)
    require_within_cap(range(min_n, max_n + 1), max_edges, sizes)
    report = SuiteReport("blocks")
    for n in range(min_n, max_n + 1):
        _small_cut_walk(n, max_edges, sizes, report)
    return report


def _small_cut_walk(n: int, max_edges: int, sizes: set[int], report: SuiteReport) -> None:
    """Add to `report` every edge set on n vertices with at most
    max_edges candidate edges, V excluded."""
    cands = [e for e in candidate_edges(n, sizes) if len(e) < n]
    masks = [sum(1 << v for v in e) for e in cands]
    chosen: list[int] = []
    found: list[tuple[list[int], dict]] = []

    def visit() -> None:
        # Only sets that meet the span condition are visited.
        h = Hypergraph(n, [cands[i] for i in chosen])
        try:
            find_small_cut(h)
        except CounterexampleFound as err:
            found.append(
                (list(chosen), {"n": h.n, "edges": [list(e) for e in h.edges], "error": str(err)})
            )
        report.checked += 1
        room = max_edges - len(chosen) - 1
        if room < 0:
            return
        picked = [masks[i] for i in chosen]
        for j in range(chosen[-1] + 1 if chosen else 0, len(cands)):
            if all(beta <= 1 for _, beta in cycle_ranks(picked + [masks[j]])):
                chosen.append(j)
                visit()
                chosen.pop()
            else:
                free = len(cands) - j - 1
                report.skipped += sum(math.comb(free, t) for t in range(room + 1))

    visit()
    report.counterexamples += _in_enumeration_order(found)


def _below(draws: Iterator[float], bound: int) -> int:
    """A uniform integer in [0, bound), exact for every bound >= 1: Lemire's
    multiply-shift with rejection on an x of L bits, the exact 53-bit
    integers of the fewest doubles with 2**L >= bound, concatenated."""
    bits = 53 * max(1, ((bound - 1).bit_length() + 52) // 53)
    floor = (1 << bits) % bound  # rejecting low parts below it leaves equal odds
    while True:
        x = 0
        for _ in range(bits // 53):
            x = x << 53 | int(next(draws) * 2.0**53)
        product = x * bound
        if product & ((1 << bits) - 1) >= floor:
            return product >> bits


def _distinct_below(draws: Iterator[float], total: int, count: int) -> list[int]:
    """min(count, total) distinct ranks in [0, total), ascending, each
    subset equally likely: Floyd's algorithm."""
    picked: set[int] = set()
    for j in range(total - min(count, total), total):
        t = _below(draws, j + 1)
        picked.add(j if t in picked else t)
    return sorted(picked)


def _random_uniform_hypergraph(draws: Iterator[float], n: int, s: int, edge_count: int) -> Hypergraph:
    """edge_count distinct s-edges drawn without replacement: distinct
    ranks over the C(n, s) candidates, unranked in lexicographic order."""
    ranks = _distinct_below(draws, math.comb(n, s), edge_count)
    return Hypergraph._from_canonical(n, tuple(_unrank_sorted(ranks, n, s)))


def two_section_bound_suite(
    count: int = 200, seed: int = 0, max_n: int = 14, max_attempts: int = 20000
) -> SuiteReport:
    """Random s-uniform instances (s = EDGEBOUND_S) that pass the sparsity
    window check must have every (s+1)-subset of the 2-section inducing at
    most C(s,2) + 2 edges. Raises CapExceeded when fewer than `count`
    instances pass the hypothesis within max_attempts draws."""
    s = EDGEBOUND_S
    _at_least("count", count, 1)
    _at_least("max_n", max_n, s + 4)
    check_unrank_table(max_n, s, RequestRefused)
    report = SuiteReport("edgebound")
    attempt = 0
    while report.checked < count and attempt < max_attempts:
        draws = _uniforms(derive_seed(seed, attempt))
        attempt += 1
        n = s + 4 + _below(draws, max_n - s - 3)
        h = _random_uniform_hypergraph(draws, n, s, 2 + _below(draws, n // 2))
        try:
            holds, (worst, worst_count) = edge_bound_check(h, s)
        except HypothesisNotMet:
            report.skipped += 1
            continue
        report.checked += 1
        if not holds:
            report.counterexamples.append(
                {
                    "n": h.n,
                    "edges": [list(e) for e in h.edges],
                    "subset": list(worst),
                    "count": worst_count,
                }
            )
    if report.checked < count:
        raise CapExceeded(
            f"only {report.checked} of {count} instances passed the hypothesis "
            f"within the cap of {max_attempts} attempts"
        )
    return report


def sparsity_oracle_suite(count: int = 200, seed: int = 1, max_n: int = 14) -> SuiteReport:
    """check_sparsity must agree with brute-force enumeration, and every
    reported violator must pass sparsity.violator_problems, the check
    check_certificate applies to a stored violator."""
    s, m = SPARSITY_ORACLE_S, SPARSITY_ORACLE_M
    _at_least("count", count, 1)
    _at_least("max_n", max_n, s + 2)
    check_unrank_table(max_n, s, RequestRefused)
    report = SuiteReport("sparsity-oracle")
    for i in range(count):
        draws = _uniforms(derive_seed(seed, i))
        n = s + 2 + _below(draws, max_n - s - 1)
        h = _random_uniform_hypergraph(draws, n, s, 1 + _below(draws, SPARSITY_ORACLE_MAX_EDGES))
        fast = check_sparsity(h, m, s)
        slow = brute_force_sparsity(h, m, s)
        report.checked += 1
        problems = []
        if fast.holds != slow.holds:
            problems.append(f"verdicts differ: search={fast.holds} oracle={slow.holds}")
        if fast.violator is not None:
            problems.extend(violator_problems(h, list(fast.violator.edge_indices), s, m))
        if problems:
            report.counterexamples.append(
                {"n": h.n, "edges": [list(e) for e in h.edges], "problems": problems}
            )
    return report


def matching_oracle_suite(count_per_s: int = 200, seed: int = 2, max_n: int = 12) -> SuiteReport:
    """Solver verdict must equal exhaustive enumeration over all edge
    subsets of the right cardinality, and every witness must re-validate
    as a disjoint cover by edges of the instance. Each instance draws at
    most MATCHING_ORACLE_MAX_EDGES edges, which bounds the enumeration
    whatever max_n is."""
    _at_least("count_per_s", count_per_s, 1)
    _at_least("max_n", max_n, max(MATCHING_ORACLE_UNIFORMITIES))
    check_unrank_table(max_n, max(MATCHING_ORACLE_UNIFORMITIES), RequestRefused)
    report = SuiteReport("matching-oracle")
    for s in MATCHING_ORACLE_UNIFORMITIES:
        for i in range(count_per_s):
            draws = _uniforms(derive_seed(seed, s, i))
            n = s + _below(draws, max_n - s + 1)
            edges = 1 + _below(draws, min(MATCHING_ORACLE_MAX_EDGES, max(1, 3 * n // s - 1)))
            h = _random_uniform_hypergraph(draws, n, s, edges)
            found = find_perfect_matching(h)
            expected = _matching_exists_oracle(h, s)
            report.checked += 1
            problems = []
            if (found is not None) != expected:
                problems.append(f"solver={'yes' if found else 'no'} oracle={'yes' if expected else 'no'}")
            if found is not None and not found.is_perfect_for(frozenset(range(h.n))):
                problems.append("witness is not a perfect matching")
            if found is not None and not set(found.edges) <= set(h.edges):
                problems.append("witness uses non-edges")
            if problems:
                report.counterexamples.append(
                    {"n": h.n, "s": s, "edges": [list(e) for e in h.edges], "problems": problems}
                )
    return report


def _matching_exists_oracle(h: Hypergraph, s: int) -> bool:
    """Ground truth by enumerating every candidate edge subset of size
    n / s and testing disjoint exact cover."""
    if h.n == 0:
        return True
    if h.n % s != 0:
        return False
    want = h.n // s
    full = (1 << h.n) - 1
    for idx in combinations(range(len(h.edges)), want):
        union = 0
        ok = True
        for i in idx:
            m = h.edge_masks[i]
            if union & m:
                ok = False
                break
            union |= m
        if ok and union == full:
            return True
    return False
