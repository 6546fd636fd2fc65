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

from .hypergraph import Hypergraph, cycle_ranks, merge_component
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

    One depth-first walk per n over increasing candidate-index sets that
    carries the union, the intersection components and the slack
    1 + sum(|e| - 1). At each set, the one-edge extensions that are
    connected and cover every vertex are counted in bulk with bitsets; the
    edge-size classes are consulted only where an extension could break
    the bound. The walk visits the children of a set with room for three
    or more edges; a set with room for exactly two counts its children's
    closing edges in one loop, without visiting them. The bitsets for a
    vertex set are built when the walk first asks for it, so the work
    stays within the sets the cap counts. Raises CapExceeded before
    enumerating anything when the whole request is past the cap, and
    RequestRefused for a negative cap.
    """
    sizes = sizes or {2, 3, 4}
    _at_least("max_n", max_n, 1)
    _at_least("max_edges", max_edges, 0)
    require_within_cap(range(1, max_n + 1), max_edges, sizes)
    report = SuiteReport("obs1")
    for n in range(1, max_n + 1):
        if n == 1:
            report.checked += 1  # no edges: connected, and 1 <= 1
        if max_edges:
            _connected_bound_walk(n, max_edges, sizes, report)
    return report


def _bitset(indices: list[int], width: int) -> int:
    """The int with bit j set for every j in indices, built in time
    linear in width."""
    digits = bytearray(b"0" * width)
    for j in indices:
        digits[width - 1 - j] = ord("1")
    return int(digits or b"0", 2)


class _Memo(dict):
    """A dict that fills a missing key with fill(key) on its first lookup."""

    def __init__(self, fill) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _connected_bound_walk(n: int, max_edges: int, sizes: set[int], report: SuiteReport) -> None:
    """Add to `report` every connected nonempty edge set on n vertices
    with at most max_edges candidate edges."""
    cands = candidate_edges(n, sizes)
    masks = [sum(1 << v for v in e) for e in cands]
    width = len(cands)
    every = (1 << width) - 1
    classes = [
        (k, _bitset([j for j, e in enumerate(cands) if len(e) == k], width))
        for k in sorted(sizes)
        if 1 <= k <= n
    ]
    holders: list[list[int]] = [[] for _ in range(n)]
    for j, e in enumerate(cands):
        for v in e:
            holders[v].append(j)
    # inc[v]: the candidates holding vertex v, as a bitset over candidate
    # indices. The walk's vertex-set queries are built from these on first
    # use, so the work stays within the visited sets, not 2^n.
    inc = [_bitset(js, width) for js in holders]

    def all_of(vs: int) -> int:
        out = every
        for v in range(n):
            if vs >> v & 1:
                out &= inc[v]
        return out

    def any_of(vs: int) -> int:
        out = 0
        for v in range(n):
            if vs >> v & 1:
                out |= inc[v]
        return out

    containing = _Memo(all_of)  # vertex set -> the candidates holding all of it
    meeting = _Memo(any_of)  # vertex set -> the candidates holding some of it
    full = (1 << n) - 1
    chosen: list[int] = []
    found: list[tuple[list[int], dict]] = []
    checked = 0
    # A closing edge of size k gives a set with bound slack + k - 1, which
    # only k <= n - slack can break: none when n - slack < smallest.
    smallest = classes[0][0] if classes else n + 1

    def record(closing: int, slack: int, picked: list[int]) -> None:
        for k, cls in classes:
            if k > n - slack:
                break
            hit = closing & cls
            while hit:
                j = (hit & -hit).bit_length() - 1
                hit &= hit - 1
                edges = [list(cands[i]) for i in picked] + [list(cands[j])]
                found.append((picked + [j], {"n": n, "edges": edges, "bound": slack + k - 1}))

    def visit(children: int, union: int, comps: list[int], slack: int) -> None:
        nonlocal checked
        # A child stays connected iff its edge meets every component, and
        # covers V iff its edge holds every vertex the set leaves out.
        closing = children & containing[full ^ union]
        for c in comps:
            closing &= meeting[c]
        checked += closing.bit_count()
        if n - slack >= smallest:
            record(closing, slack, chosen)
        room = max_edges - len(chosen)
        if room < 2:
            return
        start = chosen[-1] + 1 if chosen else 0
        if room > 2:
            for j in range(start, width):
                chosen.append(j)
                above = every ^ ((2 << j) - 1)
                visit(above, union | masks[j], merge_component(comps, masks[j]), slack + len(cands[j]) - 1)
                chosen.pop()
            return
        # Room for exactly two more edges: each child's closing edges are
        # counted here, without visiting it. Its components are the ones
        # its edge misses plus the one its edge merges.
        met = [(c, meeting[c]) for c in comps]
        above = every ^ ((1 << start) - 1)
        for j in range(start, width):
            above ^= 1 << j
            mask = masks[j]
            closing = above & containing[full ^ (union | mask)]
            if not closing:
                continue
            merged = mask
            for c, m in met:
                if c & mask:
                    merged |= c
                else:
                    closing &= m
            closing &= meeting[merged]
            checked += closing.bit_count()
            grown = slack + len(cands[j]) - 1
            if n - grown >= smallest:
                record(closing, grown, chosen + [j])

    visit(every, 0, [], 1)
    report.checked += checked
    report.counterexamples += _in_enumeration_order(found)


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
    as a disjoint cover. Each instance draws at most
    MATCHING_ORACLE_MAX_EDGES edges, which bounds the enumeration whatever
    max_n is."""
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
