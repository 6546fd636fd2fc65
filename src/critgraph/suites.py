"""Exhaustive and randomized validation suites over small instances.

Each suite returns a SuiteReport with the number of instances checked,
skipped (hypothesis not met), and any counterexamples found, serialized as
plain dicts so the command line can emit them. A correct implementation
finds zero counterexamples in every suite; the suites exist to make that
falsifiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING

from .hypergraph import Hypergraph
from .lemmas import (
    CounterexampleFound,
    HypothesisNotMet,
    candidate_edges,
    edge_bound_check,
    enumerate_hypergraphs,
    find_small_cut,
    require_within_cap,
)
from .matching import find_perfect_matching
from .sampling import derive_seed
from .sparsity import brute_force_sparsity, check_sparsity, excess

if TYPE_CHECKING:
    import numpy as np


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


def _suite_rng(seed: int, *path: int) -> np.random.Generator:
    """numpy's Philox generator on the stream derive_seed(seed, *path).
    Only the randomized suites draw integers and choices from numpy, so
    numpy is imported here and nowhere else in the package."""
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence(derive_seed(seed, *path))))


def _random_uniform_hypergraph(
    rng: np.random.Generator, n: int, s: int, edge_count: int
) -> Hypergraph:
    """edge_count distinct s-edges drawn without replacement."""
    total = math.comb(n, s)
    edge_count = min(edge_count, total)
    all_edges = list(combinations(range(n), s))
    picked = rng.choice(total, size=edge_count, replace=False)
    return Hypergraph(n, [all_edges[i] for i in sorted(picked)])


def two_section_bound_suite(
    count: int = 200, seed: int = 0, max_n: int = 14, s: int = 3, max_attempts: int = 20000
) -> SuiteReport:
    """Random s-uniform instances that pass the sparsity window check must
    have every (s+1)-subset of the 2-section inducing at most
    C(s,2) + 2 edges."""
    report = SuiteReport("edgebound")
    attempt = 0
    while report.checked < count and attempt < max_attempts:
        rng = _suite_rng(seed, attempt)
        attempt += 1
        n = int(rng.integers(s + 4, max_n + 1))
        edges = int(rng.integers(2, n // 2 + 2))
        h = _random_uniform_hypergraph(rng, n, s, edges)
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
        raise RuntimeError(
            f"only {report.checked} instances passed the hypothesis in {attempt} attempts"
        )
    return report


def sparsity_oracle_suite(
    count: int = 200, seed: int = 1, max_n: int = 14, s: int = 3, m: int = 16, max_edge_count: int = 12
) -> SuiteReport:
    """check_sparsity must agree with brute-force enumeration, and every
    reported violator must re-validate: within the window, actually
    violating, inclusion-minimal, intersection-connected, and with every
    edge meeting the union of the others in >= 2 vertices."""
    report = SuiteReport("sparsity-oracle")
    for i in range(count):
        rng = _suite_rng(seed, i)
        n = int(rng.integers(s + 2, max_n + 1))
        edges = int(rng.integers(1, max_edge_count + 1))
        h = _random_uniform_hypergraph(rng, n, s, edges)
        fast = check_sparsity(h, m, s)
        slow = brute_force_sparsity(h, m, s)
        report.checked += 1
        problems = []
        if fast.holds != slow.holds:
            problems.append(f"verdicts differ: search={fast.holds} oracle={slow.holds}")
        if fast.violator is not None:
            problems.extend(_violator_problems(h, list(fast.violator.edge_indices), s, m))
        if problems:
            report.counterexamples.append(
                {"n": h.n, "edges": [list(e) for e in h.edges], "problems": problems}
            )
    return report


def _violator_problems(h: Hypergraph, idx: list[int], s: int, m: int) -> list[str]:
    problems = []
    if not 1 <= len(idx) <= m:
        problems.append(f"violator size {len(idx)} outside [1, {m}]")
    if len(set(idx)) != len(idx):
        problems.append("violator repeats an edge index")
    if excess(h, idx, s) > -1:
        problems.append("reported violator does not violate")
    for i in idx:
        rest = [j for j in idx if j != i]
        if rest and excess(h, rest, s) <= -1:
            problems.append(f"dropping edge {i} still violates: not inclusion-minimal")
        if rest:
            union_rest = 0
            for j in rest:
                union_rest |= h.edge_masks[j]
            if (h.edge_masks[i] & union_rest).bit_count() < 2:
                problems.append(f"edge {i} meets the rest in < 2 vertices")
    # Intersection-connectivity of the violator.
    comps: list[int] = []
    for i in idx:
        merged = h.edge_masks[i]
        rest_masks = []
        for c in comps:
            if c & merged:
                merged |= c
            else:
                rest_masks.append(c)
        comps = rest_masks + [merged]
    if len(comps) > 1:
        problems.append("violator is not intersection-connected")
    return problems


def matching_oracle_suite(
    count_per_s: int = 100,
    seed: int = 2,
    max_n: int = 12,
    uniformities: tuple[int, ...] = (2, 3, 4),
    max_oracle_edges: int = 18,
) -> SuiteReport:
    """Solver verdict must equal exhaustive enumeration over all edge
    subsets of the right cardinality, and every witness must re-validate
    as a disjoint cover."""
    report = SuiteReport("matching-oracle")
    for s in uniformities:
        produced = 0
        attempt = 0
        while produced < count_per_s:
            rng = _suite_rng(seed, s, attempt)
            attempt += 1
            n = int(rng.integers(s, max_n + 1))
            target_edges = int(rng.integers(1, max(2, 3 * n // s)))
            h = _random_uniform_hypergraph(rng, n, s, target_edges)
            if len(h.edges) > max_oracle_edges:
                continue
            produced += 1
            found = find_perfect_matching(h, budget=30.0)
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
