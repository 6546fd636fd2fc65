from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from critgraph.hypergraph import Graph

from chromatic import SizeCapExceeded, exact_chromatic, exact_independence, find_coloring
from conftest import brute_force_chromatic, brute_force_independence, graphs


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def test_chromatic_small_cases():
    assert exact_chromatic(complete(4)) == 4
    assert exact_chromatic(cycle(5)) == 3
    assert exact_chromatic(cycle(6)) == 2
    assert exact_chromatic(Graph(4, [])) == 1
    assert exact_chromatic(Graph(0, [])) == 0


def test_petersen_values_against_brute_force():
    g = petersen()
    assert brute_force_chromatic(g) == 3
    assert brute_force_independence(g) == 4
    assert exact_chromatic(g) == 3
    assert exact_independence(g) == 4


def test_independence_small_cases():
    assert exact_independence(complete(5)) == 1
    assert exact_independence(cycle(5)) == 2
    assert exact_independence(Graph(6, [])) == 6


def test_caps_enforced():
    with pytest.raises(SizeCapExceeded):
        exact_chromatic(Graph(46, []))
    with pytest.raises(SizeCapExceeded):
        exact_independence(Graph(61, []))
    assert exact_chromatic(Graph(46, []), cap=50) == 1


def test_find_coloring_bounds():
    g = cycle(5)
    assert find_coloring(g, 2) is None
    got = find_coloring(g, 3)
    assert got is not None
    for u, v in g.edges:
        assert got[u] != got[v]
    assert max(got) <= 2


@given(graphs(max_n=8))
@settings(max_examples=200, deadline=None)
def test_chromatic_equals_subset_dp(g):
    assert exact_chromatic(g) == brute_force_chromatic(g)


@given(graphs(max_n=8))
@settings(max_examples=200, deadline=None)
def test_independence_equals_subset_scan(g):
    assert exact_independence(g) == brute_force_independence(g)


@given(graphs(max_n=8), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_chromatic_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert exact_chromatic(relabeled) == exact_chromatic(g)


@given(graphs(max_n=9))
@settings(max_examples=100, deadline=None)
def test_alpha_chi_product_bound(g):
    # chi * alpha >= n for any graph: color classes are independent sets.
    if g.n:
        assert exact_chromatic(g) * exact_independence(g) >= g.n
