from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings

from critgraph.hypergraph import Hypergraph, cycle_ranks, two_section
from critgraph.lemmas import (
    CapExceeded,
    CounterexampleFound,
    CutWitness,
    HypothesisNotMet,
    _validate_cut,
    density_hypothesis_check,
    edge_bound_check,
    find_small_cut,
)

import reference_suites
from conftest import berge_cycle, hypergraphs
from graph_ops import components, delete_vertices
from reference_suites import connected_bound_check, enumerate_hypergraphs


def test_connected_bound_examples():
    assert connected_bound_check(Hypergraph(3, [(0, 1), (1, 2)]))
    assert connected_bound_check(Hypergraph(4, [(0, 1, 2, 3)]))  # equality case
    assert connected_bound_check(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(ValueError):
        connected_bound_check(Hypergraph(4, [(0, 1)]))


def test_density_hypothesis_examples():
    assert density_hypothesis_check(Hypergraph(5, [(0, 1, 2), (2, 3, 4)]))
    assert not density_hypothesis_check(Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]))
    assert density_hypothesis_check(Hypergraph(3, []))


@given(hypergraphs(max_edges=8))
@settings(max_examples=400, deadline=None)
def test_density_hypothesis_equals_brute_force(h):
    assert density_hypothesis_check(h) == reference_suites.density_hypothesis_check(h)


# Bicycles: two independent cycles in the incidence graph, so some edge
# subset spans too few vertices.
BICYCLES = {
    "theta": Hypergraph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]),
    "theta of triples": Hypergraph(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
    "dumbbell": Hypergraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
    "figure-eight": Hypergraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
}
# One cycle each: every edge subset spans enough vertices.
UNICYCLES = {
    "Berge cycle": berge_cycle(3, 5),
    "hypertree with one chord": Hypergraph(8, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7)]),
}


@pytest.mark.parametrize("name", [*BICYCLES, *UNICYCLES])
def test_cycle_rank_of_bicycles_and_unicycles(name):
    h = {**BICYCLES, **UNICYCLES}[name]
    beta = 2 if name in BICYCLES else 1
    assert cycle_ranks(h.edge_masks) == [((1 << h.n) - 1, beta)]
    assert density_hypothesis_check(h) == (beta == 1)
    assert reference_suites.density_hypothesis_check(h) == (beta == 1)


def test_find_small_cut_on_a_long_linear_hypertree():
    # 40 edges: the exhaustive span check refused anything past 22.
    h = Hypergraph(81, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(40)])
    with pytest.raises(CapExceeded):
        reference_suites.density_hypothesis_check(h)
    w = find_small_cut(h)  # validated against the 2-section inside
    assert len(w.w) <= 2 and w.side_a and w.side_b


def test_find_small_cut_examples():
    w = find_small_cut(Hypergraph(5, [(0, 1, 2), (2, 3, 4)]))
    assert w.w == (2,)
    assert {tuple(w.side_a), tuple(w.side_b)} == {(0, 1), (3, 4)}

    disconnected = find_small_cut(Hypergraph(4, [(0, 1, 2)]))
    assert disconnected.w == ()
    assert set(disconnected.side_a) | set(disconnected.side_b) == {0, 1, 2, 3}

    c4 = find_small_cut(Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert c4.w == (0, 2)

    # A 2-section of size-2 edges may have any degree: the star K_{1,4}.
    star = find_small_cut(Hypergraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))
    assert (star.w, star.side_a, star.side_b) == ((0,), (1,), (2, 3, 4))


def test_find_small_cut_brute_force_confirms_example():
    # Independent confirmation that deleting {2} disconnects the 2-section.
    h = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    cut, _ = delete_vertices(two_section(h), {2})
    assert len(components(cut)) == 2


def test_find_small_cut_preconditions():
    with pytest.raises(ValueError):
        find_small_cut(Hypergraph(3, [(0, 1, 2)]))  # too few vertices
    with pytest.raises(ValueError):
        find_small_cut(Hypergraph(4, [(0, 1, 2, 3)]))  # V is an edge
    with pytest.raises(HypothesisNotMet):
        find_small_cut(Hypergraph(5, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]))


@pytest.mark.parametrize(
    "w, side_a, side_b, problem",
    [((1, 2, 3), (0,), (4, 5), "cut set has 3 > 2 vertices"),
     ((2,), (0, 1, 3, 4, 5), (), "a cut side is empty"),
     ((2,), (0, 1, 5), (3, 4, 5), "cut parts overlap"),
     ((2,), (0, 1), (3, 4), "cut parts do not cover the vertex set"),
     ((), (0, 1, 2), (3, 4, 5), "edge (2, 3) joins the two sides")],
    ids=["three-vertex-cut", "empty-side", "overlap", "missing-vertex", "joining-edge"],
)
def test_validate_cut_names_each_problem(w, side_a, side_b, problem):
    # Vertex 5 is isolated; W = (2,), A = (0, 1), B = (3, 4, 5) is valid,
    # and each witness below breaks exactly one of its properties.
    h = Hypergraph(6, [(0, 1, 2), (2, 3, 4)])
    g = two_section(h)
    _validate_cut(g, CutWitness((2,), (0, 1), (3, 4, 5)), h)
    with pytest.raises(CounterexampleFound) as err:
        _validate_cut(g, CutWitness(w, side_a, side_b), h)
    assert str(err.value) == f"invalid cut witness for h.n=6 edges={h.edges}: {problem}"


def test_find_small_cut_two_regular_multiple_cycles():
    h = Hypergraph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7, ), (3, 7)])
    w = find_small_cut(h)
    assert w.w == ()  # two disjoint cycles: empty cut suffices


def test_find_small_cut_degree_one_vertex():
    h = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    w = find_small_cut(h)
    assert len(w.w) <= 2 and w.side_a and w.side_b


def test_edge_bound_check_examples():
    disjoint = Hypergraph(8, [(0, 1, 2), (3, 4, 5)])
    holds, (worst, count) = edge_bound_check(disjoint, 3)
    assert holds and count <= 5

    complete4 = Hypergraph(4, list(combinations(range(4), 3)))
    with pytest.raises(HypothesisNotMet):
        edge_bound_check(complete4, 3)
    # ... and indeed its 2-section packs 6 > 5 edges into 4 vertices,
    # so the hypothesis is doing real work.
    g = two_section(complete4)
    assert len(g.edges) == 6

    with pytest.raises(ValueError):
        edge_bound_check(Hypergraph(5, [(0, 1), (2, 3)]), 2)


def test_enumerate_hypergraphs_counts():
    assert sum(1 for _ in enumerate_hypergraphs(3, 3, {2})) == 8
    assert sum(1 for _ in enumerate_hypergraphs(4, 1, {3})) == 5
    assert sum(1 for _ in enumerate_hypergraphs(4, 2, {2, 3})) == 56
    with pytest.raises(CapExceeded):
        list(enumerate_hypergraphs(10, 6, {2, 3, 4}, cap=1000))


def test_enumerate_hypergraphs_no_duplicates():
    seen = set()
    for h in enumerate_hypergraphs(4, 2, {2, 3}):
        assert h.edges not in seen
        seen.add(h.edges)
        assert list(h.edges) == sorted(h.edges)


@given(hypergraphs(max_n=6, sizes=(2, 3), max_edges=4))
@settings(max_examples=200, deadline=None)
def test_cut_witness_always_valid_when_applicable(h):
    if h.n < 4 or tuple(range(h.n)) in h.edges:
        return
    try:
        w = find_small_cut(h)
    except HypothesisNotMet:
        return
    # find_small_cut re-validates internally; double-check the basics here.
    assert isinstance(w, CutWitness)
    assert len(w.w) <= 2
    assert w.side_a and w.side_b
    g = two_section(h)
    a, b = set(w.side_a), set(w.side_b)
    assert all(not (u in a and v in b) and not (u in b and v in a) for u, v in g.edges)


def _cut_outcome(find, h):
    """The witness, or the type and message of the error raised."""
    try:
        return find(h)
    except (ValueError, HypothesisNotMet, CounterexampleFound) as err:
        return type(err), str(err)


def test_find_small_cut_equals_reference_on_blocks_domain():
    # Every hypergraph the default `blocks` request covers.
    total = 0
    for n in (4, 5):
        for h in enumerate_hypergraphs(n, 5, {2, 3}):
            assert _cut_outcome(find_small_cut, h) == _cut_outcome(reference_suites.find_small_cut, h)
            total += 1
    assert total == 22_338


@given(hypergraphs(max_n=6, sizes=(1, 2, 3, 4)))
@settings(max_examples=300, deadline=None)
def test_find_small_cut_equals_reference(h):
    assert _cut_outcome(find_small_cut, h) == _cut_outcome(reference_suites.find_small_cut, h)
