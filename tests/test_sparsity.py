from __future__ import annotations

import time
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

import reference_sparsity
from critgraph.hypergraph import Hypergraph
from critgraph.sampling import derive_params, derive_seed, sample_hypergraph
from critgraph.sparsity import (
    EnumerationCapExceeded,
    _incidence_core,
    brute_force_sparsity,
    check_sparsity,
    excess,
    violator_problems,
)

from conftest import (
    berge_chains,
    berge_cycle,
    berge_cycles,
    bicycles_beside_trees,
    hypertrees_with_chord,
    linear_hypertrees,
    uniform_hypergraphs,
)


def test_excess_examples():
    h = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
    assert excess(h, [0], 3) == 1
    assert excess(h, [0, 1], 3) == 2
    tight = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert excess(tight, [0, 1, 2], 3) == -2


def test_check_sparsity_trivial_cases():
    assert check_sparsity(Hypergraph(5, []), 16, 3).holds
    disjoint = Hypergraph(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert check_sparsity(disjoint, 16, 3).holds


def test_check_sparsity_finds_known_violator():
    h = Hypergraph(6, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (3, 4, 5)])
    verdict = check_sparsity(h, 16, 3)
    assert not verdict.holds
    assert verdict.violator is not None
    assert set(verdict.violator.edge_indices) == {0, 1, 2}
    assert verdict.violator.spanned == 4


def test_check_sparsity_respects_window():
    # The only violator needs 3 edges; a window of 2 does not see it.
    h = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert not check_sparsity(h, 3, 3).holds
    assert check_sparsity(h, 2, 3).holds


def test_check_sparsity_refuses_bad_arguments():
    with pytest.raises(ValueError, match="^hypergraph is not 3-uniform$"):
        check_sparsity(Hypergraph(4, [(0, 1), (1, 2, 3)]), 16, 3)
    with pytest.raises(ValueError, match="^need m >= 1, got m=0$"):
        check_sparsity(Hypergraph(4, [(0, 1, 2)]), 0, 3)
    with pytest.raises(ValueError, match="^need s >= 2, got s=1$"):
        check_sparsity(Hypergraph(4, [(0,), (1,)]), 4, 1)


def test_brute_force_matches_examples():
    h = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    verdict = brute_force_sparsity(h, 16, 3)
    assert not verdict.holds and set(verdict.violator.edge_indices) == {0, 1, 2}
    assert brute_force_sparsity(Hypergraph(5, [(0, 1, 2)]), 4, 3).holds
    complete4 = Hypergraph(4, list(combinations(range(4), 3)))
    v4 = brute_force_sparsity(complete4, 4, 3)
    assert not v4.holds


def test_brute_force_cap():
    h = Hypergraph(12, [e for e in combinations(range(12), 3)][:30])
    with pytest.raises(EnumerationCapExceeded):
        brute_force_sparsity(h, 16, 3, cap=1000)


def test_violator_problems_flags_repeated_indices():
    # Counting edge 0 twice makes the excess negative, and dropping
    # either copy leaves nothing to test for minimality.
    h = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
    assert violator_problems(h, [0, 0], 3, 16) == ["violator repeats an edge index"]


# Edges 0-2 span 5 vertices (excess -1) and each pair spans at least 4;
# edges 3-4 span 4 vertices apart from them (excess 0).
_SPLIT = Hypergraph(9, [(0, 1, 2), (0, 1, 3), (2, 3, 4), (5, 6, 7), (5, 6, 8)])


@pytest.mark.parametrize(
    "idx, m, problem",
    [
        ([0, 1, 2], 16, None),
        ([], 16, "violator size out of range"),
        ([0, 1, 2], 2, "violator size out of range"),
        ([0, 1, 5], 16, "violator indexes nonexistent edges"),
        ([0, -1, 2], 16, "violator indexes nonexistent edges"),
        ([0, 1, 1], 16, "violator repeats an edge index"),
        ([0, 1], 16, "claimed violator does not violate the span bound"),
        ([3, 4], 16, "claimed violator does not violate the span bound"),
        # Each edge dropped alone leaves a non-violator, but edges 0-2
        # violate without 3 and 4.
        ([0, 1, 2, 3, 4], 16, "violator is not inclusion-minimal"),
    ],
)
def test_violator_problems_cases(idx, m, problem):
    assert violator_problems(_SPLIT, idx, 3, m) == ([problem] if problem else [])


def test_violator_problems_flags_droppable_edge():
    # Edges 0-2 violate on vertices 0-3; edge 3 adds one vertex.
    h = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 4)])
    assert excess(h, [0, 1, 2, 3], 3) <= -1
    assert violator_problems(h, [0, 1, 2, 3], 3, 16) == ["violator is not inclusion-minimal"]


def test_dense_fast_path_agrees_with_oracle():
    # Any >= ceil((n+1)/(s-1)) edges force a violation; the shortcut must
    # return a genuine inclusion-minimal violator.
    h = Hypergraph(6, list(combinations(range(6), 3)))  # 20 edges, n=6
    verdict = check_sparsity(h, 16, 3)
    assert not verdict.holds
    assert violator_problems(h, list(verdict.violator.edge_indices), 3, 16) == []
    slow = brute_force_sparsity(h, 16, 3)
    assert not slow.holds


@given(uniform_hypergraphs(s=3, max_n=12, max_edges=10))
@settings(max_examples=200, deadline=None)
def test_search_equals_brute_force_s3(h):
    fast = check_sparsity(h, 16, 3)
    slow = brute_force_sparsity(h, 16, 3)
    assert fast.holds == slow.holds
    if fast.violator is not None:
        assert violator_problems(h, list(fast.violator.edge_indices), 3, 16) == []


@given(uniform_hypergraphs(s=4, max_n=12, max_edges=9))
@settings(max_examples=120, deadline=None)
def test_search_equals_brute_force_s4(h):
    fast = check_sparsity(h, 12, 4)
    slow = brute_force_sparsity(h, 12, 4)
    assert fast.holds == slow.holds
    if fast.violator is not None:
        assert violator_problems(h, list(fast.violator.edge_indices), 4, 12) == []


@given(uniform_hypergraphs(s=3, max_n=10, max_edges=8), st.data())
@settings(max_examples=100, deadline=None)
def test_anti_monotone_under_edge_addition(h, data):
    verdict = check_sparsity(h, 16, 3)
    extra_pool = [e for e in combinations(range(h.n), 3) if e not in set(h.edges)]
    if not extra_pool:
        return
    extra = data.draw(st.lists(st.sampled_from(extra_pool), unique=True, max_size=3))
    grown = Hypergraph(h.n, list(h.edges) + list(extra))
    if not verdict.holds:
        assert not check_sparsity(grown, 16, 3).holds


def test_window_parameter_expresses_strict_bound():
    # Window m covers |F| <= m; the strict variant (|F| < 2^(s+1)) is the
    # same check at window 2^(s+1) - 1.
    h = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    assert not check_sparsity(h, 2 ** 4 - 1, 3).holds
    assert check_sparsity(h, 2, 3).holds


def test_verdicts_deterministic():
    h = Hypergraph(8, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 1, 4), (5, 6, 7)])
    a = check_sparsity(h, 16, 3)
    b = check_sparsity(h, 16, 3)
    assert a == b


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_peeled_search_equals_reference(data):
    s = data.draw(st.integers(2, 5), label="s")
    m = data.draw(st.integers(1, 16), label="m")
    h = data.draw(uniform_hypergraphs(s=s, max_n=3 * s + 4, max_edges=12), label="h")
    assert check_sparsity(h, m, s) == reference_sparsity.check_sparsity(h, m, s)


@pytest.mark.parametrize("k", [6, 11, 16])
def test_dense_samples_equal_reference(k):
    # Default-q samples are over-dense, so both searches take the forced
    # prefix shortcut; the verdict and the violator tuple must not move.
    params = derive_params(1, k)
    for j in range(10):
        h = sample_hypergraph(params.n, params.s, params.q, derive_seed(5150, k, j))
        verdict = check_sparsity(h, params.m, params.s)
        assert not verdict.holds
        assert verdict == reference_sparsity.check_sparsity(h, params.m, params.s)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_peel_empties_hypertrees(data):
    s = data.draw(st.integers(2, 5), label="s")
    h = data.draw(linear_hypertrees(s=s, max_edges=200), label="h")
    assert _incidence_core(h.edge_masks) == []
    assert check_sparsity(h, 2 ** (s + 1), s).holds


@pytest.mark.parametrize("s", [2, 3, 4, 5])
@pytest.mark.parametrize("length", [3, 4, 7])
def test_peel_keeps_berge_cycle(s, length):
    h = berge_cycle(s, length)
    assert _incidence_core(h.edge_masks) == list(range(length))
    # One cycle has excess 0: sparsity holds, and the search agrees.
    assert check_sparsity(h, 16, s) == reference_sparsity.check_sparsity(h, 16, s)
    assert check_sparsity(h, 16, s).holds


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_cycle_rank_families_equal_reference_and_brute_force(data):
    # Cores of cycle rank 1 (Berge cycles, hypertrees with a 2-vertex
    # chord) pass without a search; chords through 3 or more tree vertices
    # do not, and the search must still find the same violator. A bicycle
    # is searched without the Berge cycle and the pendant trees beside it,
    # and m is drawn around its size, so the verdict flips within the draw.
    s = data.draw(st.integers(2, 5), label="s")
    family = data.draw(
        st.sampled_from([berge_cycles, hypertrees_with_chord, bicycles_beside_trees]), label="family"
    )
    if family is bicycles_beside_trees:
        h, size = data.draw(family(s=s), label="h")
        m = data.draw(st.integers(max(1, size - 2), size + 2), label="m")
    else:
        h = data.draw(family(s=s), label="h")
        m = data.draw(st.integers(1, 16), label="m")
    verdict = check_sparsity(h, m, s)
    assert verdict == reference_sparsity.check_sparsity(h, m, s)
    assert verdict.holds == brute_force_sparsity(h, m, s).holds
    if family is berge_cycles:
        assert verdict.holds
    if family is bicycles_beside_trees:
        assert verdict.holds == (m < size)


@pytest.mark.parametrize("m", [7, 32])
def test_theta_beside_long_berge_cycle_equals_reference(m):
    # A theta of three 4-edge chains (12 edges) beside a 40-edge Berge
    # cycle: only the theta's component is searched, and at m = 32 its 12
    # edges are the violator.
    n, edges = berge_chains(4, [(0, 1, 4), (0, 1, 4), (0, 1, 4), (2, 2, 40)])
    h = Hypergraph(n, edges)
    verdict = check_sparsity(h, m, 4)
    assert verdict == reference_sparsity.check_sparsity(h, m, 4)
    if m == 7:
        assert verdict.holds
    else:
        theta = {frozenset(e) for e in edges[:12]}
        assert {frozenset(h.edges[i]) for i in verdict.violator.edge_indices} == theta


def test_long_berge_cycle_passes_without_search():
    # The peel keeps all 50 edges; searching their connected edge sets up
    # to the window takes about 0.1 s, the cycle-rank shortcut under 1 ms.
    h = berge_cycle(4, 50)
    assert _incidence_core(h.edge_masks) == list(range(50))
    start = time.perf_counter()
    assert check_sparsity(h, 32, 4).holds
    assert time.perf_counter() - start < 0.05


def test_pendant_tree_is_peeled_off_a_violator():
    core_edges = [(0, 5, 10), (0, 5, 11), (0, 10, 11)]
    bare = check_sparsity(Hypergraph(12, core_edges), 16, 3)
    # A linear forest hung on vertices 0, 10 and 11, with edges sorting
    # before, between and after the violator's own; (0, 1, 2) and
    # (10, 12, 13) only become pendant once their outer edges are gone.
    tree = [(0, 1, 2), (1, 16, 17), (0, 6, 7), (10, 12, 13), (12, 14, 15), (3, 4, 11)]
    h = Hypergraph(18, core_edges + tree)
    core = _incidence_core(h.edge_masks)
    assert [h.edges[i] for i in core] == core_edges
    verdict = check_sparsity(h, 16, 3)
    assert verdict == reference_sparsity.check_sparsity(h, 16, 3)
    assert [h.edges[i] for i in verdict.violator.edge_indices] == [
        core_edges[i] for i in bare.violator.edge_indices
    ]
    assert verdict.violator.spanned == bare.violator.spanned == 4


@given(uniform_hypergraphs(s=3, max_n=12, max_edges=10))
@settings(max_examples=200, deadline=None)
def test_brute_force_violators_lie_in_core(h):
    slow = brute_force_sparsity(h, 16, 3)
    if slow.violator is not None:
        assert set(slow.violator.edge_indices) <= set(_incidence_core(h.edge_masks))


@st.composite
def bicycle_shapes(draw, s: int):
    """Berge chains (see berge_chains) of a theta, a dumbbell or a
    figure-eight of 2 to 4 chains on branch vertices 0 and 1. With more
    chains than a bicycle needs the cycle rank is 3 or 4, and the smallest
    violators are the bicycles inside it."""
    loop = st.integers(3 if s == 2 else 2, 3)
    shape = draw(st.sampled_from(["theta", "dumbbell", "figure-eight"]))
    if shape == "theta":
        lengths = draw(st.lists(st.integers(1, 3), min_size=3, max_size=4))
        assume(s > 2 or lengths.count(1) <= 1)  # no repeated 2-edge
        return [(0, 1, length) for length in lengths]
    if shape == "dumbbell":
        paths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
        assume(s > 2 or paths.count(1) <= 1)
        return [(0, 0, draw(loop)), (1, 1, draw(loop)), *[(0, 1, length) for length in paths]]
    return [(0, 0, draw(loop)) for _ in range(draw(st.integers(2, 4)))]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_bicycle_components_side_by_side_equal_reference_and_brute_force(data):
    # Up to three bicycle components beside a bicycles_beside_trees draw
    # and a Berge cycle, relabelled so that their edge indices interleave.
    # Each component's smallest violator comes from brute force on it
    # alone; a violator is connected, so h holds exactly below the
    # smallest of them, and m is drawn around it.
    s = data.draw(st.integers(2, 5), label="s")
    beside, smallest = data.draw(bicycles_beside_trees(s=s), label="beside")
    n, edges = beside.n, list(beside.edges)
    for _ in range(data.draw(st.integers(1, 3), label="components")):
        k, part = berge_chains(s, data.draw(bicycle_shapes(s), label="chains"))
        alone = brute_force_sparsity(Hypergraph(k, part), len(part), s)
        smallest = min(smallest, len(alone.violator.edge_indices))
        edges += [tuple(v + n for v in e) for e in part]
        n += k
    k, cycle = berge_chains(s, [(0, 0, data.draw(st.integers(3, 8), label="cycle"))])
    edges += [tuple(v + n for v in e) for e in cycle]
    n += k
    labels = data.draw(st.permutations(range(n)), label="labels")
    h = Hypergraph(n, [tuple(labels[v] for v in e) for e in edges])
    m = data.draw(st.integers(max(1, smallest - 2), smallest + 2), label="m")
    verdict = check_sparsity(h, m, s)
    assert verdict == reference_sparsity.check_sparsity(h, m, s)
    assert verdict.holds == (m < smallest)


def test_disjoint_thetas_return_the_first_thetas_violator_at_once():
    # 60 disjoint thetas of three 4-edge chains: every start edge grows
    # only inside its own theta. Scanning every later edge index from each
    # node took 3.8 s; the first theta alone gives the same violator.
    n, edges = berge_chains(4, [(2 * i, 2 * i + 1, 4) for i in range(60) for _ in range(3)])
    h = Hypergraph(n, edges)
    first = Hypergraph(n, edges[:12])
    start = time.perf_counter()
    verdict = check_sparsity(h, 32, 4)
    assert time.perf_counter() - start < 1.0
    alone = check_sparsity(first, 32, 4).violator.edge_indices
    assert [h.edges[i] for i in verdict.violator.edge_indices] == [first.edges[i] for i in alone]
    assert len(alone) == 12
