from __future__ import annotations

import json
import random
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from critgraph.certformat import certificate_from_dict, write_certificate
from critgraph.hypergraph import Graph, Hypergraph, complement, mask_components, two_section

import reference_graph
from conftest import graphs, hypergraphs
from graph_ops import (
    components,
    degree,
    delete_edges,
    delete_vertex,
    delete_vertices,
    has_edge,
    is_connected,
    restrict,
)


def test_hypergraph_canonicalizes():
    h = Hypergraph(4, [(2, 1, 3), (1, 0)])
    assert h.edges == ((0, 1), (1, 2, 3))


def test_hypergraph_rejects_bad_input():
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Hypergraph(3, [()])


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])


@pytest.mark.parametrize(
    "rows", [[(1, 1)], [(0, 5)], [(-1, 2)], [(0, 1, 2)], [(0,)], [(2, 0), (3, 1)]]
)
def test_graph_rejects_rows_like_the_oracle(rows):
    with pytest.raises(ValueError) as want:
        reference_graph.Graph(3, rows)
    with pytest.raises(ValueError) as got:
        Graph(3, rows)
    assert str(got.value) == str(want.value)


@st.composite
def graph_rows(draw, max_n: int = 70):
    """(n, rows): distinct-endpoint pairs in either order, with invalid
    rows inserted anywhere: negative or too-large endpoints in either
    position, self-loops in and out of range, and rows that are not pairs."""
    n = draw(st.integers(0, max_n))
    vertex = st.integers(0, max(n - 1, 0))
    pair = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    rows = draw(st.lists(pair, max_size=60)) if n >= 2 else []
    anywhere = st.integers(-3, n + 3)
    invalid = st.one_of(
        st.tuples(st.integers(-3, -1), anywhere),
        st.tuples(anywhere, st.integers(n, n + 3)),
        anywhere.map(lambda a: (a, a)),
        st.lists(anywhere, max_size=4).filter(lambda r: len(r) != 2).map(tuple),
    )
    for row in draw(st.lists(invalid, max_size=3)):
        if draw(st.booleans()):
            row = row[::-1]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return n, [list(row) for row in rows]


def _outcome(make, n, rows):
    try:
        g = make(n, rows)
    except ValueError as err:
        return str(err)
    return g.adjacency_masks, g.edges


@settings(max_examples=400, deadline=None)
@given(graph_rows())
def test_graph_decodes_rows_like_the_oracle(case):
    n, rows = case
    assert _outcome(Graph, n, rows) == _outcome(reference_graph.Graph, n, rows)


def test_two_section_single_edge_clique():
    h = Hypergraph(4, [(0, 1, 2)])
    g = two_section(h)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert degree(g, 3) == 0


def test_two_section_empty_and_pairs():
    assert two_section(Hypergraph(3, [])).edges == ()
    path = two_section(Hypergraph(4, [(0, 1), (1, 2), (2, 3)]))
    assert path.edges == ((0, 1), (1, 2), (2, 3))


def test_complement_small_cases():
    k4 = Graph(4, list(combinations(range(4), 2)))
    assert complement(k4).edges == ()
    assert complement(Graph(3, [])).edges == ((0, 1), (0, 2), (1, 2))
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert complement(c5).edges == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))


def test_delete_vertex_examples():
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    sub, remap = delete_vertex(h, 0)
    assert sub.n == 3
    assert sub.edges == ((0, 1, 2),)
    assert remap == {1: 0, 2: 1, 3: 2}

    h2 = Hypergraph(3, [(0, 1, 2)])
    sub2, _ = delete_vertex(h2, 1)
    assert sub2.n == 2 and sub2.edges == ()

    iso, _ = delete_vertex(Hypergraph(4, [(0, 1, 2)]), 3)
    assert iso.edges == ((0, 1, 2),)

    with pytest.raises(ValueError):
        delete_vertex(h, 4)


def test_restrict_examples():
    h = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    sub, remap = restrict(h, {0, 1, 2, 3})
    assert sub.edges == ((0, 1, 2), (2, 3))
    assert remap == {0: 0, 1: 1, 2: 2, 3: 3}

    tiny, _ = restrict(h, {0, 3})
    assert tiny.edges == ()

    dup, _ = restrict(Hypergraph(4, [(0, 1, 2), (0, 1, 3)]), {0, 1})
    assert dup.edges == ((0, 1),)


def test_components_examples():
    tri = Graph(4, [(0, 1), (0, 2), (1, 2)])
    assert components(tri) == ((0, 1, 2), (3,))
    assert components(Graph(3, [])) == ((0,), (1,), (2,))
    assert components(Graph(4, [(0, 1), (1, 2), (2, 3)])) == ((0, 1, 2, 3),)


def test_delete_edges_and_vertices():
    k4 = Graph(4, list(combinations(range(4), 2)))
    assert len(delete_edges(k4, [(0, 1)]).edges) == 5
    with pytest.raises(ValueError):
        delete_edges(Graph(3, [(0, 1)]), [(1, 2)])

    g = Graph(3, [(0, 1)])
    same, remap = delete_vertices(g, set())
    assert same == g and remap == {0: 0, 1: 1, 2: 2}

    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cut, _ = delete_vertices(c4, {0, 2})
    assert cut.n == 2 and cut.edges == ()


@given(st.one_of(hypergraphs(), hypergraphs(sizes=(3,))))
@settings(max_examples=200)
def test_is_uniform_equals_the_scan(h):
    # Empty, mixed and single-size edge sets alike: the cached uniformity
    # answers as a scan of every edge would.
    for s in range(6):
        assert h.is_uniform(s) == all(len(e) == s for e in h.edges)


@given(hypergraphs())
@settings(max_examples=150)
def test_restrict_commutes_with_two_section(h):
    rng = random.Random(h.n * 31 + len(h.edges))
    x = {v for v in range(h.n) if rng.random() < 0.6}
    sub, remap = restrict(h, x)
    left = two_section(sub)
    full = two_section(h)
    induced, remap2 = delete_vertices(full, set(range(h.n)) - x)
    assert remap == remap2
    assert left == induced


@given(graphs())
@settings(max_examples=150)
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(hypergraphs(sizes=(3,), max_edges=5))
@settings(max_examples=100)
def test_uniform_two_section_cliques(h):
    g = two_section(h)
    for e in h.edges:
        for u, v in combinations(e, 2):
            assert has_edge(g, u, v)


@given(hypergraphs(), st.data())
@settings(max_examples=150)
def test_delete_vertex_two_section_containment(h, data):
    v = data.draw(st.integers(0, h.n - 1))
    sub, remap = delete_vertex(h, v)
    shrunk, remap2 = delete_vertices(two_section(h), {v})
    assert remap == remap2
    assert set(two_section(sub).edges) <= set(shrunk.edges)


@given(graphs())
@settings(max_examples=150)
def test_components_partition(g):
    comps = components(g)
    flat = [v for comp in comps for v in comp]
    assert sorted(flat) == list(range(g.n))
    assert len(set(flat)) == len(flat)
    assert list(comps) == sorted(comps, key=lambda c: c[0])


@given(hypergraphs(max_n=7), st.data())
@settings(max_examples=100, deadline=None)
def test_components_against_networkx(h, data):
    # The mask components of the edges on an active vertex set are the
    # components of the 2-section induced on that set.
    import networkx as nx

    g = two_section(h)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    active = data.draw(st.integers(0, (1 << h.n) - 1))
    keep = [v for v in range(h.n) if active >> v & 1]
    expected = sorted(nx.connected_components(nxg.subgraph(keep)), key=min)
    got = mask_components(h.edge_masks, active)
    assert [{v for v in keep if c >> v & 1} for c in got] == expected
    assert is_connected(g) == (nx.number_connected_components(nxg) <= 1)


@st.composite
def wide_hypergraphs(draw, max_n: int = 70, max_size: int = 5, max_edges: int = 40):
    """Hypergraphs with edges of sizes 1 to max_size, on up to max_n
    vertices, drawn as vertex sets rather than from a list of every
    possible edge."""
    n = draw(st.integers(1, max_n))
    vertex_sets = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=max_size)
    edges = draw(st.lists(vertex_sets, unique=True, max_size=max_edges))
    return Hypergraph(n, [tuple(e) for e in edges])


FROZEN_CERT = certificate_from_dict(
    json.loads((Path(__file__).parent / "data" / "best_attempt_r1_k6.json").read_text())
)


@given(wide_hypergraphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_mask_graphs_equal_pair_set_oracle(tmp_path_factory, h, seed):
    rng = random.Random(seed)
    old_section = reference_graph.two_section(h)
    old_target = reference_graph.complement(old_section)
    pairs = [(two_section(h), old_section), (complement(two_section(h)), old_target)]
    for new, old in pairs:
        # The same edges, in any order, either way round and repeated.
        rows = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in old.edges]
        rows += rng.sample(rows, len(rows) // 3)
        rng.shuffle(rows)
        built = Graph(h.n, rows)
        assert new.adjacency_masks == built.adjacency_masks == old.adjacency_masks
        assert new == built and hash(new) == hash(built)
        assert new.edges == built.edges == old.edges

    # Dropping an edge keeps the 2-section for the new graphs exactly when
    # it keeps it for the oracle's.
    fewer = Hypergraph(h.n, h.edges[1:])
    old_fewer = reference_graph.two_section(fewer)
    assert (two_section(fewer) == two_section(h)) == (old_fewer == old_section)
    if old_fewer == old_section:
        assert hash(two_section(fewer)) == hash(two_section(h))

    out = tmp_path_factory.mktemp("certs")
    new_cert = replace(FROZEN_CERT, hypergraph=h, graph=complement(two_section(h)))
    write_certificate(new_cert, out / "new.json")
    write_certificate(replace(FROZEN_CERT, hypergraph=h, graph=old_target), out / "old.json")
    assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()
