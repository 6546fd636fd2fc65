"""The amplified construction as l independent rounds at the
single-round probability p. The pipeline draws once at q = min(1, l p)
instead; these helpers exist only to test that equivalence."""

from __future__ import annotations

from critgraph.hypergraph import Hypergraph
from critgraph.sampling import ConstructionParams, derive_seed, sample_hypergraph


def sample_union_rounds(n: int, s: int, p: float, rounds: int, seed: int) -> Hypergraph:
    """Union of `rounds` independent binomial samples at probability p;
    distribution equals a single binomial draw at 1 - (1-p)^rounds."""
    if rounds < 1:
        raise ValueError(f"need rounds >= 1, got {rounds}")
    edges: set[tuple[int, ...]] = set()
    for round_idx in range(rounds):
        edges.update(sample_hypergraph(n, s, p, derive_seed(seed, round_idx)).edges)
    return Hypergraph(n, edges)


def sample_amplified(n: int, s: int, params: ConstructionParams, seed: int) -> Hypergraph:
    """The amplified construction: union of params.l independent samples
    at probability params.p."""
    if params.n != n or params.s != s:
        raise ValueError(f"params derived for (n={params.n}, s={params.s}), got (n={n}, s={s})")
    return sample_union_rounds(n, s, params.p, params.l, seed)
