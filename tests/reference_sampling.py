"""Reference sampler: the comb-walk unranker and the scalar-draw geometric
skipper that the table-driven unranker and the streamed uniforms in
critgraph.sampling replaced, kept verbatim, and numpy's SeedSequence and
Philox generator, which the pure-Python ones in critgraph.sampling must
reproduce bit for bit. Also the level-by-level threshold sweep that the
top-level search and bisection of critgraph.sampling.pm_threshold_sweep
replaced, kept verbatim.

Each pair must agree exactly, not only in distribution: every sampled
edge, sweep table and certificate byte depends on them, so the tests
compare their outputs on the same seeds and ranks.
"""

from __future__ import annotations

import math

import numpy as np

from critgraph.sampling import SweepPoint, coupled_hypergraph_family, derive_seed


def numpy_rng(seed: int) -> np.random.Generator:
    """numpy's Philox generator seeded through SeedSequence(seed)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def numpy_seed(base: int, *path: int) -> int:
    """The first uint64 of SeedSequence(base, spawn_key=path)."""
    seq = np.random.SeedSequence(base, spawn_key=tuple(path))
    return int(seq.generate_state(1, np.uint64)[0])


def _unrank_subset(rank: int, n: int, s: int) -> tuple[int, ...]:
    """rank-th s-subset of [0, n) in lexicographic order."""
    out = []
    x = 0
    for i in range(s):
        while math.comb(n - 1 - x, s - 1 - i) <= rank:
            rank -= math.comb(n - 1 - x, s - 1 - i)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def _sampled_ranks(total: int, p: float, rng: np.random.Generator) -> list[int]:
    """Indices of a Bernoulli(p) subset of range(total), by geometric
    skipping so work scales with the output, not with `total`."""
    if p <= 0.0:
        return []
    if p >= 1.0:
        return list(range(total))
    log_keep = math.log1p(-p)
    ranks = []
    pos = -1
    while True:
        u = 1.0 - rng.random()  # in (0, 1]
        pos += 1 + int(math.log(u) / log_keep)
        if pos >= total:
            return ranks
        ranks.append(pos)


def pm_threshold_sweep(
    s: int,
    n_list: list[int],
    p_grid: list[float],
    samples: int,
    seed: int,
) -> list[SweepPoint]:
    """Empirical probability that a binomial s-uniform hypergraph has a
    perfect matching, for every (n, p) in n_list x p_grid.

    Samples are coupled across the grid (see coupled_hypergraph_family), so
    for a fixed n the success counts are non-decreasing in p exactly, and
    once a sample succeeds at some level no further search is run for it.
    """
    from critgraph.matching import find_perfect_matching

    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if s < 2:
        raise ValueError(f"need s >= 2, got s={s}")
    for n in n_list:
        if n < s:
            raise ValueError(f"need n >= s={s}, got n={n}")
        if n % s != 0:
            raise ValueError(f"n={n} not divisible by s={s}")
    levels = sorted(p_grid)
    out = []
    for n_idx, n in enumerate(n_list):
        successes = [0] * len(levels)
        for sample_idx in range(samples):
            cell_seed = derive_seed(seed, n_idx, sample_idx)
            family = coupled_hypergraph_family(n, s, levels, cell_seed)
            for level, h in enumerate(family):
                if find_perfect_matching(h) is not None:
                    for j in range(level, len(levels)):
                        successes[j] += 1
                    break
        for p, won in zip(levels, successes):
            out.append(SweepPoint(n=n, p=p, samples=samples, successes=won))
    return out
