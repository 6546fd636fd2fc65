"""Parameter derivation and seeded sampling of binomial random uniform
hypergraphs, plus the empirical perfect-matching threshold sweep.

Randomness comes from numpy's Philox counter-based generator: the seed and
draw order fully determine every sample, on any platform, so certificates
are reproducible bit for bit. Derived streams (per restart, per sweep cell)
are split off the base seed with SeedSequence spawn keys.

A sample is a list of candidate-edge ranks in [0, C(n, s)), found by
geometric skipping, then unranked to lexicographic s-subsets:

- Uniforms come from one stream per sample, drawn in chunks of _CHUNK
  doubles. Philox yields the same doubles in blocks as one at a time, and
  the coupled family takes its thresholds from the same stream right after
  the ranks, so every value lands where a scalar draw would have put it.
- Each skip is int(math.log(1 - u) / math.log1p(-p)), one double at a
  time: math.log is the C library's log, which every recorded sample
  used; numpy's vectorised log has its own SIMD kernels on some
  platforms, may round the last bit differently, and so could move a rank.
- Unranking looks each coordinate up with one bisect on a per-(n, s) table
  of cumulative lexicographic offsets, built once and cached. Ranks stay
  exact Python integers, so C(n, s) beyond 2**63 is fine.

So the edges, and every sweep table and certificate built on them, do not
depend on the chunk size or on how the subsets are unranked.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hypergraph import Hypergraph

#: Multiplier applied to the factorial threshold constant when the caller
#: does not override C. Twice the sharp constant trades sample density for
#: better odds of matchability at small vertex counts.
DEFAULT_C_FACTOR = 2.0

# Uniforms drawn per call to the generator. Philox yields the same doubles
# whether they are drawn one at a time or in blocks, so this only trades a
# little over-draw at the end of a sample for fewer generator calls.
_CHUNK = 1024


def default_constant(s: int) -> float:
    """Default threshold constant C = 2 * (s-1)!."""
    return DEFAULT_C_FACTOR * math.factorial(s - 1)


@dataclass(frozen=True)
class ConstructionParams:
    """Every quantity the construction derives from the deletion budget r
    and the target chromatic number k.

    Derived values: s = r + 3, m = 2^(s+1), n = s(k-1) + 1,
    l = ceil(2 log2 n), p = min(1, C ln(n-1) / (n-1)^(s-1)) and
    q = min(1, l p). The single-round probability p is evaluated at n - 1
    because matchability is checked on the n - 1 vertices left after each
    deletion; q folds the l amplification rounds into one binomial draw.
    """

    r: int
    s: int
    m: int
    k: int
    n: int
    C: float
    l: int
    p: float
    q: float

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"deletion budget r must be >= 1, got {self.r}")
        if self.k < 2:
            raise ValueError(f"target chromatic number k must be >= 2, got {self.k}")
        if self.C <= 0:
            raise ValueError(f"threshold constant C must be positive, got {self.C}")
        # Decoded certificates can hold any integers, so no power or float
        # conversion is formed before a cheap test bounds its size.
        l_ok = self.n > 0 and self.l == amplification_rounds(self.n)
        checks = {
            "s": self.s == self.r + 3,
            # m has s + 2 bits exactly when it can equal 2^(s+1).
            "m": self.m.bit_length() == self.s + 2 and self.m == 2 ** (self.s + 1),
            "n": self.n == self.s * (self.k - 1) + 1,
            "l": l_ok,
            "p": self._p_matches(),
            "q": l_ok and self.q == min(1.0, self.l * self.p),
        }
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            raise ValueError(f"inconsistent derived fields: {', '.join(bad)}")

    def _p_matches(self) -> bool:
        n, s = self.n - 1, self.s
        # n^(s-1) >= 2^((s-1)(bits(n)-1)); from 2^1024 on it has no float
        # value, so shamir_p could not have derived any p.
        if n < 2 or s < 2 or (s - 1) * (n.bit_length() - 1) >= 1024:
            return False
        try:
            return self.p == shamir_p(n, s, self.C)
        except OverflowError:
            return False


def amplification_rounds(n: int) -> int:
    """ceil(2 log2 n) independent sampling rounds."""
    return math.ceil(2 * math.log2(n))


def shamir_p(n: int, s: int, C: float) -> float:
    """Edge probability C ln(n) / n^(s-1) at which a binomial s-uniform
    random hypergraph acquires a perfect matching (Shamir's problem
    threshold), clamped to [0, 1]."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    return min(1.0, C * math.log(n) / n ** (s - 1))


def derive_params(r: int, k: int, C: float | None = None) -> ConstructionParams:
    """All construction parameters for deletion budget r and target
    chromatic number k; C defaults to 2 * (s-1)!."""
    if r < 1:
        raise ValueError(f"deletion budget r must be >= 1, got {r}")
    if k < 2:
        raise ValueError(f"target chromatic number k must be >= 2, got {k}")
    s = r + 3
    if C is None:
        C = default_constant(s)
    n = s * (k - 1) + 1
    l = amplification_rounds(n)
    p = shamir_p(n - 1, s, C)
    return ConstructionParams(
        r=r, s=s, m=2 ** (s + 1), k=k, n=n, C=C, l=l, p=p, q=min(1.0, l * p)
    )


def derive_seed(base: int, *path: int) -> int:
    """Deterministic 64-bit child seed for an independent stream."""
    seq = np.random.SeedSequence(base, spawn_key=tuple(path))
    return int(seq.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@lru_cache(maxsize=64)
def _offset_table(n: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds the lexicographic offset of coordinate i: entry x is
    sum_{y<x} C(n-1-y, s-1-i), the number of s-subsets ranked before
    those whose i-th element is x (given the same earlier elements)."""
    rows = []
    for i in range(s):
        row = [0]
        for y in range(n):
            row.append(row[-1] + math.comb(n - 1 - y, s - 1 - i))
        rows.append(tuple(row))
    return tuple(rows)


def _unrank_sorted(ranks: list[int], n: int, s: int) -> list[tuple[int, ...]]:
    """The rank-th s-subset of [0, n) in lexicographic order, for each
    rank: one bisect per coordinate on its offset row. The last row is
    0, 1, ..., n, so the last coordinate needs no search."""
    *rows, _ = _offset_table(n, s)
    out = []
    for rank in ranks:
        edge = []
        lo = 0
        for row in rows:
            a = row[lo] + rank
            x = bisect_right(row, a, lo) - 1
            rank = a - row[x]
            edge.append(x)
            lo = x + 1
        edge.append(lo + rank)
        out.append(tuple(edge))
    return out


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """rng.random() values in stream order, drawn _CHUNK at a time."""
    while True:
        yield from rng.random(_CHUNK).tolist()


def _sampled_ranks(total: int, p: float, draws: Iterator[float]) -> list[int]:
    """Indices of a Bernoulli(p) subset of range(total), by geometric
    skipping so work scales with the output, not with `total`. Takes
    exactly len(result) + 1 values from `draws` when 0 < p < 1, else none."""
    if p <= 0.0:
        return []
    if p >= 1.0:
        return list(range(total))
    log = math.log
    log_keep = math.log1p(-p)
    ranks: list[int] = []
    append = ranks.append
    pos = -1
    for u in draws:
        try:
            pos += 1 + int(log(1.0 - u) / log_keep)  # 1 - u is in (0, 1]
        except OverflowError:  # a skip beyond the float range passes any total
            return ranks
        if pos >= total:
            return ranks
        append(pos)
    raise ValueError("uniform stream ended before the last rank")


def sample_hypergraph(n: int, s: int, p: float, seed: int) -> Hypergraph:
    """Binomial s-uniform random hypergraph: every s-subset of [0, n)
    is a hyperedge independently with probability p. Equal
    (n, s, p, seed) give identical output."""
    if not 2 <= s <= n:
        raise ValueError(f"need 2 <= s <= n, got s={s}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    ranks = _sampled_ranks(math.comb(n, s), p, _uniforms(_rng(seed)))
    return Hypergraph(n, _unrank_sorted(ranks, n, s))


@dataclass(frozen=True)
class SweepPoint:
    n: int
    p: float
    samples: int
    successes: int

    @property
    def fraction(self) -> float:
        return self.successes / self.samples


def coupled_hypergraph_family(n: int, s: int, p_levels: list[float], seed: int) -> list[Hypergraph]:
    """One hypergraph per probability level, coupled so the edge sets are
    nested along increasing p: each candidate edge gets an independent
    uniform threshold and appears at exactly the levels above it. Marginally
    each level is an ordinary binomial sample at its p; jointly the family
    is monotone, so any edge-monotone event holds along a suffix of levels.
    """
    if not p_levels:
        return []
    if any(not 0.0 <= p <= 1.0 for p in p_levels):
        raise ValueError("probability out of range")
    p_max = max(p_levels)
    draws = _uniforms(_rng(seed))
    ranks = _sampled_ranks(math.comb(n, s), p_max, draws)
    # Conditioned on inclusion at level p_max, an edge's latent uniform is
    # uniform on [0, p_max]; drawing it only for included edges matches the
    # joint law of thresholding a full table of uniforms. The thresholds
    # continue the same stream right after the ranks' last draw.
    thresholds = [p_max * next(draws) for _ in ranks]
    edges = _unrank_sorted(ranks, n, s)
    family = []
    for p in p_levels:
        family.append(Hypergraph(n, [e for e, t in zip(edges, thresholds) if t <= p]))
    return family


def pm_threshold_sweep(
    s: int,
    n_list: list[int],
    p_grid: list[float],
    samples: int,
    seed: int,
    matching_budget: float = 10.0,
) -> list[SweepPoint]:
    """Empirical probability that a binomial s-uniform hypergraph has a
    perfect matching, for every (n, p) in n_list x p_grid.

    Samples are coupled across the grid (see coupled_hypergraph_family), so
    for a fixed n the success counts are non-decreasing in p exactly, and
    once a sample succeeds at some level no further search is run for it.
    """
    from .matching import find_perfect_matching

    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    for n in n_list:
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
                if find_perfect_matching(h, budget=matching_budget) is not None:
                    for j in range(level, len(levels)):
                        successes[j] += 1
                    break
        for p, won in zip(levels, successes):
            out.append(SweepPoint(n=n, p=p, samples=samples, successes=won))
    return out
