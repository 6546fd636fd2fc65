"""Parameter derivation and seeded sampling of binomial random uniform
hypergraphs, the streaming sparsity rejection of the restart loop, and the
empirical perfect-matching threshold sweep.

Randomness is pure Python. Seeds go through SeedSequence hashing and
uniforms come from the Philox4x64-10 counter-based generator (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), both
written here so that every seed gives the same 64-bit words and the same
doubles as numpy's
Generator(Philox(SeedSequence(seed))).random() would, on any platform.
Derived streams (per restart, per sweep cell, per instance of the
randomized lemma-check suites) are split off the base seed with
SeedSequence spawn keys. The hash constants of SeedSequence do not
depend on the data and are tabulated once; the ten Philox round keys are
expanded once per stream. A base seed's pool is mixed once and cached, so
each stream derived from it only mixes in its spawn key.

A sample is the ascending sequence of candidate-edge ranks in
[0, C(n, s)), found by geometric skipping, each unranked to its
lexicographic s-subset:

- Each skip is int(math.log(1 - u) / math.log1p(-p)), one double at a
  time: math.log is the C library's log, which every recorded sample used.
- The coupled family takes its thresholds from the same stream, right after
  the draw that ended the ranks.
- Unranking looks each coordinate up with one bisect on a per-(n, s) table
  of cumulative lexicographic offsets, built once and cached. Ranks stay
  exact Python integers, so C(n, s) beyond 2**63 is fine.

Ranks and edges are produced lazily, so the restart loop can reject an
attempt after its first few edges (sample_fails_sparsity). Each of two
rules proves that a violator exists within the window m, so the exact
check_sparsity rejects the whole sample too, and the attempt scores 0
either way:

- an edge shares at least 3 vertices with an earlier edge: the pair spans
  at most 2s - 3 < 2(s - 1) vertices, a violator of size 2 <= m;
- f = ceil((n + 1)/(s - 1)) <= m edges have been drawn: any f edges span
  at most n <= (s - 1)f - 1 vertices (see sparsity.forced_violator_size).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .hypergraph import Hypergraph, Matching
from .sparsity import forced_violator_size

#: Multiplier applied to the factorial threshold constant when the caller
#: does not override C. Twice the sharp constant trades sample density for
#: better odds of matchability at small vertex counts.
DEFAULT_C_FACTOR = 2.0


def default_constant(s: int) -> float:
    """Default threshold constant C = 2 * (s-1)!."""
    if s - 1 > 170:  # 171! has no float value
        raise OverflowError(f"the threshold constant 2 * (s-1)! overflows a float at s={s}")
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
        if not (math.isfinite(self.C) and self.C > 0):
            raise ValueError(f"threshold constant C must be finite and positive, got {self.C}")
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
        try:
            return self.p == shamir_p(self.n - 1, self.s, self.C)
        except (ValueError, OverflowError):
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
    # n^(s-1) >= 2^((s-1)(bits(n)-1)), which from 2^1024 on has no float
    # value; test that before the power is formed.
    if (s - 1) * (n.bit_length() - 1) >= 1024:
        raise OverflowError(f"n^(s-1) overflows a float at n={n}, s={s}")
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


_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

# SeedSequence (numpy/random/bit_generator.pyx): a pool of four 32-bit
# words, hashed with multipliers that advance by a fixed factor per use.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) of the first `count` hash steps: step i xors the
    constant in force, advances it by `mult`, then multiplies by the new
    value."""
    out = []
    const = init
    for _ in range(count):
        advanced = const * mult & _MASK32
        out.append((const, advanced))
        const = advanced
    return tuple(out)


# Enough steps for entropy of up to 16 words: the pool fill, the 12 mixes
# of the pool with itself, and four per word beyond the pool.
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, 16 * _POOL_SIZE)
# The 12 mixes of the pool with itself: source word, target word and the
# constants of the hash step each one takes.
_SELF_MIXES = tuple(
    (src, dst, *_MIX_CONSTANTS[_POOL_SIZE + i])
    for i, (src, dst) in enumerate(
        (src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst
    )
)
# Four 32-bit words make a Philox key; derive_seed takes two.
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 4)


def _words32(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer; [0] for 0."""
    if value < 0:
        raise ValueError(f"expected a nonnegative integer seed, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix_in(pool: list[int], words: list[int], step: int) -> int:
    """Mix each of `words` into every pool word in place, with the hash
    constants from step `step` on; return the next step. Every hash step is
    hashmix(v) = h ^ h >> 16 with h = (v ^ xor) * mult mod 2**32, and every
    mix of a pool word x with a hashed word y is (L x - R y) mod 2**32,
    folded the same way."""
    consts = _MIX_CONSTANTS
    if step + _POOL_SIZE * len(words) > len(consts):
        consts = _hash_constants(_INIT_A, _MULT_A, step + _POOL_SIZE * len(words))
    mask, left, right = _MASK32, _MIX_MULT_L, _MIX_MULT_R
    for word in words:
        for dst in range(_POOL_SIZE):
            xor, mult = consts[step]
            step += 1
            h = (word ^ xor) * mult & mask
            x = (left * pool[dst] - right * (h ^ h >> 16)) & mask
            pool[dst] = x ^ x >> 16
    return step


def _entropy_pool(entropy: int) -> tuple[tuple[int, ...], int]:
    """The SeedSequence pool after mixing in the words of `entropy`, and
    the number of hash steps taken. Spawn-key words are mixed in after
    these, so the pool does not depend on the spawn key: padding the
    entropy with zeros up to the pool size, as SeedSequence does before a
    spawn key, changes no word of the pool fill."""
    words = _words32(entropy)
    mask, left, right = _MASK32, _MIX_MULT_L, _MIX_MULT_R
    pool = []
    for i in range(_POOL_SIZE):
        xor, mult = _MIX_CONSTANTS[i]
        h = ((words[i] if i < len(words) else 0) ^ xor) * mult & mask
        pool.append(h ^ h >> 16)
    for src, dst, xor, mult in _SELF_MIXES:
        h = (pool[src] ^ xor) * mult & mask
        x = (left * pool[dst] - right * (h ^ h >> 16)) & mask
        pool[dst] = x ^ x >> 16
    step = _POOL_SIZE * _POOL_SIZE
    if len(words) > _POOL_SIZE:
        step = _mix_in(pool, words[_POOL_SIZE:], step)
    return tuple(pool), step


@lru_cache(maxsize=16)
def _base_pool(base: int) -> tuple[tuple[int, ...], int]:
    """_entropy_pool of a base seed, mixed once for all of its children."""
    return _entropy_pool(base)


def _spawn_state(
    entropy_pool: tuple[tuple[int, ...], int], spawn_key: tuple[int, ...], n_words: int
) -> list[int]:
    """SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words)
    as 32-bit words, given _entropy_pool(entropy): the spawn-key words are
    mixed in, then the pool is hashed into the state."""
    pool, step = entropy_pool
    if spawn_key:
        pool = list(pool)
        _mix_in(pool, [word for key in spawn_key for word in _words32(key)], step)
    mask = _MASK32
    out = []
    for i, (xor, mult) in enumerate(_STATE_CONSTANTS[:n_words]):
        h = (pool[i % _POOL_SIZE] ^ xor) * mult & mask
        out.append(h ^ h >> 16)
    return out


def derive_seed(base: int, *path: int) -> int:
    """Deterministic 64-bit child seed for an independent stream: the first
    uint64 of SeedSequence(base, spawn_key=path)."""
    low, high = _spawn_state(_base_pool(base), path, 2)
    return low | high << 32


# Philox4x64-10: multipliers and Weyl key increments.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def _round_keys(seed: int) -> tuple[tuple[int, int], ...]:
    """The Philox key of Philox(SeedSequence(seed)), as the key of each of
    the ten rounds."""
    w0, w1, w2, w3 = _spawn_state(_entropy_pool(seed), (), 4)
    k0, k1 = w0 | w1 << 32, w2 | w3 << 32
    keys = []
    for _ in range(_PHILOX_ROUNDS):
        keys.append((k0, k1))
        k0 = (k0 + _PHILOX_W0) & _MASK64
        k1 = (k1 + _PHILOX_W1) & _MASK64
    return tuple(keys)


def _uniforms(seed: int) -> Iterator[float]:
    """The doubles Generator(Philox(SeedSequence(seed))).random() returns,
    in stream order: each block of four words encrypts the next counter
    value, starting at 1, and each word gives its top 53 bits."""
    keys = _round_keys(seed)
    m0, m1, mask = _PHILOX_M0, _PHILOX_M1, _MASK64
    scale = 2.0**-53
    counter = 0
    while True:
        counter += 1
        # The 256-bit counter's two top words stay zero below 2**128 blocks.
        c0, c1, c2, c3 = counter & mask, counter >> 64, 0, 0
        for k0, k1 in keys:
            p0 = m0 * c0
            p1 = m1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & mask, (p0 >> 64) ^ c3 ^ k1, p0 & mask
        yield (c0 >> 11) * scale
        yield (c1 >> 11) * scale
        yield (c2 >> 11) * scale
        yield (c3 >> 11) * scale


#: Most entries an unranking table may hold, s(n + 1) for the s-subsets of
#: [0, n); a table at the cap takes about 60 MB. Commands refuse a larger
#: n up front, before any work.
UNRANK_TABLE_CAP = 2**20


def check_unrank_table(n: int, s: int, error: type[ValueError] = ValueError) -> None:
    """Raise `error`, naming the cap, when the unranking table of the
    s-subsets of [0, n) would hold more than UNRANK_TABLE_CAP entries."""
    if s * (n + 1) > UNRANK_TABLE_CAP:
        raise error(
            f"the unranking table for n={n}, s={s} would hold s(n + 1) = {s * (n + 1)} "
            f"entries, past the cap of {UNRANK_TABLE_CAP}"
        )


@lru_cache(maxsize=64)
def _offset_table(n: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds the lexicographic offset of coordinate i: entry x is
    sum_{y<x} C(n-1-y, s-1-i), the number of s-subsets ranked before
    those whose i-th element is x (given the same earlier elements)."""
    check_unrank_table(n, s)
    rows = []
    for i in range(s):
        row = [0]
        for y in range(n):
            row.append(row[-1] + math.comb(n - 1 - y, s - 1 - i))
        rows.append(tuple(row))
    return tuple(rows)


def _unrank_sorted(ranks: Iterable[int], n: int, s: int) -> Iterator[tuple[int, ...]]:
    """The rank-th s-subset of [0, n) in lexicographic order, for each
    rank as it arrives: one bisect per coordinate on its offset row. The
    last row is 0, 1, ..., n, so the last coordinate needs no search."""
    *rows, _ = _offset_table(n, s)
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
        yield tuple(edge)


def _sampled_ranks(total: int, p: float, draws: Iterator[float]) -> Iterator[int]:
    """Indices of a Bernoulli(p) subset of range(total) in ascending order,
    by geometric skipping so work scales with the output, not with `total`.
    Once exhausted it has taken exactly (number of indices) + 1 values from
    `draws` when 0 < p < 1, else none."""
    if p <= 0.0:
        return
    if p >= 1.0:
        yield from range(total)
        return
    log = math.log
    log_keep = math.log1p(-p)
    pos = -1
    for u in draws:
        try:
            pos += 1 + int(log(1.0 - u) / log_keep)  # 1 - u is in (0, 1]
        except OverflowError:  # a skip beyond the float range passes any total
            return
        if pos >= total:
            return
        yield pos
    raise ValueError("uniform stream ended before the last rank")


def _sampled_edges(n: int, s: int, p: float, draws: Iterator[float]) -> Iterator[tuple[int, ...]]:
    """The edges of a binomial sample in rank order, each unranked as its
    rank is drawn from `draws`."""
    return _unrank_sorted(_sampled_ranks(math.comb(n, s), p, draws), n, s)


def _check_sample_args(n: int, s: int, p: float) -> None:
    if not 2 <= s <= n:
        raise ValueError(f"need 2 <= s <= n, got s={s}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")


def sample_hypergraph(n: int, s: int, p: float, seed: int) -> Hypergraph:
    """Binomial s-uniform random hypergraph: every s-subset of [0, n)
    is a hyperedge independently with probability p. Equal
    (n, s, p, seed) give identical output."""
    _check_sample_args(n, s, p)
    return Hypergraph._from_canonical(n, tuple(_sampled_edges(n, s, p, _uniforms(seed))))


def sample_fails_sparsity(n: int, s: int, p: float, m: int, seed: int) -> bool:
    """True when sample_hypergraph(n, s, p, seed) certainly fails local
    sparsity with window m, decided while its edges stream in: at the first
    edge sharing at least 3 vertices with an earlier one (when m >= 2), or
    once f = ceil((n+1)/(s-1)) <= m edges have arrived. False means neither
    rule fired over the whole sample, not that sparsity holds."""
    _check_sample_args(n, s, p)
    forced = forced_violator_size(n, s)
    limit = forced if forced <= m else None
    seen: set[tuple[int, ...]] = set()
    drawn = 0
    for edge in _sampled_edges(n, s, p, _uniforms(seed)):
        drawn += 1
        if drawn == limit:
            return True
        if m >= 2:
            triples = list(combinations(edge, 3))
            if not seen.isdisjoint(triples):
                return True
            seen.update(triples)
    return False


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
    draws = _uniforms(seed)
    edges = tuple(_sampled_edges(n, s, p_max, draws))
    return [
        Hypergraph._from_canonical(n, tuple(e for i, e in enumerate(edges) if level >> i & 1))
        for level in _level_masks(len(edges), p_max, p_levels, draws)
    ]


def _level_masks(count: int, p_max: float, p_levels: list[float], draws: Iterator[float]) -> list[int]:
    """The coupled family's level at each p in p_levels, as an edge bitset
    over its top level p_max: bit i is set iff edge i of the top level, in
    rank order, has threshold at most p. The top level holds `count` edges
    and was drawn from `draws`, positioned right after the draw that ended
    the ranks.

    Conditioned on inclusion at level p_max, an edge's latent uniform is
    uniform on [0, p_max]; drawing it only for included edges matches the
    joint law of thresholding a full table of uniforms. The thresholds
    continue the stream, one per edge in rank order."""
    thresholds = [p_max * next(draws) for _ in range(count)]
    return [sum(1 << i for i, t in enumerate(thresholds) if t <= p) for p in p_levels]


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
    for a fixed n the success counts are non-decreasing in p exactly. Each
    sample is decided by one search at the top level p_max, whose edges are
    drawn as the family's are. The levels are nested, so a sample with no
    perfect matching at p_max has none at any level and is done. Only for a
    sample that matches at p_max are the thresholds drawn, from the same
    stream right after its ranks, and each level becomes an edge bitset over
    the top level (_level_masks). A bisection over them finds the first
    level that matches, in at most ceil(log2 L) more searches. A probe whose
    level holds every edge of a matching already found needs no search; any
    other is a search of the top level restricted to the level's bitset, on
    the top level's cached index, which returns the matching a search of
    the level's own hypergraph would. A search that spends its node budget
    raises SearchBudgetExceeded naming its sample and n.
    """
    from .matching import MATCHING_BUDGET, SearchBudgetExceeded, find_perfect_matching

    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if s < 2:
        raise ValueError(f"need s >= 2, got s={s}")
    if not n_list or not p_grid:
        raise ValueError("need at least one n and one p")
    for n in n_list:
        if n < s:
            raise ValueError(f"need n >= s={s}, got n={n}")
        if n % s != 0:
            raise ValueError(f"n={n} not divisible by s={s}")
        check_unrank_table(n, s)
    levels = sorted(p_grid)
    if any(not 0.0 <= p <= 1.0 for p in levels):
        raise ValueError("probability out of range")
    out = []
    try:
        for n_idx, n in enumerate(n_list):
            successes = [0] * len(levels)
            for sample_idx in range(samples):
                draws = _uniforms(derive_seed(seed, n_idx, sample_idx))
                top = Hypergraph._from_canonical(n, tuple(_sampled_edges(n, s, levels[-1], draws)))
                witness = find_perfect_matching(top)
                if witness is None:
                    continue
                family = _level_masks(len(top.edges), levels[-1], levels, draws)
                held = _edge_bits(top, witness)
                lo, hi = 0, len(levels) - 1  # the first matching level is in [lo, hi]
                while lo < hi:
                    mid = (lo + hi) // 2
                    if held & ~family[mid]:
                        found = find_perfect_matching(top, edge_mask=family[mid])
                        if found is None:
                            lo = mid + 1
                            continue
                        held = _edge_bits(top, found)
                    hi = mid
                for j in range(hi, len(levels)):
                    successes[j] += 1
            for p, won in zip(levels, successes):
                out.append(SweepPoint(n=n, p=p, samples=samples, successes=won))
    except SearchBudgetExceeded as err:
        raise SearchBudgetExceeded(
            f"the matching search of sample {sample_idx} at n={n} spent its {MATCHING_BUDGET} nodes"
        ) from err
    return out


def _edge_bits(h: Hypergraph, m: Matching) -> int:
    """The edge bitset of m's edges over h's edge list, which holds them."""
    return sum(1 << bisect_left(h.edges, e) for e in m.edges)
