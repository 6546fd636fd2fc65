from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from amplification import sample_amplified, sample_union_rounds
from reference_sampling import _sampled_ranks as reference_sampled_ranks
from reference_sampling import _unrank_subset as reference_unrank
from reference_sampling import numpy_rng, numpy_seed
from reference_sampling import pm_threshold_sweep as reference_sweep
from critgraph.certformat import certificate_from_dict, certificate_to_json, write_sweep_csv
from critgraph import sampling
from critgraph.certify import verify_construction
from critgraph.cli import main
from critgraph.hypergraph import Hypergraph
from critgraph.matching import find_perfect_matching
from critgraph.sampling import (
    ConstructionParams,
    _sampled_ranks,
    _uniforms,
    _unrank_sorted,
    amplification_rounds,
    coupled_hypergraph_family,
    default_constant,
    derive_params,
    derive_seed,
    pm_threshold_sweep,
    sample_hypergraph,
    shamir_p,
)


def test_derive_params_reference_values():
    p1 = derive_params(1, 6, 12.0)
    assert (p1.s, p1.m, p1.n) == (4, 32, 21)
    p2 = derive_params(2, 6, 48.0)
    assert (p2.s, p2.m, p2.n) == (5, 64, 26)
    p3 = derive_params(1, 2, 12.0)
    assert (p3.s, p3.m, p3.n) == (4, 32, 5)


def test_derive_params_default_constant():
    params = derive_params(1, 6)
    assert params.C == 2.0 * math.factorial(3) == default_constant(4)


def test_derive_params_rejects_bad_input():
    with pytest.raises(ValueError):
        derive_params(0, 6)
    with pytest.raises(ValueError):
        derive_params(1, 1)


def test_sample_hypergraph_refuses_bad_arguments():
    with pytest.raises(ValueError, match="^need 2 <= s <= n, got s=5, n=4$"):
        sample_hypergraph(4, 5, 0.5, 1)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=f"^probability out of range: {p}$"):
            sample_hypergraph(6, 3, p, 1)


def test_params_invariant_enforced():
    good = derive_params(1, 4)
    with pytest.raises(ValueError):
        ConstructionParams(**{**vars(good), "m": good.m + 1})
    with pytest.raises(ValueError):
        ConstructionParams(**{**vars(good), "q": 0.5})


def test_shamir_p_frozen_values():
    assert shamir_p(16, 2, 1.0) == pytest.approx(0.17328679513998632, abs=1e-15)
    assert shamir_p(2, 2, 100.0) == 1.0
    assert shamir_p(27, 3, 4.0) == pytest.approx(0.01808415289988658, abs=1e-15)


def test_amplification_rounds():
    assert amplification_rounds(21) == 9
    assert amplification_rounds(16) == 8  # exact power of two
    assert amplification_rounds(5) == 5


@given(st.integers(2, 30), st.integers(2, 5))
def test_derive_params_modular_invariants(k, r):
    params = derive_params(r, k)
    assert params.n % params.s == 1
    assert params.m == 2 ** (params.s + 1)
    assert 0.0 <= params.q <= 1.0


def test_sample_extremes():
    assert sample_hypergraph(6, 3, 0.0, 1).edges == ()
    full = sample_hypergraph(5, 3, 1.0, 1)
    assert len(full.edges) == math.comb(5, 3)
    assert full.edges == tuple(combinations(range(5), 3))


def test_sample_determinism_bytes():
    a = sample_hypergraph(20, 3, 0.13, 99)
    b = sample_hypergraph(20, 3, 0.13, 99)
    assert a == b
    assert repr(a.edges) == repr(b.edges)
    assert a != sample_hypergraph(20, 3, 0.13, 100)


def test_sample_edges_canonical():
    h = sample_hypergraph(15, 4, 0.2, 5)
    assert list(h.edges) == sorted(set(h.edges))
    assert all(list(e) == sorted(set(e)) and len(e) == 4 for e in h.edges)


def test_sample_binomial_statistics():
    # Mean edge count over 100 seeds within 4 standard errors of N*p.
    n, s, p = 20, 3, 0.1
    total_candidates = math.comb(n, s)
    counts = [len(sample_hypergraph(n, s, p, seed).edges) for seed in range(100)]
    mean = sum(counts) / len(counts)
    expect = total_candidates * p
    stderr = math.sqrt(total_candidates * p * (1 - p) / len(counts))
    assert abs(mean - expect) <= 4 * stderr


def test_sample_per_edge_marginal():
    # A fixed edge appears with frequency ~ p across seeds.
    n, s, p = 8, 3, 0.3
    target = (0, 1, 2)
    hits = sum(target in sample_hypergraph(n, s, p, seed).edges for seed in range(400))
    stderr = math.sqrt(p * (1 - p) / 400)
    assert abs(hits / 400 - p) <= 4 * stderr


def test_amplified_matches_closed_form_density():
    # Empirical edge density over 200 seeds within 4 standard errors of
    # 1 - (1 - p)^l; reference value for (n=13, s=3, l=8, p=0.01) frozen
    # from the closed form.
    assert 1 - 0.99**8 == pytest.approx(0.07725530557207994, abs=1e-15)
    total = math.comb(13, 3)
    qq = 1 - 0.99**8
    counts = [len(sample_union_rounds(13, 3, 0.01, 8, seed).edges) for seed in range(200)]
    mean = sum(counts) / len(counts)
    stderr = math.sqrt(total * qq * (1 - qq) / 200)
    assert abs(mean - total * qq) <= 4 * stderr


def test_amplified_empty_at_p_zero():
    assert sample_union_rounds(13, 4, 0.0, 8, seed=3).edges == ()


def test_amplified_single_round_equals_plain():
    # One round is exactly one binomial draw through the derived stream.
    for seed in (0, 7, 123):
        assert sample_union_rounds(12, 3, 0.2, 1, seed) == sample_hypergraph(
            12, 3, 0.2, derive_seed(seed, 0)
        )


def test_amplified_uses_params_fields():
    params = derive_params(1, 4)  # n=13, s=4, l=8
    assert (params.n, params.l) == (13, 8)
    assert sample_amplified(13, 4, params, 5) == sample_union_rounds(
        13, 4, params.p, params.l, 5
    )
    with pytest.raises(ValueError):
        sample_amplified(12, 4, params, 5)


@given(st.floats(0.0, 1.0), st.integers(1, 40))
def test_union_probability_below_linear_bound(p, rounds):
    assert 1 - (1 - p) ** rounds <= rounds * p + 1e-12


def test_coupled_family_nested_and_marginal():
    levels = [0.0, 0.02, 0.05, 0.1, 0.25]
    fam = coupled_hypergraph_family(12, 3, levels, 77)
    for lo, hi in zip(fam, fam[1:]):
        assert set(lo.edges) <= set(hi.edges)
    assert fam[0].edges == ()


def test_sweep_extremes_and_determinism():
    pts = pm_threshold_sweep(3, [6], [0.0, 1.0], 25, seed=4)
    frac = {pt.p: pt.fraction for pt in pts}
    assert frac[0.0] == 0.0
    assert frac[1.0] == 1.0
    again = pm_threshold_sweep(3, [6], [0.0, 1.0], 25, seed=4)
    assert pts == again


def test_sweep_rejects_bad_divisibility():
    with pytest.raises(ValueError):
        pm_threshold_sweep(3, [7], [0.1], 5, seed=1)


def test_sweep_monotone_exact_by_coupling():
    grid = [i / 50 for i in range(8)]
    pts = pm_threshold_sweep(3, [9], grid, 60, seed=11)
    fractions = [pt.fraction for pt in sorted(pts, key=lambda x: x.p)]
    assert fractions == sorted(fractions)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(5) != derive_seed(6)


# Golden bytes. The digests below were recorded with the scalar-draw,
# comb-walk sampler; any change to the draw order, the draw-to-rank
# arithmetic or the unranking shows up here.

FROZEN_REPORT = Path(__file__).parent / "data" / "best_attempt_r1_k6.json"


def _edges_digest(hypergraphs) -> str:
    doc = json.dumps([[list(e) for e in h.edges] for h in hypergraphs])
    return hashlib.sha256(doc.encode()).hexdigest()


def test_frozen_report_rebuilt_from_seed():
    text = FROZEN_REPORT.read_text()
    stored = certificate_from_dict(json.loads(text))
    params = stored.params
    h = sample_hypergraph(params.n, params.s, params.q, stored.seed)
    cert = verify_construction(h, params, seed=stored.seed, stop_early=False)
    assert certificate_to_json(cert) == text


@pytest.mark.parametrize(
    "n, levels, seed, sizes, digest",
    [
        (15, [0.05, 0.1, 0.3], 20231, [29, 42, 136],
         "dd028be35cd8bec83a11f26c221fcd551d4eb74bcc98674af13fedae004e111a"),
        # 819 ranks plus 819 thresholds: the thresholds cross a chunk edge.
        (30, [0.05, 0.1, 0.2], 20233, [194, 409, 819],
         "a4c34e5ea008dc23a1949d2941748942c69c8b2d06cb423a17e222a35f40b4c9"),
    ],
)
def test_coupled_family_golden_digest(n, levels, seed, sizes, digest):
    fam = coupled_hypergraph_family(n, 3, levels, seed)
    assert [len(h.edges) for h in fam] == sizes
    assert _edges_digest(fam) == digest


def test_sample_golden_digest_n61():
    params = derive_params(1, 16)
    h = sample_hypergraph(params.n, params.s, params.q, 20234)
    assert len(h.edges) == 1430
    assert _edges_digest([h]) == "9cabb63056f5b2a91dec7125b129c96b933be2f594608457144b12ac6407ad33"


def test_sweep_table_golden_digest(tmp_path):
    pts = pm_threshold_sweep(3, [6, 9], [0.02, 0.05, 0.1, 0.2], 8, seed=20232)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(pts, out)
    assert [pt.successes for pt in pts] == [0, 0, 0, 3, 0, 0, 1, 5]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0d9839b6d6f132727ab199a23ef007386b210a56f201608d61fb94af489b7d53"
    )


# Oracles: the table-driven unranker and the pure-Python uniform stream
# against the comb-walk unranker and numpy's scalar draws.

# A stream length well past one Philox block of four doubles.
_MANY = 1024


@st.composite
def sorted_ranks(draw):
    s = draw(st.integers(2, 6))
    n = draw(st.integers(s, 200))
    total = math.comb(n, s)
    inner = draw(st.lists(st.integers(0, total - 1), max_size=20))
    return n, s, sorted({0, total - 1, *inner})


@given(sorted_ranks())
def test_unrank_sorted_equals_reference(case):
    n, s, ranks = case
    assert list(_unrank_sorted(ranks, n, s)) == [reference_unrank(r, n, s) for r in ranks]


def test_unrank_sorted_beyond_64_bits():
    n, s = 400, 10
    total = math.comb(n, s)
    assert total > 2**63
    ranks = [0, 1, 2**63 - 1, 2**63, 2**63 + 12345, total // 2, total - 2, total - 1]
    assert list(_unrank_sorted(ranks, n, s)) == [reference_unrank(r, n, s) for r in ranks]
    assert list(_unrank_sorted([total - 1], n, s)) == [tuple(range(n - s, n))]


def test_unranking_table_cap_is_checked_before_the_table(monkeypatch):
    cap = sampling.UNRANK_TABLE_CAP
    sampling.check_unrank_table(cap // 4 - 1, 4)  # exactly at the cap
    # The largest size a test, recipe or workload uses stays well inside it.
    sampling.check_unrank_table(20000, 4)
    with pytest.raises(ValueError, match=f"past the cap of {cap}$"):
        sampling.check_unrank_table(cap // 4, 4)
    # The library refuses before building a row, and the sweep before its
    # first sample. A small cap keeps a missing check from building a huge
    # table in this process.
    monkeypatch.setattr(sampling, "UNRANK_TABLE_CAP", 40)
    sampling._offset_table.cache_clear()
    with pytest.raises(ValueError, match="unranking table for n=13, s=3"):
        next(_unrank_sorted([0], 13, 3))
    monkeypatch.setattr(sampling, "_uniforms", None)  # a sample drawn first raises TypeError
    with pytest.raises(ValueError, match="n=15, s=3 .* past the cap of 40$"):
        pm_threshold_sweep(3, [6, 15], [0.1], 1, 1)


@given(
    st.integers(0, 2**64 - 1),
    # Below about 2e-307 the reference overflows; see test_sample_subnormal_p.
    st.one_of(st.sampled_from([0.0, 1.0, 1e-12, 0.5]), st.floats(1e-300, 1.0)),
    st.sampled_from([1, 10, _MANY - 1, _MANY + 1, 3 * _MANY]),
)
def test_sampled_ranks_equal_scalar_draws(seed, p, total):
    draws = _uniforms(seed)
    scalar = numpy_rng(seed)
    assert list(_sampled_ranks(total, p, draws)) == reference_sampled_ranks(total, p, scalar)
    # The stream continues exactly where the scalar draws stopped.
    assert [next(draws) for _ in range(3)] == [scalar.random() for _ in range(3)]


def test_sample_subnormal_p():
    # log(1 - u) / log1p(-p) overflows to inf; the skip passes every rank.
    assert sample_hypergraph(6, 3, 5e-324, 0).edges == ()
    assert [h.edges for h in coupled_hypergraph_family(6, 3, [0.0, 5e-324], 0)] == [(), ()]


def test_sampled_ranks_cross_chunks():
    # About 1.5 * _MANY draws, hundreds of Philox blocks of four doubles.
    ranks = list(_sampled_ranks(3 * _MANY, 0.5, _uniforms(8)))
    assert len(ranks) + 1 > _MANY
    assert ranks == reference_sampled_ranks(3 * _MANY, 0.5, numpy_rng(8))


def _reference_family(n, s, levels, seed):
    p_max = max(levels)
    rng = numpy_rng(seed)
    ranks = reference_sampled_ranks(math.comb(n, s), p_max, rng)
    thresholds = [p_max * rng.random() for _ in ranks]
    return [
        Hypergraph(n, [reference_unrank(r, n, s) for r, t in zip(ranks, thresholds) if t <= p])
        for p in levels
    ]


@settings(max_examples=30)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(6, 30),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 0.3)), min_size=1, max_size=4),
)
def test_coupled_family_equals_reference(seed, n, levels):
    assert coupled_hypergraph_family(n, 3, levels, seed) == _reference_family(n, 3, levels, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_equals_reference_n61(seed):
    params = derive_params(1, 16)
    n, s = params.n, params.s
    ranks = reference_sampled_ranks(math.comb(n, s), params.q, numpy_rng(seed))
    assert len(ranks) + 1 > _MANY
    want = Hypergraph(n, [reference_unrank(r, n, s) for r in ranks])
    assert sample_hypergraph(n, s, params.q, seed) == want


# The pure-Python SeedSequence and Philox4x64-10 against numpy's.


@st.composite
def spawn_keys(draw):
    # Words of one and of several 32-bit words each.
    word = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96))
    return tuple(draw(st.lists(word, max_size=3)))


@settings(max_examples=300)
@given(st.integers(0, 128).flatmap(lambda bits: st.integers(0, 2**bits - 1)), spawn_keys())
def test_derive_seed_equals_numpy(base, path):
    assert derive_seed(base, *path) == numpy_seed(base, *path)


@pytest.mark.parametrize("base", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**600 + 12345])
@pytest.mark.parametrize("path", [(), (0,), (2**32,), (7, 2**64 - 1), (2**70 + 1, 0, 2**33)])
def test_derive_seed_equals_numpy_at_word_edges(base, path):
    # 2**600 has 19 words: more entropy than the tabulated hash constants.
    assert derive_seed(base, *path) == numpy_seed(base, *path)


def test_derive_seed_rejects_negative_input():
    with pytest.raises(ValueError):
        derive_seed(-1)
    with pytest.raises(ValueError):
        derive_seed(1, -2)


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1, 2**130 + 3])
def test_uniforms_equal_numpy_philox(seed):
    draws = _uniforms(seed)
    count = 4 * _MANY + 3  # over a thousand blocks, ending inside one
    assert [next(draws) for _ in range(count)] == numpy_rng(seed).random(count).tolist()


@given(st.integers(0, 2**64 - 1), st.integers(1, 64))
def test_uniforms_equal_numpy_philox_random_seeds(seed, count):
    draws = _uniforms(seed)
    assert [next(draws) for _ in range(count)] == numpy_rng(seed).random(count).tolist()


# The sampler builds its hypergraphs with the unchecked constructor; they
# must be indistinguishable from the checked ones.


def _same_value(fast: Hypergraph, checked: Hypergraph) -> None:
    assert fast == checked and hash(fast) == hash(checked)
    assert type(fast.edges) is tuple and all(type(e) is tuple for e in fast.edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.floats(0.05, 8.0), st.integers(0, 2**64 - 1))
def test_sampled_hypergraph_equals_checked_constructor(k, C, seed):
    params = derive_params(1, k, C)
    fast = sample_hypergraph(params.n, params.s, params.q, seed)
    checked = Hypergraph(fast.n, [list(reversed(e)) for e in reversed(fast.edges)])
    _same_value(fast, checked)
    # write_certificate writes exactly certificate_to_json's text.
    texts = [
        certificate_to_json(verify_construction(h, params, seed=seed, stop_early=False))
        for h in (fast, checked)
    ]
    assert texts[0] == texts[1]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(4, 14),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_coupled_family_equals_checked_constructor(seed, n, levels):
    for h in coupled_hypergraph_family(n, 3, levels, seed):
        _same_value(h, Hypergraph(h.n, list(h.edges)))


# The sweep decides a sample with one search at the top level and bisects
# only when that search matches; the level-by-level loop it replaced is the
# oracle, and the two must give equal points on every grid.


@pytest.mark.parametrize(
    "s, n_list, grid, samples, seed",
    [
        (2, [2, 4, 6, 8], [0.0, 0.1, 0.3, 0.1, 1.0], 12, 5),
        (2, [10, 12], [0.3, 0.05, 0.2, 0.2, 0.0], 15, 6),
        (3, [3, 6, 9, 12], [0.5, 0.05, 0.2, 0.2], 12, 7),
        (3, [12, 18], [0.0, 0.01, 0.02, 0.03, 0.04, 0.05], 10, 8),
        (4, [4, 8, 12], [1.0, 0.0, 0.1, 1.0, 0.02], 10, 9),
        (4, [8], [0.25], 10, 10),
        # Dense grids: nearly every sample matches at the top.
        (3, [6, 9], [0.4, 0.6, 0.8, 1.0, 0.9], 15, 11),
        (4, [8], [0.3, 0.5, 0.7, 0.5], 15, 12),
    ],
)
def test_sweep_equals_level_by_level_reference(s, n_list, grid, samples, seed):
    assert pm_threshold_sweep(s, n_list, grid, samples, seed) == reference_sweep(s, n_list, grid, samples, seed)


def test_sweep_dense_grid_matches_at_the_top():
    pts = pm_threshold_sweep(3, [6, 9], [0.4, 0.6, 0.8, 1.0, 0.9], 15, 11)
    assert {pt.p: pt.successes for pt in pts if pt.n == 9}[1.0] == 15
    assert sum(pt.successes for pt in pts if pt.p == 0.4) > 0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, [4, 6, 10]), (3, [6, 9]), (4, [8, 12])]),
    st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.6)), min_size=1, max_size=6),
    st.integers(1, 6),
    st.integers(0, 2**64 - 1),
)
def test_sweep_equals_reference_on_random_grids(shape, grid, samples, seed):
    s, n_list = shape
    assert pm_threshold_sweep(s, n_list, grid, samples, seed) == reference_sweep(s, n_list, grid, samples, seed)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([(2, 8), (3, 9), (3, 15), (4, 12)]),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    st.integers(0, 2**64 - 1),
)
def test_top_sample_equals_top_of_coupled_family(shape, levels, seed):
    s, n = shape
    levels.sort()  # as the sweep sorts its grid: the family's last level is the top
    assert sample_hypergraph(n, s, max(levels), seed) == coupled_hypergraph_family(n, s, levels, seed)[-1]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda s: st.tuples(st.just(s), st.lists(st.integers(1, 12 // s).map(lambda m: m * s), min_size=1, max_size=3))
    ),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    st.integers(1, 5),
    st.integers(0, 2**64 - 1),
)
def test_sweep_levels_equal_coupled_family(shape, grid, samples, seed):
    # The sweep draws a matching sample's thresholds from the stream of its
    # top sample and keeps each level as an edge bitset over the top
    # sample's edges; each level's edge set must be the one the family
    # draws afresh.
    s, n_list = shape
    level_masks = sampling._level_masks
    built = []

    def record(*args):
        built.append(level_masks(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_level_masks", record)
        pm_threshold_sweep(s, n_list, grid, samples, seed)
    expected = []
    for n_idx, n in enumerate(n_list):
        for sample_idx in range(samples):
            family = coupled_hypergraph_family(n, s, sorted(grid), derive_seed(seed, n_idx, sample_idx))
            if find_perfect_matching(family[-1]) is not None:
                expected.append(family)
    assert len(built) == len(expected)
    for masks, family in zip(built, expected):
        top = family[-1].edges  # the top level holds every edge
        assert [tuple(e for i, e in enumerate(top) if mask >> i & 1) for mask in masks] == [
            level.edges for level in family
        ]


def _no_sampling(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("sampled before the input was checked")

    for name in ("derive_seed", "_uniforms", "sample_hypergraph", "coupled_hypergraph_family"):
        monkeypatch.setattr(sampling, name, refuse)


@pytest.mark.parametrize("parent", ["missing", "file"])
def test_cli_sweep_refuses_out_without_directory_before_sampling(parent, tmp_path, monkeypatch, capsys):
    # As construct does: refused at once, not after the whole sweep.
    _no_sampling(monkeypatch)
    (tmp_path / "file").write_text("")
    out = tmp_path / parent / "x.csv"
    argv = ["sweep", "--s", "3", "--n", "24", "--p", "0.01,0.02", "--samples", "2000", "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {out.parent} is not a directory\n"


@pytest.mark.parametrize(
    "grid",
    [[-0.1, 0.2, 0.5], [0.0, 0.2, 1.5], [0.3, -1e-300, 0.1], [float("nan"), 0.1], [0.1, float("inf")]],
)
def test_sweep_refuses_any_p_outside_unit_interval_before_sampling(grid, monkeypatch, capsys):
    _no_sampling(monkeypatch)
    with pytest.raises(ValueError, match="probability out of range"):
        pm_threshold_sweep(3, [6], grid, 5, seed=1)
    argv = ["sweep", "--s", "3", "--n", "6", "--p=" + ",".join(map(repr, grid)), "--samples", "5", "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: probability out of range\n"


def test_sweep_refuses_empty_grid(monkeypatch):
    # An empty table would read as a finished sweep with nothing in it.
    _no_sampling(monkeypatch)
    for n_list, grid in [([6, 9], []), ([], [0.1, 0.5]), ([], [])]:
        with pytest.raises(ValueError, match="need at least one n and one p"):
            pm_threshold_sweep(3, n_list, grid, 5, seed=1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, [7], [0.1], 5), "n=7 not divisible by s=3"),
        ((4, [8, 10], [0.1], 5), "n=10 not divisible by s=4"),
        ((3, [6], [0.1], 0), "need samples >= 1, got 0"),
        ((3, [6], [0.1], -2), "need samples >= 1, got -2"),
    ],
)
def test_sweep_shape_refusals_unchanged(args, message, monkeypatch):
    _no_sampling(monkeypatch)
    for sweep in (pm_threshold_sweep, reference_sweep):
        with pytest.raises(ValueError) as err:
            sweep(*args, seed=1)
        assert str(err.value) == message


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_sweep_refuses_samples_below_one(samples, capsys):
    assert main(["sweep", "--s", "3", "--n", "6", "--p", "0.1", "--samples", samples, "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: need --samples >= 1\n"


def test_cli_sweep_reports_a_spent_matching_budget_as_a_cap(tmp_path, monkeypatch, capsys):
    # As lemma-check reports a cap: exit 3, the sample named, no table.
    from critgraph import matching

    real = matching.find_perfect_matching

    def spent_at_n9(h, **kwargs):
        if h.n == 9:
            raise matching.SearchBudgetExceeded
        return real(h, **kwargs)

    monkeypatch.setattr(matching, "find_perfect_matching", spent_at_n9)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--s", "3", "--n", "6,9", "--p", "0.1,0.5", "--samples", "3", "--seed", "1", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"cap exceeded: the matching search of sample 0 at n=9 spent its {matching.MATCHING_BUDGET} nodes\n"
    )
    assert not out.exists()


def test_sweep_searches_each_sample_once_unless_it_matches(monkeypatch):
    from critgraph import matching

    real = matching.find_perfect_matching
    calls: list[bool] = []

    def counted(h, budget=None, edge_mask=None):
        found = real(h, budget=budget, edge_mask=edge_mask)
        calls.append(found is not None)
        return found

    monkeypatch.setattr(matching, "find_perfect_matching", counted)
    grid = [i / 100 for i in range(9)]  # nine levels: at most 4 more searches
    samples = 40
    pts = pm_threshold_sweep(3, [12], grid, samples, seed=3)
    monkeypatch.setattr(matching, "find_perfect_matching", real)
    assert pts == reference_sweep(3, [12], grid, samples, seed=3)
    matched = pts[-1].successes
    assert 0 < matched < samples
    assert samples <= len(calls) <= samples + 4 * matched
