from __future__ import annotations

import errno
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from critgraph.certformat import (
    CertificateFormatError,
    certificate_from_dict,
    certificate_to_dict,
    certificate_to_json,
    read_certificate,
    write_sweep_csv,
)
from critgraph import cli, sampling, suites
from critgraph.certify import Certificate, check_certificate, verify_construction
from critgraph.cli import main, run_construct_search
from critgraph.hypergraph import Hypergraph, complement, two_section
from critgraph.matching import MATCHING_BUDGET
from critgraph.sampling import SweepPoint, derive_params, derive_seed, sample_hypergraph

from conftest import hypergraphs

SRC = Path(__file__).resolve().parent.parent / "src"


def make_cert(seed=7, stop_early=False):
    params = derive_params(1, 2)
    h = sample_hypergraph(params.n, params.s, params.q, seed)
    return verify_construction(h, params, seed=seed, stop_early=stop_early)


def test_certificate_json_round_trip():
    cert = make_cert()
    doc = certificate_to_dict(cert)
    back = certificate_from_dict(json.loads(json.dumps(doc)))
    assert back == cert


def test_certificate_round_trip_with_skipped_stages():
    cert = make_cert(stop_early=True)
    assert cert.matchability is None
    back = certificate_from_dict(certificate_to_dict(cert))
    assert back == cert


def test_certificate_rejects_garbage():
    with pytest.raises(CertificateFormatError):
        certificate_from_dict({"schema_version": 99})
    with pytest.raises(CertificateFormatError):
        certificate_from_dict([1, 2, 3])


FROZEN_REPORT = Path(__file__).parent / "data" / "best_attempt_r1_k6.json"


def _frozen_doc() -> dict:
    return json.loads(FROZEN_REPORT.read_text())


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


def _drop(doc, path):
    *head, last = path
    for key in head:
        doc = doc[key]
    del doc[last]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: _set(d, ["matchability", "per_vertex"], None),
        lambda d: _drop(d, ["matchability", "per_vertex", 0, "vertex"]),
        lambda d: _set(d, ["sparsity", "m"], "x"),
        lambda d: _drop(d, ["conclusions", "robust_to_r"]),
        lambda d: _set(d, ["min_subset_edges", "witness"], 5),
        lambda d: _set(d, ["sparsity", "holds"], "false"),
        lambda d: _set(d, ["params", "r"], True),
        lambda d: _set(d, ["hypergraph", "edges", 0], [0, 0, 1, 2]),
        lambda d: _set(d, ["graph", "edges"], [[3]]),
        # Huge integers: 2^(s+1), n^(s-1) and l * p are never formed.
        lambda d: _set(d, ["params", "s"], 2**70),
        lambda d: _set(d, ["params", "s"], 10**6),
        lambda d: _set(d, ["params", "l"], 10**400),
    ],
)
def test_malformed_fields_are_format_errors(mutate):
    doc = _frozen_doc()
    mutate(doc)
    with pytest.raises(CertificateFormatError):
        certificate_from_dict(doc)


_ROW_FIELDS = {
    "hypergraph.edges": ["hypergraph", "edges"],
    "graph.edges": ["graph", "edges"],
    "matchability.per_vertex[].matching": ["matchability", "per_vertex", 0, "matching"],
}


@pytest.mark.parametrize("field", sorted(_ROW_FIELDS))
@pytest.mark.parametrize("value", [[[0, True]], [[0, 1.0]], [[0, [1]]], [0, 1], {}])
def test_hostile_rows_are_format_errors(field, value):
    doc = _frozen_doc()
    _set(doc, _ROW_FIELDS[field], value)
    got = "dict" if isinstance(value, dict) else "list"
    message = f"field {field!r} must be a list of integer lists, got {got}"
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_dict(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "row, message",
    [
        ([0, 1, 2], "bad graph: too many values to unpack (expected 2)"),
        ([3, 3], "bad graph: self-loop at 3"),
        ([0, 99], "bad graph: edge (0, 99) out of range [0, 21)"),
    ],
)
def test_bad_graph_rows_exit_1_without_traceback(tmp_path, capsys, row, message):
    doc = _frozen_doc()
    doc["graph"]["edges"].append(row)
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_dict(doc)
    assert str(err.value) == message
    path = tmp_path / "bad-row.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    err_text = capsys.readouterr().err
    assert err_text == f"parse error: {message}\n"


@pytest.mark.parametrize(
    "path, value, out, err",
    [
        (["matchability", "per_vertex", 3, "matching"], None,
         "certificate INVALID:\n  - vertex 3 marked matched without a witness\n"
         "  - all_matchable claimed but per-vertex outcomes disagree\n", ""),
        (["sparsity", "m"], 16, "certificate INVALID:\n  - sparsity verdict window does not match params\n", ""),
        (["sparsity", "violator"], None,
         "certificate INVALID:\n  - sparsity failure recorded without a violator\n", ""),
        (["min_subset_edges", "witness"], [0, 1, 2, 3],
         "certificate INVALID:\n  - subset witness is not a 5-vertex set\n", ""),
        (["min_subset_edges", "witness"], [0, 1, 2, 3, 21],
         "certificate INVALID:\n  - subset witness out of range\n", ""),
        (["matchability", "per_vertex", 3, "status"], "bogus", "", "parse error: unknown matching status 'bogus'\n"),
    ],
    ids=["matched-without-witness", "sparsity-window", "no-violator", "short-witness", "witness-range", "bad-status"],
)
def test_verify_rejects_each_tampered_field(path, value, out, err, tmp_path, capsys):
    doc = _frozen_doc()
    _set(doc, path, value)
    report = tmp_path / "tampered.json"
    report.write_text(json.dumps(doc))
    assert main(["verify", str(report)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_repeated_per_vertex_entry_is_refused(tmp_path, capsys):
    # A timed-out copy of vertex 0 before the real entry: keeping either one
    # silently would let a file claim two outcomes for one deletion.
    doc = _frozen_doc()
    doc["matchability"]["per_vertex"].insert(0, {"vertex": 0, "status": "timeout", "matching": None})
    with pytest.raises(CertificateFormatError) as err:
        certificate_from_dict(doc)
    assert str(err.value) == "matchability.per_vertex repeats vertex 0"
    path = tmp_path / "repeated-vertex.json"
    path.write_text(json.dumps(doc, indent=2))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == "parse error: matchability.per_vertex repeats vertex 0\n"


def test_graph_vertex_count_is_checked_before_allocation(tmp_path, capsys):
    # A graph stores one mask per vertex, so a huge count is refused
    # before anything is built.
    doc = _frozen_doc()
    doc["graph"]["n"] = 10**12
    path = tmp_path / "huge-n.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == (
        "parse error: bad graph: 1000000000000 vertices, hypergraph has 21\n"
    )


def test_huge_vertex_count_with_few_rows_is_refused_at_once(tmp_path, capsys):
    # Equal huge counts pass the vertex-count check; the row count is then
    # far below the complement's edge floor, so no mask is ever allocated.
    doc = _frozen_doc()
    doc["hypergraph"]["n"] = doc["graph"]["n"] = 10**8
    path = tmp_path / "huge-n.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert main(["verify", str(path)]) == 1
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 20 * 2**20  # one mask per vertex would be 800 MB
    rows = len(doc["graph"]["edges"])
    least = 10**8 * (10**8 - 1) // 2 - sum(len(e) * (len(e) - 1) // 2 for e in doc["hypergraph"]["edges"])
    assert capsys.readouterr().err == (
        f"parse error: bad graph: {rows} edges, the complement of the 2-section has at least {least}\n"
    )


def _one_edge_on_every_vertex(n: int) -> dict:
    doc = _frozen_doc()
    doc["hypergraph"]["n"] = doc["graph"]["n"] = n
    doc["hypergraph"]["edges"] = [list(range(n))]
    doc["graph"]["edges"] = []
    return doc


def test_edge_longer_than_s_is_refused_before_any_graph(tmp_path, capsys):
    # One edge on all n vertices lowers the complement's edge floor to 0,
    # so only the edge-length check keeps verify from building graphs of
    # n^2 bits (88 MB of RSS at n = 16,000 when they were built).
    n = 16_000
    path = tmp_path / "one-edge.json"
    path.write_text(json.dumps(_one_edge_on_every_vertex(n)))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert main(["verify", str(path)]) == 1
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 10 * 2**20
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"parse error: bad hypergraph: an edge has {n} vertices, params say s = 4\n"


def test_edges_of_length_at_most_s_still_decode():
    # Shorter edges are not refused by the decoder: check_certificate
    # reports them as a uniformity failure.
    doc = _frozen_doc()
    doc["hypergraph"]["edges"][0] = doc["hypergraph"]["edges"][0][:3]
    ok, reasons = check_certificate(certificate_from_dict(doc))
    assert not ok and reasons == ["hypergraph is not 4-uniform"]


def _honest_docs():
    yield _frozen_doc()
    for seed in (1, 7, 11):
        yield certificate_to_dict(make_cert(seed))
        yield certificate_to_dict(make_cert(seed, stop_early=True))


def test_edge_floor_holds_on_honest_certificates():
    for doc in _honest_docs():
        edges = doc["hypergraph"]["edges"]
        n = doc["graph"]["n"]
        assert len(doc["graph"]["edges"]) >= n * (n - 1) // 2 - sum(len(e) * (len(e) - 1) // 2 for e in edges)
        certificate_from_dict(doc)


@settings(max_examples=200, deadline=None)
@given(hypergraphs(max_n=12, sizes=(1, 2, 3, 4, 5), max_edges=10))
def test_edge_floor_never_refuses_the_true_graph(h):
    # The floor counts every pair of every edge once, so overlapping edges
    # only make it looser: the honest graph always decodes. The params are
    # those of s = 5, so that no drawn edge is longer than s.
    doc = _frozen_doc()
    doc["params"] = {key: getattr(derive_params(2, 2), key) for key in doc["params"]}
    doc["hypergraph"] = {"n": h.n, "edges": [list(e) for e in h.edges]}
    doc["graph"] = {"n": h.n, "edges": [list(e) for e in complement(two_section(h)).edges]}
    back = certificate_from_dict(doc)
    assert back.graph == complement(two_section(h))


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for idx, child in enumerate(node[:3]):
            yield from _paths(child, prefix + (idx,))


_FROZEN_PATHS = [p for p in _paths(_frozen_doc()) if p]
_JUNK = [None, True, 0, -1, 2**70, 1.5, float("nan"), "x", [], [5], [[5]], [None], {}, {"a": 1}]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_FROZEN_PATHS), st.sampled_from([*_JUNK, "<drop>"])),
        min_size=1,
        max_size=3,
    )
)
def test_mutated_report_decodes_or_is_format_error(mutations):
    doc = _frozen_doc()
    for path, value in mutations:
        try:
            if value == "<drop>":
                _drop(doc, list(path))
            else:
                _set(doc, list(path), value)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced the parent
    try:
        certificate_from_dict(doc)
    except CertificateFormatError:
        pass


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("edge_indices", [0, 0], "violator repeats an edge index"),
        ("spanned", 999, "violator spans 5 vertices, certificate says 999"),
    ],
)
def test_forged_violator_is_rejected(tmp_path, field, value, reason):
    doc = _frozen_doc()
    doc["sparsity"]["violator"][field] = value
    assert check_certificate(certificate_from_dict(doc)) == (False, [reason])
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) != 0


@functools.cache
def _hypertree_report() -> str:
    """An honest non-certificate at n = 61: a linear 4-uniform hypertree,
    so sparsity holds with no violator and no deletion has a matching."""
    params = derive_params(1, 16)
    s = params.s
    edges = [tuple(range(s))]
    for i in range(1, (params.n - 1) // (s - 1)):
        covered = s + (i - 1) * (s - 1)
        edges.append((i % s, *range(covered, covered + s - 1)))
    return certificate_to_json(verify_construction(Hypergraph(params.n, edges), params))


def _verify_doc(doc: dict, tmp_path: Path, capsys) -> tuple[int, str]:
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("vertex", [999, -5, 70])
def test_per_vertex_entry_outside_the_vertex_range_is_refused(vertex, tmp_path, capsys):
    doc = json.loads(_hypertree_report())
    doc["matchability"]["per_vertex"].append({"vertex": vertex, "status": "unmatchable", "matching": None})
    reason = f"matchability report has vertex {vertex} outside [0, 61)"
    assert _verify_doc(doc, tmp_path, capsys) == (1, f"certificate INVALID:\n  - {reason}\n")


def test_unmatched_entry_with_a_witness_is_refused(tmp_path, capsys):
    doc = json.loads(_hypertree_report())
    entry = doc["matchability"]["per_vertex"][5]
    assert (entry["vertex"], entry["status"]) == (5, "unmatchable")
    entry["matching"] = [[0, 1, 2, 3]]
    reason = "vertex 5 marked unmatchable but carries a matching"
    assert _verify_doc(doc, tmp_path, capsys) == (1, f"certificate INVALID:\n  - {reason}\n")


def test_holding_sparsity_with_a_violator_is_refused(tmp_path, capsys):
    doc = json.loads(_hypertree_report())
    doc["sparsity"]["violator"] = {"edge_indices": [0, 1], "spanned": 7}
    reason = "sparsity claimed to hold but a violator is recorded"
    assert _verify_doc(doc, tmp_path, capsys) == (1, f"certificate INVALID:\n  - {reason}\n")


def test_forged_subset_minimum_is_refused(tmp_path, capsys):
    # Every deletion of this n = 41 sample matches, and its graph has only
    # 4 edges, so chi(G) = 2. A witness that does induce 1 edge, recorded
    # as the exact minimum, would make the conclusions read chi = 11.
    out = tmp_path / "sample.json"
    argv = ["construct", "--r", "1", "--k", "11", "--seed", "6027006096675754289", "--restarts", "0"]
    assert main(argv + ["--quiet", "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    capsys.readouterr()
    assert doc["matchability"]["all_matchable"] and len(doc["graph"]["edges"]) == 4
    doc["min_subset_edges"] = {"count": 1, "witness": [0, 1, 2, 3, 36], "exact": True}
    doc["conclusions"] = {"chi": 11, "vertex_critical": True, "robust_to_r": False}
    reason = "subset [0, 1, 2, 3, 4] induces 0 edges, below the claimed minimum 1"
    assert _verify_doc(doc, tmp_path, capsys) == (1, f"certificate INVALID:\n  - {reason}\n")


def test_unreadable_files_are_parse_errors(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00 not text")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"seed": 1' + "0" * 5000 + "}")
    for path in (binary, deep, long_int):
        with pytest.raises(CertificateFormatError):
            read_certificate(path)
        assert main(["verify", str(path)]) == 1


def test_truncated_json_is_parse_error(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text(certificate_to_json(make_cert())[:100])
    with pytest.raises(CertificateFormatError):
        read_certificate(path)
    assert main(["verify", str(path)]) == 1


def test_corrupt_matching_reported_not_crash(tmp_path):
    cert = make_cert()
    doc = certificate_to_dict(cert)
    entry = doc["matchability"]["per_vertex"][0]
    assert entry["matching"] is not None
    entry["matching"][0][0] = entry["matching"][0][1]  # break disjointness
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1


def test_cli_construct_exit_codes(tmp_path):
    out = tmp_path / "cert.json"
    code = main(
        ["construct", "--r", "1", "--k", "2", "--seed", "7", "--restarts", "2", "--quiet", "--out", str(out)]
    )
    assert code == 2  # honest search failure at tiny scale
    assert out.exists()
    assert main(["verify", str(out)]) == 0


def test_cli_construct_n61_golden_digest(tmp_path):
    # Recorded before the matching search's early column stop: the 61
    # deletion witnesses of the re-verified attempt keep their bytes.
    out = tmp_path / "report.json"
    argv = ["construct", "--r", "1", "--k", "16", "--seed", "3", "--restarts", "0", "--workers", "1"]
    assert main(argv + ["--quiet", "--out", str(out)]) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "03e9a624a0b5a2c34bf02c9f55efeaa42d23c3cea7fb094f7af1ff6a73c8fa11"
    )


def test_cli_construct_timeouts_are_fixed_by_the_node_budget(tmp_path):
    # The same attempt at 1000 nodes per deletion: which deletions time out
    # depends on the budget alone, so the bytes are pinned like a golden.
    out = tmp_path / "report.json"
    argv = ["construct", "--r", "1", "--k", "16", "--seed", "3", "--restarts", "0", "--matching-budget", "1000"]
    assert main(argv + ["--quiet", "--out", str(out)]) == 2
    statuses = [entry["status"] for entry in json.loads(out.read_text())["matchability"]["per_vertex"]]
    assert (statuses.count("matched"), statuses.count("timeout")) == (32, 29)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1df7241c35e2455173bb4d6c5acdda56b0abe38478caa1ddbc50e5f1b0cdc758"
    )


def test_cli_construct_usage_errors(tmp_path, capsys):
    assert main(["construct", "--r", "0", "--k", "5"]) == 1
    assert capsys.readouterr().err == "error: deletion budget r must be >= 1, got 0\n"
    assert main(["construct", "--r", "1", "--k", "1"]) == 1
    assert capsys.readouterr().err == "error: target chromatic number k must be >= 2, got 1\n"
    assert main(["construct", "--r", "1", "--k", "3", "--matching-budget", "0"]) == 1
    # The budget counts search nodes, so a fraction is refused like any
    # other malformed integer.
    for text in ("nan", "2.5"):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--r", "1", "--k", "3", "--matching-budget", text])
        assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--r", "nonsense", "--k", "5"])
    assert exc.value.code == 1


def test_construct_refuses_zero_workers_and_negative_restarts(capsys):
    # --workers does not change how attempts run, yet a value below 1 is
    # refused like a negative restart count.
    for flag, value in [("--workers", "0"), ("--restarts", "-1")]:
        assert main(["construct", "--r", "1", "--k", "3", flag, value]) == 1
        assert capsys.readouterr().err == "error: budgets and worker count must be positive\n"


def test_cli_construct_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["construct", "--r", "1", "--k", "2", "--seed", "11", "--restarts", "3", "--quiet"]
    assert main(argv + ["--out", str(a)]) == 2
    assert main(argv + ["--out", str(b)]) == 2
    assert a.read_bytes() == b.read_bytes()


def test_search_reports_attempts_in_order():
    # With C = 1 the samples are sparse enough that scores differ, and the
    # best attempt is not the first.
    for k, C, seed in [(2, None, 13), (3, 1.0, 2)]:
        seen = []
        _, ok, idx = run_construct_search(
            derive_params(1, k, C), seed, restarts=9, budget=MATCHING_BUDGET,
            progress=lambda attempt, score: seen.append((attempt, score)),
        )
        assert [attempt for attempt, _ in seen] == list(range(idx + 1 if ok else 10))
        scores = [score for _, score in seen]
        assert idx == scores.index(max(scores))


def _counting(monkeypatch, names):
    """Count the calls construct makes through each of cli's names."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cli, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return counts


_WORK = [
    # Attempts 2, 3, 4, 5 and 7 survive streaming and are verified; the
    # best of them, attempt 2, is drawn and verified once more.
    (["--k", "3", "--C", "1", "--seed", "2", "--restarts", "9"], 10,
     {"derive_params": 1, "derive_seed": 11, "sample_fails_sparsity": 10,
      "sample_hypergraph": 6, "verify_construction": 6}),
    # Every attempt is a streamed rejection; attempt 0 is re-verified.
    (["--k", "11", "--seed", "20261018", "--restarts", "800"], 801,
     {"derive_params": 1, "derive_seed": 802, "sample_fails_sparsity": 801,
      "sample_hypergraph": 1, "verify_construction": 1}),
]


def test_search_derives_params_and_base_pool_once(monkeypatch, tmp_path):
    # A construct command derives its parameters once, the base seed's
    # SeedSequence pool once, and each attempt's seed once; only the best
    # attempt is drawn again, for its full re-verify.
    search = cli.run_construct_search
    for argv, attempts, work in _WORK:
        with monkeypatch.context() as patch:
            counts = _counting(patch, work)
            seen = []

            def recorded(*args, progress=None, **kwargs):  # as the benchmark's attempt clock
                return search(*args, progress=lambda idx, _: seen.append(idx), **kwargs)

            patch.setattr(cli, "run_construct_search", recorded)
            sampling._base_pool.cache_clear()
            assert main(["construct", "--r", "1", *argv, "--quiet", "--out", str(tmp_path / "c.json")]) == 2
            assert seen == list(range(attempts))
            assert counts == work
            assert sampling._base_pool.cache_info().misses == 1


def test_success_writes_the_certificate_that_scored_it(monkeypatch, tmp_path, capsys):
    # The verifier is wrapped to report three passed stages, so attempt 2,
    # the first to survive streaming, wins; its one verification is the
    # certificate written.
    class Robust(Certificate):
        def stages_passed(self) -> int:
            return 3

    calls = []

    def robust(*args, **kwargs):
        cert = verify_construction(*args, **kwargs)
        calls.append(cert)
        return Robust(**{f.name: getattr(cert, f.name) for f in fields(cert)})

    monkeypatch.setattr(cli, "verify_construction", robust)
    out = tmp_path / "c.json"
    assert main(["construct", "--r", "1", "--k", "3", "--C", "1", "--seed", "2", "--quiet", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"success at attempt 2: certificate written to {out}"
    doc = json.loads(out.read_text())
    assert (doc["search"]["outcome"], doc["search"]["restart_index"]) == ("success", 2)
    assert len(calls) == 1
    assert doc["seed"] == calls[0].seed == derive_seed(2, 2)


def test_search_produces_jobs_lazily(monkeypatch):
    # A million restarts as a list of jobs would be about 120 MB before the
    # first attempt; produced lazily, a success at index 0 costs nothing.
    robust = SimpleNamespace(stages_passed=lambda: 3)
    monkeypatch.setattr(cli, "_attempt", lambda params, seed, budget: robust)
    tracemalloc.start()
    try:
        cert, ok, idx = run_construct_search(derive_params(1, 2), 5, restarts=10**6, budget=MATCHING_BUDGET)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and idx == 0
    assert cert is robust
    assert peak < 2**20


def test_cli_verify_rejects_tampered_file(tmp_path):
    out = tmp_path / "cert.json"
    main(["construct", "--r", "1", "--k", "2", "--seed", "7", "--restarts", "1", "--quiet", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["min_subset_edges"]["count"] += 1
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 1


def test_cli_lemma_check_pass():
    assert main(["lemma-check", "--suite", "blocks", "--max-n", "4"]) == 0
    assert main(["lemma-check", "--suite", "obs1", "--max-n", "4"]) == 0
    assert main(["lemma-check", "--suite", "sparsity-oracle", "--count", "25"]) == 0
    assert main(["lemma-check", "--suite", "matching-oracle", "--count", "10"]) == 0
    assert main(["lemma-check", "--suite", "edgebound", "--count", "25"]) == 0


@pytest.mark.parametrize(
    "suite, line",
    [("obs1", "checked=2030210 skipped=0"),
     ("blocks", "checked=2372 skipped=19966"),
     ("edgebound", "checked=200 skipped=169"),
     ("sparsity-oracle", "checked=200 skipped=0"),
     ("matching-oracle", "checked=600 skipped=0")],
)
def test_cli_lemma_check_defaults(suite, line, capsys):
    # With no sizing flags each suite runs at its function's own defaults.
    assert main(["lemma-check", "--suite", suite]) == 0
    assert capsys.readouterr().out == f"suite {suite}: {line} counterexamples=0 -> PASS\n"


def test_cli_lemma_check_passes_only_the_flags_given(monkeypatch):
    calls = []

    def recording(**kwargs):
        report = suites.matching_oracle_suite(**kwargs)
        calls.append((kwargs, report.to_dict()))
        return report

    monkeypatch.setattr(cli, "matching_oracle_suite", recording)
    assert main(["lemma-check", "--suite", "matching-oracle"]) == 0
    assert main(["lemma-check", "--suite", "matching-oracle", "--count", "3", "--seed", "4"]) == 0
    assert [kwargs for kwargs, _ in calls] == [{}, {"count_per_s": 3, "seed": 4}]
    assert calls[0][1] == suites.matching_oracle_suite().to_dict()


def test_cli_lemma_check_counterexample_fails(monkeypatch, capsys):
    # A suite that finds a counterexample exits 2 with the report as JSON.
    report = suites.SuiteReport("obs1", checked=3, skipped=1, counterexamples=[{"n": 2, "edges": [[0, 1]]}])
    monkeypatch.setattr(cli, "connected_bound_suite", lambda **_: report)
    assert main(["lemma-check", "--suite", "obs1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "suite obs1: checked=3 skipped=1 counterexamples=1 -> FAIL\n"
        + json.dumps(report.to_dict(), indent=2) + "\n"
    )
    assert captured.err == ""


@pytest.mark.parametrize(
    "n, p, message",
    [("6,x", "0.5", "invalid literal for int() with base 10: 'x'"),
     ("6", "0.1,abc", "could not convert string to float: 'abc'")],
)
def test_cli_sweep_refuses_a_malformed_grid(n, p, message, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--s", "3", "--n", n, "--p", p, "--samples", "2", "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_cli_matching_oracle_stays_quick_at_a_large_max_n(capsys):
    # Each instance draws at most 18 edges, so a huge n throws nothing away.
    start = time.perf_counter()
    assert main(["lemma-check", "--suite", "matching-oracle", "--max-n", "20000", "--count", "1", "--seed", "1"]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out == "suite matching-oracle: checked=3 skipped=0 counterexamples=0 -> PASS\n"


def test_cli_lemma_check_cap_exceeded(monkeypatch):
    # The whole request is measured before the first instance is checked.
    checked = []
    monkeypatch.setattr(suites, "find_small_cut", checked.append)
    assert main(["lemma-check", "--suite", "blocks", "--max-n", "8", "--max-edges", "8"]) == 3
    assert checked == []


def test_cli_lemma_check_edgebound_shortfall(monkeypatch, capsys):
    # Fewer instances pass the sparsity window than --count asks for
    # within the attempt cap: a cap error, not a traceback.
    monkeypatch.setattr(
        cli, "two_section_bound_suite", functools.partial(suites.two_section_bound_suite, max_attempts=40)
    )
    assert main(["lemma-check", "--suite", "edgebound", "--max-n", "7", "--count", "200"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded: only ") and "of 200 instances" in err and "40 attempts" in err


def test_cli_lemma_check_obs1_cap_exceeded():
    assert main(["lemma-check", "--suite", "obs1", "--max-n", "9", "--max-edges", "9"]) == 3


@pytest.mark.parametrize(
    "argv, counted",
    [(["--suite", "obs1", "--max-n", "1000000"], 51742185),
     (["--suite", "obs1", "--max-n", "10000000"], 51742185),
     (["--suite", "blocks", "--max-n", "30", "--max-edges", "100000"], 9781448),
     (["--suite", "obs1", "--max-n", "40", "--max-edges", "1000000"], 7121583),
     (["--suite", "obs1", "--max-n", "10000000", "--max-edges", "0"], 10000000),
     (["--suite", "blocks", "--max-n", "150", "--max-edges", "0"], 6210922)],
)
def test_cli_lemma_check_refuses_an_over_cap_request_at_once(argv, counted):
    # The count stops as soon as it passes the cap: summing these whole
    # requests takes seconds to minutes. With no edges obs1 counts one
    # hypergraph per n in one step, and blocks counts each n's candidate
    # edges, which it builds for every n even then.
    code, stdout, stderr, elapsed = _limited_process(["lemma-check", *argv])
    assert (code, stdout) == (3, "")
    assert stderr == f"cap exceeded: more than 6000000 hypergraphs (counted {counted} before stopping)\n"
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [(["--suite", "edgebound", "--max-n", "3"], "max_n must be at least 7"),
     (["--suite", "sparsity-oracle", "--max-n", "4"], "max_n must be at least 5"),
     (["--suite", "matching-oracle", "--max-n", "3"], "max_n must be at least 4"),
     (["--suite", "blocks", "--max-n", "3"], "max_n must be at least 4"),
     (["--suite", "obs1", "--max-n", "-2"], "max_n must be at least 1"),
     (["--suite", "obs1", "--max-edges", "-1"], "max_edges must be at least 0"),
     (["--suite", "blocks", "--max-edges", "-1"], "max_edges must be at least 0"),
     (["--suite", "edgebound", "--count", "-5"], "count must be at least 1"),
     (["--suite", "matching-oracle", "--count", "0"], "count_per_s must be at least 1")],
)
def test_cli_lemma_check_refuses_vacuous_request(argv, message, capsys):
    assert main(["lemma-check", *argv]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize(
    "argv, flag",
    [(["--suite", "edgebound", "--max-edges", "2"], "--max-edges"),
     (["--suite", "sparsity-oracle", "--max-edges", "0"], "--max-edges"),
     (["--suite", "matching-oracle", "--count", "3", "--max-edges", "1"], "--max-edges"),
     (["--suite", "obs1", "--max-n", "3", "--seed", "5", "--count", "7"], "--count"),
     (["--suite", "obs1", "--seed", "5"], "--seed"),
     (["--suite", "blocks", "--count", "7"], "--count"),
     (["--suite", "blocks", "--max-n", "4", "--seed", "0"], "--seed")],
)
def test_cli_lemma_check_refuses_flags_the_suite_ignores(argv, flag, capsys):
    assert main(["lemma-check", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --suite {argv[1]} does not read {flag}\n"
    assert captured.out == ""


def test_cli_lemma_check_surfaces_internal_errors(monkeypatch):
    # Only a refused request is a usage error; a ValueError raised while
    # checking is a fault in the checker and must not read as one.
    def broken(h):
        raise ValueError("internal contradiction")

    monkeypatch.setattr(suites, "find_small_cut", broken)
    with pytest.raises(ValueError, match="internal contradiction"):
        main(["lemma-check", "--suite", "blocks", "--max-n", "4", "--max-edges", "1"])


def test_cli_lemma_check_smallest_requests_pass(capsys):
    assert main(["lemma-check", "--suite", "obs1", "--max-n", "1", "--max-edges", "0"]) == 0
    assert main(["lemma-check", "--suite", "blocks", "--max-n", "4", "--max-edges", "0"]) == 0
    assert main(["lemma-check", "--suite", "edgebound", "--max-n", "7", "--count", "1"]) == 0
    out = capsys.readouterr().out
    assert "suite obs1: checked=1 skipped=0" in out
    assert "suite blocks: checked=1 skipped=0" in out


def test_cli_lemma_check_passes_an_edgeless_request_at_once():
    # Counting the empty hypergraph of each n one n at a time took 3.5 s.
    code, stdout, stderr, elapsed = _limited_process(
        ["lemma-check", "--suite", "obs1", "--max-n", "3000000", "--max-edges", "0"]
    )
    assert (code, stdout, stderr) == (0, "suite obs1: checked=1 skipped=0 counterexamples=0 -> PASS\n", "")
    assert elapsed < 1.0


def _limited_process(argv, seconds=10) -> tuple[int, str, str, float]:
    """Run the CLI in a fresh process capped at 1 GiB of address space and
    `seconds` of wall time, so a command that tries to build a huge table
    fails alone instead of taking the machine's memory."""

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "critgraph.cli", *argv],
        capture_output=True, text=True, env=env, timeout=seconds, preexec_fn=limit,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


@pytest.mark.parametrize(
    "argv, n, s",
    [(["construct", "--r", "1", "--k", "100000000", "--restarts", "0", "--seed", "1"], 399999997, 4),
     (["sweep", "--s", "3", "--n", "99999999999", "--p", "0.1", "--samples", "1", "--seed", "1"], 99999999999, 3),
     (["sweep", "--s", "3", "--n", "12,99999999999", "--p", "0.1", "--samples", "1", "--seed", "1"], 99999999999, 3),
     (["lemma-check", "--suite", "edgebound", "--max-n", "10000000000"], 10000000000, 3),
     (["lemma-check", "--suite", "sparsity-oracle", "--max-n", "10000000000"], 10000000000, 3),
     (["lemma-check", "--suite", "matching-oracle", "--max-n", "10000000000"], 10000000000, 4)],
)
def test_cli_refuses_an_unranking_table_past_the_cap(argv, n, s, tmp_path):
    out = tmp_path / "X.json"
    if argv[0] == "construct":
        argv = [*argv, "--out", str(out)]
    code, stdout, stderr, elapsed = _limited_process(argv)
    assert (code, stdout) == (1, "")
    assert stderr == (
        f"error: the unranking table for n={n}, s={s} would hold s(n + 1) = {s * (n + 1)} "
        f"entries, past the cap of {sampling.UNRANK_TABLE_CAP}\n"
    )
    assert elapsed < 2.0
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["--r", "1000000"], "the threshold constant 2 * (s-1)! overflows a float at s=1000003"),
     (["--r", "10000000", "--C", "1"], "n^(s-1) overflows a float at n=10000003, s=10000003")],
)
def test_cli_refuses_a_huge_r_before_the_big_arithmetic(argv, message, tmp_path):
    out = tmp_path / "X.json"
    argv = ["construct", *argv, "--k", "2", "--seed", "1", "--restarts", "0", "--out", str(out)]
    code, stdout, stderr, elapsed = _limited_process(argv)
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
    assert elapsed < 2.0
    assert not out.exists()


def test_cli_sweep_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--s", "3", "--n", "6", "--p", "0,0.5,1", "--samples", "10", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().strip().splitlines()
    assert rows[0] == "n,p,samples,successes,fraction"
    assert rows[1].startswith("6,0.0,10,0,0.0")
    assert rows[-1].startswith("6,1.0,10,10,1.0")


def test_cli_sweep_prints_the_csv_rows_without_out(tmp_path, capsys):
    argv = ["sweep", "--s", "3", "--n", "6,9", "--p", "0,0.3,1", "--samples", "5", "--seed", "3"]
    path = tmp_path / "sweep.csv"
    assert main([*argv, "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    csv = path.read_bytes()
    assert csv.count(b"\r\n") == 7
    assert out.startswith("n,p,samples,successes,fraction\n")
    assert out.encode() == csv.replace(b"\r\n", b"\n")


def test_cli_sweep_divisibility_error():
    assert main(["sweep", "--s", "3", "--n", "7", "--p", "0.1", "--samples", "5", "--seed", "1"]) == 1


@pytest.mark.parametrize("n, p", [("", "0.1"), (",", "0.1"), ("6", "")])
def test_cli_sweep_refuses_empty_grid(n, p, capsys):
    assert main(["sweep", "--s", "3", "--n", n, "--p", p, "--samples", "2", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need at least one n and one p\n"
    assert captured.out == ""


def test_sweep_csv_writer(tmp_path):
    path = tmp_path / "s.csv"
    write_sweep_csv([SweepPoint(6, 0.5, 10, 5)], path)
    assert path.read_text().splitlines()[1] == "6,0.5,10,5,0.5"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "critgraph.cli", "sweep", "--s", "2", "--n", "4", "--p", "1.0", "--samples", "2", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "4,1.0,2,2,1.0" in proc.stdout


def test_package_root_imports_no_module():
    # The package root is only a docstring: importing it runs no module.
    code = "import sys, critgraph; print(sorted(m for m in sys.modules if m.startswith('critgraph.')))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _in_process(argv, capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_process(argv) -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "critgraph.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


_CONSTRUCT = ["construct", "--r", "1", "--k", "2", "--seed", "7", "--restarts", "500"]


@pytest.mark.parametrize(
    "sequence, expect",
    [
        ([["lemma-check", "--suite", "edgebound", "--count", "5", "--seed", "1"],
          ["lemma-check", "--suite", "edgebound", "--seed", "1"]],
         [(0, "checked=5 "), (0, "checked=200 ")]),
        ([["verify"], ["verify", str(FROZEN_REPORT)]],
         [(1, "the following arguments are required: path"), (0, "certificate OK")]),
        ([[*_CONSTRUCT, "--quiet", "--out", "{tmp}/c.json"], [*_CONSTRUCT, "--out", "{tmp}/c.json"]],
         [(2, "search exhausted 501 attempts"), (2, "attempt 500: best stage count")]),
    ],
    ids=["count-default", "usage-error-then-verify", "quiet-then-progress"],
)
def test_reused_parser_matches_fresh_processes(sequence, expect, tmp_path, capsys):
    # The parser is built once per process; no option or default of one
    # call may leak into the next.
    main(["verify", str(FROZEN_REPORT)])
    capsys.readouterr()
    assert cli.build_parser() is cli.build_parser()
    for argv, (code, text) in zip(sequence, expect):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        got = _in_process(argv, capsys)
        assert got == _fresh_process(argv)
        assert got[0] == code and text in got[1] + got[2]
    # And the first command again: --quiet still silences the progress line.
    assert "attempt 500" not in _in_process(sequence[0], capsys)[1]


def test_construct_refuses_missing_out_directory_before_searching(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "cert.json"
    monkeypatch.setattr(cli, "run_construct_search", None)  # a search would raise TypeError
    assert main([*_CONSTRUCT, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {out.parent} is not a directory\n"


def test_out_that_is_a_directory_is_refused_before_the_work(tmp_path, capsys, monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "run_construct_search", started)
    monkeypatch.setattr(cli, "pm_threshold_sweep", started)
    sweep = ["sweep", "--s", "3", "--n", "6", "--p", "0.5", "--samples", "2", "--seed", "1"]
    for argv in ([*_CONSTRUCT, "--out", str(tmp_path)], [*sweep, "--out", str(tmp_path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_unwritable_out_is_an_error_not_a_traceback(tmp_path, capsys):
    # The parent exists but the target is a directory.
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["construct", "--r", "1", "--k", "2", "--seed", "7", "--restarts", "0", "--out", str(target)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {target}: Is a directory\n"
    out = tmp_path / "missing" / "sweep.csv"
    assert main(["sweep", "--s", "3", "--n", "6", "--p", "0.5", "--samples", "2", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: {out.parent} is not a directory\n"
    code, stdout, stderr = _fresh_process(["sweep", "--s", "3", "--n", "6", "--p", "0.5", "--samples", "2", "--out", str(out)])
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: cannot write ") and "Traceback" not in stderr


@pytest.mark.parametrize(
    "writer, argv",
    [("write_certificate", ["construct", "--r", "1", "--k", "2", "--seed", "7", "--restarts", "0", "--quiet"]),
     ("write_sweep_csv", ["sweep", "--s", "3", "--n", "6", "--p", "0.5", "--samples", "2", "--seed", "1"])],
    ids=["construct", "sweep"],
)
def test_write_failure_after_the_work_is_an_error(writer, argv, tmp_path, capsys, monkeypatch):
    # The writer is patched, not the filesystem: a root process ignores
    # permission bits, so a read-only directory would stop no write.
    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, writer, no_space)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: No space left on device\n"
    assert "written to" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("C", ["-1", "0", "nan", "inf", "-inf"])
def test_cli_construct_rejects_bad_constant(tmp_path, C, capsys):
    out = tmp_path / "cert.json"
    argv = ["construct", "--r", "1", "--k", "3", f"--C={C}", "--seed", "1", "--restarts", "0",
            "--quiet", "--out", str(out)]
    assert main(argv) == 1
    assert "C must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["construct", "--r", "1", "--k", "3"],
     ["sweep", "--s", "3", "--n", "6", "--p", "0.1", "--samples", "2"],
     ["lemma-check", "--suite", "sparsity-oracle", "--count", "2"]],
)
def test_cli_rejects_negative_seed(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed=-1"])
    assert exc.value.code == 1
    assert "seed must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "s, n, message",
    [("0", "6", "need s >= 2"), ("1", "6", "need s >= 2"), ("-2", "6", "need s >= 2"),
     ("3", "0", "need n >= s"), ("3", "-3", "need n >= s"), ("4", "3,8", "need n >= s"),
     ("3", "6,7", "n=7 not divisible by s=3")],
)
def test_cli_sweep_rejects_bad_shape(s, n, message, capsys):
    assert main(["sweep", "--s", s, "--n", n, "--p", "0.1", "--samples", "2", "--seed", "1"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("C", [float("nan"), float("inf"), -1.0, 0.0, 10**400])
def test_decoder_rejects_bad_constant(tmp_path, C):
    doc = _frozen_doc()
    doc["params"]["C"] = C
    with pytest.raises(CertificateFormatError):
        certificate_from_dict(doc)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
