"""The certificate writer lays out JSON itself instead of calling
json.dumps(..., indent=2), which runs the pure-Python encoder. Its text
must equal the stdlib's byte for byte; json.dumps is kept here only as the
reference."""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from critgraph.certformat import _emit, certificate_to_dict, read_certificate, write_certificate
from critgraph.certify import verify_construction
from critgraph.cli import main
from critgraph.hypergraph import Hypergraph
from critgraph.sampling import derive_params, sample_hypergraph

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def _reference(value) -> str:
    return json.dumps(value, indent=2)


# Leaves: ints past 2**64, every float including nan, inf and -0.0, and
# strings with non-ASCII and control characters.
_ints = st.one_of(st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)))
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
)
# Integer lists and rows, the writer's fast shapes, and near misses:
# bools among the ints, ragged and empty rows, tuples as rows.
_int_lists = st.lists(_ints, max_size=5)
_rows = st.one_of(
    st.integers(1, 4).flatmap(lambda w: st.lists(st.lists(_ints, min_size=w, max_size=w), min_size=1, max_size=6)),
    st.lists(st.lists(st.one_of(_ints, st.booleans()), max_size=4), max_size=5),
    st.lists(_int_lists, max_size=4),
    st.lists(st.tuples(_ints, _ints), max_size=4),
)
# Keys json.dumps accepts besides str: int, float, bool and None.
_keys = st.one_of(st.text(max_size=6), st.integers(), st.floats(), st.booleans(), st.none())


def json_values(depth: int = 6):
    """JSON-like values nested up to `depth` containers deep."""
    if depth == 0:
        return st.one_of(_leaves, _int_lists, _rows)
    inner = json_values(depth - 1)
    return st.one_of(
        _leaves,
        _int_lists,
        _rows,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(_keys, inner, max_size=3),
    )


@settings(max_examples=500)
@given(json_values())
def test_emit_equals_json_dumps_indent_2(value):
    assert _emit(value, 0) == _reference(value)


def test_every_data_file_re_encodes_byte_for_byte():
    paths = sorted(DATA.glob("*.json"))
    assert paths
    for path in paths:
        text = path.read_text()
        assert _emit(json.loads(text), 0) + "\n" == text, path.name


# The certificate shapes written in practice, pinned against the reference.


def _assert_written_as_reference(path: Path, cert, search=None) -> None:
    assert path.read_text() == _reference(certificate_to_dict(cert, search=search)) + "\n"


def _perfbench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # run.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_hypertree_certificate_is_written_as_reference(tmp_path, monkeypatch):
    # The benchmark's passing-sparsity corpus file: a 16-edge hub hypertree
    # at n = 61, sparsity holds, matchability stops at the first deletion.
    run = _perfbench_run(monkeypatch)
    params = derive_params(1, 16)
    edges = run.hypertree(params.n, params.s, 16, random.Random(5), hubs=3)
    path = tmp_path / "tree.json"
    run.write_tree_certificate(path, Hypergraph(params.n, edges), params, seed=9)
    cert = read_certificate(path)
    assert cert.sparsity.holds and cert.min_subset_edges is None
    _assert_written_as_reference(path, cert)


def test_construct_report_is_written_as_reference(tmp_path):
    path = tmp_path / "report.json"
    argv = ["construct", "--r", "1", "--k", "11", "--seed", "4", "--restarts", "0", "--workers", "1"]
    assert main(argv + ["--quiet", "--out", str(path)]) == 2
    search = json.loads(path.read_text())["search"]
    assert search
    _assert_written_as_reference(path, read_certificate(path), search=search)


def test_stop_early_record_is_written_as_reference(tmp_path):
    params = derive_params(1, 6)
    h = sample_hypergraph(params.n, params.s, params.q, 3)
    cert = verify_construction(h, params, seed=3, stop_early=True)
    assert cert.matchability is None and cert.min_subset_edges is None
    path = tmp_path / "record.json"
    write_certificate(cert, path)
    _assert_written_as_reference(path, cert)
