"""The benchmark's traced run rebinds module-level names of the package
(`perfbench/spans.py`, `PROBES`) and passes `progress=` to the restart
loop. A refactor that renames one of them fails here rather than in a
traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from critgraph import cli
from critgraph.cli import run_construct_search

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
REPORT = ROOT / "tests" / "data" / "best_attempt_r1_k6.json"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _probes() -> tuple:
    return _spans().PROBES


def test_every_probed_name_resolves():
    probes = _probes()
    assert probes
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in probes
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_restart_loop_takes_progress():
    assert "progress" in inspect.signature(run_construct_search).parameters


def test_cached_parser_calls_rebound_names(tmp_path, monkeypatch):
    # The parser is built once per process, so the commands it dispatches
    # to must resolve the probed names at call time, not at build time.
    assert cli.main(["verify", str(REPORT)]) == 0
    spans = _spans()
    with spans.installed(spans.Tracer()) as tracer:
        assert cli.main(["verify", str(REPORT)]) == 0
    assert tracer.total_s["certformat.decode"] > 0
    assert tracer.total_s["certify.check"] > 0
    assert tracer.counts["certformat.bytes"] == REPORT.stat().st_size

    calls = []

    def search(*args, **kwargs):  # as the benchmark's attempt clock rebinds it
        calls.append(args)
        return run_construct_search(*args, **kwargs)

    monkeypatch.setattr(cli, "run_construct_search", search)
    argv = ["construct", "--r", "1", "--k", "2", "--seed", "1", "--restarts", "0", "--quiet"]
    assert cli.main([*argv, "--out", str(tmp_path / "c.json")]) == 2
    assert len(calls) == 1
