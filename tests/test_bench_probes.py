"""The benchmark's traced run rebinds module-level names of the package
(`perfbench/spans.py`, `PROBES`) and passes `progress=` to the restart
loop. A refactor that renames one of them fails here rather than in a
traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from critgraph import cli
from critgraph.cli import main, run_construct_search
from critgraph.suites import SuiteReport

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
REPORT = ROOT / "tests" / "data" / "best_attempt_r1_k6.json"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("perfbench_spans", SPANS)


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


def test_validate_passes_only_flags_its_suites_read(monkeypatch, tmp_path, capsys):
    # lemma-check refuses a flag the chosen suite does not read; the
    # benchmark's suite commands must all be accepted. The suites are
    # stubbed, so only the flags are checked.
    monkeypatch.setitem(sys.modules, "spans", _spans())
    run = _load("perfbench_run", ROOT / "perfbench" / "run.py")
    ran = []
    for attr in ("connected_bound_suite", "small_cut_suite", "two_section_bound_suite",
                 "sparsity_oracle_suite", "matching_oracle_suite"):
        monkeypatch.setattr(cli, attr, lambda attr=attr, **_: ran.append(attr) or SuiteReport(attr))
    validate = run.Validate(run.WORKLOADS["validate"], 1, tmp_path)
    commands = [argv for argv in validate.commands(0, tmp_path) if argv[0] == "lemma-check"]
    assert [main(argv) for argv in commands] == [0] * 5
    assert len(set(ran)) == 5
    assert "does not read" not in capsys.readouterr().err
