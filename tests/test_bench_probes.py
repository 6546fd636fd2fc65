"""The benchmark's traced run rebinds module-level names of the package
(`perfbench/spans.py`, `PROBES`) and passes `progress=` to the restart
loop. A refactor that renames one of them fails here rather than in a
traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from critgraph.cli import run_construct_search

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _probes() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PROBES


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
