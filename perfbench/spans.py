"""Span tracer for the benchmark's traced run.

Every probe rebinds one module-level name of critgraph that its callers
look up at call time (for example ``critgraph.certify.check_sparsity``), so
the program's own files stay untouched. A span's self time is its duration
minus the time covered by its child spans; the self times of all spans plus
the time outside any span add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "sampling", "hypergraph", "sparsity", "matching", "certify", "certformat", "suites")
SUITES = ("obs1", "blocks", "edgebound", "sparsity-oracle", "matching-oracle")
VIOLATOR_BUCKETS = ("2", "3", "4plus")


class Tracer:
    """In-memory span aggregates for one traced pass."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)  # "layer" and "layer.span"
        self.total_s: dict[str, float] = defaultdict(float)  # "layer.span", inclusive
        self.counts: Counter[str] = Counter()
        self.deletion_ms: list[float] = []
        self.spans = 0
        self._open: list[float] = []  # child time covered so far, one per open span

    def call(self, layer: str, name: str, fn, args, kwargs, observe=None):
        self._open.append(0.0)
        start = time.perf_counter()
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            error = err
            raise
        finally:
            duration = time.perf_counter() - start
            own = duration - self._open.pop()
            if self._open:
                self._open[-1] += duration
            self.self_s[layer] += own
            self.self_s[f"{layer}.{name}"] += own
            self.total_s[f"{layer}.{name}"] += duration
            self.spans += 1
            if observe is not None:
                observe(self, duration, result, error, args)


def _sampled(t: Tracer, duration, h, error, args) -> None:
    if error is None:
        t.counts["sampling.calls"] += 1
        t.counts["sampling.edges"] += len(h.edges)


def _family(t: Tracer, duration, family, error, args) -> None:
    if error is None:
        t.counts["sampling.calls"] += 1
        t.counts["sampling.edges"] += sum(len(h.edges) for h in family)


def _graph(t: Tracer, duration, g, error, args) -> None:
    if error is None:
        t.counts["hypergraph.graph_edges"] += len(g.edges)


def _sparsity(t: Tracer, duration, verdict, error, args) -> None:
    if error is not None:
        return
    if verdict.holds:
        t.counts["sparsity.pass_calls"] += 1
        t.total_s["sparsity.pass"] += duration
        return
    t.counts["sparsity.reject_calls"] += 1
    t.total_s["sparsity.reject"] += duration
    size = len(verdict.violator.edge_indices)
    t.counts[f"sparsity.violator_edges_{size if size < 4 else '4plus'}"] += 1


def _deletion(t: Tracer, duration, matching, error, args) -> None:
    t.counts["matching.deletions"] += 1
    t.deletion_ms.append(duration * 1e3)
    if error is not None:
        if type(error).__name__ == "SearchBudgetExceeded":
            t.counts["matching.timeout"] += 1
    elif matching is None:
        t.counts["matching.unmatchable"] += 1
    else:
        t.counts["matching.matched"] += 1


def _perfect(t: Tracer, duration, matching, error, args) -> None:
    t.counts["matching.pm_calls"] += 1


def _subset(t: Tracer, duration, result, error, args) -> None:
    t.counts["certify.subset_calls"] += 1


def _bytes_written(t: Tracer, duration, result, error, args) -> None:
    if error is None:
        t.counts["certformat.bytes"] += os.path.getsize(args[1])


def _bytes_read(t: Tracer, duration, result, error, args) -> None:
    if error is None:
        t.counts["certformat.bytes"] += os.path.getsize(args[0])


def _suite(t: Tracer, duration, report, error, args) -> None:
    if error is None:
        t.counts[f"suites.{report.suite}_checked"] += report.checked
        t.counts[f"suites.{report.suite}_skipped"] += report.skipped


# (module, attribute, layer, span, observer). The module is the one whose
# globals the caller resolves the name in.
PROBES = (
    ("critgraph.cli", "derive_params", "sampling", "derive_params", None),
    ("critgraph.cli", "derive_seed", "sampling", "derive_seed", None),
    ("critgraph.cli", "sample_hypergraph", "sampling", "sample_hypergraph", _sampled),
    ("critgraph.cli", "verify_construction", "certify", "verify_construction", None),
    ("critgraph.cli", "check_certificate", "certify", "check", None),
    ("critgraph.cli", "write_certificate", "certformat", "encode", _bytes_written),
    ("critgraph.cli", "read_certificate", "certformat", "decode", _bytes_read),
    ("critgraph.cli", "write_sweep_csv", "certformat", "sweep_csv", None),
    ("critgraph.cli", "pm_threshold_sweep", "suites", "sweep", None),
    ("critgraph.cli", "connected_bound_suite", "suites", "obs1", _suite),
    ("critgraph.cli", "small_cut_suite", "suites", "blocks", _suite),
    ("critgraph.cli", "two_section_bound_suite", "suites", "edgebound", _suite),
    ("critgraph.cli", "sparsity_oracle_suite", "suites", "sparsity-oracle", _suite),
    ("critgraph.cli", "matching_oracle_suite", "suites", "matching-oracle", _suite),
    ("critgraph.certify", "two_section", "hypergraph", "two_section", None),
    ("critgraph.certify", "complement", "hypergraph", "complement", _graph),
    ("critgraph.certify", "check_sparsity", "sparsity", "check", _sparsity),
    ("critgraph.certify", "all_deletions_matchable", "matching", "all_deletions", None),
    ("critgraph.certify", "min_subset_edges", "certify", "subset_scan", _subset),
    ("critgraph.matching", "find_matching_avoiding", "matching", "deletion", _deletion),
    # pm_threshold_sweep imports find_perfect_matching from the module at call time.
    ("critgraph.matching", "find_perfect_matching", "matching", "perfect", _perfect),
    ("critgraph.sampling", "coupled_hypergraph_family", "sampling", "coupled_family", _family),
    ("critgraph.suites", "find_perfect_matching", "matching", "perfect", _perfect),
    ("critgraph.suites", "check_sparsity", "sparsity", "check", _sparsity),
    ("critgraph.suites", "brute_force_sparsity", "sparsity", "brute_force", None),
)


def _probe(tracer: Tracer, fn, layer: str, name: str, observe):
    def probe(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs, observe)

    return probe


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every probed name to a tracing wrapper; restore on exit."""
    saved = []
    for module_name, attr, layer, name, observe in PROBES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _probe(tracer, original, layer, name, observe))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _percentile_ms(samples: list[float], index: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=10, method="inclusive")[index]


def layer_metrics(t: Tracer, traced_wall: float, untraced_wall: float, import_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    c = t.counts
    out = {"cli.import_s": (import_s, "s")}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (t.self_s[layer], "s")
    out["sampling.calls"] = (c["sampling.calls"], "count")
    out["sampling.edges"] = (c["sampling.edges"], "count")
    out["hypergraph.two_section_s"] = (t.total_s["hypergraph.two_section"], "s")
    out["hypergraph.complement_s"] = (t.total_s["hypergraph.complement"], "s")
    out["hypergraph.graph_edges"] = (c["hypergraph.graph_edges"], "count")
    out["sparsity.reject_calls"] = (c["sparsity.reject_calls"], "count")
    out["sparsity.reject_s"] = (t.total_s["sparsity.reject"], "s")
    for bucket in VIOLATOR_BUCKETS:
        name = f"sparsity.violator_edges_{bucket}"
        out[name] = (c[name], "count")
    out["sparsity.pass_calls"] = (c["sparsity.pass_calls"], "count")
    out["sparsity.pass_s"] = (t.total_s["sparsity.pass"], "s")
    deletions = c["matching.deletions"]
    out["matching.deletions"] = (deletions, "count")
    out["matching.deletion_ms_p50"] = (_percentile_ms(t.deletion_ms, 4), "ms")
    out["matching.deletion_ms_p90"] = (_percentile_ms(t.deletion_ms, 8), "ms")
    for status in ("matched", "unmatchable", "timeout"):
        out[f"matching.{status}"] = (c[f"matching.{status}"], "count")
    out["matching.timeout_frac"] = (c["matching.timeout"] / deletions if deletions else 0.0, "ratio")
    out["matching.pm_calls"] = (c["matching.pm_calls"], "count")
    out["matching.pm_s"] = (t.total_s["matching.perfect"], "s")
    out["certify.verify_construction_s"] = (t.self_s["certify.verify_construction"], "s")
    out["certify.subset_calls"] = (c["certify.subset_calls"], "count")
    out["certify.subset_s"] = (t.total_s["certify.subset_scan"], "s")
    out["certify.check_s"] = (t.self_s["certify.check"], "s")
    out["certformat.encode_s"] = (t.total_s["certformat.encode"], "s")
    out["certformat.decode_s"] = (t.total_s["certformat.decode"], "s")
    out["certformat.bytes"] = (c["certformat.bytes"], "B")
    for suite in SUITES:
        out[f"suites.{suite}_s"] = (t.total_s[f"suites.{suite}"], "s")
        out[f"suites.{suite}_checked"] = (c[f"suites.{suite}_checked"], "count")
        out[f"suites.{suite}_skipped"] = (c[f"suites.{suite}_skipped"], "count")
    out["suites.sweep_s"] = (t.total_s["suites.sweep"], "s")
    out["unattributed_s"] = (traced_wall - sum(t.self_s[layer] for layer in LAYERS), "s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.spans"] = (t.spans, "count")
    return out


def deterministic_counts(metrics: dict) -> dict[str, int]:
    """The metrics that count work; equal inputs must give equal values."""
    return {name: value for name, (value, unit) in metrics.items() if unit in ("count", "B")}
