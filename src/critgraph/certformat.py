"""Bit-exact serialization: certificate JSON documents and CSV sweep
tables.

The certificate schema is versioned and uses integers for all
combinatorial data; the only floats are the sampling probabilities echoed
for provenance. Field order is fixed so equal runs produce byte-identical
files.
"""

from __future__ import annotations

import csv
import json
from itertools import chain
from pathlib import Path

from .certify import Certificate, Conclusions, SubsetEdgeCount
from .hypergraph import Graph, Hypergraph, Matching
from .matching import CORRUPT, MATCHED, SKIPPED, TIMEOUT, UNMATCHABLE, MatchabilityReport, VertexOutcome
from .sampling import ConstructionParams, SweepPoint
from .sparsity import SparsityVerdict, Violator

SCHEMA_VERSION = 1

# The outcome of each status without a witness, as most entries are. One
# instance per status is shared: outcomes are frozen.
_NO_WITNESS = {
    status: VertexOutcome(status=status, matching=None)
    for status in (MATCHED, UNMATCHABLE, TIMEOUT, SKIPPED, CORRUPT)
}


class CertificateFormatError(Exception):
    """The document is not a well-formed certificate."""


def certificate_to_dict(cert: Certificate, search: dict | None = None) -> dict:
    params = cert.params
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": cert.tool_version,
        "seed": cert.seed,
        "params": {
            "r": params.r,
            "s": params.s,
            "m": params.m,
            "k": params.k,
            "n": params.n,
            "C": params.C,
            "l": params.l,
            "p": params.p,
            "q": params.q,
        },
        "hypergraph": {"n": cert.hypergraph.n, "edges": [list(e) for e in cert.hypergraph.edges]},
        "graph": {"n": cert.graph.n, "edges": [list(e) for e in cert.graph.edges]},
        "matchability": None,
        "sparsity": None,
        "min_subset_edges": None,
        "conclusions": {
            "chi": cert.conclusions.chi,
            "vertex_critical": cert.conclusions.vertex_critical,
            "robust_to_r": cert.conclusions.robust_to_r,
        },
    }
    if cert.matchability is not None:
        doc["matchability"] = {
            "all_matchable": cert.matchability.all_matchable,
            "per_vertex": [
                {
                    "vertex": v,
                    "status": outcome.status,
                    "matching": None
                    if outcome.matching is None
                    else [list(e) for e in outcome.matching.edges],
                }
                for v, outcome in sorted(cert.matchability.per_vertex.items())
            ],
        }
    if cert.sparsity is not None:
        doc["sparsity"] = {
            "holds": cert.sparsity.holds,
            "m": cert.sparsity.m,
            "s": cert.sparsity.s,
            "violator": None
            if cert.sparsity.violator is None
            else {
                "edge_indices": list(cert.sparsity.violator.edge_indices),
                "spanned": cert.sparsity.violator.spanned,
            },
        }
    if cert.min_subset_edges is not None:
        doc["min_subset_edges"] = {
            "count": cert.min_subset_edges.count,
            "witness": list(cert.min_subset_edges.witness),
            "exact": cert.min_subset_edges.exact,
        }
    if search is not None:
        doc["search"] = search
    return doc


def certificate_to_json(cert: Certificate, search: dict | None = None) -> str:
    """The certificate's text: exactly
    `json.dumps(certificate_to_dict(cert, search=search), indent=2) + "\\n"`."""
    return _emit(certificate_to_dict(cert, search=search), 0) + "\n"


# json.dumps with an indent runs the pure-Python encoder; a compact encoder
# runs in C, so the layout below is built around it.
_encode = json.JSONEncoder().encode
_SCALARS = (str, int, float, bool, type(None))


def _int_list_template(width: int, depth: int) -> str:
    """The indent-2 layout of `width` integers at `depth`, as a % template."""
    pad = "\n" + "  " * (depth + 1)
    return "[" + ",".join([pad + "%d"] * width) + "\n" + "  " * depth + "]"


def _emit(value, depth: int) -> str:
    """json.dumps(value, indent=2) for a value nested `depth` levels deep.

    Dicts with str keys and nonempty lists are laid out here, an all-int
    list or a list of equal-width int rows (graph edges, hyperedges,
    matching witnesses) with one % pass; exact scalars go to the C encoder.
    Anything else (tuples, non-str keys, empty containers, subclasses) is
    left to json.dumps and re-indented: JSON text holds no raw newline
    inside a string, so every newline in it is layout."""
    kind = type(value)
    if kind in _SCALARS:
        return _encode(value)
    if kind is list and value:
        types = set(map(type, value))
        if types == {int}:
            return _int_list_template(len(value), depth) % tuple(value)
        if types == {list}:
            widths = set(map(len, value))
            flat = tuple(chain.from_iterable(value))
            # One width for all rows, and some int among them, so no row is empty.
            if len(widths) == 1 and set(map(type, flat)) == {int}:
                row = "\n" + "  " * (depth + 1) + _int_list_template(widths.pop(), depth + 1)
                return ("[" + ",".join([row] * len(value)) + "\n" + "  " * depth + "]") % flat
        pad = ",\n" + "  " * (depth + 1)
        items = pad.join([_emit(item, depth + 1) for item in value])
        return "[" + pad[1:] + items + "\n" + "  " * depth + "]"
    if kind is dict and value and set(map(type, value)) == {str}:
        pad = ",\n" + "  " * (depth + 1)
        items = pad.join([_encode(key) + ": " + _emit(item, depth + 1) for key, item in value.items()])
        return "{" + pad[1:] + items + "\n" + "  " * depth + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def write_certificate(cert: Certificate, path: str | Path, search: dict | None = None) -> None:
    Path(path).write_text(certificate_to_json(cert, search=search))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON kinds a field may have: (description, test).
_INT = ("an integer", _is_int)
_NUMBER = ("a number", lambda v: _is_int(v) or isinstance(v, float))
_BOOL = ("a boolean", lambda v: isinstance(v, bool))
_STR = ("a string", lambda v: isinstance(v, str))
_OBJECT = ("an object", lambda v: isinstance(v, dict))
_LIST = ("a list", lambda v: isinstance(v, list))
# One set of element types per list, built in C: a graph has thousands of rows.
_INTS = ("a list of integers", lambda v: isinstance(v, list) and set(map(type, v)) <= {int})
_INT_ROWS = (
    "a list of integer lists",
    lambda v: isinstance(v, list)
    and set(map(type, v)) <= {list}
    and set(map(type, chain.from_iterable(v))) <= {int},
)
_MISSING = object()  # what _read sees for an absent key


def _read(doc: dict, key: str, kind, where: str = "", nullable: bool = False):
    """doc[key], which must be present and of the given kind (or null when
    nullable); anything else is a CertificateFormatError naming the field."""
    value = doc.get(key, _MISSING)
    if value is None and nullable:
        return None
    description, ok = kind
    if value is _MISSING or not ok(value):  # the name is formatted only for an error
        name = f"{where}.{key}" if where else key
        if value is _MISSING:
            raise CertificateFormatError(f"missing field {name!r}")
        got = "null" if value is None else type(value).__name__
        raise CertificateFormatError(f"field {name!r} must be {description}, got {got}")
    return value


def _built(what: str, make):
    """make(), with the ValueError of a violated value invariant (or the
    OverflowError of an integer too large for a float field) reported as a
    format error."""
    try:
        return make()
    except (ValueError, OverflowError) as err:
        raise CertificateFormatError(f"bad {what}: {err}") from err


def certificate_from_dict(doc: dict) -> Certificate:
    """Decode a certificate document. Every field is type-checked before
    use, so malformed input raises CertificateFormatError and nothing else."""
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate document must be an object")
    version = _read(doc, "schema_version", _INT)
    if version != SCHEMA_VERSION:
        raise CertificateFormatError(f"unsupported schema version {version}")

    raw_params = _read(doc, "params", _OBJECT)
    ints = {key: _read(raw_params, key, _INT, "params") for key in ("r", "s", "m", "k", "n", "l")}
    numbers = {key: _read(raw_params, key, _NUMBER, "params") for key in ("C", "p", "q")}
    params = _built(
        "params", lambda: ConstructionParams(**ints, **{key: float(v) for key, v in numbers.items()})
    )

    raw_h = _read(doc, "hypergraph", _OBJECT)
    h_n = _read(raw_h, "n", _INT, "hypergraph")
    h_edges = _read(raw_h, "edges", _INT_ROWS, "hypergraph")
    # An edge longer than s fails the certificate anyway. Refused here,
    # before any graph: one edge on all n vertices lowers the edge floor
    # below to 0, and the graphs it would size take n^2 bits.
    longest = max(map(len, h_edges), default=0)
    if longest > params.s:
        raise CertificateFormatError(
            f"bad hypergraph: an edge has {longest} vertices, params say s = {params.s}"
        )
    hypergraph = _built("hypergraph", lambda: Hypergraph(h_n, h_edges))
    raw_g = _read(doc, "graph", _OBJECT)
    g_n = _read(raw_g, "n", _INT, "graph")
    if g_n != h_n:  # before the graph allocates g_n neighbour masks
        raise CertificateFormatError(f"bad graph: {g_n} vertices, hypergraph has {h_n}")
    g_edges = _read(raw_g, "edges", _INT_ROWS, "graph")
    # A lower bound on the complement's edges: refuses a huge n with few rows.
    least = g_n * (g_n - 1) // 2 - sum(len(e) * (len(e) - 1) for e in hypergraph.edges) // 2
    if len(g_edges) < least:
        raise CertificateFormatError(
            f"bad graph: {len(g_edges)} edges, the complement of the 2-section has at least {least}"
        )
    graph = _built("graph", lambda: Graph(g_n, g_edges))

    matchability = None
    raw_m = _read(doc, "matchability", _OBJECT, nullable=True)
    if raw_m is not None:
        per_vertex: dict[int, VertexOutcome] = {}
        for entry in _read(raw_m, "per_vertex", _LIST, "matchability"):
            if not isinstance(entry, dict):
                raise CertificateFormatError("per_vertex entries must be objects")
            where = "matchability.per_vertex[]"
            v = _read(entry, "vertex", _INT, where)
            if v in per_vertex:  # a later entry must not silently replace an earlier one
                raise CertificateFormatError(f"matchability.per_vertex repeats vertex {v}")
            status = _read(entry, "status", _STR, where)
            if status not in _NO_WITNESS:
                raise CertificateFormatError(f"unknown matching status {status!r}")
            raw_witness = _read(entry, "matching", _INT_ROWS, where, nullable=True)
            outcome = _NO_WITNESS[status]
            if raw_witness is not None:
                try:
                    outcome = VertexOutcome(status=status, matching=Matching(raw_witness))
                except ValueError:
                    # Keep parsing: the semantic checker reports the broken
                    # witness instead of refusing the whole document.
                    outcome = _NO_WITNESS[CORRUPT]
            per_vertex[v] = outcome
        matchability = MatchabilityReport(
            per_vertex=per_vertex,
            all_matchable=_read(raw_m, "all_matchable", _BOOL, "matchability"),
        )

    sparsity = None
    raw_s = _read(doc, "sparsity", _OBJECT, nullable=True)
    if raw_s is not None:
        violator = None
        raw_v = _read(raw_s, "violator", _OBJECT, "sparsity", nullable=True)
        if raw_v is not None:
            violator = Violator(
                edge_indices=tuple(_read(raw_v, "edge_indices", _INTS, "sparsity.violator")),
                spanned=_read(raw_v, "spanned", _INT, "sparsity.violator"),
            )
        sparsity = SparsityVerdict(
            holds=_read(raw_s, "holds", _BOOL, "sparsity"),
            violator=violator,
            m=_read(raw_s, "m", _INT, "sparsity"),
            s=_read(raw_s, "s", _INT, "sparsity"),
        )

    subset = None
    raw_c = _read(doc, "min_subset_edges", _OBJECT, nullable=True)
    if raw_c is not None:
        subset = SubsetEdgeCount(
            count=_read(raw_c, "count", _INT, "min_subset_edges"),
            witness=tuple(_read(raw_c, "witness", _INTS, "min_subset_edges")),
            exact=_read(raw_c, "exact", _BOOL, "min_subset_edges"),
        )

    raw_conc = _read(doc, "conclusions", _OBJECT)
    conclusions = Conclusions(
        chi=_read(raw_conc, "chi", _INT, "conclusions", nullable=True),
        vertex_critical=_read(raw_conc, "vertex_critical", _BOOL, "conclusions"),
        robust_to_r=_read(raw_conc, "robust_to_r", _BOOL, "conclusions"),
    )

    return Certificate(
        params=params,
        hypergraph=hypergraph,
        graph=graph,
        matchability=matchability,
        sparsity=sparsity,
        min_subset_edges=subset,
        conclusions=conclusions,
        seed=_read(doc, "seed", _INT),
        tool_version=_read(doc, "tool_version", _STR),
    )


def read_certificate(path: str | Path) -> Certificate:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise CertificateFormatError(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(text)
    except ValueError as err:  # JSONDecodeError, or an integer past the digit limit
        raise CertificateFormatError(f"invalid JSON: {err}") from err
    except RecursionError as err:
        raise CertificateFormatError("invalid JSON: nested too deeply") from err
    return certificate_from_dict(doc)


def write_sweep_csv(points: list[SweepPoint], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "p", "samples", "successes", "fraction"])
        for pt in points:
            writer.writerow([pt.n, repr(pt.p), pt.samples, pt.successes, repr(pt.fraction)])
