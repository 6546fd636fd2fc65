#!/usr/bin/env python3
"""critgraph benchmark: four command-line workloads run in one process.

Run from the repository root:

    python3 perfbench/run.py --workload construct-n41 --seed 1 --seconds 25 --trace 0

Every workload drives ``critgraph.cli.main`` with ``--workers 1``, checks
each command's output, and prints its metrics by name with their units; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with no tracing. With
``--trace 1`` the benchmark runs pass 0 untraced and then traced on the
same inputs, and reports per-layer metrics of the traced pass (see
spans.py). ``--write-reference`` records report digests and deterministic
counts at the reference seed in reference.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 1
SETUP_REPEATS = 3
MIN_PASSES = 2  # untraced passes per run, so wall_s is a median of at least two
MIN_OPS = 100  # untraced operations per run, so the p90 has ten samples beyond it
SETUP_TIMEOUT_S = 120

# Sizes per workload. Construct passes draw a fresh base seed per pass;
# verify passes re-read the same corpus; validate passes reseed the
# randomized suites and the sweep chunks.
WORKLOADS = {
    "construct-n41": {"kind": "construct", "k": 11, "restarts": 800},
    "construct-n61": {"kind": "construct", "k": 16, "restarts": 100},
    "verify": {
        "kind": "verify",
        # (k, count) best-attempt reports from `construct --r 1 --k K --restarts 0`
        "dense": [[6, 5], [11, 3]],
        # honest non-certificates at n = s(tree_k - 1) + 1 whose sparsity holds
        "tree_k": 16,
        "random_trees": 4,
        "random_tree_edges": [12, 16],
        # (edges, count) hub-shaped hypertrees; check_sparsity grows ~2x per edge
        "hub_trees": [[14, 16], [15, 10], [16, 2]],
    },
    "validate": {
        "kind": "validate",
        "max_n": {"obs1": 6, "blocks": 5},  # the CLI defaults: exhaustive to the caps
        "edgebound": 1000,
        "sparsity-oracle": 1000,
        "matching-oracle": 300,
        "sweep_s": 3,
        "sweep_n": [12, 18, 24],
        "sweep_chunks": 18,
        "sweep_samples": 20,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def child_seed(seed: int, *path) -> int:
    """Deterministic 63-bit seed for one input stream of the benchmark."""
    return random.Random("/".join(str(p) for p in (seed, *path))).getrandbits(63)


def import_critgraph():
    """Import critgraph from this checkout's src/, never from elsewhere."""
    if not (SRC / "critgraph" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no critgraph sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import critgraph

    if not Path(critgraph.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported critgraph from {critgraph.__file__}, not {SRC}")
    return critgraph


def call_cli(argv: list[str], tracer=None) -> tuple[int | None, str, str | None]:
    """(exit code, captured stdout, error) of one in-process CLI command."""
    from critgraph import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli", "main", cli.main, (argv,), {})
    except Exception as err:  # a crash is a failed operation, not a benchmark abort
        return None, out.getvalue(), f"{type(err).__name__}: {err}"
    return rc, out.getvalue(), None


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


# --- inputs -----------------------------------------------------------------


def hypertree(n: int, s: int, edges: int, rng: random.Random, hubs: int | None) -> list[tuple[int, ...]]:
    """s-uniform linear hypertree: each edge after the first meets the
    union of the earlier ones in exactly one vertex, drawn from the first
    `hubs` vertices of the first edge, or from all covered vertices when
    hubs is None. Any F of its edges spans at least (s-1)|F| + 1 vertices,
    so sparsity holds for every window."""
    order = list(range(n))
    rng.shuffle(order)
    out = [tuple(order[:s])]
    covered, fresh = order[:s], order[s:]
    for _ in range(edges - 1):
        anchor = rng.choice(covered if hubs is None else covered[:hubs])
        new = [fresh.pop() for _ in range(s - 1)]
        out.append((anchor, *new))
        covered += new
    return out


def write_tree_certificate(path: Path, h, params, seed: int) -> None:
    """The record `verify_construction(stop_early=True)` makes for a
    hypertree, minus the exponential sparsity search whose verdict the
    shape already decides: sparsity holds, matchability fails at the first
    deletion (isolated vertices), the subset scan is never reached."""
    from critgraph.certformat import write_certificate
    from critgraph.certify import Certificate, Conclusions
    from critgraph.hypergraph import complement, two_section
    from critgraph.matching import all_deletions_matchable
    from critgraph.sparsity import SparsityVerdict

    cert = Certificate(
        params=params,
        hypergraph=h,
        graph=complement(two_section(h)),
        matchability=all_deletions_matchable(h, stop_early=True, s=params.s),
        sparsity=SparsityVerdict(True, None, m=params.m, s=params.s),
        min_subset_edges=None,
        conclusions=Conclusions(chi=None, vertex_critical=False, robust_to_r=False),
        seed=seed,
    )
    write_certificate(cert, path)


def generate_corpus(spec: dict, seed: int, corpus: Path) -> None:
    from critgraph.hypergraph import Hypergraph
    from critgraph.sampling import derive_params

    corpus.mkdir(parents=True)
    for k, count in spec["dense"]:
        for j in range(count):
            path = corpus / f"dense-k{k}-{j:02d}.json"
            argv = ["construct", "--r", "1", "--k", str(k), "--seed", str(child_seed(seed, "dense", k, j)),
                    "--restarts", "0", "--workers", "1", "--out", str(path), "--quiet"]
            rc, _, error = call_cli(argv)
            if rc != 2:
                raise RuntimeError(f"corpus report {path.name}: exit {rc} {error or ''}")
    params = derive_params(1, spec["tree_k"])
    rng = random.Random(child_seed(seed, "trees"))
    shapes = [(rng.randint(*spec["random_tree_edges"]), None, "random") for _ in range(spec["random_trees"])]
    shapes += [(edges, rng.randint(2, 4), "hub") for edges, count in spec["hub_trees"] for _ in range(count)]
    for j, (edges, hubs, label) in enumerate(shapes):
        h = Hypergraph(params.n, hypertree(params.n, params.s, edges, rng, hubs))
        path = corpus / f"tree-{label}-{edges}e-{j:02d}.json"
        write_tree_certificate(path, h, params, child_seed(seed, "tree", j))


def setup_child(spec: dict, seed: int, outdir: Path) -> int:
    """Body of one fresh set-up process: import critgraph, make the inputs."""
    start = time.perf_counter()
    import_critgraph()
    import_s = time.perf_counter() - start
    outdir.mkdir(parents=True, exist_ok=True)
    if spec["kind"] == "verify":
        generate_corpus(spec, seed, outdir / "corpus")
    print(json.dumps({"import_s": import_s}))
    return 0


def run_setup(spec: dict, seed: int, workdir: Path, repeats: int) -> tuple[float, float, Path]:
    """Median wall time of `repeats` fresh set-up processes, median import
    time inside them, and the inputs directory of the last one."""
    walls, imports = [], []
    for r in range(repeats):
        outdir = workdir / f"setup-{r}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(outdir),
                "--spec", json.dumps(spec), "--seed", str(seed)]
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
        if r + 1 < repeats:
            shutil.rmtree(outdir)
    return statistics.median(walls), statistics.median(imports), outdir


# --- workloads ----------------------------------------------------------------


class Construct:
    """`construct --r 1 --k K` restart loop; one command per pass. An
    operation is one restart attempt, timed between progress callbacks."""

    op_name = "restart attempt"

    def __init__(self, spec: dict, seed: int, inputs: Path) -> None:
        self.spec, self.seed = spec, seed

    def commands(self, pass_index: int, outdir: Path) -> list[list[str]]:
        return [["construct", "--r", "1", "--k", str(self.spec["k"]),
                 "--seed", str(child_seed(self.seed, "construct", pass_index)),
                 "--restarts", str(self.spec["restarts"]), "--workers", "1",
                 "--out", str(outdir / "report.json")]]

    def check(self, records, outdir: Path) -> tuple[list[tuple[int, str]], dict]:
        from critgraph.certformat import CertificateFormatError, read_certificate
        from critgraph.certify import check_certificate

        report = outdir / "report.json"
        rc = records[0]["rc"]
        if rc != 2:
            return [(0, f"construct exited {rc}, expected 2 (best-attempt report)")], {}
        try:
            ok, reasons = check_certificate(read_certificate(report))
        except CertificateFormatError as err:
            ok, reasons = False, [str(err)]
        failures = [] if ok else [(0, f"report fails check_certificate: {reasons}")]
        return failures, {"report": sha256_files([report])}


class Verify:
    """`verify PATH` over a seeded corpus; one operation per certificate."""

    op_name = "verify command"

    def __init__(self, spec: dict, seed: int, inputs: Path) -> None:
        self.corpus = sorted((inputs / "corpus").glob("*.json"))
        self.corpus_digest = sha256_files(self.corpus)

    def commands(self, pass_index: int, outdir: Path) -> list[list[str]]:
        return [["verify", str(path)] for path in self.corpus]

    def check(self, records, outdir: Path) -> tuple[list[tuple[int, str]], dict]:
        failures = [
            (i, f"verify {Path(r['argv'][1]).name}: exit {r['rc']}, output {r['stdout'].strip()!r}")
            for i, r in enumerate(records)
            if r["rc"] != 0 or not r["stdout"].startswith("certificate OK")
        ]
        return failures, {"corpus": self.corpus_digest}


def sweep_grid(s: int, n: int) -> list[float]:
    """The criterion-7 grid: nine points up to 2 (s-1)! ln n / n^(s-1)."""
    top = 2 * math.factorial(s - 1) * math.log(n) / n ** (s - 1)
    return [top * i / 8 for i in range(9)]


class Validate:
    """All five lemma-check suites plus seeded sweep chunks on the
    criterion-7 grid; one operation per command."""

    op_name = "lemma-check or sweep command"

    def __init__(self, spec: dict, seed: int, inputs: Path) -> None:
        self.spec, self.seed = spec, seed

    def commands(self, pass_index: int, outdir: Path) -> list[list[str]]:
        spec, seed = self.spec, self.seed
        cmds = [["lemma-check", "--suite", suite, "--max-n", str(n)] for suite, n in spec["max_n"].items()]
        for suite in ("edgebound", "sparsity-oracle", "matching-oracle"):
            cmds.append(["lemma-check", "--suite", suite, "--count", str(spec[suite]),
                         "--seed", str(child_seed(seed, suite, pass_index))])
        s = spec["sweep_s"]
        for chunk in range(spec["sweep_chunks"]):
            for n in spec["sweep_n"]:
                grid = ",".join(repr(p) for p in sweep_grid(s, n))
                cmds.append(["sweep", "--s", str(s), "--n", str(n), "--p", grid,
                             "--samples", str(spec["sweep_samples"]),
                             "--seed", str(child_seed(seed, "sweep", pass_index, chunk, n)),
                             "--out", str(outdir / f"sweep-{chunk:03d}-{n}.csv")])
        return cmds

    def check(self, records, outdir: Path) -> tuple[list[tuple[int, str]], dict]:
        failures, tables = [], []
        for i, r in enumerate(records):
            if r["argv"][0] == "lemma-check":
                if r["rc"] != 0 or "-> PASS" not in r["stdout"]:
                    failures.append((i, f"suite {r['argv'][2]}: exit {r['rc']}, {r['stdout'].strip()!r}"))
                continue
            table = Path(r["argv"][-1])
            problem = f"exit {r['rc']}" if r["rc"] != 0 else sweep_curve_problem(table)
            if problem:
                failures.append((i, f"sweep {table.name}: {problem}"))
            if table.exists():
                tables.append(table)
        return failures, {"sweep_table": sha256_files(tables)}


def sweep_curve_problem(table: Path) -> str | None:
    """None when the curve is zero at p = 0 and non-decreasing in p. The
    top fraction is not checked: criterion 7's 0.5 target is out of reach."""
    try:
        with open(table, newline="") as fh:
            rows = sorted((float(row["p"]), int(row["successes"])) for row in csv.DictReader(fh))
    except (OSError, KeyError, ValueError) as err:
        return f"unreadable table: {err}"
    if not rows or rows[0][0] != 0.0 or rows[0][1] != 0:
        return "curve is not zero at p = 0"
    if any(b[1] < a[1] for a, b in zip(rows, rows[1:])):
        return "curve decreases in p"
    return None


KINDS = {"construct": Construct, "verify": Verify, "validate": Validate}


# --- passes -------------------------------------------------------------------


@contextlib.contextmanager
def attempt_clock():
    """Yield a list that gets a timestamp for every restart attempt, by
    wrapping the progress callback `critgraph.cli` hands to
    run_construct_search."""
    from critgraph import cli

    stamps: list[float] = []
    original = cli.run_construct_search

    def run_construct_search(*args, progress=None, **kwargs):
        def record(idx, score):
            stamps.append(time.perf_counter())
            if progress is not None:
                progress(idx, score)

        return original(*args, progress=record, **kwargs)

    cli.run_construct_search = run_construct_search
    try:
        yield stamps
    finally:
        cli.run_construct_search = original


def run_pass(workload, pass_index: int, outdir: Path, stamps: list[float], tracer=None) -> dict:
    """Run and time one pass's commands; gating is left to check_pass, so
    that it stays outside the traced region."""
    outdir.mkdir(parents=True)
    records, samples_ms = [], []
    wall_start = time.perf_counter()
    op_seconds = 0.0
    for argv in workload.commands(pass_index, outdir):
        stamps.clear()
        start = time.perf_counter()
        rc, stdout, error = call_cli(argv, tracer)
        end = time.perf_counter()
        records.append({"argv": argv, "rc": rc, "stdout": stdout, "error": error})
        if isinstance(workload, Construct):
            marks = [start, *stamps]
            samples_ms += [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
            op_seconds += marks[-1] - start
        else:
            samples_ms.append((end - start) * 1e3)
            op_seconds += end - start
    return {
        "pass": pass_index,
        "wall": time.perf_counter() - wall_start,
        "outdir": outdir,
        "records": records,
        "samples_ms": samples_ms,
        "ops_per_s": len(samples_ms) / op_seconds if op_seconds > 0 else 0.0,
    }


def check_pass(workload, result: dict) -> dict:
    """Gate a pass's outputs, record its digests and remove its files."""
    records = result.pop("records")
    outdir = result.pop("outdir")
    failures = [(i, f"{r['argv'][0]} raised {r['error']}") for i, r in enumerate(records) if r["error"]]
    checked, digests = workload.check(records, outdir)
    shutil.rmtree(outdir)
    result.update(commands=len(records), failures=failures + checked, digests=digests)
    return result


def mismatches(got: dict, expected: dict | None, what: str) -> list[tuple[int, str]]:
    """A failure for every expected key whose value differs."""
    if expected is None:
        return []
    return [(0, f"{what} {key}: got {got.get(key)}, expected {value}")
            for key, value in expected.items() if got.get(key) != value]


def reference_for(name: str, spec: dict, seed: int, path: Path = REFERENCE_PATH) -> dict | None:
    """Recorded digests and counts for this workload, if recorded at this
    seed with these sizes."""
    if not path.is_file():
        return None
    recorded = json.loads(path.read_text())
    entry = recorded["workloads"].get(name)
    if recorded["seed"] != seed or entry is None or entry["spec"] != spec:
        return None
    return entry


def _percentiles(samples: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return deciles[4], deciles[8]


def run_benchmark(
    name: str,
    spec: dict,
    seed: int,
    seconds: float,
    trace: bool,
    reference: dict | None = None,
    setup_repeats: int = SETUP_REPEATS,
    min_ops: int = MIN_OPS,
) -> dict:
    """Set up, run passes for about `seconds`, gate every output. Returns
    the result object plus the per-pass details behind it."""
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        setup_s, import_s, inputs = run_setup(spec, seed, workdir, setup_repeats)
        import_critgraph()
        workload = KINDS[spec["kind"]](spec, seed, inputs)
        passes, counts = [], None
        recorded = (reference or {}).get("digests", {})
        with attempt_clock() as stamps:
            start = time.perf_counter()
            while True:
                index = len(passes)
                if trace:
                    # Same inputs (pass 0) untraced then traced: equal bytes, and
                    # the difference in wall time is the tracing overhead.
                    plain = check_pass(workload, run_pass(workload, 0, workdir / f"pass-{index}-plain", stamps))
                    tracer = spans.Tracer()
                    with spans.installed(tracer):
                        traced = run_pass(workload, 0, workdir / f"pass-{index}-traced", stamps, tracer)
                    traced = check_pass(workload, traced)
                    traced["failures"] += mismatches(traced["digests"], plain["digests"], "traced digest")
                    metrics = spans.layer_metrics(tracer, traced["wall"], plain["wall"], import_s)
                    got = spans.deterministic_counts(metrics)
                    expected = counts if counts is not None else (reference or {}).get("counts")
                    traced["failures"] += mismatches(got, expected, "count")
                    counts = got
                    traced["untraced"] = plain
                    traced["metrics"] = metrics
                    passes.append(traced)
                else:
                    passes.append(check_pass(workload, run_pass(workload, index, workdir / f"pass-{index}", stamps)))
                last = passes[-1]
                last["failures"] += mismatches(last["digests"], recorded.get(str(last["pass"])), "digest")
                ops = sum(len(p["samples_ms"]) for p in passes)
                enough = trace or (len(passes) >= MIN_PASSES and ops >= min_ops)
                elapsed = time.perf_counter() - start
                if enough and elapsed + elapsed / len(passes) > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()

    all_passes = passes + [p["untraced"] for p in passes if "untraced" in p]
    attempted = sum(p["commands"] for p in all_passes)
    failed = sum(len({i for i, _ in p["failures"]}) for p in all_passes)
    if trace:
        chosen = sorted(passes, key=lambda p: p["wall"])[(len(passes) - 1) // 2]
        metrics = chosen["metrics"]
    else:
        samples = [x for p in passes for x in p["samples_ms"]]
        p50, p90 = _percentiles(samples) if len(samples) >= 2 else (0.0, 0.0)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["wall"] for p in passes),
            "ops_per_s": statistics.median(p["ops_per_s"] for p in passes),
            "op_ms_p50": p50,
            "op_ms_p90": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {key: (value, END_TO_END_UNITS[key]) for key, value in values.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": passes,
        "op_samples": sum(len(p["samples_ms"]) for p in passes),
        "op_name": workload.op_name,
        "counts": counts,
    }


# --- reporting ----------------------------------------------------------------


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": name,
        "sizes": spec,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def print_report(env: dict, result: dict) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    for p in result["passes"]:
        line = f"pass {p['pass']}: wall {p['wall']:.3f} s, {p['commands']} commands, {len(p['samples_ms'])} ops"
        if "untraced" in p:
            line += f" (untraced wall {p['untraced']['wall']:.3f} s)"
        print(line)
        for i, message in p["failures"]:
            print(f"  FAILED command {i}: {message}")
        if p["digests"]:
            print("  digests " + json.dumps(p["digests"], sort_keys=True))
    if result["counts"] is not None:
        print("counts " + json.dumps(result["counts"], sort_keys=True))
    print(f"op = {result['op_name']}; {result['op_samples']} op samples")
    for key, (value, unit) in result["metrics"].items():
        print(f"{key} {value:.6g} {unit}")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} commands failed)")


def write_reference(path: Path = REFERENCE_PATH) -> None:
    """Record digests for untraced passes 0 and 1 and the counts of the
    traced pass at REFERENCE_SEED, for every workload."""
    entries = {}
    for name, spec in WORKLOADS.items():
        plain = run_benchmark(name, spec, REFERENCE_SEED, 0, trace=False)
        traced = run_benchmark(name, spec, REFERENCE_SEED, 0, trace=True)
        if not (plain["correct"] and traced["correct"]):
            raise SystemExit(f"perfbench: {name} is not correct at the reference seed")
        entries[name] = {
            "spec": spec,
            "digests": {str(p["pass"]): p["digests"] for p in plain["passes"][:MIN_PASSES]},
            "counts": traced["counts"],
        }
    path.write_text(json.dumps({"seed": REFERENCE_SEED, "workloads": entries}, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="rewrite reference.json")
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--spec", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only is not None:
        return setup_child(json.loads(args.spec), args.seed, args.setup_only)
    import_critgraph()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = WORKLOADS[args.workload]
    result = run_benchmark(args.workload, spec, args.seed, args.seconds, bool(args.trace),
                           reference_for(args.workload, spec, args.seed))
    print_report(environment(args.workload, spec, args.seed, args.seconds, bool(args.trace)), result)
    metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
