"""Command-line surface: construct (randomized search with restarts),
verify (re-check a certificate file), lemma-check (validation suites), and
sweep (empirical matching-threshold table).

Exit codes: 0 success, 1 usage or parse error, 2 honest search failure,
3 enumeration cap or sweep search budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import secrets
import sys
from collections.abc import Iterator
from itertools import islice
from pathlib import Path

from .certformat import (
    CertificateFormatError,
    read_certificate,
    write_certificate,
    write_sweep_csv,
)
from .certify import Certificate, check_certificate, verify_construction
from .lemmas import CapExceeded, RequestRefused
from .matching import MATCHING_BUDGET, SearchBudgetExceeded
from .sampling import (
    ConstructionParams,
    derive_params,
    derive_seed,
    pm_threshold_sweep,
    sample_fails_sparsity,
    sample_hypergraph,
)
from .suites import (
    connected_bound_suite,
    matching_oracle_suite,
    small_cut_suite,
    sparsity_oracle_suite,
    two_section_bound_suite,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEARCH_FAILED = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A --seed value: seeds are hashed as unsigned integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {value}")
    return value


def _attempt_summary(args: tuple[ConstructionParams, int, int, int]) -> tuple[int, int, bool]:
    """(attempt index, stages passed, fully robust) for one restart; pure
    in its arguments, so parallel fan-out is deterministic. A sample that
    fails sparsity while its edges stream in scores 0 at once, as the full
    check would score it."""
    params, base_seed, idx, budget = args
    if sample_fails_sparsity(params.n, params.s, params.q, params.m, derive_seed(base_seed, idx)):
        return idx, 0, False
    cert = _attempt_certificate(params, base_seed, idx, budget, stop_early=True)
    return idx, cert.stages_passed(), cert.conclusions.robust_to_r


def _attempt_certificate(
    params: ConstructionParams, base_seed: int, idx: int, budget: int, stop_early: bool
) -> Certificate:
    child_seed = derive_seed(base_seed, idx)
    h = sample_hypergraph(params.n, params.s, params.q, child_seed)
    return verify_construction(
        h, params, seed=child_seed, matching_budget=budget, stop_early=stop_early
    )


def _attempt_results(jobs: Iterator[tuple], workers: int):
    """The attempt summaries of `jobs`, in index order: computed here for
    one worker, else by a pool of at most os.cpu_count() processes, one
    chunk at a time, so a success stops the search within a chunk whatever
    the scheduling. Jobs are taken from the iterator only as needed."""
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        yield from map(_attempt_summary, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor

    chunk = workers * 4
    with ProcessPoolExecutor(max_workers=workers) as pool:
        while batch := list(islice(jobs, chunk)):
            yield from pool.map(_attempt_summary, batch)


def run_construct_search(
    r: int,
    k: int,
    C: float | None,
    base_seed: int,
    restarts: int,
    budget: int,
    workers: int = 1,
    progress=None,
) -> tuple[Certificate, bool, int]:
    """Sample-and-verify loop: (restarts + 1) attempts with derived seeds;
    the first fully robust attempt wins, otherwise the attempt passing the
    most stages (ties to the lowest index) is re-verified thoroughly and
    returned as the best effort. Returns (certificate, success, index).

    The parameters are derived once for the whole search, and the attempt
    jobs are produced lazily, so memory does not grow with `restarts`."""
    params = derive_params(r, k, C)
    jobs = ((params, base_seed, idx, budget) for idx in range(restarts + 1))
    best_idx = 0
    best_score = -1
    success_idx: int | None = None
    with contextlib.closing(_attempt_results(jobs, workers)) as results:
        for idx, score, robust in results:
            if progress is not None:
                progress(idx, score)
            if robust:
                success_idx = idx
                break
            if score > best_score:
                best_idx, best_score = idx, score

    if success_idx is not None:
        cert = _attempt_certificate(params, base_seed, success_idx, budget, stop_early=True)
        return cert, True, success_idx
    cert = _attempt_certificate(params, base_seed, best_idx, budget, stop_early=False)
    return cert, False, best_idx


def _no_out_directory(out: Path) -> bool:
    """True, after printing the error, when out's parent is not a
    directory: a command refuses before its work, not after it."""
    if out.parent.is_dir():
        return False
    print(f"error: cannot write {out}: {out.parent} is not a directory", file=sys.stderr)
    return True


def _cmd_construct(args) -> int:
    if args.r < 1 or args.k < 2:
        print("error: need --r >= 1 and --k >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.restarts < 0 or args.workers < 1 or args.matching_budget < 1:
        print("error: budgets and worker count must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        params = derive_params(args.r, args.k, args.C)
    except (ValueError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if _no_out_directory(args.out):
        return EXIT_USAGE
    base_seed = args.seed if args.seed is not None else secrets.randbits(64)
    print(
        f"construct: r={params.r} k={params.k} -> s={params.s} m={params.m} "
        f"n={params.n} q={params.q:.6g} seed={base_seed} attempts={args.restarts + 1}"
    )

    seen_best = -1

    def progress(idx: int, score: int) -> None:
        nonlocal seen_best
        seen_best = max(seen_best, score)
        if idx and idx % 500 == 0:
            print(f"  attempt {idx}: best stage count so far {seen_best}/3")

    cert, success, idx = run_construct_search(
        args.r,
        args.k,
        args.C,
        base_seed,
        args.restarts,
        args.matching_budget,
        workers=args.workers,
        progress=progress if not args.quiet else None,
    )
    search_info = {
        "base_seed": base_seed,
        "restart_index": idx,
        "attempts": args.restarts + 1,
        "outcome": "success" if success else "exhausted",
    }
    try:
        write_certificate(cert, args.out, search=search_info)
    except OSError as err:
        print(f"error: cannot write {args.out}: {err.strerror or err}", file=sys.stderr)
        return EXIT_USAGE
    if success:
        print(f"success at attempt {idx}: certificate written to {args.out}")
        return EXIT_OK
    print(
        f"search exhausted {args.restarts + 1} attempts; best attempt {idx} "
        f"passed {cert.stages_passed()}/3 stages; report written to {args.out}"
    )
    _print_failure_summary(cert)
    return EXIT_SEARCH_FAILED


def _print_failure_summary(cert: Certificate) -> None:
    if cert.sparsity is not None and not cert.sparsity.holds:
        v = cert.sparsity.violator
        assert v is not None
        print(
            f"  sparsity violated: {len(v.edge_indices)} edges span {v.spanned} "
            f"< {(cert.params.s - 1) * len(v.edge_indices)} vertices"
        )
    if cert.matchability is not None and not cert.matchability.all_matchable:
        v = cert.matchability.first_failure()
        status = cert.matchability.per_vertex[v].status
        print(f"  matchability failed at vertex {v} ({status})")
    if cert.min_subset_edges is not None and cert.min_subset_edges.count < cert.params.r + 1:
        print(
            f"  min ({cert.params.s + 1})-subset edge count {cert.min_subset_edges.count} "
            f"< r + 1 = {cert.params.r + 1}"
        )


def _cmd_verify(args) -> int:
    try:
        cert = read_certificate(args.path)
    except CertificateFormatError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    ok, reasons = check_certificate(cert)
    if ok:
        conclusion = "robust" if cert.conclusions.robust_to_r else "honest non-certificate"
        print(f"certificate OK ({conclusion}); n={cert.hypergraph.n} k={cert.params.k}")
        return EXIT_OK
    print("certificate INVALID:")
    for reason in reasons:
        print(f"  - {reason}")
    return EXIT_USAGE


def _pick(value, default):
    return default if value is None else value


_SUITES = {
    "obs1": lambda args: connected_bound_suite(
        max_n=_pick(args.max_n, 6), max_edges=_pick(args.max_edges, 5)
    ),
    "blocks": lambda args: small_cut_suite(
        max_n=_pick(args.max_n, 5), max_edges=_pick(args.max_edges, 5)
    ),
    "edgebound": lambda args: two_section_bound_suite(
        count=_pick(args.count, 200), seed=_pick(args.seed, 0), max_n=_pick(args.max_n, 14)
    ),
    "sparsity-oracle": lambda args: sparsity_oracle_suite(
        count=_pick(args.count, 200), seed=_pick(args.seed, 1), max_n=_pick(args.max_n, 14)
    ),
    "matching-oracle": lambda args: matching_oracle_suite(
        count_per_s=_pick(args.count, 200), seed=_pick(args.seed, 2), max_n=_pick(args.max_n, 12)
    ),
}


def _cmd_lemma_check(args) -> int:
    # Every suite reads --max-n; the exhaustive ones also read --max-edges,
    # the randomized ones --count and --seed. A flag a suite ignores is refused.
    for flag in ("count", "seed") if args.suite in ("obs1", "blocks") else ("max_edges",):
        if getattr(args, flag) is not None:
            print(f"error: --suite {args.suite} does not read --{flag.replace('_', '-')}", file=sys.stderr)
            return EXIT_USAGE
    try:
        report = _SUITES[args.suite](args)
    except CapExceeded as err:
        print(f"cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    except RequestRefused as err:  # nothing was checked
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    name = report.suite
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"suite {name}: checked={report.checked} skipped={report.skipped} "
        f"counterexamples={len(report.counterexamples)} -> {verdict}"
    )
    if not report.passed:
        print(json.dumps(report.to_dict(), indent=2))
        return EXIT_SEARCH_FAILED
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        n_list = [int(tok) for tok in args.n.replace(",", " ").split()]
        p_grid = [float(tok) for tok in args.p.replace(",", " ").split()]
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.samples < 1:
        print("error: need --samples >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.out and _no_out_directory(args.out):
        return EXIT_USAGE
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    try:
        points = pm_threshold_sweep(args.s, n_list, p_grid, args.samples, seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SearchBudgetExceeded as err:
        print(f"cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    if args.out:
        try:
            write_sweep_csv(points, args.out)
        except OSError as err:
            print(f"error: cannot write {args.out}: {err.strerror or err}", file=sys.stderr)
            return EXIT_USAGE
        print(f"sweep written to {args.out} (seed={seed})")
    else:
        print("n,p,samples,successes,fraction")
        for pt in points:
            print(f"{pt.n},{pt.p!r},{pt.samples},{pt.successes},{pt.fraction!r}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it binds only the _cmd_* functions,
    which look up every other name at call time."""
    parser = _Parser(prog="critgraph")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="search for a robust critical-graph certificate")
    c.add_argument("--r", type=int, required=True, help="edge-deletion budget (>= 1)")
    c.add_argument("--k", type=int, required=True, help="target chromatic number (>= 2)")
    c.add_argument("--C", type=float, default=None, help="threshold constant override")
    c.add_argument("--seed", type=_seed, default=None, help="base seed (random if omitted)")
    c.add_argument("--restarts", type=int, default=100, help="additional attempts after the first")
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--matching-budget", type=int, default=MATCHING_BUDGET, help="search nodes per matching call")
    c.add_argument("--out", type=Path, default=Path("certificate.json"))
    c.add_argument("--quiet", action="store_true")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="re-check a certificate file")
    v.add_argument("path", type=Path)
    v.set_defaults(func=_cmd_verify)

    l = sub.add_parser("lemma-check", help="run a validation suite")
    l.add_argument("--suite", required=True, choices=sorted(_SUITES))
    l.add_argument("--max-n", type=int, default=None)
    l.add_argument("--max-edges", type=int, default=None)
    l.add_argument("--count", type=int, default=None, help="instances for randomized suites (200)")
    l.add_argument("--seed", type=_seed, default=None)
    l.set_defaults(func=_cmd_lemma_check)

    s = sub.add_parser("sweep", help="empirical perfect-matching threshold sweep")
    s.add_argument("--s", type=int, required=True)
    s.add_argument("--n", required=True, help="comma-separated vertex counts")
    s.add_argument("--p", required=True, help="comma-separated probabilities")
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=_seed, default=None)
    s.add_argument("--out", type=Path, default=None)
    s.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
