"""Command-line interface.

Subcommands: gen, solve, reduce, count, detect, list, minmax, verify,
bench.  Exit codes: 0 success, 1 verification failure or a ``failed``
listing, 2 usage or input error.  ``list`` prints a listing's status on
stderr when it is not ``complete``: ``truncated-at-t`` exits 0, and
``failed`` (fewer than t triangles, and fewer than the graph holds)
prints how many of them were found and exits 1.  All randomness flows
from --seed (default 0, never entropy), which gen, detect, list and
bench take; a subcommand rejects flags it does not read.  ``solve``,
``verify`` and ``reduce`` look their solvers up by name in ``solvers``,
as ``count`` and ``detect`` do for their other algorithms.
``count --algo via-2req``, ``detect --algo via-listing``,
``list`` and ``minmax`` call ``reductions_triangle``, ``triangle`` and
``minmax`` directly; ``count`` and ``minmax`` take the range solver they
hand on from ``range_solver``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from . import files, gen
from .core import (
    CapabilityError,
    InputError,
    RangeError,
    RangePair,
    ShapeError,
    oracle_minmax,
)
from .minmax import minmax_product
from .reductions_triangle import reduce_etc_to_2req
from .solvers import (
    ALGOS,
    EDGE_COUNTERS,
    EDGE_DETECTORS,
    PROBLEMS,
    REDUCTIONS,
    problem_is_pair,
    range_solver,
)
from .triangle import (
    COMPLETE,
    FAILED,
    TRUNCATED,
    RandomSource,
    ayz_counts,
    ayz_edge_counts,
    baseline_list,
    detect_via_listing,
    list_via_detection,
    main_listing_retry,
)

USAGE_ERROR = 2
VERIFY_FAILURE = 1


def _emit(parts: list[list], fmt: str) -> None:
    sep = "," if fmt == "csv" else " "
    for row in parts:
        print(sep.join(str(x) for x in row))


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_gen(args) -> int:
    if args.what == "array":
        text = files.format_array(gen.gen_array(args.n, args.vmin, args.vmax, seed=args.seed))
    elif args.what == "queries":
        kind = args.kind or "single"
        text = files.format_queries(gen.gen_queries(args.n, args.q, kind=kind, seed=args.seed))
    elif args.what == "graph":
        g = gen.gen_graph(args.kind or "gnp", args.n, p=args.p, seed=args.seed)
        text = files.format_graph(g)
    else:
        m = gen.gen_matrix(args.rows, args.cols, args.vmin, args.vmax, seed=args.seed)
        text = files.format_matrix(m)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_instance(args, problem: str):
    array = files.read_array(args.array)
    queries = files.read_queries(args.queries)
    want_pair = problem_is_pair(problem)
    for i, q in enumerate(queries):
        if isinstance(q, RangePair) != want_pair:
            kind = "range pairs" if want_pair else "single ranges"
            raise InputError(f"query {i + 1}: problem {problem} needs {kind}")
    return array, queries


def _check(got, expected) -> int:
    for i, (have, want) in enumerate(zip(got, expected)):
        if int(have) != int(want):
            print(f"FAIL at query {i + 1}")
            return VERIFY_FAILURE
    print("PASS")
    return 0


def cmd_solve(args) -> int:
    array, queries = _load_instance(args, args.problem)
    answers = range_solver(args.problem, args.algo, inner=args.inner)(array, queries)
    _emit([[int(ans)] for ans in answers], args.format)
    return 0


def cmd_reduce(args) -> int:
    src, dst = args.from_problem, args.to_problem
    wrap = {(target, source): w for target, source, w in REDUCTIONS}.get((src, dst))
    if wrap is None:
        raise InputError(f"unsupported reduction {src} -> {dst}")
    array, queries = _load_instance(args, src)
    answers = wrap(range_solver(dst, "oracle"))(array, queries)
    _emit([[int(ans)] for ans in answers], args.format)
    if args.verify:
        return _check(answers, range_solver(src, "oracle")(array, queries))
    return 0


def _emit_edges(g, answers, fmt: str) -> None:
    """One "u v answer" row per edge, from answers in sorted edge order."""
    _emit([[u, v, int(x)] for (u, v), x in zip(g.sorted_edges(), answers)], fmt)


def cmd_count(args) -> int:
    g = files.read_graph(args.graph)
    if args.algo == "via-2req":
        counts = reduce_etc_to_2req(g, range_solver("2req", "mo"))
        _emit_edges(g, map(counts.get, g.sorted_edges()), args.format)
    else:
        _emit_edges(g, EDGE_COUNTERS[args.algo](g), args.format)
    return 0


def cmd_detect(args) -> int:
    g = files.read_graph(args.graph)
    if args.algo == "via-listing":
        det = detect_via_listing(g, rng=RandomSource(args.seed))
        _emit_edges(g, map(det.get, g.sorted_edges()), args.format)
    else:
        _emit_edges(g, EDGE_DETECTORS[args.algo](g), args.format)
    return 0


def cmd_list(args) -> int:
    if args.t is not None and args.t < 1:
        raise InputError(f"--t must be >= 1, got {args.t}")
    g = files.read_graph(args.graph)
    # an empty graph lists nothing under the smallest valid capacity
    t = args.t if args.t is not None else max(1, g.m)
    if args.algo == "baseline":
        result = baseline_list(g, t)
    elif args.algo == "via-detection":
        detector = lambda h: {e: c > 0 for e, c in ayz_edge_counts(h).items()}
        result = list_via_detection(g, detector)
    else:
        result = main_listing_retry(g, t, RandomSource(args.seed), zeta=args.zeta)
    # via-detection takes no capacity, and main may hold more than t rows
    rows = result.rows[:t]
    status = TRUNCATED if len(result.rows) > t else result.status
    _emit(rows.tolist(), args.format)
    if status == FAILED:
        total = int(ayz_counts(g).sum()) // 3
        print(f"failed: listed {len(rows)} of {total} triangles", file=sys.stderr)
        return VERIFY_FAILURE
    if status != COMPLETE:
        print(f"{status}: listed {len(rows)} triangles", file=sys.stderr)
    return 0


# minmax solver -> the 2rdq algorithm its binary search probes with
_MINMAX_VIA = {"via-2rdq": "oracle", "via-etd": "via-triangle"}


def cmd_minmax(args) -> int:
    a = files.read_matrix(args.a)
    b = files.read_matrix(args.b)
    if args.solver == "oracle":
        out = oracle_minmax(a, b)
    else:
        out = minmax_product(a, b, range_solver("2rdq", _MINMAX_VIA[args.solver]))
    sys.stdout.write(files.format_matrix(out))
    return 0


def cmd_verify(args) -> int:
    array, queries = _load_instance(args, args.problem)
    expected = range_solver(args.problem, "oracle")(array, queries)
    if args.answers:
        text = Path(args.answers).read_text()
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if len(lines) != len(queries):
            raise InputError(
                f"{args.answers}: expected {len(queries)} answers, got {len(lines)}"
            )
        got = []
        for lineno, ln in lines:
            try:
                got.append(int(ln))
            except ValueError as exc:
                raise InputError(
                    f"{args.answers}:{lineno}: expected an integer, got {ln.strip()!r}"
                ) from exc
    else:
        got = range_solver(args.problem, args.algo, inner=args.inner)(array, queries)
    return _check(got, expected)


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise InputError(f"--sizes: expected integers, got {args.sizes!r}") from exc
    if any(n < 1 for n in sizes):
        raise InputError(f"--sizes: every size must be >= 1, got {args.sizes!r}")
    if args.reps < 1:
        raise InputError(f"--reps must be >= 1, got {args.reps}")
    if args.q is not None and args.q < 0:
        raise InputError(f"--q must be >= 0, got {args.q}")
    records = bench_mod.run_matrix(
        problems=args.problems.split(","),
        algos=args.algos.split(","),
        sizes=sizes,
        reps=args.reps,
        seed=args.seed,
        q=args.q,
    )
    if args.out:
        with open(args.out, "w", newline="") as handle:
            bench_mod.write_csv(records, handle)
    else:
        bench_mod.write_csv(records, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


def _format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "csv"), default="text")


def _instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", required=True, choices=PROBLEMS)
    parser.add_argument("--array", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--inner", choices=tuple(EDGE_COUNTERS), default="ayz")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangetri",
        description="Range-pair query and edge-triangle problem laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instance files")
    p.add_argument("what", choices=("array", "queries", "graph", "matrix"))
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--q", type=int, default=16)
    p.add_argument("--kind", default=None, help="query kind (single) or graph kind (gnp)")
    p.add_argument("--p", type=float, default=0.2, help="edge probability")
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--vmin", type=int, default=0)
    p.add_argument("--vmax", type=int, default=15)
    p.add_argument("--out", default=None)
    _seed(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="answer range queries")
    _instance_flags(p)
    p.add_argument("--algo", required=True, choices=ALGOS)
    _format(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="run one reduction with an oracle target")
    p.add_argument("--from", dest="from_problem", required=True)
    p.add_argument("--to", dest="to_problem", required=True)
    p.add_argument("--array", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--verify", action="store_true")
    _format(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("count", help="per-edge triangle counts")
    p.add_argument("--graph", required=True)
    p.add_argument("--algo", default="oracle", choices=(*EDGE_COUNTERS, "via-2req"))
    _format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("detect", help="per-edge triangle detection")
    p.add_argument("--graph", required=True)
    p.add_argument("--algo", default="oracle", choices=(*EDGE_DETECTORS, "via-listing"))
    _seed(p)
    _format(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("list", help="list triangles")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--algo", default="baseline", choices=("baseline", "via-detection", "main"))
    p.add_argument("--zeta", type=int, default=128, help="listing capacity constant")
    _seed(p)
    _format(p)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("minmax", help="(min,max)-product of two matrices")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--solver", default="oracle", choices=("oracle", *_MINMAX_VIA))
    p.set_defaults(func=cmd_minmax)

    p = sub.add_parser("verify", help="compare a solver or answer file against the oracle")
    _instance_flags(p)
    p.add_argument("--algo", default="oracle", choices=ALGOS)
    p.add_argument("--answers", default=None, help="answer file to check instead of running the algo")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="benchmark matrix, CSV output")
    p.add_argument("--problems", default="req")
    p.add_argument("--algos", default="mo")
    p.add_argument("--sizes", default="256")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--q", type=int, default=None, help="fixed query count (default: q = n)")
    p.add_argument("--out", default=None)
    _seed(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        return args.func(args)
    except (InputError, RangeError, ShapeError, CapabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
