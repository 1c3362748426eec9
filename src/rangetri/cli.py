"""Command-line interface.

Subcommands: gen, solve, reduce, count, detect, list, minmax, verify,
bench.  Exit codes: 0 success, 1 verification failure, 2 usage or input
error.  All randomness flows from --seed (default 0, never entropy).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from . import files, gen
from .core import (
    EQP,
    INV,
    CapabilityError,
    InputError,
    Range,
    RangeError,
    RangePair,
    ShapeError,
    oracle_disjoint_query,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_minmax,
    oracle_pairs_query,
)
from .minmax import minmax_product
from .reductions_range import (
    reduce_1r_to_2r,
    reduce_2r_to_1r,
    reduce_eqp_to_inv,
    reduce_inv_to_eqp,
)
from .reductions_triangle import reduce_2rdq_to_etd, reduce_etc_to_2req
from .solvers import problem_is_pair, range_solver
from .triangle import (
    RandomSource,
    ayz_edge_counts,
    baseline_list,
    detect_via_listing,
    list_via_detection,
    main_listing_retry,
)

USAGE_ERROR = 2
VERIFY_FAILURE = 1


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--omega", type=float, default=3.0, help="matmul exponent tuning")
    parser.add_argument("--zeta", type=int, default=128, help="listing capacity constant")
    parser.add_argument("--format", choices=("text", "csv"), default="text")


def _emit(parts: list[list], fmt: str) -> None:
    sep = "," if fmt == "csv" else " "
    for row in parts:
        print(sep.join(str(x) for x in row))


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_gen(args) -> int:
    if args.what == "array":
        arr = gen.gen_array(args.n, args.vmin, args.vmax, seed=args.seed)
        text = f"{arr.n}\n{' '.join(map(str, arr.values))}\n"
    elif args.what == "queries":
        queries = gen.gen_queries(args.n, args.q, kind=args.kind, seed=args.seed)
        lines = []
        for q in queries:
            if isinstance(q, RangePair):
                lines.append(f"{q.first.l} {q.first.r} {q.second.l} {q.second.r}")
            else:
                lines.append(f"{q.l} {q.r}")
        text = "\n".join(lines) + ("\n" if lines else "")
    elif args.what == "graph":
        g = gen.gen_graph(args.kind or "gnp", args.n, p=args.p, seed=args.seed)
        lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.sorted_edges()]
        text = "\n".join(lines) + "\n"
    elif args.what == "matrix":
        m = gen.gen_matrix(
            args.rows, args.cols, args.vmin, args.vmax, seed=args.seed, boolean=args.boolean
        )
        text = files.format_matrix(m) + "\n"
    else:
        raise InputError(f"unknown generator {args.what!r}")
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


def cmd_solve(args) -> int:
    array, queries = _load_instance(args, args.problem)
    solver = range_solver(
        args.problem, args.algo, omega=args.omega, inner=args.inner
    )
    answers = solver(array, queries)
    _emit([[int(ans)] for ans in answers], args.format)
    return 0


_REDUCE_ARROWS = {
    ("2riq", "riq"),
    ("2req", "req"),
    ("riq", "2riq"),
    ("req", "2req"),
    ("2req", "2riq"),
    ("2riq", "2req"),
}


def cmd_reduce(args) -> int:
    src, dst = args.from_problem, args.to_problem
    if (src, dst) not in _REDUCE_ARROWS:
        raise InputError(f"unsupported reduction {src} -> {dst}")
    array, queries = _load_instance(args, src)

    oracle_pair_inv = lambda a, qs: [oracle_pairs_query(INV, a, q) for q in qs]
    oracle_pair_eqp = lambda a, qs: [oracle_pairs_query(EQP, a, q) for q in qs]
    oracle_single = lambda f: (lambda a, qs: [oracle_pairs_query(f, a, q) for q in qs])

    if (src, dst) == ("2riq", "riq"):
        solver = reduce_2r_to_1r(INV, oracle_single(INV))
    elif (src, dst) == ("2req", "req"):
        solver = reduce_2r_to_1r(EQP, oracle_single(EQP))
    elif (src, dst) == ("riq", "2riq"):
        solver = reduce_1r_to_2r(INV, oracle_pair_inv)
    elif (src, dst) == ("req", "2req"):
        solver = reduce_1r_to_2r(EQP, oracle_pair_eqp)
    elif (src, dst) == ("2req", "2riq"):
        solver = reduce_eqp_to_inv(oracle_pair_inv)
    else:
        solver = reduce_inv_to_eqp(oracle_pair_eqp)

    answers = solver(array, queries)
    _emit([[ans] for ans in answers], args.format)
    if args.verify:
        f = INV if src in ("riq", "2riq") else EQP
        expected = [oracle_pairs_query(f, array, q) for q in queries]
        for i, (got, want) in enumerate(zip(answers, expected)):
            if got != want:
                print(f"FAIL at query {i + 1}")
                return VERIFY_FAILURE
        print("PASS")
    return 0


def cmd_count(args) -> int:
    g = files.read_graph(args.graph)
    if args.algo == "oracle":
        counts = oracle_edge_triangle_counts(g)
    elif args.algo == "ayz":
        counts = ayz_edge_counts(g)
    elif args.algo == "via-2req":
        counts = reduce_etc_to_2req(g, range_solver("2req", "mo"))
    else:
        raise InputError(f"unknown counting algo {args.algo!r}")
    _emit([[u, v, counts[(u, v)]] for u, v in g.sorted_edges()], args.format)
    return 0


def cmd_detect(args) -> int:
    g = files.read_graph(args.graph)
    if args.algo == "oracle":
        det = oracle_edge_triangle_detect(g)
    elif args.algo == "ayz":
        det = {e: c > 0 for e, c in ayz_edge_counts(g).items()}
    elif args.algo == "via-listing":
        det = detect_via_listing(g, rng=RandomSource(args.seed))
    else:
        raise InputError(f"unknown detection algo {args.algo!r}")
    _emit([[u, v, int(det[(u, v)])] for u, v in g.sorted_edges()], args.format)
    return 0


def cmd_list(args) -> int:
    g = files.read_graph(args.graph)
    t = args.t if args.t is not None else g.m
    if args.algo == "baseline":
        result = baseline_list(g, t)
    elif args.algo == "via-detection":
        detector = lambda graph: {e: c > 0 for e, c in ayz_edge_counts(graph).items()}
        result = list_via_detection(g, detector)
    elif args.algo == "main":
        result = main_listing_retry(g, t, RandomSource(args.seed), zeta=args.zeta)
    else:
        raise InputError(f"unknown listing algo {args.algo!r}")
    _emit([list(tri) for tri in sorted(result.triangles)], args.format)
    return 0


def cmd_minmax(args) -> int:
    a = files.read_matrix(args.a)
    b = files.read_matrix(args.b)
    if args.solver == "oracle":
        out = oracle_minmax(a, b)
    elif args.solver == "via-2rdq":
        solver = lambda arr, qs: [oracle_disjoint_query(arr, q) for q in qs]
        out = minmax_product(a, b, solver)
    elif args.solver == "via-etd":
        solver = lambda arr, qs: reduce_2rdq_to_etd(arr, qs, oracle_edge_triangle_detect)
        out = minmax_product(a, b, solver)
    else:
        raise InputError(f"unknown minmax solver {args.solver!r}")
    print(files.format_matrix(out))
    return 0


def cmd_verify(args) -> int:
    array, queries = _load_instance(args, args.problem)
    if args.problem == "2rdq":
        expected = [oracle_disjoint_query(array, q) for q in queries]
    else:
        f = INV if args.problem in ("riq", "2riq") else EQP
        expected = [oracle_pairs_query(f, array, q) for q in queries]
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
        solver = range_solver(args.problem, args.algo, omega=args.omega, inner=args.inner)
        got = solver(array, queries)
    for i, (have, want) in enumerate(zip(got, expected)):
        if int(have) != int(want):
            print(f"FAIL at query {i + 1}")
            return VERIFY_FAILURE
    print("PASS")
    return 0


def cmd_bench(args) -> int:
    records = bench_mod.run_matrix(
        problems=args.problems.split(","),
        algos=args.algos.split(","),
        sizes=[int(s) for s in args.sizes.split(",")],
        reps=args.reps,
        seed=args.seed,
        q=args.q,
        omega=args.omega,
    )
    if args.out:
        with open(args.out, "w", newline="") as handle:
            bench_mod.write_csv(records, handle)
    else:
        bench_mod.write_csv(records, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Parser


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
    p.add_argument("--kind", default=None, help="query kind or graph kind")
    p.add_argument("--p", type=float, default=0.2, help="edge probability")
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--vmin", type=int, default=0)
    p.add_argument("--vmax", type=int, default=15)
    p.add_argument("--boolean", action="store_true")
    p.add_argument("--out", default=None)
    _common_flags(p)
    p.set_defaults(func=cmd_gen, kind_default=True)

    p = sub.add_parser("solve", help="answer range queries")
    p.add_argument("--problem", required=True, choices=("riq", "req", "2riq", "2req", "2rdq"))
    p.add_argument(
        "--algo",
        required=True,
        choices=("mo", "mo-online", "online-eq", "via-triangle", "oracle"),
    )
    p.add_argument("--array", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--inner", choices=("oracle", "ayz"), default="oracle")
    _common_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="run one reduction with an oracle target")
    p.add_argument("--from", dest="from_problem", required=True)
    p.add_argument("--to", dest="to_problem", required=True)
    p.add_argument("--array", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--verify", action="store_true")
    _common_flags(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("count", help="per-edge triangle counts")
    p.add_argument("--graph", required=True)
    p.add_argument("--algo", default="oracle", choices=("oracle", "ayz", "via-2req"))
    _common_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("detect", help="per-edge triangle detection")
    p.add_argument("--graph", required=True)
    p.add_argument("--algo", default="oracle", choices=("oracle", "ayz", "via-listing"))
    _common_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("list", help="list triangles")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--algo", default="baseline", choices=("baseline", "via-detection", "main"))
    _common_flags(p)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("minmax", help="(min,max)-product of two matrices")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--solver", default="oracle", choices=("oracle", "via-2rdq", "via-etd"))
    _common_flags(p)
    p.set_defaults(func=cmd_minmax)

    p = sub.add_parser("verify", help="compare a solver or answer file against the oracle")
    p.add_argument("--problem", required=True, choices=("riq", "req", "2riq", "2req", "2rdq"))
    p.add_argument(
        "--algo", default="oracle", choices=("mo", "mo-online", "online-eq", "via-triangle", "oracle")
    )
    p.add_argument("--array", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--answers", default=None, help="answer file to check instead of running the algo")
    p.add_argument("--inner", choices=("oracle", "ayz"), default="oracle")
    _common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="benchmark matrix, CSV output")
    p.add_argument("--problems", default="req")
    p.add_argument("--algos", default="mo")
    p.add_argument("--sizes", default="256")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--q", type=int, default=None, help="fixed query count (default: q = n)")
    p.add_argument("--out", default=None)
    _common_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    # gen uses --kind for both query kind and graph kind
    if getattr(args, "func", None) is cmd_gen and args.kind is None:
        args.kind = "single" if args.what == "queries" else "gnp"
    try:
        return args.func(args)
    except (InputError, RangeError, ShapeError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
