"""The benchmark's workloads: seeded inputs, timed cells and reference answers.

Every input comes from ``rangetri.gen`` with a sub-seed derived from the
workload seed.  A cell makes the timed calls of one problem and returns
its answers; its reference answers come from ``rangetri.core``'s oracles,
or, where an oracle is too slow at the workload size, from the
all-ranges table below, itself checked against the oracle on a sample.
Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from rangetri import gen, minmax, rangequery, reductions_triangle, solvers, triangle
from rangetri.core import (
    EQP,
    INV,
    DenseMatrix,
    Graph,
    oracle_disjoint_query,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_minmax,
    oracle_pairs_query,
    oracle_triangle_list,
)
from rangetri.instrument import OpCounters

def answer_count(out: Any) -> int:
    """Exact answers in a cell's output: one per range query, per-edge
    count or flag, listed triangle, or matrix cell."""
    if isinstance(out, triangle.ListingResult):
        return len(out.triangles)
    if isinstance(out, DenseMatrix):
        return out.rows * out.cols
    return len(out)


class Pass:
    """Timings of one pass over a workload's cells.

    ``wall`` sums the timed calls, ``index_build`` the part of them spent
    building the structures answers are read from, and ``latencies``
    holds (seconds, answers) per call whose answers count toward the
    query latency metrics.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.counters = OpCounters() if tracer is not None else None
        self.wall = 0.0
        self.index_build = 0.0
        self.latencies: list[tuple[float, int]] = []

    def call(self, fn: Callable, *args, latency: bool = True, index: bool = False):
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        self.wall += elapsed
        if index:
            self.index_build += elapsed
        if latency:
            self.latencies.append((elapsed, answer_count(out)))
        return out

    def stream(self, name: str, make: Callable, queries: list) -> list[int]:
        """Build an online index and answer ``queries`` one at a time.

        The constructor and every query during which ``q_guess`` changed
        (a doubling rebuild) count as index build time."""
        tracer = self.tracer
        if tracer is not None:
            make = tracer.wrap(f"rangequery.{name}.__init__", make)
        start = time.perf_counter()
        index = make(self.counters)
        elapsed = time.perf_counter() - start
        self.wall += elapsed
        self.index_build += elapsed
        query = index.query if tracer is None else tracer.wrap(f"rangequery.{name}.query", index.query)
        answers = []
        spent = rebuild_s = 0.0
        rebuilds = 0
        latencies = self.latencies
        for q in queries:
            guess = index.q_guess
            start = time.perf_counter()
            answers.append(query(q))
            elapsed = time.perf_counter() - start
            latencies.append((elapsed, 1))
            spent += elapsed
            if index.q_guess != guess:
                rebuild_s += elapsed
                rebuilds += 1
        self.wall += spent
        self.index_build += rebuild_s
        if tracer is not None:
            tracer.count(f"rangequery.{name}.rebuilds", rebuilds)
            tracer.count(f"rangequery.{name}.rebuild_s", rebuild_s)
            tracer.count(f"rangequery.{name}.query_s", spent)
            if name == "MoOnline":
                tracer.count("rangequery.extender_bound", index.n * math.sqrt(len(queries)))
        return answers


@dataclass
class Cell:
    """One problem of a workload.

    ``run`` makes the timed calls and returns the answers; ``reference``
    returns the expected answers and ``compare(out, expected)`` the
    numbers of answers attempted and failed.  ``expected_answers`` is the
    attempted count charged when ``run`` raises."""

    name: str
    run: Callable[[Pass], Any]
    reference: Callable[[], Any]
    compare: Callable[[Any, Any], tuple[int, int]]
    expected_answers: Callable[[Any], int] = len


# ---------------------------------------------------------------------------
# Answer checks


def compare_lists(out: list, expected: list) -> tuple[int, int]:
    wrong = sum(1 for x, y in zip(out, expected) if x != y)
    return len(expected), wrong + abs(len(out) - len(expected))


def compare_dicts(out: dict, expected: dict) -> tuple[int, int]:
    wrong = sum(1 for e, v in expected.items() if out.get(e) != v)
    extra = sum(1 for e in out if e not in expected)
    return len(expected), wrong + extra


def listing_check(result, true_triangles: set, t: int) -> tuple[int, int]:
    """A listing fails on every non-triangle it returns, and on every
    triangle it is short of: all of them when it reports ``complete``,
    min(t, total) otherwise."""
    listed = result.triangles
    bad = len(listed - true_triangles)
    valid = len(listed) - bad
    if result.status == triangle.COMPLETE:
        required = len(true_triangles)
    else:
        required = min(t, len(true_triangles))
    missing = max(0, required - valid)
    return len(listed) + missing, bad + missing


def listing_cell(name: str, run: Callable, g: Graph, t: int) -> Cell:
    return Cell(
        name,
        run,
        lambda: oracle_triangle_list(g),
        lambda out, tris: listing_check(out, tris, t),
        lambda tris: min(t, len(tris)),
    )


# ---------------------------------------------------------------------------
# Reference answers for single-range queries at workload size


def all_ranges_table(values, kind: str) -> np.ndarray:
    """table[l-1, r-1] = number of pairs l <= i < j <= r with
    values[i] > values[j] (inv) or values[i] == values[j] (eqp)."""
    v = np.asarray(values, dtype=np.int64)
    pairs = v[:, None] > v[None, :] if kind == "inv" else v[:, None] == v[None, :]
    pairs = np.triu(pairs, k=1).astype(np.int64)
    ending_at = np.cumsum(pairs[::-1], axis=0)[::-1]  # [i, j]: pairs (i' >= i, j)
    return np.cumsum(ending_at, axis=1)


def table_reference(a, queries, f, sample: int = 8) -> list[int]:
    """Answers read off the all-ranges table, after checking the first
    ``sample`` of them against the oracle."""
    table = all_ranges_table(a.values, f.kind)
    answers = [int(table[q.l - 1, q.r - 1]) for q in queries]
    for q, ans in list(zip(queries, answers))[:sample]:
        if oracle_pairs_query(f, a, q) != ans:
            raise RuntimeError(f"all-ranges table disagrees with the oracle at {q}")
    return answers


def oracle_answers(f, a, queries) -> list[int]:
    return [oracle_pairs_query(f, a, q) for q in queries]


# ---------------------------------------------------------------------------
# Workloads


def _range_direct(seed: int, tiny: bool) -> list[Cell]:
    n = 32 if tiny else 1024
    near_distinct = gen.gen_array(n, 0, n - 1, seed=seed * 100 + 1)
    queries = gen.gen_queries(n, n, "single", seed=seed * 100 + 2)
    few_values = gen.gen_array(n, 0, 15, seed=seed * 100 + 3)
    many_queries = gen.gen_queries(n, 4 * n, "single", seed=seed * 100 + 4)

    def mo_online(f):
        make = lambda counters: rangequery.MoOnline(f, near_distinct, counters=counters)
        return lambda p: p.stream("MoOnline", make, queries)

    def online_eq(a, qs):
        make = lambda counters: rangequery.OnlineEqSolver(a, counters=counters)
        return lambda p: p.stream("OnlineEqSolver", make, qs)

    def batch(problem, a, qs):
        def run(p):
            solver = solvers.range_solver(problem, "mo", counters=p.counters)
            return p.call(solver, a, qs, latency=False)

        return run

    def ref(a, qs, f):
        return lambda: table_reference(a, qs, f)

    cells = [
        Cell(f"MoOnline eqp n={n} q={n}", mo_online(EQP),
             ref(near_distinct, queries, EQP), compare_lists),
        Cell(f"MoOnline inv n={n} q={n}", mo_online(INV),
             ref(near_distinct, queries, INV), compare_lists),
        Cell(f"OnlineEqSolver 16 values n={n} q={4 * n}", online_eq(few_values, many_queries),
             ref(few_values, many_queries, EQP), compare_lists),
        Cell(f"OnlineEqSolver near-distinct n={n} q={n}", online_eq(near_distinct, queries),
             ref(near_distinct, queries, EQP), compare_lists),
        Cell(f"batch req mo n={n} q={n}", batch("req", near_distinct, queries),
             ref(near_distinct, queries, EQP), compare_lists),
        Cell(f"batch riq mo n={n} q={n}", batch("riq", near_distinct, queries),
             ref(near_distinct, queries, INV), compare_lists),
    ]
    return cells


def _range_via_triangle(seed: int, tiny: bool) -> list[Cell]:
    # Several small instances per problem: the cost of one instance moves
    # with the bit length of its largest value multiplicity, which sets
    # the number of pieces, so one instance per seed would spread widely.
    copies = 2 if tiny else 8
    sizes = {"2req": 128, "2rdq": 192, "req": 128, "riq": 32, "minmax": 16}
    if tiny:
        sizes = {"2req": 16, "2rdq": 16, "req": 16, "riq": 8, "minmax": 4}

    def instances(problem, kind, count, base):
        n = sizes[problem]
        return [
            (gen.gen_array(n, 0, n - 1, seed=seed * 1000 + base + 2 * k),
             gen.gen_queries(n, n, kind, seed=seed * 1000 + base + 2 * k + 1))
            for k in range(count)
        ]

    def via_triangle(problem, inputs):
        def run(p):
            solver = solvers.range_solver(problem, "via-triangle", inner="ayz")
            return [ans for a, qs in inputs for ans in p.call(solver, a, qs)]

        return run

    def reference(f, inputs):
        if f is None:
            return lambda: [oracle_disjoint_query(a, q) for a, qs in inputs for q in qs]
        return lambda: [ans for a, qs in inputs for ans in oracle_answers(f, a, qs)]

    dim = sizes["minmax"]
    matrices = [
        (gen.gen_matrix(dim, dim, 0, 1000, seed=seed * 1000 + 800 + 2 * k),
         gen.gen_matrix(dim, dim, 0, 1000, seed=seed * 1000 + 801 + 2 * k))
        for k in range(copies // 2)
    ]

    def run_minmax(p):
        solver = solvers.range_solver("2rdq", "via-triangle", inner="ayz")
        return [x for a, b in matrices for x in p.call(minmax.minmax_product, a, b, solver).entries]

    def minmax_reference():
        return [x for a, b in matrices for x in oracle_minmax(a, b).entries]

    cells = []
    for base, (problem, f, kind, count) in enumerate((
        ("2req", EQP, "pair", copies),
        ("2rdq", None, "pair", copies // 2),
        ("req", EQP, "single", copies),
        ("riq", INV, "single", copies),
    )):
        inputs = instances(problem, kind, count, 100 * base)
        n = sizes[problem]
        cells.append(Cell(f"{problem} via-triangle {count} x n={n} q={n}",
                          via_triangle(problem, inputs), reference(f, inputs), compare_lists))
    cells.append(Cell(f"minmax_product {len(matrices)} x {dim}x{dim} via 2rdq via-triangle",
                      run_minmax, minmax_reference, compare_lists))
    return cells


def _graph_triangle(seed: int, tiny: bool) -> list[Cell]:
    if tiny:
        big = [("gnp", 24, 0.3), ("powerlaw", 40, 0.1)]
        lvd = [("gnp", 14, 0.4), ("powerlaw", 16, 0.2)]
        dvl = ("gnp", 8, 0.5)
    else:
        big = [("gnp", 300, 0.08), ("powerlaw", 1000, 0.01)]
        lvd = [("gnp", 150, 0.1), ("powerlaw", 300, 0.007)]
        dvl = ("powerlaw", 30, 0.15)

    def edges_of(spec, k):
        kind, n, p = spec
        g = gen.gen_graph(kind, n, p, seed=seed * 100 + k)
        return f"{kind}({n}, {p})", g.n, g.sorted_edges()

    def graph(p, n, edges):
        return p.call(Graph, n, edges, latency=False, index=True)

    rng = triangle.RandomSource(seed)
    cells: list[Cell] = []
    for k, spec in enumerate(big):
        label, n, edges = edges_of(spec, k + 1)
        g = Graph(n, edges)
        t = g.m

        def ayz(p, n=n, edges=edges):
            return p.call(triangle.ayz_edge_counts, graph(p, n, edges))

        def baseline(p, n=n, edges=edges):
            h = graph(p, n, edges)
            return p.call(triangle.baseline_list, h, h.m * h.m)

        def main_retry(p, n=n, edges=edges, k=k):
            h = graph(p, n, edges)
            return p.call(triangle.main_listing_retry, h, h.m, rng.split("main", k))

        def etc_2req(p, n=n, edges=edges):
            h = graph(p, n, edges)
            solver = solvers.range_solver("2req", "mo", counters=p.counters)
            return p.call(reductions_triangle.reduce_etc_to_2req, h, solver)

        counts = lambda g=g: oracle_edge_triangle_counts(g)
        cells += [
            Cell(f"ayz_edge_counts {label}", ayz, counts, compare_dicts),
            listing_cell(f"baseline_list uncapped {label}", baseline, g, t * t),
            listing_cell(f"main_listing_retry t=m {label}", main_retry, g, t),
            Cell(f"reduce_etc_to_2req mo {label}", etc_2req, counts, compare_dicts),
        ]

    def ayz_detector(h):
        return {e: c > 0 for e, c in triangle.ayz_edge_counts(h).items()}

    for k, spec in enumerate(lvd):
        label, n, edges = edges_of(spec, k + 11)
        g = Graph(n, edges)

        def via_detection(p, n=n, edges=edges):
            return p.call(triangle.list_via_detection, graph(p, n, edges), ayz_detector)

        cells.append(listing_cell(f"list_via_detection ayz {label}", via_detection, g, g.m))

    label, n, edges = edges_of(dvl, 21)
    g_dvl = Graph(n, edges)

    def via_listing(p):
        h = graph(p, n, edges)
        return p.call(triangle.detect_via_listing, h, None, rng.split("detect"))

    cells.append(Cell(f"detect_via_listing padded {label}", via_listing,
                      lambda: oracle_edge_triangle_detect(g_dvl), compare_dicts))
    return cells


def make(name: str, seed: int, tiny: bool = False) -> list[Cell]:
    """The cells of workload ``name``, with inputs generated from ``seed``."""
    builders = {
        "range_direct": _range_direct,
        "range_via_triangle": _range_via_triangle,
        "graph_triangle": _graph_triangle,
    }
    return builders[name](seed, tiny)


def clear_caches() -> None:
    """Empty the library's memo caches, so that every pass pays what a
    single solve pays."""
    cached = getattr(reductions_triangle, "base_decompose", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()
