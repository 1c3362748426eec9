"""Spans and counts recorded around calls into rangetri's modules.

The benchmark traces the library from outside: it rebinds module
attributes of ``rangetri`` (for example ``rangequery.online_eq_build`` or
``triangle.matmul``) to wrappers that time each call as a span, and it
passes counting callables where an API takes a solver, lister or
detector.  A span's self time is its duration minus the time of the
spans nested directly inside it; a layer's self time is the sum of the
self times of its spans.  A span is named ``<module>.<function>`` and its
layer is the module.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class Tracer:
    """In-memory spans and counters for one pass over a workload."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)  # span -> inclusive s
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)  # layer -> s
        self.counts: dict[str, float] = defaultdict(int)
        self.hook_s = 0.0  # bookkeeping time that belongs to no span
        self._open: list[str] = []
        self._child: list[float] = []

    def is_open(self, name: str) -> bool:
        return name in self._open

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``after(args, result)`` runs
        untimed once the span has closed."""
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            self._open.append(name)
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                children = self._child.pop()
                self.total[name] += elapsed
                self.calls[name] += 1
                self.self_time[layer] += elapsed - children
                if self._child:
                    self._child[-1] += elapsed
            if after is not None:
                start = time.perf_counter()
                after(args, result)
                spent = time.perf_counter() - start
                self.hook_s += spent
                if self._child:
                    self._child[-1] += spent
            return result

        return traced


@contextmanager
def rebound(replacements: dict) -> Iterator[None]:
    """Rebind every ``rangetri`` module attribute that is a key of
    ``replacements`` to its value, wherever it was imported by name, and
    restore the originals on exit."""
    by_id = {id(original): new for original, new in replacements.items()}
    saved = []
    try:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rangetri" and not mod_name.startswith("rangetri."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, by_id[id(value)])
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


# Functions whose time is the index build of range_via_triangle and
# graph_triangle; they are timed in untraced passes too.
INDEX_SPANS = (
    "reductions_triangle.build_query_multigraph",
    "reductions_triangle.neighbor_list_array",
)


def ayz_theta(m: int) -> int:
    """The degree threshold ayz_edge_counts uses by default: ceil(sqrt m)."""
    root = math.isqrt(m)
    return max(1, root + (0 if root * root == m else 1))


def index_wrappers(t: Tracer) -> dict:
    """Wrappers for the index-building functions only."""
    from rangetri import reductions_triangle as rt

    return {
        rt.build_query_multigraph: t.wrap(INDEX_SPANS[0], rt.build_query_multigraph),
        rt.neighbor_list_array: t.wrap(INDEX_SPANS[1], rt.neighbor_list_array),
    }


def library_wrappers(t: Tracer) -> dict:
    """Traced wrappers for every public function the workloads reach.

    Wrappers call the originals captured here, never the module
    attributes, which are rebound while the wrappers are in use."""
    from rangetri import minmax, rangequery, reductions_range as rr
    from rangetri import reductions_triangle as rt, triangle

    reduce_2r_to_1r_orig = rr.reduce_2r_to_1r
    reduce_1r_to_2r_orig = rr.reduce_1r_to_2r
    reduce_inv_to_eqp_orig = rr.reduce_inv_to_eqp
    list_via_detection_orig = triangle.list_via_detection
    minmax_product_orig = minmax.minmax_product

    def matmul_after(args, product):
        a, b = args[0], args[1]
        t.count("rangequery.matmul.mults", a.rows * a.cols * b.cols)

    def online_eq_after(args, s):
        t.count("rangequery.online_eq_build.blocks", s.b_cnt)
        t.count(
            "rangequery.online_eq_build.frequent_values",
            sum(1 for lst in s.index_lists.values() if len(lst) >= s.tau),
        )

    def mo_offline_after(args, answers):
        a, queries = args[1], args[2]
        t.count("rangequery.extender_bound", a.n * math.sqrt(len(queries)))

    def reduce_2r_to_1r(f, single_solver):
        def counted(a, queries):
            t.count("reductions_range.subqueries", len(queries))
            return single_solver(a, queries)

        return t.wrap("reductions_range.reduce_2r_to_1r", reduce_2r_to_1r_orig(f, counted))

    def reduce_1r_to_2r(f, pair_solver, decomposition=None):
        return t.wrap(
            "reductions_range.reduce_1r_to_2r",
            reduce_1r_to_2r_orig(f, pair_solver, decomposition),
        )

    def reduce_inv_to_eqp(eqp_solver):
        def term(a, pairs):
            t.count("reductions_range.bit_terms")
            return eqp_solver(a, pairs)

        split = reduce_inv_to_eqp_orig(term)

        def solver(a, pairs):
            t.count("reductions_range.bit_terms_bound", rr.bit_count(a.n))
            return split(a, pairs)

        return t.wrap("reductions_range.reduce_inv_to_eqp", solver)

    def multigraph_after(args, build):
        mg = build.mg
        t.count("reductions_triangle.mg_vertices", len(mg.part_u) + len(mg.part_v) + len(mg.part_w))

    def piece_counting(original):
        def wrapper(mg, solver):
            def piece(g):
                t.count("reductions_triangle.pieces")
                t.count("reductions_triangle.piece_edges", g.m)
                return solver(g)

            return original(mg, piece)

        return wrapper

    def ayz_after(args, counts):
        g = args[0]
        theta = ayz_theta(g.m)
        degrees = [g.degree(v) for v in range(1, g.n + 1)]
        t.count("triangle.ayz.heavy_vertices", sum(1 for d in degrees if d > theta))
        t.count("triangle.ayz.heavy_bound", 2 * g.m // theta)
        t.count("triangle.ayz.light_wedges", sum(d * (d - 1) // 2 for d in degrees if d <= theta))
        t.count("triangle.ayz.light_wedges_bound", g.m * theta)

    def baseline_after(args, result):
        g = args[0]
        found = len(result.triangles)
        t.count("triangle.baseline_list.input_edges", g.m)
        t.count("triangle.baseline_list.triangles", found)
        if t.is_open("triangle.detect_via_listing"):
            t.count("triangle.detect_via_listing.lister_calls")
            t.count("triangle.detect_via_listing.useful_calls", 1 if found else 0)
        if t.is_open("triangle.main_listing_retry"):
            t.count("triangle.listing.enumerated", found)

    def list_via_detection(g, detector):
        def counted(h):
            t.count("triangle.list_via_detection.detector_calls")
            t.count("triangle.list_via_detection.detector_edges", h.m)
            return detector(h)

        return list_via_detection_orig(g, counted)

    def main_listing_after(args, result):
        t.count("triangle.listing.kept", len(result.triangles))

    def minmax_product(a, b, disjoint_solver, stats=None):
        stats = minmax.MinMaxStats() if stats is None else stats
        out = minmax_product_orig(a, b, disjoint_solver, stats)
        t.count("minmax.batches", stats.batches)
        t.count("minmax.batches_bound", math.ceil(math.log2(2 * a.rows * a.rows)))
        t.count("minmax.solver_queries", stats.solver_queries)
        return out

    wrappers = {
        rangequery.matmul: t.wrap("rangequery.matmul", rangequery.matmul, matmul_after),
        rangequery.online_eq_build: t.wrap(
            "rangequery.online_eq_build", rangequery.online_eq_build, online_eq_after
        ),
        rangequery.mo_offline: t.wrap("rangequery.mo_offline", rangequery.mo_offline, mo_offline_after),
        rr.reduce_2r_to_1r: reduce_2r_to_1r,
        rr.reduce_1r_to_2r: reduce_1r_to_2r,
        rr.reduce_inv_to_eqp: reduce_inv_to_eqp,
        rt.reduce_2req_to_etc: t.wrap("reductions_triangle.reduce_2req_to_etc", rt.reduce_2req_to_etc),
        rt.reduce_2rdq_to_etd: t.wrap("reductions_triangle.reduce_2rdq_to_etd", rt.reduce_2rdq_to_etd),
        rt.reduce_etc_to_2req: t.wrap("reductions_triangle.reduce_etc_to_2req", rt.reduce_etc_to_2req),
        rt.build_query_multigraph: t.wrap(
            INDEX_SPANS[0], rt.build_query_multigraph, multigraph_after
        ),
        rt.neighbor_list_array: t.wrap(INDEX_SPANS[1], rt.neighbor_list_array),
        rt.multigraph_edge_counts: t.wrap(
            "reductions_triangle.multigraph_edge_counts", piece_counting(rt.multigraph_edge_counts)
        ),
        rt.multigraph_edge_detect: t.wrap(
            "reductions_triangle.multigraph_edge_detect", piece_counting(rt.multigraph_edge_detect)
        ),
        triangle.ayz_edge_counts: t.wrap("triangle.ayz_edge_counts", triangle.ayz_edge_counts, ayz_after),
        triangle.baseline_list: t.wrap("triangle.baseline_list", triangle.baseline_list, baseline_after),
        triangle.detect_via_listing: t.wrap("triangle.detect_via_listing", triangle.detect_via_listing),
        triangle.list_via_detection: t.wrap("triangle.list_via_detection", list_via_detection),
        triangle.inner_listing: t.wrap(
            "triangle.inner_listing", triangle.inner_listing,
            lambda args, result: t.count("triangle.inner_calls"),
        ),
        triangle.main_listing_retry: t.wrap(
            "triangle.main_listing_retry", triangle.main_listing_retry, main_listing_after
        ),
        minmax.minmax_product: t.wrap("minmax.minmax_product", minmax_product),
    }
    return wrappers
