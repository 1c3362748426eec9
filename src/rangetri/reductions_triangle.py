"""Reductions between two-range queries and edge triangle problems.

One direction turns a graph into an array of concatenated neighbor
lists, so that the triangle count through an edge becomes a two-range
equal-pairs query.  The other direction decomposes query ranges into
segment-tree base intervals, builds a tripartite multigraph linking
values to intervals, and splits multiplicities in binary so that each
piece is a simple graph handed to an edge-triangle solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Edge,
    Graph,
    IntArray,
    Range,
    RangePair,
    TripartiteMultigraph,
    compact,
    normalize,
)
from .reductions_range import PairSolver

DisjointSolver = Callable[[IntArray, Sequence[RangePair]], list[bool]]
CountingSolver = Callable[[Graph], dict[Edge, int]]
DetectionSolver = Callable[[Graph], dict[Edge, bool]]


# ---------------------------------------------------------------------------
# Graph -> array


def neighbor_list_array(g: Graph) -> tuple[IntArray, dict[int, Range]]:
    """Concatenate sorted neighbor lists of vertices 1..n.

    The result has length 2m; segment(v) holds the neighbors of v, and
    the triangle count through edge (u, v) is the number of equal pairs
    between segment(u) and segment(v).
    """
    ptr = g.indptr.tolist()
    segments = {v: Range(ptr[v] + 1, ptr[v + 1]) for v in range(1, g.n + 1)}
    return IntArray(g.indices.tolist()), segments


def reduce_etc_to_2req(g: Graph, pair_solver: PairSolver) -> dict[Edge, int]:
    """Per-edge triangle counts via one equal-pairs query per edge."""
    arr, segments = neighbor_list_array(g)
    edges = g.sorted_edges()
    queries = [RangePair(segments[u], segments[v]) for u, v in edges]
    answers = pair_solver(arr, queries)
    return dict(zip(edges, answers))


def reduce_etd_to_2rdq(g: Graph, disjoint_solver: DisjointSolver) -> dict[Edge, bool]:
    """Per-edge triangle detection via one disjointness query per edge."""
    arr, segments = neighbor_list_array(g)
    edges = g.sorted_edges()
    queries = [RangePair(segments[u], segments[v]) for u, v in edges]
    answers = disjoint_solver(arr, queries)
    return {e: not disjoint for e, disjoint in zip(edges, answers)}


# ---------------------------------------------------------------------------
# Base interval decomposition


@dataclass(frozen=True)
class BaseInterval:
    """Aligned interval [index * 2^level, (index+1) * 2^level - 1], 0-based."""

    level: int
    index: int

    @property
    def lo(self) -> int:
        return self.index << self.level

    @property
    def hi(self) -> int:
        return ((self.index + 1) << self.level) - 1

    @property
    def length(self) -> int:
        return 1 << self.level


def padded_length(n: int) -> int:
    """Smallest power of two >= n."""
    p = 1
    while p < n:
        p *= 2
    return p


@lru_cache(maxsize=1 << 16)
def base_decompose(lo: int, hi: int, n_pad: int) -> tuple[BaseInterval, ...]:
    """Write [lo, hi] as a disjoint union of maximal aligned intervals.

    Standard segment-tree cover over a tree of width n_pad (a power of
    two); at most 2 * log2(n_pad) intervals for n_pad > 1.
    """
    if not (0 <= lo <= hi < n_pad):
        raise ValueError(f"interval [{lo}, {hi}] outside [0, {n_pad - 1}]")
    if n_pad & (n_pad - 1):
        raise ValueError(f"{n_pad} is not a power of two")
    out: list[BaseInterval] = []

    def go(level: int, index: int) -> None:
        node_lo = index << level
        node_hi = ((index + 1) << level) - 1
        if node_lo > hi or node_hi < lo:
            return
        if lo <= node_lo and node_hi <= hi:
            out.append(BaseInterval(level, index))
            return
        go(level - 1, 2 * index)
        go(level - 1, 2 * index + 1)

    go(n_pad.bit_length() - 1, 0)
    return tuple(out)


# ---------------------------------------------------------------------------
# Array -> tripartite multigraph


@dataclass
class MultigraphBuild:
    """A query batch compiled to a tripartite multigraph.

    ``per_query`` lists, for each input query, the VW edges whose
    triangle counts sum to the query answer.  ``meta`` records sizes
    used by the invariant tests.
    """

    mg: TripartiteMultigraph
    per_query: list[list[Edge]]
    n_pad: int
    v_ids: dict[BaseInterval, int]
    w_ids: dict[BaseInterval, int]
    u_ids: dict[int, int]

    @property
    def uv_multiplicity_total(self) -> int:
        return sum(self.mg.e_uv.values())

    @property
    def uw_multiplicity_total(self) -> int:
        return sum(self.mg.e_uw.values())


def build_query_multigraph(
    a: IntArray, queries: Sequence[RangePair], collapse: bool = False
) -> MultigraphBuild:
    """Compile a two-range query batch into a tripartite multigraph.

    Part U holds the array values, parts V and W hold the base intervals
    appearing in first / second range decompositions; UV and UW edge
    multiplicities are occurrence counts of the value in the interval
    (collapsed to 1 when ``collapse`` is set, which preserves emptiness
    but not counts).  Only intervals actually used by some query get a
    vertex.
    """
    for q in queries:
        q.check(a.n)
    vals = normalize(a.values)
    n = len(vals)
    n_pad = padded_length(max(1, n))

    per_query_ivs: list[tuple[tuple[BaseInterval, ...], tuple[BaseInterval, ...]]] = []
    used_v: set[BaseInterval] = set()
    used_w: set[BaseInterval] = set()
    for q in queries:
        d1 = base_decompose(q.first.l - 1, q.first.r - 1, n_pad)
        d2 = base_decompose(q.second.l - 1, q.second.r - 1, n_pad)
        per_query_ivs.append((d1, d2))
        used_v.update(d1)
        used_w.update(d2)

    counts_cache: dict[BaseInterval, dict[int, int]] = {}

    def interval_counts(iv: BaseInterval) -> dict[int, int]:
        cached = counts_cache.get(iv)
        if cached is None:
            cached = {}
            for pos in range(iv.lo, min(iv.hi, n - 1) + 1):
                v = vals[pos]
                cached[v] = cached.get(v, 0) + 1
            counts_cache[iv] = cached
        return cached

    used_values: set[int] = set()
    for iv in used_v | used_w:
        used_values.update(interval_counts(iv))

    u_ids = {val: i + 1 for i, val in enumerate(sorted(used_values))}
    next_id = len(u_ids) + 1
    v_ids: dict[BaseInterval, int] = {}
    for iv in sorted(used_v, key=lambda b: (b.level, b.index)):
        v_ids[iv] = next_id
        next_id += 1
    w_ids: dict[BaseInterval, int] = {}
    for iv in sorted(used_w, key=lambda b: (b.level, b.index)):
        w_ids[iv] = next_id
        next_id += 1

    e_uv: dict[Edge, int] = {}
    for iv, vid in v_ids.items():
        for val, cnt in interval_counts(iv).items():
            e_uv[(u_ids[val], vid)] = 1 if collapse else cnt
    e_uw: dict[Edge, int] = {}
    for iv, wid in w_ids.items():
        for val, cnt in interval_counts(iv).items():
            e_uw[(u_ids[val], wid)] = 1 if collapse else cnt

    e_vw: set[Edge] = set()
    per_query: list[list[Edge]] = []
    for d1, d2 in per_query_ivs:
        keys = []
        for iv1 in d1:
            for iv2 in d2:
                e = (v_ids[iv1], w_ids[iv2])
                e_vw.add(e)
                keys.append(e)
        per_query.append(keys)

    mg = TripartiteMultigraph(
        part_u=set(u_ids.values()),
        part_v=set(v_ids.values()),
        part_w=set(w_ids.values()),
        e_uv=e_uv,
        e_uw=e_uw,
        e_vw=e_vw,
    )
    mg.validate()
    return MultigraphBuild(mg, per_query, n_pad, v_ids, w_ids, u_ids)


# ---------------------------------------------------------------------------
# Binary multiplicity splitting


def _simple_graph_counts(
    edges: np.ndarray, vw: np.ndarray, solver: CountingSolver
) -> list[int]:
    """Relabel the (k, 2) edge array compactly, run the solver, and
    return its counts at the original VW edges ``vw``, in row order."""
    g, back = compact(edges)
    a, b = np.sort(np.searchsorted(back, vw) + 1, axis=1).T.tolist()
    counts = solver(g)
    return [counts[e] for e in zip(a, b)]


def _bit_split(edges: dict[Edge, int]) -> dict[int, np.ndarray]:
    """Bit i -> the (k, 2) array of edges whose multiplicity has bit i set,
    for every bit set in some multiplicity."""
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    mult = np.array(list(edges.values()), dtype=np.int64)
    out = {}
    for i in range(int(mult.max()).bit_length() if mult.size else 0):
        rows = pairs[(mult >> i) & 1 == 1]
        if rows.size:
            out[i] = rows
    return out


def multigraph_edge_counts(
    mg: TripartiteMultigraph, solver: CountingSolver
) -> dict[Edge, int]:
    """Triangle counts through each VW edge, honoring multiplicities.

    UV and UW multiplicities are split into bits; the (i, j) bit-pair
    graph is simple, and its per-edge counts scaled by 2^(i+j) sum to the
    multiplicity-weighted answer.
    """
    if not mg.e_vw:
        return {}
    vw_edges = sorted(mg.e_vw)
    vw = np.array(vw_edges, dtype=np.int64)
    totals = np.zeros(len(vw_edges), dtype=np.int64)
    uw_bits = _bit_split(mg.e_uw)
    for i, uv in _bit_split(mg.e_uv).items():
        for j, uw in uw_bits.items():
            piece = _simple_graph_counts(np.concatenate((uv, uw, vw)), vw, solver)
            totals += np.array(piece, dtype=np.int64) << (i + j)
    return dict(zip(vw_edges, totals.tolist()))


def multigraph_edge_detect(
    mg: TripartiteMultigraph, solver: DetectionSolver
) -> dict[Edge, bool]:
    """Triangle detection through each VW edge; multiplicities collapse
    to one, so a single simple graph suffices."""
    if not mg.e_vw:
        return {}
    vw_edges = sorted(mg.e_vw)
    vw = np.array(vw_edges, dtype=np.int64)
    edges = np.array(sorted(mg.e_uv) + sorted(mg.e_uw) + vw_edges, dtype=np.int64)

    def counting(g: Graph) -> dict[Edge, int]:
        return {e: int(b) for e, b in solver(g).items()}

    piece = _simple_graph_counts(edges, vw, counting)
    return {e: bool(c) for e, c in zip(vw_edges, piece)}


# ---------------------------------------------------------------------------
# Top-level array-side solvers


def reduce_2req_to_etc(
    a: IntArray, queries: Sequence[RangePair], solver: CountingSolver
) -> list[int]:
    """Answer two-range equal-pairs queries with an edge-triangle counter."""
    if not queries:
        return []
    build = build_query_multigraph(a, queries)
    counts = multigraph_edge_counts(build.mg, solver)
    return [sum(counts[e] for e in keys) for keys in build.per_query]


def reduce_2rdq_to_etd(
    a: IntArray, queries: Sequence[RangePair], solver: DetectionSolver
) -> list[bool]:
    """Answer two-range disjointness queries with an edge-triangle
    detector; ranges are disjoint in values exactly when no VW edge of
    the query carries a triangle."""
    if not queries:
        return []
    build = build_query_multigraph(a, queries, collapse=True)
    detected = multigraph_edge_detect(build.mg, solver)
    return [not any(detected[e] for e in keys) for keys in build.per_query]
