"""Reductions between two-range queries and edge triangle problems.

One direction turns a graph into an array of concatenated neighbor
lists, so that the triangle count through an edge becomes a two-range
equal-pairs query.  The other direction decomposes query ranges into
segment-tree base intervals, builds a tripartite multigraph linking
values to intervals, and splits multiplicities in binary into simple
piece graphs.  Each piece is pruned to the edges that can lie on a
triangle through a VW edge, and the pruned pieces go side by side to
one edge-triangle solver call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    Edge,
    Graph,
    IntArray,
    RangePair,
    TripartiteMultigraph,
    bounds,
    compact,
    ranks,
)
from .reductions_range import PairSolver

DisjointSolver = Callable[[IntArray, Union[Sequence[RangePair], np.ndarray]], list[bool]]
# per-edge answers as an int64 / bool array aligned with g.sorted_edges()
CountingSolver = Callable[[Graph], np.ndarray]
DetectionSolver = Callable[[Graph], np.ndarray]


# ---------------------------------------------------------------------------
# Graph -> array


def neighbor_list_array(g: Graph) -> tuple[IntArray, np.ndarray]:
    """Concatenate sorted neighbor lists of vertices 1..n.

    The result has length 2m and comes with ``g.indptr``: the neighbors
    of v fill the 1-based segment [indptr[v] + 1, indptr[v + 1]], and the
    triangle count through edge (u, v) is the number of equal pairs
    between segment(u) and segment(v).
    """
    return IntArray(g.indices), g.indptr


def _edge_queries(g: Graph) -> tuple[IntArray, np.ndarray]:
    """The neighbor-list array of ``g`` and, for each edge (u, v) in
    sorted order, the (segment(u), segment(v)) bounds row."""
    arr, ptr = neighbor_list_array(g)
    ends = ptr[np.stack((g.eu, g.eu + 1, g.ev, g.ev + 1), axis=1)]
    return arr, ends + np.array([1, 0, 1, 0])


def reduce_etc_to_2req(g: Graph, pair_solver: PairSolver) -> dict[Edge, int]:
    """Per-edge triangle counts via one equal-pairs query per edge."""
    if not g.m:
        return {}
    arr, queries = _edge_queries(g)
    return dict(zip(g.sorted_edges(), pair_solver(arr, queries)))


def reduce_etd_to_2rdq(g: Graph, disjoint_solver: DisjointSolver) -> dict[Edge, bool]:
    """Per-edge triangle detection via one disjointness query per edge."""
    if not g.m:
        return {}
    arr, queries = _edge_queries(g)
    answers = disjoint_solver(arr, queries)
    return {e: not disjoint for e, disjoint in zip(g.sorted_edges(), answers)}


# ---------------------------------------------------------------------------
# Base interval decomposition


def padded_length(n: int) -> int:
    """Smallest power of two >= n."""
    p = 1
    while p < n:
        p *= 2
    return p


def base_decompose(lo, hi, n_pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Write each 0-based range [lo[k], hi[k]] as a disjoint union of
    maximal aligned intervals: the standard segment-tree cover over a
    tree of width n_pad (a power of two), at most 2 * log2(n_pad)
    intervals per range for n_pad > 1.

    An interval is named by its segment-tree node id: the root is 1 and
    node h has children 2h and 2h + 1, so node h at depth
    d = floor(log2 h) covers positions (h - 2^d) << (L - d) up to
    ((h - 2^d + 1) << (L - d)) - 1, where L = log2(n_pad).  Returns
    (query, node) int64 arrays with one entry per interval, sorted by
    query, and by level (leaves first) within a query.  Every level of
    every range is computed at once, in closed form.
    """
    lo = np.asarray(lo, dtype=np.int64).reshape(-1)
    hi = np.asarray(hi, dtype=np.int64).reshape(-1)
    if n_pad < 1 or n_pad & (n_pad - 1):
        raise ValueError(f"{n_pad} is not a power of two")
    bad = np.flatnonzero((lo < 0) | (lo > hi) | (hi >= n_pad))
    if bad.size:
        k = bad[0]
        raise ValueError(f"interval [{lo[k]}, {hi[k]}] outside [0, {n_pad - 1}]")
    # bottom-up cover of the half-open leaf span [l, r): level k's span
    # is [ceil(l / 2^k), floor(r / 2^k)); while it is nonempty it takes
    # its left end if odd and the node before its right end if odd.
    # ``take[q, k]`` marks which of level k's two candidates range q
    # takes; read in row order, the nodes come by level, left then right.
    shift = np.arange(n_pad.bit_length())
    l = -((-(lo + n_pad))[:, None] >> shift)
    r = (hi + n_pad + 1)[:, None] >> shift
    live = l < r
    take = np.stack(((l & 1).astype(bool) & live, (r & 1).astype(bool) & live), axis=2)
    nodes = np.stack((l, r - 1), axis=2)[take]
    return np.repeat(np.arange(lo.size), np.count_nonzero(take, axis=(1, 2))), nodes


# ---------------------------------------------------------------------------
# Array -> tripartite multigraph


@dataclass
class MultigraphBuild:
    """A query batch compiled to a tripartite multigraph.

    The answer to query k is read from the VW edges
    ``mg.vw[query_vw[query_ptr[k]:query_ptr[k + 1]]]``, a per-query CSR
    of row indices into ``mg.vw``.
    """

    mg: TripartiteMultigraph
    query_ptr: np.ndarray
    query_vw: np.ndarray

    def fold(self, ufunc: np.ufunc, per_edge: np.ndarray) -> np.ndarray:
        """Reduce per-VW-edge results (aligned with ``mg.vw``) to one
        result per query with ``ufunc``."""
        return ufunc.reduceat(per_edge[self.query_vw], self.query_ptr[:-1])


def build_query_multigraph(a: IntArray, queries: Sequence[RangePair] | np.ndarray) -> MultigraphBuild:
    """Compile a two-range query batch into a tripartite multigraph.

    Part U holds the array values, parts V and W hold the base intervals
    appearing in first / second range decompositions; UV and UW edge
    multiplicities are occurrence counts of the value in the interval.
    Only intervals actually used by some query get a vertex.
    """
    b = bounds(queries, a.n, 4)
    q = len(b)
    distinct, vals = ranks(a.values)
    n_pad = padded_length(a.n)
    # one cover of the 2q ranges: range k < q is query k's first (V)
    # range, range q + k its second (W) range
    ends = np.concatenate((b[:, :2], b[:, 2:])) - 1
    rq, node = base_decompose(ends[:, 0], ends[:, 1], n_pad)
    split = np.searchsorted(rq, q)

    # vertex ids V, then W, then U: a used node gets the rank of its key
    # (side, node) plus 1, so V's nodes come first, each side in node order;
    # of[side * 2 * n_pad + node] is that id, or 0 for an unused node
    keys, vid = ranks(node + 2 * n_pad * (rq >= q))
    vid += 1
    part_v = range(1, int(np.searchsorted(keys, 2 * n_pad)) + 1)
    part_w = range(part_v.stop, keys.size + 1)
    of = np.zeros(4 * n_pad, dtype=np.int64)
    of[keys] = np.arange(1, keys.size + 1)

    # occurrences of each value in each used node: position p lies in
    # the nodes (p + n_pad) >> k for k = 0..L
    anc = (np.arange(a.n) + n_pad) >> np.arange(n_pad.bit_length())[:, None]
    used = np.zeros(2 * n_pad, dtype=bool)
    used[node] = True
    d = distinct.size
    key, mult = np.unique((anc * d + vals)[used[anc]], return_counts=True)
    node_of, val = np.divmod(key, d)
    values, u_id = ranks(val)
    part_u = range(part_w.stop, part_w.stop + values.size)
    u_id += part_u.start

    def u_edges(side_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hit = side_of[node_of] > 0
        return np.stack((u_id[hit], side_of[node_of[hit]]), axis=1), mult[hit]

    uv, uv_mult = u_edges(of[: 2 * n_pad])
    uw, uw_mult = u_edges(of[2 * n_pad :])

    # query k pairs each of its nv[k] V intervals with each of its nw[k]
    # W intervals; the pairs of one query are contiguous
    vq, wq = rq[:split], rq[split:] - q
    nv = np.bincount(vq, minlength=q)
    nw = np.bincount(wq, minlength=q)
    w_start = np.cumsum(nw) - nw
    reps = nw[vq]
    i = np.repeat(np.arange(vq.size), reps)
    j = np.repeat(w_start[vq] - (np.cumsum(reps) - reps), reps) + np.arange(i.size)
    vw_key, query_vw = ranks(vid[i] * part_w.stop + vid[split + j])
    vw = np.stack(np.divmod(vw_key, part_w.stop), axis=1)
    query_ptr = np.concatenate(([0], np.cumsum(nv * nw)))

    mg = TripartiteMultigraph(part_u, part_v, part_w, uv, uv_mult, uw, uw_mult, vw)
    mg.validate()
    return MultigraphBuild(mg, query_ptr, query_vw)


# ---------------------------------------------------------------------------
# Binary multiplicity splitting


def _bit_split(pairs: np.ndarray, mult: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(i, rows) for every bit i set in some multiplicity, where rows are
    the (k, 2) edges of ``pairs`` whose multiplicity has bit i set."""
    out = []
    for i in range(int(mult.max()).bit_length() if mult.size else 0):
        rows = pairs[(mult >> i) & 1 == 1]
        if rows.size:
            out.append((i, rows))
    return out


def _piece_answers(
    mg: TripartiteMultigraph,
    pieces: Sequence[tuple[np.ndarray, np.ndarray]],
    solver: CountingSolver | DetectionSolver,
) -> np.ndarray:
    """The solver's answers at the VW edges of each simple piece graph.

    Piece c has the UV edges ``pieces[c][0]``, the UW edges
    ``pieces[c][1]`` and every VW edge.  The pieces are laid side by side
    in one graph, piece c's ids shifted by c times one more than the
    largest id, which is one ``compact`` and one solver call; no
    triangle crosses pieces.

    Before that call each piece is pruned to the edges that can lie on
    a triangle through one of its VW edges: the UV and UW edges at U
    vertices with both a V and a W neighbor in the piece, and the VW
    edges whose V end keeps a UV edge and whose W end keeps a UW edge.
    The third vertex of such a triangle is a U vertex adjacent to both
    ends, and no triangle holds two VW edges, so every kept VW edge
    keeps its answer; a pruned one answers 0 (``False``).
    Returns a (len(pieces), len(mg.vw)) array, row c aligned with
    ``mg.vw``.
    """
    width = max(mg.part_u.stop, mg.part_v.stop, mg.part_w.stop)
    shift = width * np.arange(len(pieces))
    uv = np.concatenate([e + s for (e, _), s in zip(pieces, shift)])
    uw = np.concatenate([e + s for (_, e), s in zip(pieces, shift)])

    def marks(ids: np.ndarray) -> np.ndarray:
        out = np.zeros(width * len(pieces), dtype=bool)
        out[ids] = True
        return out

    both = marks(uv[:, 0]) & marks(uw[:, 0])
    uv, uw = uv[both[uv[:, 0]]], uw[both[uw[:, 0]]]
    vw = mg.vw + shift[:, None, None]
    kept = marks(uv[:, 1])[vw[..., 0]] & marks(uw[:, 1])[vw[..., 1]]
    vw = vw[kept]
    g, back = compact(np.concatenate((uv, uw, vw)))
    a, b = np.searchsorted(back, vw.T) + 1
    answers = solver(g)
    out = np.zeros(kept.shape, dtype=answers.dtype)
    out[kept] = answers[g.edge_index(a, b)]
    return out


def multigraph_edge_counts(mg: TripartiteMultigraph, solver: CountingSolver) -> np.ndarray:
    """Triangle counts through each VW edge, aligned with ``mg.vw`` and
    honoring multiplicities.

    UV and UW multiplicities are split into bits; the (i, j) bit-pair
    piece is a simple graph, and its per-edge counts scaled by 2^(i+j)
    sum to the multiplicity-weighted answer.  All pieces, each pruned
    to the edges that can lie on a triangle through a VW edge, go to
    the solver as one graph (``_piece_answers``); a VW edge pruned from
    a piece adds 0 for it.
    """
    uw_bits = _bit_split(mg.uw, mg.uw_mult)
    split = [(i + j, (uv, uw)) for i, uv in _bit_split(mg.uv, mg.uv_mult) for j, uw in uw_bits]
    if not split:
        return np.zeros(len(mg.vw), dtype=np.int64)
    scale, pieces = zip(*split)
    return (_piece_answers(mg, pieces, solver) << np.array(scale)[:, None]).sum(axis=0)


def multigraph_edge_detect(mg: TripartiteMultigraph, solver: DetectionSolver) -> np.ndarray:
    """Triangle detection through each VW edge, aligned with ``mg.vw``;
    multiplicities collapse to one, so a single simple piece suffices."""
    return _piece_answers(mg, [(mg.uv, mg.uw)], solver)[0]


# ---------------------------------------------------------------------------
# Top-level array-side solvers


def reduce_2req_to_etc(
    a: IntArray, queries: Sequence[RangePair] | np.ndarray, solver: CountingSolver
) -> list[int]:
    """Answer two-range equal-pairs queries with an edge-triangle counter."""
    if len(queries) == 0:
        return []
    build = build_query_multigraph(a, queries)
    counts = multigraph_edge_counts(build.mg, solver)
    return build.fold(np.add, counts).tolist()


def reduce_2rdq_to_etd(
    a: IntArray, queries: Sequence[RangePair] | np.ndarray, solver: DetectionSolver
) -> list[bool]:
    """Answer two-range disjointness queries with an edge-triangle
    detector; ranges are disjoint in values exactly when no VW edge of
    the query carries a triangle."""
    if len(queries) == 0:
        return []
    build = build_query_multigraph(a, queries)
    detected = multigraph_edge_detect(build.mg, solver)
    return (~build.fold(np.logical_or, detected)).tolist()
