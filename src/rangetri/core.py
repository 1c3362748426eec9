"""Shared domain types and brute-force oracles.

The oracles here are the ground truth for every other solver in the
package.  They are intentionally simple (direct pair enumeration, direct
triple loops) so that trusting them requires reading only a few lines.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from operator import attrgetter, index
from typing import Callable, Iterable, Sequence

import numpy as np

Edge = tuple[int, int]
TriangleT = tuple[int, int, int]


class RangeError(ValueError):
    """A query range is outside the owning array or malformed."""


class ShapeError(ValueError):
    """Matrix dimensions do not agree."""


class CapabilityError(TypeError):
    """A solver was asked for a capability it does not provide."""


class InputError(ValueError):
    """Malformed input data (files, parameters, degenerate instances)."""


# ---------------------------------------------------------------------------
# Arrays and ranges


# ``ranks`` numbers the cells of a bitmap instead of sorting when the span
# max - min + 1 is at most DENSE_SPAN times the number of ids.  Swept on a
# 2-vCPU VM.  Bitmap time over np.unique(return_inverse) time, best of 5,
# on uniform ids whose span is the given multiple of their number:
#
#   ids \ span     1x    2x    4x    8x   16x   32x   64x
#   100          0.71  0.71  0.88  0.73  0.86  0.88  1.06
#   1 000        0.44  0.49  0.59  0.69  0.69  0.81  0.82
#   10 000       0.23  0.25  0.32  0.61  1.40  1.59  1.99
#   100 000      0.20  0.30  0.43  0.61  1.42  2.14  4.64
#
# perfbench range_via_triangle, seed 1, --trace 0, medians of 4
# interleaved 10 s runs, in ms, every answer equal:
#
#   DENSE_SPAN        1      2      4      8     16
#   index_build_s   35.3   35.1   34.6   34.3   34.2
#   wall_s         119.1  113.2  112.7  114.1  112.7
#
# graph_triangle read the same at 1, 4 and 16 (wall_s 167 ms).  The
# benchmark is flat from 2 to 16; from 16 on the bitmap loses from 10^4
# ids up; and at 4 its int64 rank array, 32 bytes per id, is about what
# np.unique holds.
DENSE_SPAN = 4


def ranks(values) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, inverse)``: the sorted distinct values of ``values``
    and each entry's 0-based rank among them, an int64 array of the
    input's shape, as ``np.unique(values, return_inverse=True)`` gives.

    An int64 input whose span max - min + 1 is at most ``DENSE_SPAN``
    times its size is ranked without a sort: a bool bitmap over the span
    marks the values, and the marked cells, in order, are numbered
    0..d-1 (the bitmap's prefix sum, written only where it is read).
    The span is taken in Python ints, so the int64 extremes cannot wrap
    it.  Any other input goes to ``np.unique``.
    """
    arr = np.asarray(values)
    flat = arr.reshape(-1)
    if arr.dtype == np.int64 and flat.size:
        lo = flat.min()
        span = int(flat.max()) - int(lo) + 1
        if span <= DENSE_SPAN * flat.size:
            offset = flat - lo  # in [0, span), so no wrap
            seen = np.zeros(span, dtype=bool)
            seen[offset] = True
            marked = np.flatnonzero(seen)
            rank = np.empty(span, dtype=np.int64)
            rank[marked] = np.arange(marked.size)
            return marked + lo, rank[offset].reshape(arr.shape)
    distinct, inverse = np.unique(arr, return_inverse=True)
    return distinct, inverse.reshape(arr.shape).astype(np.int64, copy=False)


def _as_int64(values, what: str, whats: str) -> np.ndarray:
    """``values`` as an int64 array (no copy if it is one already).
    Raises ``InputError(f"{whats} must be integers")`` on a float,
    string, bytes or other non-integer entry, or a non-integer numpy
    dtype, which a cast would truncate or parse; and
    ``InputError(f"{what} outside int64")`` on a value outside int64,
    also an unsigned entry of 2**63 or more, which a cast would wrap to
    a negative number."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise InputError(f"{whats} must be integers") from exc
    kind = arr.dtype.kind
    if kind == "u" and arr.size and arr.max() >= 1 << 63:
        raise InputError(f"{what} outside int64")
    if kind in "iub" or not arr.size:
        return arr.astype(np.int64, copy=False)
    # numpy infers a float or object dtype for Python ints that do not
    # all fit one integer dtype; any other entry is not an integer
    items = np.asarray(values, dtype=object).ravel().tolist()
    if not all(isinstance(x, (int, np.integer)) for x in items):
        raise InputError(f"{whats} must be integers")
    try:
        return np.array(items, dtype=np.int64).reshape(arr.shape)
    except OverflowError as exc:
        raise InputError(f"{what} outside int64") from exc


class IntArray:
    """Integer array A[1..n]; the substrate of all range problems.

    ``values`` is one read-only int64 ndarray.  The constructor takes any
    sequence or array of integers; a value outside int64 raises
    ``InputError``.  The INV and EQP solvers replace the values by their
    ranks (``ranks``) first, so only their order matters to them.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        if not isinstance(values, np.ndarray):
            values = list(values)
        vals = _as_int64(values, "array value", "array values")
        if vals is values:
            vals = vals.copy()
        if vals.size < 1:
            raise InputError("array length must be at least 1")
        vals.flags.writeable = False
        self.values = vals

    @property
    def n(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        return isinstance(other, IntArray) and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"IntArray({self.values.tolist()})"


@dataclass(frozen=True, order=True)
class Range:
    """1-based inclusive index range [l, r]."""

    l: int
    r: int

    def __post_init__(self):
        if self.l < 1 or self.l > self.r:
            raise RangeError(f"invalid range [{self.l}, {self.r}]")

    def check(self, n: int) -> None:
        if self.r > n:
            raise RangeError(f"range [{self.l}, {self.r}] outside array of length {n}")

    @property
    def length(self) -> int:
        return self.r - self.l + 1


@dataclass(frozen=True, order=True)
class RangePair:
    """Two nonoverlapping ordered ranges: first.r < second.l."""

    first: Range
    second: Range

    def __post_init__(self):
        if self.first.r >= self.second.l:
            raise RangeError(
                f"ranges [{self.first.l},{self.first.r}] and "
                f"[{self.second.l},{self.second.r}] overlap or are out of order"
            )

    def check(self, n: int) -> None:
        self.first.check(n)
        self.second.check(n)


def pair(a: int, b: int, c: int, d: int) -> RangePair:
    return RangePair(Range(a, b), Range(c, d))


# the fields of a Range (width 2) / RangePair (width 4) that form a bounds row
_BOUND_FIELDS = {2: ("l", "r"), 4: ("first.l", "first.r", "second.l", "second.r")}


def bounds(queries, n: int, width: int) -> np.ndarray:
    """A query batch as validated 1-based bounds: a (q, 2) int64 array of
    (l, r) rows for single ranges (``width`` 2), or a (q, 4) array of
    (l1, r1, l2, r2) rows for range pairs (``width`` 4).

    ``queries`` is a sequence of ``Range`` / ``RangePair`` objects or an
    integer array of that shape.  The first bad row raises the
    ``RangeError`` that building it as objects and checking it against
    an array of length n would raise.
    """
    if not isinstance(queries, np.ndarray):
        try:
            cols = [list(map(attrgetter(f), queries)) for f in _BOUND_FIELDS[width]]
        except AttributeError as exc:
            kind = "Range" if width == 2 else "RangePair"
            raise InputError(f"expected {kind} queries") from exc
        try:
            queries = np.array(cols, dtype=np.int64).T
        except OverflowError:
            # a bound past int64 is past n, so some query's check raises
            for query in queries:
                query.check(n)
            raise
    if queries.dtype.kind not in "iu" or queries.shape[1:] != (width,):
        raise InputError(f"query bounds must be an integer array of shape (q, {width})")
    # checked before the cast, which would wrap unsigned bounds >= 2**63
    l, r = queries[:, 0::2], queries[:, 1::2]
    bad = ((l < 1) | (l > r) | (r > n)).any(axis=1)
    if width == 4:
        bad |= queries[:, 1] >= queries[:, 2]
    if bad.any():
        as_queries(queries[[np.argmax(bad)]])[0].check(n)
    return queries.astype(np.int64, copy=False)


def as_queries(rows: np.ndarray) -> list:
    """The rows of a (q, 2) / (q, 4) bounds array as ``Range`` /
    ``RangePair`` objects, for code that answers one query at a time."""
    if rows.shape[1] == 2:
        return [Range(l, r) for l, r in rows.tolist()]
    return [pair(l1, r1, l2, r2) for l1, r1, l2, r2 in rows.tolist()]


# ---------------------------------------------------------------------------
# Pair functions


def inv(x: int, y: int) -> int:
    return 1 if x > y else 0


def eqp(x: int, y: int) -> int:
    return 1 if x == y else 0


@dataclass(frozen=True)
class PairFunction:
    """A binary integer function used to score index pairs.

    ``kind`` is one of ``inv`` (strict inversion indicator), ``eqp``
    (equality indicator) or ``custom``.  A custom function carries only
    its evaluator, which the oracles call on values; its decomposition
    into weighted equality terms is passed to the reduction that needs
    it (see :mod:`rangetri.reductions_range`).
    """

    kind: str
    evaluator: Callable[[int, int], int]

    @staticmethod
    def builtin(kind: str) -> "PairFunction":
        table = {"inv": inv, "eqp": eqp}
        if kind not in table:
            raise InputError(f"unknown pair function kind {kind!r}")
        return PairFunction(kind, table[kind])

    @staticmethod
    def custom(evaluator: Callable[[int, int], int]) -> "PairFunction":
        return PairFunction("custom", evaluator)

    def __call__(self, x: int, y: int) -> int:
        return self.evaluator(x, y)


INV = PairFunction.builtin("inv")
EQP = PairFunction.builtin("eqp")


# ---------------------------------------------------------------------------
# Graphs


def _edge_array(edges: Iterable[Edge] | np.ndarray) -> np.ndarray:
    """``edges`` (an iterable of pairs or an (m, 2) int array) as an
    (m, 2) int64 array.  Pairs are read in one ``struct.pack`` pass once
    every item is known to have length 2 and not to be a string, so
    ragged input is rejected, never re-paired.  ``struct`` takes only
    integers (``__index__``) that fit int64, so a float, string or bytes
    id is rejected, never truncated or parsed."""
    if isinstance(edges, np.ndarray):
        arr = _as_int64(edges, "vertex id", "vertex ids")
        if arr.size == 0:
            return arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InputError("edges must be vertex pairs")
        return arr
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    try:
        pairs = set(map(len, edges)) <= {2} and not set(map(type, edges)) & {str, bytes}
    except TypeError:  # an item without a length
        pairs = False
    if not pairs:
        raise InputError("edges must be vertex pairs")
    try:
        packed = struct.pack(f"={2 * len(edges)}q", *chain.from_iterable(edges))
    except struct.error:
        # some id is not an integer or lies outside int64: say which
        try:
            np.fromiter(map(index, chain.from_iterable(edges)), np.int64, 2 * len(edges))
        except OverflowError as exc:
            raise InputError("vertex id outside int64") from exc
        except TypeError as exc:
            raise InputError("vertex ids must be integers") from exc
        raise
    return np.frombuffer(packed, np.int64).reshape(-1, 2)


# the most cells a Graph's edge-position table may have (1-4 bytes each,
# so at most 16 MB).  A cap of 4 MB in bytes would leave the n = q = 512
# 2req multigraph (3.3 M cells of uint16) without a table, and its graph
# build plus ayz_counts would go from 7.4 to 9.5 ms.
_TABLE_CELLS = 1 << 22


class Graph:
    """Undirected simple graph on vertices 1..n with no isolated vertices.

    Stored as int64 arrays: the edges ``eu < ev`` in lexicographic
    order, their sorted keys ``keys = eu * (n + 1) + ev``, and CSR rows
    ``indices[indptr[v]:indptr[v + 1]]``, the sorted neighbours of v
    (``indptr`` is indexed by vertex id, so row 0 is empty).  The
    constructor takes the edges as an iterable of pairs or as an (m, 2)
    int array.
    """

    def __init__(self, n: int, edges: Iterable[Edge] | np.ndarray):
        if n < 0:
            raise InputError(f"vertex count {n} is negative")
        arr = _edge_array(edges)
        m = arr.shape[0]
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            raise InputError(f"self-loop at vertex {lo[loops[0]]}")
        outside = np.flatnonzero((lo < 1) | (hi > n))
        if outside.size:
            k = outside[0]
            raise InputError(f"edge ({lo[k]}, {hi[k]}) outside vertex range 1..{n}")
        key = lo * (n + 1) + hi
        order = np.argsort(key)
        key, lo, hi = key[order], lo[order], hi[order]
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            raise InputError(f"parallel edge ({lo[dup[0]]}, {hi[dup[0]]})")
        src = np.concatenate((lo, hi))
        dst = np.concatenate((hi, lo))
        # 2m endpoints cover at most 2m vertices, so some vertex up to
        # 2m + 1 is isolated when n is larger; count no further than that
        span = min(n, 2 * m + 1)
        deg = np.bincount(np.minimum(src, span), minlength=span + 1)
        isolated = np.flatnonzero(deg[1:] == 0)
        if isolated.size:
            raise InputError(f"isolated vertex {isolated[0] + 1}")
        self.n = n
        self.eu = lo
        self.ev = hi
        self.keys = key
        self.indptr = np.concatenate(([0], np.cumsum(deg)))
        self.indices = np.sort(src * (n + 1) + dst) % (n + 1)

    @property
    def m(self) -> int:
        return self.eu.size

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> list[int]:
        return self.indices[self.indptr[v] : self.indptr[v + 1]].tolist()

    def sorted_edges(self) -> list[Edge]:
        return list(zip(self.eu.tolist(), self.ev.tolist()))

    @cached_property
    def adjacency(self) -> tuple[int, np.ndarray | None]:
        """(band, table): an edge-position table over the band of the
        adjacency matrix that holds the edges, band = max(ev - eu) + 1.
        Cell ``eu * band + (ev - eu)`` holds one more than the edge's
        position in ``eu``/``ev``, and every other cell 0, in the smallest
        unsigned dtype that holds m.  It has (n + 1) * band cells; a graph
        that would need more than ``_TABLE_CELLS`` gets none."""
        gap = self.ev - self.eu
        band = int(gap.max()) + 1 if self.m else 1
        if (self.n + 1) * band > _TABLE_CELLS:
            return band, None
        table = np.zeros((self.n + 1) * band, dtype=np.min_scalar_type(self.m))
        table[self.eu * band + gap] = np.arange(1, self.m + 1)
        return band, table

    def edge_index(self, u, v) -> np.ndarray:
        """Position in ``eu``/``ev`` of each edge {u, v}, or -1 where u
        and v (vertex ids in 1..n, in either order) are not adjacent.
        Vectorised: u and v are ints or int arrays of one shape.

        With a table (``adjacency``), a pair (lo, hi), lo <= hi, with lo
        in 1..n and hi - lo < band has its own cell, read with one
        ``take``; every other pair is no edge.  A pair with hi > n reads
        an empty cell, as no edge ends past n.  Without a table, the keys
        of the pairs with ids in 1..n are searched in ``keys``; any other
        pair could share a real edge's key, so it gives -1 first."""
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        band, table = self.adjacency
        if table is None:
            key = np.where((lo >= 1) & (hi <= self.n), lo * (self.n + 1) + hi, -1)
            at = np.searchsorted(self.keys, key)
            return np.where(self.keys.take(at, mode="clip") == key, at, -1)
        gap = hi - lo
        cell = np.where((lo >= 1) & (lo <= self.n) & (gap < band), lo * band + gap, 0)
        return table.take(cell).astype(np.int64) - 1


def compact(edges) -> tuple[Graph, np.ndarray]:
    """The graph on the vertex ids that ``edges`` uses, relabelled 1..k
    in increasing order of old id, and ``back``: the sorted int64 array
    of old ids, so new vertex i was old vertex ``back[i - 1]``."""
    back, new = ranks(_edge_array(edges))
    return Graph(back.size, new + 1), back


@dataclass
class TripartiteMultigraph:
    """Tripartite multigraph used by the range-to-triangle reductions.

    The parts are disjoint ranges of consecutive vertex ids.
    ``uv`` and ``uw`` are (k, 2) int64 arrays of (u, v) / (u, w) edges
    whose positive multiplicities are ``uv_mult`` / ``uw_mult``; ``vw``
    holds the simple VW edges as unique rows in sorted order.
    """

    part_u: range
    part_v: range
    part_w: range
    uv: np.ndarray
    uv_mult: np.ndarray
    uw: np.ndarray
    uw_mult: np.ndarray
    vw: np.ndarray

    def validate(self) -> None:
        parts = (self.part_u, self.part_v, self.part_w)
        if any(max(a.start, b.start) < min(a.stop, b.stop) for a, b in combinations(parts, 2)):
            raise InputError("parts are not disjoint")
        ones = np.ones(len(self.vw), dtype=np.int64)
        for name, rows, mult, a, b in (
            ("UV", self.uv, self.uv_mult, self.part_u, self.part_v),
            ("UW", self.uw, self.uw_mult, self.part_u, self.part_w),
            ("VW", self.vw, ones, self.part_v, self.part_w),
        ):
            if rows.shape != (len(mult), 2):
                raise InputError(f"{name} edges have shape {rows.shape}, not ({len(mult)}, 2)")
            x, y = rows[:, 0], rows[:, 1]
            if len(mult) and not (
                a.start <= x.min() <= x.max() < a.stop and b.start <= y.min() <= y.max() < b.stop and mult.min() >= 1
            ):
                outside = (x < a.start) | (x >= a.stop) | (y < b.start) | (y >= b.stop)
                k = np.flatnonzero((mult < 1) | outside)[0]
                raise InputError(f"bad {name} edge ({x[k]}, {y[k]}) x{mult[k]}")

    def triangle_count_through(self, v: int, w: int) -> int:
        """Multiplicity-weighted triangle count through a VW edge."""
        uw = {(x, y): k for (x, y), k in zip(self.uw.tolist(), self.uw_mult.tolist())}
        total = 0
        for (u, x), k in zip(self.uv.tolist(), self.uv_mult.tolist()):
            if x == v:
                total += k * uw.get((u, w), 0)
        return total


# ---------------------------------------------------------------------------
# Matrices


class DenseMatrix:
    """Integer matrix: ``array``, one 2-D int64 ndarray.

    ``rows`` is a sequence of equal-length integer rows or a 2-D integer
    array (an int64 one is kept without a copy); an entry outside int64
    raises ``InputError``.
    """

    __slots__ = ("array",)

    def __init__(self, rows):
        if not isinstance(rows, np.ndarray) and len({len(row) for row in rows if np.iterable(row)}) > 1:
            raise ShapeError("ragged rows")
        array = _as_int64(rows, "matrix entry", "matrix entries")
        if array.ndim != 2 or not array.size:
            raise ShapeError("matrix dimensions must be positive")
        self.array = array

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> list[int]:
        return self.array.ravel().tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, DenseMatrix) and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Packing


def pack(sizes: Sequence[int], budget: int) -> list[range]:
    """Group consecutive independent instances into solver calls: split
    the positions of ``sizes`` into runs, in order, each as long as its
    sizes sum to at most ``budget``.  An instance larger than the budget
    is a run of its own."""
    runs, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > start and total + size > budget:
            runs.append(range(start, i))
            start, total = i, 0
        total += size
    if len(sizes):
        runs.append(range(start, len(sizes)))
    return runs


# ---------------------------------------------------------------------------
# Oracles


def oracle_pairs_query(f: PairFunction, a: IntArray, q: Range | RangePair) -> int:
    """Brute-force pair sum over a single range or a range pair.

    Single range: sum of f(a[i], a[j]) over l <= i < j <= r.  Range pair:
    sum over the full cross product of the two ranges.  The inv/eqp kinds
    use a vectorized all-pairs comparison; the enumeration is still the
    literal definition, evaluated exhaustively.
    """
    vals = a.values
    if isinstance(q, RangePair):
        q.check(a.n)
        xs = vals[q.first.l - 1 : q.first.r]
        ys = vals[q.second.l - 1 : q.second.r]
        if f.kind == "inv":
            return int(np.sum(xs[:, None] > ys[None, :]))
        if f.kind == "eqp":
            return int(np.sum(xs[:, None] == ys[None, :]))
        # custom kinds call their evaluator on Python ints, pair by pair
        return sum(f(x, y) for x in xs.tolist() for y in ys.tolist())
    q.check(a.n)
    xs = vals[q.l - 1 : q.r]
    if f.kind in ("inv", "eqp"):
        comp = xs[:, None] > xs[None, :] if f.kind == "inv" else xs[:, None] == xs[None, :]
        return int(np.sum(np.triu(comp, k=1)))
    seg = xs.tolist()
    total = 0
    for i in range(len(seg)):
        for j in range(i + 1, len(seg)):
            total += f(seg[i], seg[j])
    return total


def oracle_disjoint_query(a: IntArray, q: RangePair) -> bool:
    """True iff the value sets of the two ranges are disjoint."""
    return oracle_pairs_query(EQP, a, q) == 0


def _adjacency_sets(g: Graph) -> dict[int, set[int]]:
    """Neighbour sets of vertices 1..n, built from the edge list alone."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.sorted_edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def oracle_edge_triangle_counts(g: Graph) -> dict[Edge, int]:
    """Per-edge triangle count: |N(u) ∩ N(v)| for every edge (u, v)."""
    adj = _adjacency_sets(g)
    return {(u, v): len(adj[u] & adj[v]) for u, v in g.sorted_edges()}


def oracle_edge_triangle_detect(g: Graph) -> dict[Edge, bool]:
    """Per-edge triangle existence, derived from the counting oracle."""
    return {e: c > 0 for e, c in oracle_edge_triangle_counts(g).items()}


def oracle_triangle_list(g: Graph) -> set[TriangleT]:
    """Exact set of all triangles, canonicalized."""
    adj = _adjacency_sets(g)
    out: set[TriangleT] = set()
    for u, v in g.sorted_edges():
        for w in adj[u] & adj[v]:
            if w > v:
                out.add((u, v, w))
    return out


def oracle_minmax(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Exact (min, max)-product by the defining triple loop."""
    if a.cols != b.rows:
        raise ShapeError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    x, y = a.array.tolist(), b.array.tolist()
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            best = None
            for k in range(a.cols):
                cand = max(x[i][k], y[k][j])
                if best is None or cand < best:
                    best = cand
            out[i][j] = best
    return DenseMatrix(out)
