"""Direct triangle solvers and the randomized listing/detection reductions.

Contains the heavy/light per-edge triangle counter, a deterministic
bounded lister, and the randomized machinery that converts between
bounded listing and per-edge detection: detection-to-listing via a
tripartite blow-up with halved third parts, listing-to-detection via
sampled third parts, and the two-level random-coloring lister for
capacities beyond the edge count.
"""

from __future__ import annotations

import hashlib
import math
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Optional

import numpy as np

from .core import Edge, Graph, InputError, TriangleT, compact, pack, ranks


def _derive_seed(seed: int, tags: tuple) -> int:
    payload = repr((seed,) + tags).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class RandomSource:
    """Deterministic randomness carrier.

    ``uniform(shape, *tags)`` returns an array of uniforms in [0, 1) from
    numpy's PCG64, seeded by a SHA-256 digest of (seed, tags) and read by
    ``Generator.random``; ``split(*tags)`` is the source of that seed.
    Executions that split and draw by the same tags agree exactly.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed)

    def split(self, *tags) -> "RandomSource":
        return RandomSource(_derive_seed(self.seed, tags))

    def uniform(self, shape, *tags) -> np.ndarray:
        return np.random.Generator(np.random.PCG64(_derive_seed(self.seed, tags))).random(shape)

    def __repr__(self) -> str:
        return f"RandomSource({self.seed})"


COMPLETE = "complete"
TRUNCATED = "truncated-at-t"
FAILED = "failed"


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Whether each row of a sorted 2-D array differs from the row before."""
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return new


def _is_canonical(rows: np.ndarray) -> bool:
    """Whether a (k, 3) int64 array has u < v < w in each row and its
    rows strictly increasing, in O(k).  The first column where two
    consecutive rows differ orders them, so its weight, 4, outweighs
    the 2 + 1 of the columns after it."""
    if not (rows[:, :2] < rows[:, 1:]).all():
        return False
    a, b = rows[:-1], rows[1:]
    order = ((b > a).astype(np.int8) - (b < a)) @ np.array([4, 2, 1], dtype=np.int8)
    return bool((order > 0).all())


def _canonical(triples) -> np.ndarray:
    """The canonical form of a collection of triples (a (k, 3) int array
    or any iterable of 3-tuples): a read-only (k, 3) int64 array with
    u < v < w in each row, the rows in increasing order and each once.

    Rows already in that form, checked in O(k), are not sorted again: a
    read-only array is returned without a copy, and a writeable one as a
    read-only copy, so that its owner cannot change the listing.

    Otherwise each sorted row (u, v, w), less the smallest id, is read as
    one int64 key in base span = max - min + 1, which fits while span^3
    <= 2^63, and one sort of the keys orders the rows.  Ids 2^21 or more
    apart are sorted by column instead.  The key is kept for speed: on
    gnp(200, 0.5, seed 1), 162 530 triangles, a column ``lexsort`` of
    every input took uncapped ``baseline_list`` from 68-81 to 85-100 ms,
    ``main_listing_retry`` at t = T from 177-197 to 287-312 ms and
    ``main_listing`` at zeta = 1 from 332-337 to 528-557 ms (best of 3,
    4 alternating rounds, 2-vCPU VM)."""
    if not isinstance(triples, np.ndarray):
        triples = np.fromiter(chain.from_iterable(triples), np.int64)
    rows = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if _is_canonical(rows):
        if rows.flags.writeable:
            rows = rows.copy()
            rows.flags.writeable = False
        return rows
    rows = np.sort(rows, axis=1)
    if rows.size:
        base = int(rows[:, 0].min())
        span = int(rows[:, 2].max()) - base + 1
        if span**3 <= 2**63:
            digits = np.array([span * span, span, 1], dtype=np.int64)
            rows -= base
            key = np.sort(rows @ digits)
            np.floor_divide(key[:, None], digits, out=rows)
            rows %= span
            rows += base
        else:
            rows = rows[np.lexsort(rows.T[::-1])]
    rows = rows[_run_starts(rows)]
    rows.flags.writeable = False
    return rows


def _merge(union: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """The canonical union of two canonical row arrays over ids 1..n.

    Each row (u, v, w) is read as one int64 key in base n + 1, which fits
    while (n + 1)^3 <= 2^63.  A binary search of the union's keys places
    the rows of the batch, and those not in the union go in with one
    insert, so the union is not sorted again.  Beyond that the two are
    made canonical together."""
    if (n + 1) ** 3 > 2**63:
        return _canonical(np.concatenate((union, rows)))
    digits = np.array([(n + 1) ** 2, n + 1, 1], dtype=np.int64)
    keys, new = union @ digits, rows @ digits
    at = np.searchsorted(keys, new)
    fresh = at == len(keys)
    fresh[~fresh] = keys[at[~fresh]] != new[~fresh]
    return np.insert(union, at[fresh], rows[fresh], axis=0)


class ListingResult:
    """The triangles a lister found, plus how the run ended.

    ``rows`` is the listing in canonical form: a read-only (k, 3) int64
    array with u < v < w in each row, the rows in increasing order and
    none twice.  The constructor takes any collection of triples and
    makes that form with ``_canonical``; the randomized listers grow
    their unions with ``_merge``.  ``triangles`` is the same listing as
    a set of tuples, built once when first read, for comparisons with
    the oracles.  Two results are equal when their rows and status are.

    ``complete``: the rows are every triangle of the graph.  The main
    listers check this against the AYZ count; inner_listing's colored
    path says it when no color triple was cut, which is Monte Carlo.
    ``truncated-at-t``: the lister stopped at its capacity, so more
    triangles may exist; the main listers hold at least t.
    ``failed``: the main listers' runs ended with fewer than t triangles
    and fewer than the graph holds.
    """

    def __init__(self, triangles, status: str):
        if status not in (COMPLETE, TRUNCATED, FAILED):
            raise InputError(f"bad listing status {status!r}")
        self.rows = _canonical(triangles)
        self.status = status

    @cached_property
    def triangles(self) -> set[TriangleT]:
        return set(map(tuple, self.rows.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ListingResult):
            return NotImplemented
        return self.status == other.status and np.array_equal(self.rows, other.rows)

    def __repr__(self) -> str:
        return f"ListingResult({self.rows.tolist()!r}, {self.status!r})"


# ---------------------------------------------------------------------------
# Heavy/light per-edge counting


# light-centre wedges handled per numpy batch; bounds the wedge kernel's
# scratch arrays
_WEDGE_CHUNK = 1 << 12


def _wedge_chunks(g: Graph, slots: np.ndarray, owner: np.ndarray):
    """The wedge kernel: yield, a chunk at a time, (first, second, edge)
    int64 arrays with one entry per pair of positions p < q of ``slots``
    in one row whose two neighbours are joined by the edge at position
    ``edge``.  ``slots`` is grouped by row, rows ascending, and
    ``owner[s]`` is the vertex whose row holds slot s.  Pairs go by
    first position in slot order, whole, so a caller may stop early."""
    row, nb = owner[slots], g.indices[slots]
    row_end = np.cumsum(np.bincount(row, minlength=g.n + 1))  # row v ends before row_end[v]
    later = row_end[row] - np.arange(slots.size) - 1
    done = np.cumsum(later)
    start = 0
    while start < slots.size:
        # positions start..stop-1 make at most _WEDGE_CHUNK pairs, or one's
        limit = done[start] - later[start] + _WEDGE_CHUNK
        stop = max(start + 1, int(np.searchsorted(done, limit, "right")))
        k = later[start:stop]
        i = np.repeat(np.arange(start, stop), k)
        j = i + np.arange(i.size) - np.repeat(np.cumsum(k) - k, k) + 1
        edge = g.edge_index(nb[i], nb[j])
        hit = edge >= 0
        yield slots[i[hit]], slots[j[hit]], edge[hit]
        start = stop


def _wedge_rows(g: Graph, slots: np.ndarray, owner: np.ndarray, cap: float) -> np.ndarray:
    """The (centre, v, w) rows of ``_wedge_chunks``' closed wedges, in its
    order, as a (k, 3) int64 array; stops after the chunk that passes
    cap, so k > cap exactly when more than cap wedges close."""
    found, total = [np.empty((0, 3), dtype=np.int64)], 0
    for first, second, _ in _wedge_chunks(g, slots, owner):
        found.append(np.column_stack((owner[first], g.indices[first], g.indices[second])))
        total += first.size
        if total > cap:
            break
    return np.concatenate(found)


def _owner(g: Graph) -> np.ndarray:
    """The vertex whose row holds each CSR slot."""
    return np.repeat(np.arange(g.n + 1), np.diff(g.indptr))


def _degree_key(g: Graph) -> np.ndarray:
    """Each vertex's (degree, id) as one int64 key, deg * (n + 1) + id:
    the order compact-forward orients every edge by."""
    return np.diff(g.indptr) * (g.n + 1) + np.arange(g.n + 1)


# theta = m^((w - 1) / (w + 1)) balances m * theta wedges with an H^w product.
# ayz_counts ms at three splits (H), best of 5 on a 2-vCPU VM, answers equal:
#
#   graph                      m^(1/3)      m^0.4       m^(1/2)
#   gnp(400, 0.5)             3.7 (400)    3.5 (400)   382 (185)
#   gnp(1000, 0.1)             14 (1000)    16 (996)   109 (0)
#   gnp(2000, 0.05)            93 (2000)   171 (876)   181 (0)
#   powerlaw(3000, 0.01)       43 (465)     58 (184)    74 (37)
#   2req n = q = 4096 graph   324 (1743)   357 (653)   402 (117)
#
# A numpy wedge costs far more than a BLAS multiply-add, so the w = 2 split
# never lost beyond noise; it is kept by measurement, as rangequery.OMEGA = 3
# is for online-eq's blocks, and no one omega serves both.
def default_theta(m: int) -> int:
    """AYZ's default degree threshold on m edges: the exact ceiling of
    m^(1/3), and at least 1."""
    k = round(m ** (1 / 3))
    while k**3 < m:
        k += 1
    while k > 1 and (k - 1) ** 3 >= m:
        k -= 1
    return max(1, k)


def ayz_counts(g: Graph, theta: Optional[int] = None) -> np.ndarray:
    """Per-edge triangle counts as an int64 array aligned with
    ``g.eu``/``g.ev`` (Alon-Yuster-Zwick).  A vertex is heavy when its
    degree exceeds theta, by default ``default_theta(m)``.

    Vertices are ordered by (degree, id), so every light vertex comes
    before every heavy one.  A triangle with a light vertex is found
    once, as the closed wedge (c; v, w) at its lowest vertex c, which is
    light: both v and w come after c.  That wedge credits all three of
    its edges.  An edge with both ends heavy also adds its entry of the
    H x H 0/1 product A_H @ A_H over the heavy vertices, which counts
    its heavy third vertices; the product is one float32 BLAS call, and
    A_H with its square peak at 8 H^2 bytes.  A light row pairs at most
    theta neighbours, so that is at most m * theta wedges plus one
    product on H <= 2m / theta vertices.
    """
    m = g.m
    if theta is None:
        theta = default_theta(m)
    if theta < 1:
        raise InputError("degree threshold must be >= 1")

    heavy = np.diff(g.indptr) > theta
    key = _degree_key(g)
    owner = _owner(g)
    # the slots of light rows whose neighbour comes after the row's vertex
    up = np.flatnonzero(~heavy[owner] & (key[g.indices] > key[owner]))
    credited = [owner[:0]]
    for first, second, edge in _wedge_chunks(g, up, owner):
        c = owner[first]
        credited += [edge, g.edge_index(c, g.indices[first]), g.edge_index(c, g.indices[second])]
    counts = np.bincount(np.concatenate(credited), minlength=m)

    both = np.flatnonzero(heavy[g.eu] & heavy[g.ev])
    if both.size:
        rank = np.cumsum(heavy) - 1  # a heavy vertex's row in A_H
        size = int(rank[-1]) + 1
        u, v = rank[g.eu[both]], rank[g.ev[both]]
        # float32 is exact: an entry is at most H, and H^2 cells in memory make H < 2^24
        a = np.zeros((size, size), dtype=np.float32)
        a[u, v] = a[v, u] = 1
        # A_H is symmetric, so A_H @ A_H = A_H @ A_H.T; numpy hands a
        # product with its own transpose to BLAS syrk, which computes only
        # one triangle of it
        counts[both] += (a @ a.T)[u, v].astype(np.int64)
    return counts


def ayz_edge_counts(g: Graph, theta: Optional[int] = None) -> dict[Edge, int]:
    """``ayz_counts`` as a dict keyed by edge."""
    return dict(zip(g.sorted_edges(), ayz_counts(g, theta).tolist()))


# ---------------------------------------------------------------------------
# Baseline bounded lister


def baseline_list(g: Graph, cap: int) -> ListingResult:
    """Deterministic degree-ordered listing (compact-forward), up to cap
    triangles.

    Vertices are ranked by (degree, id), and each triangle is the closed
    wedge at its lowest-ranked vertex u between two neighbours ranked
    above u.  Triangles are taken in the wedge kernel's order: by the id
    of u, then by the ids of the other two; past cap of them the result
    is truncated.
    """
    if cap < 0:
        raise InputError("cap must be >= 0")
    key = _degree_key(g)
    owner = _owner(g)
    # forward slots: one per edge, at its lower-ranked end
    rows = _wedge_rows(g, np.flatnonzero(key[g.indices] > key[owner]), owner, cap)
    return ListingResult(rows[:cap], COMPLETE if len(rows) <= cap else TRUNCATED)


# a lister returns a ListingResult of at most cap triangles of the graph,
# as canonical rows; a detector maps each (u, v) edge, u < v, to whether
# a triangle uses it
Lister = Callable[[Graph, int], ListingResult]
Detector = Callable[[Graph], dict[Edge, bool]]


# ---------------------------------------------------------------------------
# Tripartite blow-ups


def _blowup(g: Graph, comp12, first, second, comp3, third):
    """Copies of a tripartite blow-up of g side by side, as one graph.

    Copy c has the first-second edges (first[k], second[k]) with
    comp12[k] == c, first in part 0 and second in part 1, and the part-2
    vertices third[j] with comp3[j] == c, each joined to the part-0 and
    part-1 vertices of c that are its neighbours in g.  Vertex
    (c, part, x) is keyed (3c + part)(n + 1) + x, and ``compact`` numbers
    the keys in increasing order.  Returns (graph, back, a, b): the
    blow-up, ``compact``'s array of keys, and the graph ids a < b of each
    first-second edge.
    """
    n1 = g.n + 1
    lo = 3 * n1 * comp12 + first
    hi = lo - first + n1 + second
    # one (third[j], neighbour x) pair per CSR slot of third[j]'s row
    start = g.indptr[third]
    deg = g.indptr[third + 1] - start
    j = np.repeat(np.arange(third.size), deg)
    x = g.indices[np.arange(j.size) + (start - np.cumsum(deg) + deg)[j]]
    key0 = 3 * n1 * comp3[j] + x  # (c, 0, x)
    key2 = key0 - x + 2 * n1 + third[j]  # (c, 2, third[j])
    # keep the joins whose part-0 or part-1 end is an end of a
    # first-second edge: a sorted-key lookup, linear in memory
    near = np.concatenate((key0, key0 + n1))
    ends = np.sort(np.concatenate((lo, hi)))
    hit = ends[np.minimum(np.searchsorted(ends, near), ends.size - 1)] == near
    lo = np.concatenate((lo, near[hit]))
    hi = np.concatenate((hi, np.concatenate((key2, key2))[hit]))
    graph, back = compact(np.stack((lo, hi), axis=1))
    k = comp12.size
    return graph, back, np.searchsorted(back, lo[:k]) + 1, np.searchsorted(back, hi[:k]) + 1


# ---------------------------------------------------------------------------
# Listing from detection


def _is_triangle(g: Graph, tris: np.ndarray) -> np.ndarray:
    """Whether the three pairs of each row of a (k, 3) array are edges."""
    return (g.edge_index(tris[:, [0, 0, 1]], tris[:, [1, 2, 2]]) >= 0).all(axis=1)


def list_via_detection(g: Graph, detector: Detector) -> ListingResult:
    """List up to m triangles using only a per-edge triangle detector.

    Works on a 3-partite blow-up whose first-second edges are the edges
    u < v, each once, from u in part 0 to v in part 1, and repeatedly
    halves each component's third part, keeping only first-second edges
    the detector confirms; when every component's third part is a
    single vertex, the surviving edges name triangles.
    """
    n, m = g.n, g.m
    if not m:
        return ListingResult((), COMPLETE)

    # Connected components by minimum-label propagation with pointer
    # jumping, numbered in order of their smallest vertex.
    label = np.arange(n + 1)
    while True:
        low = label.copy()
        np.minimum.at(low, g.eu, label[g.ev])
        np.minimum.at(low, g.ev, label[g.eu])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    comp = ranks(label)[1] - 1  # label[0] = 0 is no vertex

    # A component is its third part, (comp3, third) sorted by component
    # then vertex, and its first-second edges, (comp12, first, second)
    # sorted by component then edge: at first every edge (u, v), u < v,
    # with the component's vertices as the third part.
    third = np.argsort(comp[1:], kind="stable") + 1
    comp3 = comp[third]
    order = np.argsort(comp[g.eu], kind="stable")
    comp12, first, second = comp[g.eu[order]], g.eu[order], g.ev[order]

    truncated = False
    while third.size > comp3[-1] + 1:  # some third part has two vertices
        # Split every third part of size s > 1 into its first ceil(s / 2)
        # vertices and the rest; the two halves take consecutive
        # component numbers and each gets a copy of the edges.
        size = np.bincount(comp3)
        split = (size > 1).astype(np.int64)
        base = np.cumsum(1 + split) - 1 - split
        rank = np.arange(third.size) - (np.cumsum(size) - size)[comp3]
        comp3 = base[comp3] + (rank >= (size[comp3] + 1) // 2)
        copy = np.repeat(np.arange(comp12.size), 1 + split[comp12])
        half = np.arange(copy.size) - np.searchsorted(copy, copy)  # 0 or 1
        comp12 = base[comp12[copy]] + half
        order = np.argsort(comp12, kind="stable")
        comp12, first, second = comp12[order], first[copy[order]], second[copy[order]]

        graph, _, a, b = _blowup(g, comp12, first, second, comp3, third)
        detected = detector(graph)
        keep = np.fromiter(map(detected.get, zip(a.tolist(), b.tolist()), repeat(False)), bool, a.size)
        comp12, first, second = comp12[keep], first[keep], second[keep]
        if comp12.size > 3 * m:
            # drop the lexicographically last edges, by component then edge
            truncated = True
            comp12, first, second = comp12[: 3 * m], first[: 3 * m], second[: 3 * m]
        if not comp12.size:
            break
        # drop components left without edges and renumber the rest
        alive = np.zeros(comp3[-1] + 1, dtype=bool)
        alive[comp12] = True
        number = np.cumsum(alive) - 1
        comp12 = number[comp12]
        third, comp3 = third[alive[comp3]], number[comp3[alive[comp3]]]

    # every third part is one vertex w; a surviving edge (u, v) of its
    # component names the triangle {u, v, w}
    tris = np.stack((first, second, third[comp12]), axis=1)
    # keep the triples whose three pairs are edges of g, in case the
    # detector confirmed an edge no triangle goes through
    listed = _canonical(tris[_is_triangle(g, tris)])
    # One triangle can survive through up to three edge slots, one per
    # third vertex, so the slot cap of 3m keeps at least m of them but
    # does not by itself bound the distinct output; trim to m.
    truncated = truncated or len(listed) > m
    return ListingResult(listed[:m], TRUNCATED if truncated else COMPLETE)


# ---------------------------------------------------------------------------
# Detection from listing


# The most blow-up edges that one lister call of detect_via_listing takes.
# Chosen by a sweep of detection with the baseline lister, seed 1, on
# graphs of generator seeds 7, 102 and 121; the median of three best-of-9
# interleaved runs on a 2-vCPU VM, in ms:
#
#   graph (m)             unpacked   2^12   2^14   2^16
#   gnp(150, 0.1) (1091)       183    154    152    159
#   powerlaw(300, 0.007) (389) 100     73     69     69
#   powerlaw(30, 0.15) (67)     39   11.7   11.6   10.9
#
# Packing saves per-call overhead, but the copies of one call do not see
# the edges found by each other, so a larger call repeats their work.
BLOWUP_BUDGET = 1 << 14

# listing-based detection gives up after this many unverified attempts
DETECT_RESTARTS = 20


def detect_via_listing(
    g: Graph,
    lister: Optional[Lister] = None,
    rng: Optional[RandomSource] = None,
) -> dict[Edge, bool]:
    """Per-edge triangle detection using only a bounded lister.

    Runs phases of increasing sampling rate on the third part of a
    tripartite blow-up, removing first-second edges as soon as some
    sampled subgraph lists a triangle through them.  Within a phase,
    consecutive samples' blow-ups share one lister call while their
    sizes sum to at most ``BLOWUP_BUDGET`` edges (``core.pack``); every
    copy in a call holds the edges remaining when the call is made.  A
    final capacity-one verification makes the answer exact or forces a
    restart with fresh randomness; ``DETECT_RESTARTS`` failed attempts
    raise ``RuntimeError``.
    """
    if lister is None:
        lister = baseline_list
    if rng is None:
        rng = RandomSource(0)
    n, m = g.n, g.m
    if not m:
        return {}
    capacity = 100 * m
    log_m = max(1, math.ceil(math.log2(m)))
    phases = list(range(int(math.log2(m)) if m > 1 else 0, -1, -1))
    deg = np.diff(g.indptr)
    none = np.zeros(0, dtype=np.int64)

    def listed(remaining: np.ndarray, thirds: list, cap: int) -> np.ndarray:
        """The edges that the lister finds a triangle through, in the
        blow-ups of the remaining ones with the given third parts, one
        copy per nonempty part, side by side in one lister call of
        capacity cap per copy.  Edge (u, v), u < v, goes from u in part 0
        to v in part 1."""
        d = remaining.nonzero()[0]
        thirds = [third for third in thirds if third.size]
        if not d.size or not thirds:
            return none
        copies = np.arange(len(thirds))
        graph, back, _, _ = _blowup(
            g,
            np.repeat(copies, d.size),
            np.tile(g.eu[d], copies.size),
            np.tile(g.ev[d], copies.size),
            np.repeat(copies, [third.size for third in thirds]),
            np.concatenate(thirds),
        )
        rows = lister(graph, cap * copies.size).rows
        # ids follow key order, so a triangle's two smallest ids, the
        # first two of its row, are its part-0 vertex u and part-1 vertex
        # v of one copy, keyed 3c(n + 1) + u and (3c + 1)(n + 1) + v
        ends = back[rows[:, :2] - 1] % (n + 1)
        return g.edge_index(ends[:, 0], ends[:, 1])

    for attempt in range(DETECT_RESTARTS):
        remaining = np.ones(m, dtype=bool)
        detected = np.zeros(m, dtype=bool)
        for s in phases:
            # row i holds sample i: each vertex with probability 2^-s
            drawn = rng.uniform((2 * log_m, n), "detect", attempt, s) < 2.0 ** (-s)
            samples = [np.flatnonzero(row) + 1 for row in drawn]
            # a sample's blow-up has at most the remaining edges plus two
            # joins per CSR slot of its third part; an empty one has none
            left = int(remaining.sum())
            sizes = [left + 2 * int(deg[third].sum()) if third.size else 0 for third in samples]
            for run in pack(sizes, BLOWUP_BUDGET):
                found = listed(remaining, [samples[i] for i in run], capacity)
                detected[found] = True
                remaining[found] = False

        if not listed(remaining, [np.arange(1, n + 1)], 1).size:
            return dict(zip(g.sorted_edges(), detected.tolist()))
    raise RuntimeError(f"detection failed to verify after {DETECT_RESTARTS} restarts")


# ---------------------------------------------------------------------------
# High-capacity randomized listing


def _induced(g: Graph, keep: np.ndarray):
    """Subgraph induced by the vertices v with keep[v] (a boolean mask
    over ids 0..n), with isolated vertices dropped; returns (graph or
    None, ``compact``'s array of old ids).  When it holds every edge,
    that is g itself with the identity array, since g has no isolated
    vertex."""
    inside = keep[g.eu] & keep[g.ev]
    if not inside.any():
        return None, None
    if inside.all():
        return g, np.arange(1, g.n + 1)
    return compact(np.stack((g.eu[inside], g.ev[inside]), axis=1))


def inner_listing(
    g: Graph,
    t: int,
    zeta: int = 128,
    rng: Optional[RandomSource] = None,
) -> ListingResult:
    """List up to t triangles by random coloring, exact when the graph
    has at most t of them (with high probability).

    Capacities at or below zeta * m go straight to the baseline lister.
    Otherwise: triangles through a vertex of degree above m^2/t are
    listed from those vertices' rows, each once, at its first such
    vertex by (degree, id), and the vertices removed; then 2 log2 m
    rounds assign one of t/m colors to each vertex and every color
    triple whose tripartite subgraph is small enough keeps its
    triangles, bounded by zeta * m^3/t^2 per triple.  With fewer than
    three colors no triple exists: no round runs, and the result is the
    heavy part's triangles, complete only if the light part has none.
    """
    if t <= 0:
        raise InputError("capacity must be positive")
    if zeta < 1:
        raise InputError("zeta must be >= 1")
    if rng is None:
        rng = RandomSource(0)
    m = g.m
    if not m:
        return ListingResult((), COMPLETE)
    if t <= zeta * m:
        return baseline_list(g, t)

    r = t // m
    deg_limit = m / r
    above = np.diff(g.indptr) > deg_limit
    key = _degree_key(g)
    owner = _owner(g)
    # a vertex above the limit pairs its neighbours below the limit, which
    # all come before it by (degree, id), and those after it: a triangle
    # is found once, at its first vertex above the limit
    slots = np.flatnonzero(above[owner] & (~above[g.indices] | (key[g.indices] > key[owner])))
    heavy = _wedge_rows(g, slots, owner, math.inf)

    light, back = _induced(g, ~above)
    if light is None:
        return ListingResult(heavy, COMPLETE)
    if np.diff(light.indptr).max() > deg_limit:
        raise RuntimeError("light part exceeds its degree bound")
    if r < 3:
        # no color triple exists, so no round could keep a light triangle
        return ListingResult(heavy, baseline_list(light, 0).status)

    q = m**3 / t**2
    cap = max(1, int(zeta * q))
    # The light graph's triangles, listed once in canonical order; a round
    # keeps each fitting color triple's first ``cap`` triangles in that
    # order.  ``kept`` marks the rows some round keeps.
    tris = baseline_list(light, light.m**2).rows
    kept = np.zeros(len(tris), dtype=bool)
    clean = True
    for rnd in range(math.ceil(2 * math.log2(max(2, m)))):
        # one color floor(u * r) in 0..r-1 per light vertex
        drawn = (rng.uniform(light.n, "inner", rnd) * r).astype(np.int64)
        # colors renumbered in order, indexed by vertex id; a color pair
        # (x, y), x < y, is keyed x * k + y
        color = np.concatenate(([0], ranks(drawn)[1]))
        k = light.n + 1
        cu, cv = np.sort(color[np.stack((light.eu, light.ev))], axis=0)
        pair, pair_edges = np.unique((cu * k + cv)[cu < cv], return_counts=True)
        # the triangles with three colors, by color triple, then in order
        c = np.sort(color[tris], axis=1)
        rainbow = np.flatnonzero((c[:, 0] < c[:, 1]) & (c[:, 1] < c[:, 2]))
        rainbow = rainbow[np.lexsort(c[rainbow].T[::-1])]
        c = c[rainbow]
        start = np.flatnonzero(_run_starts(c))
        triple, size = c[start], np.diff(np.append(start, rainbow.size))
        # every color pair of a triple is in ``pair``: its triangles' edges
        edges = sum(
            pair_edges[np.searchsorted(pair, triple[:, x] * k + triple[:, y])]
            for x, y in ((0, 1), (0, 2), (1, 2))
        )
        fits = edges <= zeta * q
        clean = clean and fits.all() and (size[fits] <= cap).all()
        keep = np.repeat(fits, size) & (np.arange(rainbow.size) - np.repeat(start, size) < cap)
        kept[rainbow[keep]] = True

    status = COMPLETE if clean else TRUNCATED
    return ListingResult(np.concatenate((heavy, back[tris[kept] - 1])), status)


def _main_listing(g: Graph, t: int, rng: RandomSource, zeta: int) -> np.ndarray:
    """One run: the colored lister at capacity 32t on vertex samples of
    rate 2^-s, s = 0 .. log2 m, until t triangles are found, as canonical
    rows.  A triangle of an induced subgraph is a triangle of g."""
    m = g.m
    collected = _canonical(())
    for s in range(int(math.log2(m)) + 1 if m > 1 else 1):
        keep = np.concatenate(([False], rng.uniform(g.n, "main", s) < 2.0 ** (-s)))
        sub, back = _induced(g, keep)
        if sub is None:
            continue
        found = inner_listing(sub, 32 * t, zeta=zeta, rng=rng.split("main-inner", s)).rows
        collected = _merge(collected, back[found - 1], g.n)  # back is increasing
        if len(collected) >= t:
            break
    return collected


def _listing(g: Graph, t: int, zeta: int, sources) -> ListingResult:
    """At 32t <= zeta * m, the exact baseline listing at capacity 32t.
    Otherwise the union of the runs seeded by ``sources``, until it holds
    t triangles or all T of them, T counted by AYZ."""
    if t <= 0:
        raise InputError("capacity must be positive")
    if zeta < 1:
        raise InputError("zeta must be >= 1")
    if 32 * t <= zeta * g.m:
        found = baseline_list(g, 32 * t).rows
        return ListingResult(found, COMPLETE if len(found) < t else TRUNCATED)
    total = int(ayz_counts(g).sum()) // 3
    collected = _canonical(())
    for source in sources:
        if len(collected) >= min(t, total):
            break
        collected = _merge(collected, _main_listing(g, t, source, zeta), g.n)
    if len(collected) >= t:
        return ListingResult(collected, TRUNCATED)
    return ListingResult(collected, COMPLETE if len(collected) == total else FAILED)


def main_listing(
    g: Graph,
    t: int,
    rng: Optional[RandomSource] = None,
    zeta: int = 128,
) -> ListingResult:
    """List at least t triangles (or all, if fewer exist) by running the
    colored lister on vertex samples of geometrically increasing rate.

    At 32t <= zeta * m this is the baseline lister at capacity 32t, which
    is exact.  Otherwise it is one Monte Carlo run.  How often a run
    lists every triangle depends on zeta and is not bounded here; at
    small zeta it may almost never do so.  The status is certified by the
    AYZ triangle count T: ``truncated-at-t`` with t or more triangles,
    ``complete`` with all T, and ``failed`` otherwise.
    main_listing_retry makes up to LIST_RETRIES runs and may still end
    ``failed``.
    """
    return _listing(g, t, zeta, [RandomSource(0) if rng is None else rng])


# the most runs main_listing_retry makes
LIST_RETRIES = 10


def main_listing_retry(
    g: Graph,
    t: int,
    rng: Optional[RandomSource] = None,
    zeta: int = 128,
) -> ListingResult:
    """main_listing, with up to LIST_RETRIES runs whose union is kept:
    retries stop once the union holds t triangles or all T of them, and
    the status follows main_listing's rule on the union."""
    if rng is None:
        rng = RandomSource(0)
    return _listing(g, t, zeta, (rng.split("retry", a) for a in range(LIST_RETRIES)))
