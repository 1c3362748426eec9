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
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .core import Edge, Graph, InputError, TriangleT, compact, pack, ranks


def _derive_seed(seed: int, tags: tuple) -> int:
    payload = repr((seed,) + tags).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class RandomSource:
    """Deterministic randomness carrier.

    ``stream(*tags)`` returns an independent ``random.Random`` whose
    state depends only on (seed, tags), so parallel and serial
    executions that split by the same tags agree exactly.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed)

    def split(self, *tags) -> "RandomSource":
        return RandomSource(_derive_seed(self.seed, tags))

    def stream(self, *tags):
        import random

        return random.Random(_derive_seed(self.seed, tags))

    def __repr__(self) -> str:
        return f"RandomSource({self.seed})"


COMPLETE = "complete"
TRUNCATED = "truncated-at-t"
FAILED = "failed"


@dataclass
class ListingResult:
    """A set of canonical triangles plus how the run ended.

    ``complete``: the set is every triangle of the graph.  The main
    listers check this against the AYZ count; inner_listing's colored
    path says it when no color triple was cut, which is Monte Carlo.
    ``truncated-at-t``: the lister stopped at its capacity, so more
    triangles may exist; the main listers hold at least t.
    ``failed``: the main listers' runs ended with fewer than t triangles
    and fewer than the graph holds.
    """

    triangles: set[TriangleT]
    status: str

    def __post_init__(self):
        if self.status not in (COMPLETE, TRUNCATED, FAILED):
            raise InputError(f"bad listing status {self.status!r}")


# ---------------------------------------------------------------------------
# Heavy/light per-edge counting


# light-centre wedges, or heavy-product cells, handled per numpy batch;
# bounds the scratch arrays' size
_WEDGE_CHUNK = 1 << 12


def _wedge_chunks(g: Graph, slots: np.ndarray, owner: np.ndarray, firsts=None):
    """The wedge kernel: yield, a chunk at a time, (first, second, edge)
    int64 arrays with one entry per pair of positions p < q of ``slots``
    in one row whose two neighbours are joined by the edge at position
    ``edge``.  ``slots`` is grouped by row, rows ascending, and
    ``owner[s]`` is the vertex whose row holds slot s.  Pairs go by
    first position, whole, in the order of ``firsts`` (default: all in
    order), so a caller may stop early."""
    row, nb = owner[slots], g.indices[slots]
    firsts = np.arange(slots.size) if firsts is None else firsts
    row_end = np.cumsum(np.bincount(row, minlength=g.n + 1))  # row v ends before row_end[v]
    later = (row_end[row] - np.arange(slots.size) - 1)[firsts]
    done = np.cumsum(later)
    start = 0
    while start < firsts.size:
        # firsts[start:stop] make at most _WEDGE_CHUNK pairs, or one's
        limit = done[start] - later[start] + _WEDGE_CHUNK
        stop = max(start + 1, int(np.searchsorted(done, limit, "right")))
        k = later[start:stop]
        i = np.repeat(firsts[start:stop], k)
        j = i + np.arange(i.size) - np.repeat(np.cumsum(k) - k, k) + 1
        edge = g.edge_index(nb[i], nb[j])
        hit = edge >= 0
        yield slots[i[hit]], slots[j[hit]], edge[hit]
        start = stop


def _closed_wedges(g: Graph, slots: np.ndarray, owner: np.ndarray):
    """All of ``_wedge_chunks``' pairs, as three arrays."""
    empty = (slots[:0],) * 3
    return tuple(map(np.concatenate, zip(empty, *_wedge_chunks(g, slots, owner))))


def _owner(g: Graph) -> np.ndarray:
    """The vertex whose row holds each CSR slot."""
    return np.repeat(np.arange(g.n + 1), np.diff(g.indptr))


def _degree_key(g: Graph) -> np.ndarray:
    """Each vertex's (degree, id) as one int64 key, deg * (n + 1) + id:
    the order compact-forward orients every edge by."""
    return np.diff(g.indptr) * (g.n + 1) + np.arange(g.n + 1)


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
    its heavy third vertices; the product is computed in row chunks, in
    float32 while that is exact.  A light row pairs at most theta
    neighbours, so that is at most m * theta wedges plus one product on
    H <= 2m / theta vertices.
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
        u, v = rank[g.eu[both]], rank[g.ev[both]]  # u < v, u ascending
        # 0/1 entries sum exactly in float32 while every sum is < 2^24
        a = np.zeros((size, size), dtype=np.float32 if size < 1 << 24 else np.float64)
        a[u, v] = a[v, u] = 1
        rows = max(1, _WEDGE_CHUNK // size)
        cuts = np.searchsorted(u, np.arange(0, size + rows, rows))
        for lo, i, j in zip(range(0, size, rows), cuts[:-1], cuts[1:]):
            if i < j:
                # columns from lo on: every edge here has v > u >= lo
                block = a[lo : lo + rows] @ a[:, lo:]
                counts[both[i:j]] += block[u[i:j] - lo, v[i:j] - lo].astype(np.int64)
    return counts


def ayz_edge_counts(g: Graph, theta: Optional[int] = None) -> dict[Edge, int]:
    """``ayz_counts`` as a dict keyed by edge."""
    return dict(zip(g.sorted_edges(), ayz_counts(g, theta).tolist()))


# ---------------------------------------------------------------------------
# Baseline bounded lister


def _triangle_set(tris: np.ndarray) -> set[TriangleT]:
    """The rows of a (k, 3) int array as a set of canonical triangles."""
    return set(map(tuple, np.sort(tris, axis=1).tolist()))


def baseline_list(g: Graph, cap: int) -> ListingResult:
    """Deterministic degree-ordered listing (compact-forward), up to cap
    triangles.

    Vertices are ranked by (degree, id), and each triangle is the closed
    wedge at its lowest-ranked vertex u between two neighbours ranked
    above u.  Triangles are taken in order of the edge from u to the
    middle-ranked vertex v, then of the id of the third vertex w; past
    cap of them the result is truncated.
    """
    if cap < 0:
        raise InputError("cap must be >= 0")
    key = _degree_key(g)
    owner = _owner(g)
    # forward slots by row then rank, so a pair in u's row is (u -> v,
    # u -> w) with v middle-ranked; one per edge, at its lower-ranked end
    forward = np.flatnonzero(key[g.indices] > key[owner])
    forward = forward[np.lexsort((key[g.indices[forward]], owner[forward]))]
    # take them in edge order, and stop once cap + 1 triangles are found
    firsts = np.argsort(g.edge_index(owner[forward], g.indices[forward]))
    found, total = [np.empty((0, 3), dtype=np.int64)], 0
    for first, second, _ in _wedge_chunks(g, forward, owner, firsts):
        u, v, w = owner[first], g.indices[first], g.indices[second]
        # a chunk holds whole edges, so its hits follow the ones before
        found.append(np.column_stack((u, v, w))[np.lexsort((w, g.edge_index(u, v)))])
        total += first.size
        if total > cap:
            break
    status = COMPLETE if total <= cap else TRUNCATED
    return ListingResult(_triangle_set(np.concatenate(found)[:cap]), status)


# a lister returns at most cap canonical triangles of the graph; a
# detector maps each (u, v) edge, u < v, to whether a triangle uses it
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
        return ListingResult(set(), COMPLETE)

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
    tris = np.sort(np.stack((first, second, third[comp12]), axis=1), axis=1)
    # keep the triples whose three pairs are edges of g, in case the
    # detector confirmed an edge no triangle goes through
    tris = np.unique(tris[_is_triangle(g, tris)], axis=0)
    # One triangle can survive through up to three edge slots, one per
    # third vertex, so the slot cap of 3m keeps at least m of them but
    # does not by itself bound the distinct output; trim to m.
    if len(tris) > m:
        tris, truncated = tris[:m], True
    return ListingResult(set(map(tuple, tris.tolist())), TRUNCATED if truncated else COMPLETE)


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
        found = lister(graph, cap * copies.size).triangles
        if not found:
            return none
        tris = np.array(list(found), dtype=np.int64)
        # ids follow key order, so a triangle's two smallest ids are its
        # part-0 vertex u and part-1 vertex v of one copy, keyed
        # 3c(n + 1) + u and (3c + 1)(n + 1) + v, with u < v
        ends = back[np.sort(tris, axis=1)[:, :2] - 1] % (n + 1)
        return g.edge_index(ends[:, 0], ends[:, 1])

    for attempt in range(DETECT_RESTARTS):
        remaining = np.ones(m, dtype=bool)
        detected = np.zeros(m, dtype=bool)
        for s in phases:
            p = 2.0 ** (-s)
            samples = []
            for it in range(2 * log_m):
                stream = rng.stream("detect", attempt, s, it)
                samples.append(np.array([stream.random() < p for _ in range(n)]).nonzero()[0] + 1)
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
    listed from those vertices' rows, and the vertices removed; then
    2 log2 m rounds assign one of t/m colors to each vertex and every
    color triple whose tripartite subgraph is small enough keeps its
    triangles, bounded by zeta * m^3/t^2 per triple.
    """
    if t <= 0:
        raise InputError("capacity must be positive")
    if zeta < 1:
        raise InputError("zeta must be >= 1")
    if rng is None:
        rng = RandomSource(0)
    m = g.m
    if not m:
        return ListingResult(set(), COMPLETE)
    if t <= zeta * m:
        return baseline_list(g, t)

    r = t // m
    deg_limit = m / r
    deg = np.diff(g.indptr)
    owner = _owner(g)
    first, second, _ = _closed_wedges(g, np.flatnonzero(deg[owner] > deg_limit), owner)
    triangles = _triangle_set(np.column_stack((owner[first], g.indices[first], g.indices[second])))

    light, back = _induced(g, deg <= deg_limit)
    if light is None:
        return ListingResult(triangles, COMPLETE)
    if np.diff(light.indptr).max() > deg_limit:
        raise RuntimeError("light part exceeds its degree bound")

    q = m**3 / t**2
    cap = max(1, int(zeta * q))
    # The light graph's triangles, listed once; a color triple keeps its
    # triangles in this (sorted) order, which matches running the
    # baseline on every color-triple subgraph but skips the empty ones.
    tris = np.array(sorted(baseline_list(light, light.m**2).triangles), dtype=np.int64)
    tris = tris.reshape(-1, 3)
    clean = True
    for rnd in range(math.ceil(2 * math.log2(max(2, m)))):
        stream = rng.stream("inner", rnd)
        drawn = [stream.randrange(r) for _ in range(light.n)]
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
        triple, start, size = np.unique(c[rainbow], axis=0, return_index=True, return_counts=True)
        # every color pair of a triple is in ``pair``: its triangles' edges
        edges = sum(
            pair_edges[np.searchsorted(pair, triple[:, x] * k + triple[:, y])]
            for x, y in ((0, 1), (0, 2), (1, 2))
        )
        fits = edges <= zeta * q
        clean = clean and fits.all() and (size[fits] <= cap).all()
        keep = np.repeat(fits, size) & (np.arange(rainbow.size) - np.repeat(start, size) < cap)
        triangles |= _triangle_set(back[tris[rainbow[keep]] - 1])

    status = COMPLETE if clean else TRUNCATED
    return ListingResult(triangles, status)


def _main_listing(g: Graph, t: int, rng: RandomSource, zeta: int) -> set[TriangleT]:
    """One run: the colored lister at capacity 32t on vertex samples of
    rate 2^-s, s = 0 .. log2 m, until t triangles are found.  A triangle
    of an induced subgraph is a triangle of g."""
    m = g.m
    collected: set[TriangleT] = set()
    for s in range(int(math.log2(m)) + 1 if m > 1 else 1):
        p = 2.0 ** (-s)
        stream = rng.stream("main", s)
        keep = np.array([False] + [stream.random() < p for _ in range(g.n)])
        sub, back = _induced(g, keep)
        if sub is None:
            continue
        found = inner_listing(sub, 32 * t, zeta=zeta, rng=rng.split("main-inner", s)).triangles
        collected |= _triangle_set(back[np.array(list(found), dtype=np.int64).reshape(-1, 3) - 1])
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
        found = baseline_list(g, 32 * t).triangles
        return ListingResult(found, COMPLETE if len(found) < t else TRUNCATED)
    total = int(ayz_counts(g).sum()) // 3
    collected: set[TriangleT] = set()
    for source in sources:
        if len(collected) >= min(t, total):
            break
        collected |= _main_listing(g, t, source, zeta)
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
    is exact.  Otherwise it is one Monte Carlo run, which succeeds with
    probability at least 1/2, and its status is checked against the AYZ
    triangle count T: ``truncated-at-t`` with t or more triangles,
    ``complete`` with all T, and ``failed`` otherwise.  main_listing_retry
    amplifies it.
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
