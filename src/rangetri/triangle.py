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
from typing import Callable, Optional

import numpy as np

from .core import (
    Edge,
    Graph,
    InputError,
    TriangleT,
    canonical_triangle,
    compact,
)
from .instrument import OpCounters


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
    """A set of canonical triangles plus how the run ended."""

    triangles: set[TriangleT]
    status: str

    def __post_init__(self):
        if self.status not in (COMPLETE, TRUNCATED, FAILED):
            raise InputError(f"bad listing status {self.status!r}")


# ---------------------------------------------------------------------------
# Heavy/light per-edge counting


# light wedges, or heavy-block cells, handled per numpy batch; bounds
# the scratch arrays' size
_WEDGE_CHUNK = 1 << 12


def ayz_counts(g: Graph, theta: Optional[int] = None) -> np.ndarray:
    """Per-edge triangle counts as an int64 array aligned with
    ``g.eu``/``g.ev``, split by the degree of the third vertex.

    Third vertices of degree <= theta are counted by wedge enumeration
    centered at them; the rest by intersecting the two endpoints' rows
    of the vertex-by-heavy adjacency block, at the m edges only.
    """
    m = g.m
    if theta is None:
        theta = max(1, math.isqrt(m) + (0 if math.isqrt(m) ** 2 == m else 1))
    if theta < 1:
        raise InputError("degree threshold must be >= 1")

    deg = np.diff(g.indptr)
    owner = np.repeat(np.arange(g.n + 1), deg)  # the vertex whose row holds each CSR slot
    counts = np.zeros(m, dtype=np.int64)

    # A light centre's wedges pair each slot of its row with every later
    # slot; rows are sorted, so a wedge is the edge key a * (n + 1) + b
    # with a < b, and it closes a triangle when that key is an edge's.
    slots = np.flatnonzero(deg[owner] <= theta)
    later = g.indptr[owner[slots] + 1] - slots - 1
    slots, later = slots[later > 0], later[later > 0]
    keys = g.eu * (g.n + 1) + g.ev
    done = np.cumsum(later)
    start = 0
    while start < slots.size:
        # slots[start:stop] make at most _WEDGE_CHUNK wedges, or one slot's
        limit = done[start] - later[start] + _WEDGE_CHUNK
        stop = max(start + 1, int(np.searchsorted(done, limit, "right")))
        k = later[start:stop]
        first = np.repeat(slots[start:stop], k)
        second = first + np.arange(first.size) - np.repeat(np.cumsum(k) - k, k) + 1
        # sorted needles make the search several times faster
        wedge = np.sort(g.indices[first] * (g.n + 1) + g.indices[second])
        at = np.searchsorted(keys, wedge)
        hit = keys[np.minimum(at, m - 1)] == wedge
        counts += np.bincount(at[hit], minlength=m)
        start = stop

    # block[v, h]: v is adjacent to the h-th heavy vertex; an edge's
    # heavy third vertices are where its endpoints' rows are both set
    heavy = np.flatnonzero(deg > theta)
    if heavy.size:
        column = np.zeros(g.n + 1, dtype=np.int64)
        column[heavy] = np.arange(heavy.size)
        hslots = np.flatnonzero(deg[owner] > theta)
        block = np.zeros((g.n + 1, heavy.size), dtype=bool)
        block[g.indices[hslots], column[owner[hslots]]] = True
        step = max(1, _WEDGE_CHUNK // heavy.size)  # edges per batch
        for lo in range(0, m, step):
            both = block[g.eu[lo : lo + step]] & block[g.ev[lo : lo + step]]
            counts[lo : lo + step] += np.count_nonzero(both, axis=1)
    return counts


def ayz_edge_counts(g: Graph, theta: Optional[int] = None) -> dict[Edge, int]:
    """``ayz_counts`` as a dict keyed by edge."""
    return dict(zip(g.sorted_edges(), ayz_counts(g, theta).tolist()))


# ---------------------------------------------------------------------------
# Baseline bounded lister


def baseline_list(g: Graph, cap: int) -> ListingResult:
    """Deterministic degree-ordered wedge enumeration, up to cap triangles."""
    if cap < 0:
        raise InputError("cap must be >= 0")
    ptr, nb, adj = g.indptr.tolist(), g.indices.tolist(), g.adj
    by_degree = sorted(range(1, g.n + 1), key=lambda v: (ptr[v + 1] - ptr[v], v))
    order = {v: i for i, v in enumerate(by_degree)}
    found: set[TriangleT] = set()
    for u, v in g.sorted_edges():
        if order[u] > order[v]:
            u, v = v, u
        for w in nb[ptr[u] : ptr[u + 1]]:
            if order[w] > order[v] and w in adj[v]:
                if len(found) >= cap:
                    return ListingResult(found, TRUNCATED)
                found.add(canonical_triangle(u, v, w))
    return ListingResult(found, COMPLETE)


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


def list_via_detection(g: Graph, detector: Detector) -> ListingResult:
    """List up to m triangles using only a per-edge triangle detector.

    Works on a 3-partite blow-up (six edge copies per input edge) and
    repeatedly halves each component's third part, keeping only
    first-second edges the detector confirms; when every component's
    third part is a single vertex, the surviving edges name triangles.
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
    comp = np.unique(label, return_inverse=True)[1] - 1  # label[0] = 0 is no vertex

    # A component is its third part, (comp3, third) sorted by component
    # then vertex, and its first-second edges, (comp12, first, second)
    # sorted by component then edge: at first both orientations of every
    # edge, with the component's vertices as the third part.
    third = np.argsort(comp[1:], kind="stable") + 1
    comp3 = comp[third]
    first = np.concatenate((g.eu, g.ev))
    second = np.concatenate((g.ev, g.eu))
    order = np.lexsort((second, first, comp[first]))
    comp12, first, second = comp[first[order]], first[order], second[order]

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
        keep = np.array([detected.get(e, False) for e in zip(a.tolist(), b.tolist())], dtype=bool)
        comp12, first, second = comp12[keep], first[keep], second[keep]
        if comp12.size > 6 * m:
            # drop the lexicographically last edges, by component then edge
            truncated = True
            comp12, first, second = comp12[: 6 * m], first[: 6 * m], second[: 6 * m]
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
    keys = g.eu * (n + 1) + g.ev
    want = tris[:, [0, 0, 1]] * (n + 1) + tris[:, [1, 2, 2]]
    real = (keys[np.minimum(np.searchsorted(keys, want), m - 1)] == want).all(axis=1)
    tris = np.unique(tris[real], axis=0)
    # One triangle can survive through up to six edge slots (three third
    # vertices times two orientations), so the slot cap of 6m does not by
    # itself bound the distinct output; trim deterministically to m.
    if len(tris) > m:
        tris, truncated = tris[:m], True
    return ListingResult(set(map(tuple, tris.tolist())), TRUNCATED if truncated else COMPLETE)


# ---------------------------------------------------------------------------
# Detection from listing


def detect_via_listing(
    g: Graph,
    lister: Optional[Lister] = None,
    rng: Optional[RandomSource] = None,
    restart_cap: int = 20,
) -> dict[Edge, bool]:
    """Per-edge triangle detection using only a bounded lister.

    Runs phases of decreasing sampling rate on the third part of a
    tripartite blow-up, removing first-second edges as soon as some
    sampled subgraph lists a triangle through them.  A final
    capacity-one verification makes the answer exact or forces a
    restart with fresh randomness.
    """
    if restart_cap < 1:
        raise InputError("restart cap must be >= 1")
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
    # The first-second edges are the directed edges u -> v, one per CSR
    # slot: u in part 0 and v in part 1.  slot_keys is sorted.
    owner = np.repeat(np.arange(n + 1), np.diff(g.indptr))
    slot_keys = owner * (n + 1) + g.indices
    none = np.zeros(0, dtype=np.int64)

    def listed(remaining: np.ndarray, third: np.ndarray, cap: int) -> np.ndarray:
        """Slots of the first-second edges that the lister finds a
        triangle through, in the blow-up of the remaining slots with
        the given third part."""
        slots = remaining.nonzero()[0]
        if not slots.size or not third.size:
            return none
        graph, back, _, _ = _blowup(
            g, np.zeros_like(slots), owner[slots], g.indices[slots], np.zeros_like(third), third
        )
        found = lister(graph, cap).triangles
        if not found:
            return none
        tris = np.array(list(found), dtype=np.int64)
        # ids follow key order, so a triangle's two smallest ids are its
        # part-0 vertex u, keyed u, and part-1 vertex v, keyed n + 1 + v
        ends = back[np.sort(tris, axis=1)[:, :2] - 1]
        return np.searchsorted(slot_keys, ends[:, 0] * (n + 1) + ends[:, 1] - (n + 1))

    for attempt in range(restart_cap):
        remaining = np.ones(2 * m, dtype=bool)
        detected = np.zeros(2 * m, dtype=bool)
        for s in phases:
            p = 2.0 ** (-s)
            for it in range(2 * log_m):
                stream = rng.stream("detect", attempt, s, it)
                sampled = np.array([stream.random() < p for _ in range(n)]).nonzero()[0] + 1
                found = listed(remaining, sampled, capacity)
                detected[found] = True
                remaining[found] = False

        if not listed(remaining, np.arange(1, n + 1), 1).size:
            at = np.searchsorted(slot_keys, g.eu * (n + 1) + g.ev)
            return dict(zip(g.sorted_edges(), detected[at].tolist()))
    raise RuntimeError(f"detection failed to verify after {restart_cap} restarts")


# ---------------------------------------------------------------------------
# High-capacity randomized listing


def _induced(g: Graph, keep: set[int]):
    """Induced subgraph with isolated vertices dropped; returns
    (graph or None, list with the original id of new vertex i at i - 1)."""
    kept = np.zeros(g.n + 1, dtype=bool)
    kept[list(keep)] = True
    inside = kept[g.eu] & kept[g.ev]
    if not inside.any():
        return None, []
    graph, back = compact(np.stack((g.eu[inside], g.ev[inside]), axis=1))
    return graph, back.tolist()


def inner_listing(
    g: Graph,
    t: int,
    zeta: int = 128,
    rng: Optional[RandomSource] = None,
    rounds_constant: int = 2,
) -> ListingResult:
    """List up to t triangles by random coloring, exact when the graph
    has at most t of them (with high probability).

    Capacities at or below zeta * m go straight to the baseline lister.
    Otherwise: vertices of degree above m^2/t are handled by a full edge
    scan and removed; then several rounds assign one of t/m colors to
    each vertex and every color triple whose tripartite subgraph is
    small enough is listed by the baseline, bounded by zeta * m^3/t^2
    triangles per triple.
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
    triangles: set[TriangleT] = set()

    heavy = sorted(v for v in range(1, g.n + 1) if g.degree(v) > deg_limit)
    removed: set[int] = set()
    for v in heavy:
        for u, w in g.sorted_edges():
            if v in (u, w) or u in removed or w in removed:
                continue
            if u in g.adj[v] and w in g.adj[v]:
                triangles.add(canonical_triangle(v, u, w))
        removed.add(v)

    light, back = _induced(g, {v for v in range(1, g.n + 1) if v not in removed})
    if light is None:
        return ListingResult(triangles, COMPLETE)
    if any(light.degree(v) > deg_limit for v in range(1, light.n + 1)):
        raise RuntimeError("light part exceeds its degree bound")

    q = m**3 / t**2
    cap = max(1, int(zeta * q))
    rounds = max(1, math.ceil(rounds_constant * math.log2(max(2, m))))
    clean = True
    for rnd in range(rounds):
        stream = rng.stream("inner", rnd)
        colors = {v: stream.randrange(r) for v in range(1, light.n + 1)}

        # Group triangles of the light graph by their color triple; this
        # matches running the baseline on every color-triple subgraph
        # (triples without triangles contribute nothing either way) but
        # skips the empty ones.
        edge_count: dict[tuple[int, int], int] = {}
        for u, v in light.edges:
            cu, cv = colors[u], colors[v]
            if cu != cv:
                key = (min(cu, cv), max(cu, cv))
                edge_count[key] = edge_count.get(key, 0) + 1
        by_triple: dict[tuple[int, int, int], list[TriangleT]] = {}
        for tri in sorted(baseline_list(light, light.m**2).triangles):
            cs = sorted({colors[x] for x in tri})
            if len(cs) == 3:
                by_triple.setdefault(tuple(cs), []).append(tri)
        for (c1, c2, c3), tris in sorted(by_triple.items()):
            total_edges = (
                edge_count.get((c1, c2), 0)
                + edge_count.get((c1, c3), 0)
                + edge_count.get((c2, c3), 0)
            )
            if total_edges > zeta * q:
                clean = False
                continue
            if len(tris) > cap:
                clean = False
                tris = tris[:cap]
            for tri in tris:
                triangles.add(canonical_triangle(*(back[x - 1] for x in tri)))

    status = COMPLETE if clean else TRUNCATED
    return ListingResult(triangles, status)


def main_listing(
    g: Graph,
    t: int,
    rng: Optional[RandomSource] = None,
    zeta: int = 128,
    counters: Optional[OpCounters] = None,
) -> ListingResult:
    """List at least t triangles (or all, if fewer exist) by running the
    colored lister on vertex samples of geometrically increasing rate.

    Monte Carlo: a single run succeeds with probability at least 1/2;
    use main_listing_retry to amplify.
    """
    if t <= 0:
        raise InputError("capacity must be positive")
    if rng is None:
        rng = RandomSource(0)
    m = g.m
    collected: set[TriangleT] = set()
    for s in range(int(math.log2(m)) + 1 if m > 1 else 1):
        p = 2.0 ** (-s)
        stream = rng.stream("main", s)
        keep = {v for v in range(1, g.n + 1) if stream.random() < p}
        sub, back = _induced(g, keep)
        if sub is None:
            continue
        if counters is not None:
            counters.inner_calls += 1
        result = inner_listing(sub, 32 * t, zeta=zeta, rng=rng.split("main-inner", s))
        for tri in result.triangles:
            a, b, c = (back[x - 1] for x in tri)
            if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
                collected.add(canonical_triangle(a, b, c))
        if len(collected) >= t:
            return ListingResult(collected, TRUNCATED)
    return ListingResult(collected, COMPLETE if len(collected) < t else TRUNCATED)


def main_listing_retry(
    g: Graph,
    t: int,
    rng: Optional[RandomSource] = None,
    zeta: int = 128,
    retries: int = 10,
    counters: Optional[OpCounters] = None,
) -> ListingResult:
    """Union of repeated main_listing runs until t triangles are found
    or the retry budget is spent."""
    if retries < 1:
        raise InputError("retries must be >= 1")
    if rng is None:
        rng = RandomSource(0)
    collected: set[TriangleT] = set()
    status = COMPLETE
    for attempt in range(retries):
        result = main_listing(g, t, rng.split("retry", attempt), zeta=zeta, counters=counters)
        collected |= result.triangles
        status = result.status
        if len(collected) >= t:
            return ListingResult(collected, TRUNCATED)
    return ListingResult(collected, status)
