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
from typing import Callable, Optional, Sequence

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


Lister = Callable[[Graph, int], ListingResult]
Detector = Callable[[Graph], dict[Edge, bool]]


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
    t_cap = 6 * m

    # Component state: third-part vertex set, first-second edges as
    # ordered original pairs (u plays part 1, v part 2), and the
    # surviving original edges feeding part-3 connections.
    comp_vertices = _connected_components(g)
    components: list[dict] = []
    for verts in comp_vertices:
        e12 = set()
        for u, v in g.sorted_edges():
            if u in verts:
                e12.add((u, v))
                e12.add((v, u))
        components.append({"v3": set(verts), "e12": e12})

    truncated = False
    iterations = 0
    max_iter = max(1, math.ceil(math.log2(m))) + 1
    while any(len(c["v3"]) > 1 for c in components):
        iterations += 1
        if iterations > max_iter:
            raise RuntimeError("third-part halving failed to terminate")

        new_components: list[dict] = []
        for c in components:
            v3 = sorted(c["v3"])
            if len(v3) <= 1:
                new_components.append(c)
                continue
            half = (len(v3) + 1) // 2
            for part in (v3[:half], v3[half:]):
                new_components.append({"v3": set(part), "e12": set(c["e12"])})
        components = new_components

        graph, edge_key = _blowup_graph(g, components)
        if graph is None:
            break
        detected = detector(graph)
        for k, c in enumerate(components):
            c["e12"] = {
                pair
                for pair in c["e12"]
                if detected.get(edge_key[(k, pair)], False)
            }
        components = [c for c in components if c["e12"]]

        total = sum(len(c["e12"]) for c in components)
        if total > t_cap:
            truncated = True
            keep = total - t_cap
            # Remove the lexicographically last edges, by component order
            # then edge order, until the cap is met.
            excess = keep
            for c in reversed(components):
                drop = sorted(c["e12"])[max(0, len(c["e12"]) - excess):]
                c["e12"] -= set(drop)
                excess -= len(drop)
                if excess <= 0:
                    break
            components = [c for c in components if c["e12"]]

    triangles: set[TriangleT] = set()
    for c in components:
        if len(c["v3"]) != 1 or not c["e12"]:
            continue
        (w,) = c["v3"]
        for u, v in c["e12"]:
            if w not in (u, v) and g.has_edge(u, w) and g.has_edge(v, w):
                triangles.add(canonical_triangle(u, v, w))
    # One triangle can survive through up to six edge slots (three third
    # vertices times two orientations), so the slot cap of 6m does not by
    # itself bound the distinct output; trim deterministically to m.
    if len(triangles) > m:
        triangles = set(sorted(triangles)[:m])
        truncated = True
    return ListingResult(triangles, TRUNCATED if truncated else COMPLETE)


def _connected_components(g: Graph) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def _blowup_graph(g: Graph, components: list[dict]):
    """One simple graph holding every component's blow-up side by side.

    Returns (graph, edge_key) where edge_key maps (component index,
    ordered first-second pair) to the graph edge carrying it; None when
    there is nothing to detect.
    """
    ids: dict[tuple, int] = {}

    def vid(comp_tag, part, orig):
        key = (comp_tag, part, orig)
        if key not in ids:
            ids[key] = len(ids) + 1
        return ids[key]

    edges: set[Edge] = set()
    edge_key: dict[tuple, Edge] = {}
    for tag, c in enumerate(components):
        part12 = {x for pair in c["e12"] for x in pair}
        for u, v in c["e12"]:
            a, b = vid(tag, 1, u), vid(tag, 2, v)
            e = (min(a, b), max(a, b))
            edges.add(e)
            edge_key[(tag, (u, v))] = e
        for w in c["v3"]:
            for x in g.adj[w]:
                if x in part12:
                    for part in (1, 2):
                        a, b = vid(tag, part, x), vid(tag, 3, w)
                        edges.add((min(a, b), max(a, b)))
    if not edges:
        return None, {}
    # ids were assigned in edge order, so every id is used except
    # possibly part-3 vertices with no surviving neighbors.
    graph, back = compact(list(edges))
    # compact keeps the order of ids, so each (min, max) key stays sorted
    ends = np.searchsorted(back, list(edge_key.values())) + 1
    return graph, dict(zip(edge_key, map(tuple, ends.tolist())))


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

    for attempt in range(restart_cap):
        remaining: set[Edge] = set()
        for u, v in g.edges:
            remaining.add((u, v + n))
            remaining.add((v, u + n))
        detected: set[Edge] = set()

        for s in phases:
            p = 2.0 ** (-s)
            for it in range(2 * log_m):
                stream = rng.stream("detect", attempt, s, it)
                sampled = [w for w in range(1, n + 1) if stream.random() < p]
                found = _list_blowup(g, remaining, sampled, lister, capacity)
                for e12 in found:
                    if e12 in remaining:
                        remaining.discard(e12)
                        detected.add(e12)

        leftovers = _list_blowup(g, remaining, list(range(1, n + 1)), lister, 1)
        if not leftovers:
            return {(u, v): (u, v + n) in detected for u, v in g.edges}
    raise RuntimeError(f"detection failed to verify after {restart_cap} restarts")


def _list_blowup(
    g: Graph,
    remaining: set[Edge],
    sampled_v3: Sequence[int],
    lister: Lister,
    cap: int,
) -> set[Edge]:
    """List triangles of the blow-up restricted to the sampled third
    part and report which first-second edges they go through.

    Blow-up ids: v itself in part 1, v + n in part 2, v + 2n in part 3.
    """
    n = g.n
    if not remaining or not sampled_v3:
        return set()
    edges: set[Edge] = set(remaining)
    part12 = {x for e in remaining for x in e}
    for w in sampled_v3:
        for x in g.adj[w]:
            if x in part12:
                edges.add((x, w + 2 * n))
            if x + n in part12:
                edges.add((x + n, w + 2 * n))
    graph, back = compact(list(edges))
    back = back.tolist()
    result = lister(graph, cap)
    hits: set[Edge] = set()
    for tri in result.triangles:
        orig = sorted(back[x - 1] for x in tri)
        pair = [x for x in orig if x <= 2 * n]
        if len(pair) == 2:
            hits.add((min(pair), max(pair)) if pair[0] <= n else (pair[1], pair[0]))
    return hits


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
