"""Direct triangle solvers and the randomized listing/detection machinery."""

import collections
import math
import random
import sys

import numpy as np
import pytest

from conftest import complete_graph, cycle_graph, path_graph, rand_graph
from rangetri.core import (
    Graph,
    InputError,
    compact,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_triangle_list,
)
from rangetri import gen, triangle
from rangetri.triangle import (
    COMPLETE,
    FAILED,
    LIST_RETRIES,
    TRUNCATED,
    ListingResult,
    RandomSource,
    ayz_counts,
    ayz_edge_counts,
    baseline_list,
    default_theta,
    detect_via_listing,
    inner_listing,
    list_via_detection,
    main_listing,
    main_listing_retry,
)


class TestRandomSource:
    def test_deterministic(self):
        a = RandomSource(7).uniform(5, "x", 1)
        b = RandomSource(7).uniform(5, "x", 1)
        assert a.dtype == np.float64 and np.array_equal(a, b)
        assert ((a >= 0) & (a < 1)).all()
        assert RandomSource(7).split("a").seed == RandomSource(7).split("a").seed

    def test_tags_independent(self):
        assert RandomSource(7).uniform(1, "x")[0] != RandomSource(7).uniform(1, "y")[0]
        assert RandomSource(7).split("a").seed != RandomSource(8).split("a").seed

    def test_draws_are_pinned(self):
        # every seeded sample and coloring reads these streams: a numpy
        # whose PCG64 or Generator.random output moved fails here first
        assert RandomSource(7).uniform(3, "x", 1).tolist() == [
            0.6233264521160633, 0.5087895670948965, 0.22442672794026164
        ]
        assert RandomSource(0).uniform((2, 2), "inner", 0).tolist() == [
            [0.11603406865826527, 0.0034239058752264517],
            [0.8283604748429167, 0.8421586366475332],
        ]
        assert RandomSource(7).split("a").seed == 12627657965245738491


class TestHeavyLightCounts:
    def test_examples(self):
        assert set(ayz_edge_counts(complete_graph(4)).values()) == {2}
        assert set(ayz_edge_counts(cycle_graph(3)).values()) == {1}
        assert set(ayz_edge_counts(path_graph(4)).values()) == {0}

    def test_theta_grid_matches_oracle(self):
        rng = random.Random(0)
        for _ in range(25):
            g = rand_graph(rng, rng.randint(4, 18), 0.4)
            expected = oracle_edge_triangle_counts(g)
            for theta in (1, 2, 4, g.n):
                assert ayz_edge_counts(g, theta=theta) == expected

        single_edge = Graph(2, [(1, 2)])
        star = Graph(9, [(1, v) for v in range(2, 10)])
        many_wedges = gen.gen_graph("gnp", 120, 0.3, seed=2)
        degrees = [many_wedges.degree(v) for v in range(1, many_wedges.n + 1)]
        assert sum(d * (d - 1) // 2 for d in degrees) > triangle._WEDGE_CHUNK
        shapes = [
            single_edge, star, complete_graph(8), gen.gen_graph("powerlaw", 60, 0.1, seed=3),
            many_wedges,
        ]
        for g in shapes:
            expected = oracle_edge_triangle_counts(g)
            expected = [expected[e] for e in g.sorted_edges()]
            max_degree = max(g.degree(v) for v in range(1, g.n + 1))
            # all heavy but leaves, the default mixed split, all light
            for theta in (1, None, max_degree):
                counts = ayz_counts(g, theta=theta)
                assert counts.dtype == np.int64 and counts.shape == (g.m,)
                assert counts.tolist() == expected

    def test_heavy_product_matches_oracle(self):
        g = gen.gen_graph("gnp", 120, 0.3, seed=2)
        heavy = np.diff(g.indptr) > default_theta(g.m)
        # the default split leaves edges with both ends heavy, which the
        # H x H product counts
        assert np.count_nonzero(heavy[g.eu] & heavy[g.ev]) > 0
        expected = oracle_edge_triangle_counts(g)
        for theta in (1, None):
            assert ayz_edge_counts(g, theta=theta) == expected

    def test_default_theta_is_exact_ceiling_cube_root(self):
        assert [default_theta(m) for m in (0, 1, 8, 27, 64, 10**6)] == [1, 1, 2, 3, 4, 100]
        for k in (1, 2, 3, 10, 1000, 10**6):
            assert default_theta(k**3 + 1) == k + 1
            assert default_theta(k**3) == k


def with_leaves(edges, hubs, leaves):
    """The graph of ``edges`` plus ``leaves`` pendant vertices at each
    hub, numbered after every vertex of ``edges``."""
    edges = list(edges)
    n = max(max(e) for e in edges)
    for h in hubs:
        edges += [(h, n + i) for i in range(1, leaves + 1)]
        n += leaves
    return Graph(n, edges)


def circulant(n, offsets):
    """The graph on 1..n joining i and i + d (mod n) for each offset d."""
    return Graph(n, {tuple(sorted((i + 1, (i + d) % n + 1))) for i in range(n) for d in offsets})


# AYZ finds a triangle with a light vertex at its lowest vertex by
# (degree, id), and an all-heavy one through the heavy product; at the
# default theta the named vertices are heavy and the rest light
ORIENTATION_CASES = {
    # triangle {1, 2, 3}: its light vertex 3 has the largest id but the
    # lowest degree, so the wedge at 3 pairs heavy 1 and 2
    "light_lowest_heavy_partners": (with_leaves([(1, 2), (1, 3), (2, 3)], [1, 2], 6), {1, 2}),
    # edge (1, 2) closes at heavy 3 and at light 4: product plus a wedge
    "heavy_heavy_light_third": (
        with_leaves([(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)], [1, 2, 3], 4),
        {1, 2, 3},
    ),
    # light 2 and 3 tie on degree: the wedge is at 2, pairing 3 and heavy 1
    "one_heavy_below": (with_leaves([(1, 2), (1, 3), (2, 3)], [1], 6), {1}),
    # the wedge is at light 1, pairing light 2 and heavy 3
    "one_heavy_above": (with_leaves([(1, 2), (1, 3), (2, 3)], [3], 6), {3}),
    "all_heavy": (with_leaves([(1, 2), (1, 3), (2, 3)], [1, 2, 3], 6), {1, 2, 3}),
    # every degree ties, so ids order the vertices; at theta >= the
    # largest degree every vertex is light
    "K4": (complete_graph(4), {1, 2, 3, 4}),
    "circulant_4_regular": (circulant(9, (1, 2)), set(range(1, 10))),
}


@pytest.mark.parametrize("case", list(ORIENTATION_CASES))
def test_ayz_lowest_vertex_rule(case):
    g, heavy = ORIENTATION_CASES[case]
    deg = np.diff(g.indptr)
    assert set(np.flatnonzero(deg > default_theta(g.m)).tolist()) == heavy
    expected = oracle_edge_triangle_counts(g)
    for theta in (1, 2, None, int(deg.max())):
        assert ayz_edge_counts(g, theta=theta) == expected


class WedgeRecording(Graph):
    """A Graph that counts the pairs the wedge kernel looks up."""

    wedge_pairs = 0

    def edge_index(self, u, v):
        if sys._getframe(1).f_code is triangle._wedge_chunks.__code__:
            self.wedge_pairs += np.size(u)
        return super().edge_index(u, v)


@pytest.mark.parametrize(
    "g",
    [gen.gen_graph("gnp", 120, 0.3, seed=2), gen.gen_graph("powerlaw", 400, 0.01, seed=3)],
    ids=["gnp", "powerlaw"],
)
def test_ayz_pairs_only_up_neighbours(g):
    # a light vertex pairs only its neighbours of higher (degree, id)
    deg = np.diff(g.indptr)
    key = deg * (g.n + 1) + np.arange(g.n + 1)
    up = np.zeros(g.n + 1, dtype=np.int64)
    np.add.at(up, np.where(key[g.eu] < key[g.ev], g.eu, g.ev), 1)
    expected = oracle_edge_triangle_counts(g)
    for theta in (1, 2, None, int(deg.max())):
        th = default_theta(g.m) if theta is None else theta
        h = WedgeRecording(g.n, np.stack((g.eu, g.ev), axis=1))
        assert ayz_edge_counts(h, theta=theta) == expected
        bound = int((up * (up - 1) // 2)[deg <= th].sum())
        assert h.wedge_pairs <= bound <= g.m * th
        assert h.wedge_pairs > 0 or bound == 0


class TestBaselineList:
    def test_examples(self):
        assert baseline_list(cycle_graph(3), 10).triangles == {(1, 2, 3)}
        full = baseline_list(complete_graph(5), 100)
        assert len(full.triangles) == 10 and full.status == COMPLETE

    def test_cap_truncates(self):
        res = baseline_list(complete_graph(5), 4)
        assert len(res.triangles) == 4 and res.status == TRUNCATED
        res0 = baseline_list(complete_graph(5), 0)
        assert res0.triangles == set() and res0.status == TRUNCATED

    def test_matches_oracle(self):
        rng = random.Random(1)
        for _ in range(40):
            g = rand_graph(rng, rng.randint(3, 20), 0.4)
            res = baseline_list(g, g.n**3)
            assert res.status == COMPLETE
            assert res.triangles == oracle_triangle_list(g)

    @pytest.mark.parametrize(
        "g",
        [
            Graph(0, []),
            Graph(9, [(1, v) for v in range(2, 10)]),
            complete_graph(6),
            gen.gen_graph("gnp", 30, 0.3, seed=1),
            gen.gen_graph("powerlaw", 60, 0.1, seed=3),
        ],
        ids=["empty", "star", "K6", "gnp", "powerlaw"],
    )
    def test_every_cap_matches_kernel_loop(self, g):
        total = len(oracle_triangle_list(g))
        for cap in range(total + 2):
            res = baseline_list(g, cap)
            assert (res.triangles, res.status) == kernel_loop_list(g, cap)

    @pytest.mark.parametrize("cap", [0, 5, 1000])
    def test_small_cap_stops_early(self, cap, monkeypatch):
        # K60 has 34 220 triangles and powerlaw(300, 0.1) 21 243; in K60
        # every degree ties, so only the power-law graph's rank order
        # differs from the id order.  A small cap must not collect them all
        seen = []

        def counting(*args):
            for chunk in kernel(*args):
                seen.append(chunk[0].size)
                yield chunk

        kernel = triangle._wedge_chunks
        monkeypatch.setattr(triangle, "_wedge_chunks", counting)
        for g in (complete_graph(60), gen.gen_graph("powerlaw", 300, 0.1, seed=1)):
            seen.clear()
            res = baseline_list(g, cap)
            assert (res.triangles, res.status) == kernel_loop_list(g, cap)
            assert sum(seen) <= cap + triangle._WEDGE_CHUNK

    def test_edge_lookups_only_in_kernel(self, monkeypatch):
        # baseline_list sorts nothing and looks up no edge of its own: its
        # one Graph.edge_index call per chunk is the kernel's
        g = gen.gen_graph("powerlaw", 300, 0.1, seed=1)
        callers, chunks = [], []

        class Recording(Graph):
            def edge_index(self, u, v):
                callers.append(sys._getframe(1).f_code)
                return super().edge_index(u, v)

        def counting(*args):
            for chunk in kernel(*args):
                chunks.append(chunk)
                yield chunk

        kernel = triangle._wedge_chunks
        monkeypatch.setattr(triangle, "_wedge_chunks", counting)
        h = Recording(g.n, np.stack((g.eu, g.ev), axis=1))
        for cap in (0, 5000, h.m**2):
            callers.clear()
            chunks.clear()
            baseline_list(h, cap)
            assert chunks and callers == [kernel.__code__] * len(chunks)


def kernel_loop_list(g: Graph, cap: int):
    """Reference for baseline_list: for each vertex u in id order, its
    neighbours of higher (degree, id) rank paired in id order, v < w,
    where v and w are adjacent; the first cap triangles found, and the
    status."""
    rank = {v: (g.degree(v), v) for v in range(1, g.n + 1)}
    found = set()
    for u in range(1, g.n + 1):
        up = [v for v in g.neighbors(u) if rank[v] > rank[u]]
        for a, v in enumerate(up):
            for w in up[a + 1 :]:
                if w in g.neighbors(v):
                    if len(found) >= cap:
                        return found, TRUNCATED
                    found.add(tuple(sorted((u, v, w))))
    return found, COMPLETE


def two_k4_and_path() -> Graph:
    """Disjoint union of two K4s and a path on four vertices."""
    k4 = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    edges = k4 + [(u + 4, v + 4) for u, v in k4] + [(9, 10), (10, 11), (11, 12)]
    return Graph(12, edges)


def eight_triangles() -> Graph:
    """Disjoint union of eight triangles."""
    return Graph(24, [(v + a, v + b) for v in range(0, 24, 3) for a, b in ((1, 2), (1, 3), (2, 3))])


class TestListViaDetection:
    # 2K4+P has three components; K7 has 35 triangles > m = 21, so the
    # blow-up's edges are truncated
    @pytest.mark.parametrize(
        "g",
        [cycle_graph(3), complete_graph(4), complete_graph(6), two_k4_and_path(), complete_graph(7)],
        ids=["C3", "K4", "K6", "2K4+P", "K7"],
    )
    def test_named_graphs(self, g):
        res = list_via_detection(g, oracle_edge_triangle_detect)
        truth = oracle_triangle_list(g)
        expected = min(g.m, len(truth))
        assert len(res.triangles) == expected
        assert res.triangles <= truth
        assert res.status == (TRUNCATED if len(truth) > g.m else COMPLETE)

    def test_random_graphs(self):
        # sparse to dense, so that t < m, t = m and t > m all occur
        rng = random.Random(25)
        graphs = [rand_graph(rng, rng.randint(3, 24), rng.choice((0.2, 0.4, 0.7, 0.9))) for _ in range(200)]
        graphs.append(gen.gen_graph("powerlaw", 400, 0.01, seed=3))
        statuses = collections.Counter()
        for g in graphs:
            res = list_via_detection(g, oracle_edge_triangle_detect)
            truth = oracle_triangle_list(g)
            assert res.triangles <= truth
            assert len(res.triangles) == min(g.m, len(truth))
            if res.status == COMPLETE:
                assert res.triangles == truth
            statuses[res.status] += 1
        assert statuses[COMPLETE] and statuses[TRUNCATED]

    def test_iteration_bound(self):
        calls = {"n": 0}

        def counting_detector(graph):
            calls["n"] += 1
            return oracle_edge_triangle_detect(graph)

        g = complete_graph(7)
        list_via_detection(g, counting_detector)
        assert calls["n"] <= max(1, math.ceil(math.log2(g.m))) + 1

    @pytest.mark.parametrize(
        "g, largest",
        [
            (complete_graph(8), 8),
            (complete_graph(10), 10),
            (eight_triangles(), 3),
            (two_k4_and_path(), 4),
        ],
        ids=["K8", "K10", "8C3", "2K4+P"],
    )
    def test_blowups_stay_bounded(self, g, largest):
        # One blow-up per halving of the largest component's third part.
        # Each holds at most 6m first-second edges (at most 3m survivors,
        # one orientation of an edge per third vertex, each copied into
        # both halves) and 4m third-part joins (every vertex w lies in one
        # third part and joins at most the part-0 and part-1 copies of its
        # deg(w) neighbours).
        sizes = []

        def counting_detector(graph):
            sizes.append(graph.m)
            return oracle_edge_triangle_detect(graph)

        list_via_detection(g, counting_detector)
        assert len(sizes) <= math.ceil(math.log2(largest))
        assert max(sizes) <= 10 * g.m

    def test_triangle_free(self):
        res = list_via_detection(path_graph(6), oracle_edge_triangle_detect)
        assert res.triangles == set() and res.status == COMPLETE


class TestDetectViaListing:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "g",
        [Graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)]), two_k4_and_path(), complete_graph(7)],
        ids=["pendant-triangle", "2K4+P", "K7"],
    )
    def test_named_graphs(self, g, seed):
        det = detect_via_listing(g, rng=RandomSource(seed))
        assert det == oracle_edge_triangle_detect(g)

    def test_multi_seed_oracle_equality(self):
        rng = random.Random(3)
        for trial in range(30):
            g = rand_graph(rng, rng.randint(3, 14), 0.35)
            for seed in range(3):
                got = detect_via_listing(g, rng=RandomSource(seed))
                assert got == oracle_edge_triangle_detect(g)

    def test_triangle_free(self):
        g = path_graph(5)
        assert set(detect_via_listing(g, rng=RandomSource(1)).values()) == {False}

    @pytest.mark.parametrize("k", [3, 8, 20])
    def test_star_blowups_hold_each_edge_once(self, k):
        # K_{1,k}: each edge (1, leaf) is seeded once, from part 0 to part
        # 1, so the verification blow-up over all n vertices has its k
        # first-second edges, the centre's k joins to the leaves' part-1
        # copies and each leaf's join to the centre's part-0 copy
        g = Graph(k + 1, [(1, leaf) for leaf in range(2, k + 2)])
        calls = []

        def lister(h, cap):
            calls.append((cap, h.m))
            return baseline_list(h, cap)

        got = detect_via_listing(g, lister, RandomSource(1))
        assert got == oracle_edge_triangle_detect(g)
        assert set(got.values()) == {False}
        assert [size for cap, size in calls if cap == 1] == [3 * g.m]


class TestPackedDetection:
    """detect_via_listing puts the blow-ups of consecutive samples of a
    phase side by side in one lister call, up to BLOWUP_BUDGET edges."""

    @staticmethod
    def run(g, seed):
        """The answers, and (edges, copies) per lister call: a phase's call
        of capacity cap holds cap // (100 m) copies, the capacity-one
        verification one."""
        calls = []

        def lister(h, cap):
            calls.append((h.m, max(1, cap // (100 * g.m))))
            return baseline_list(h, cap)

        return detect_via_listing(g, lister, RandomSource(seed)), calls

    # None keeps the module's budget
    @pytest.mark.parametrize("budget", [None, 0, 60])
    def test_calls_within_budget_match_oracle(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(triangle, "BLOWUP_BUDGET", budget)
        budget = triangle.BLOWUP_BUDGET
        rng = random.Random(17)
        for _ in range(10):
            g = rand_graph(rng, rng.randint(3, 16), 0.35)
            for seed in range(3):
                got, calls = self.run(g, seed)
                assert got == oracle_edge_triangle_detect(g)
                assert all(copies == 1 or edges <= budget for edges, copies in calls)
                if not budget:
                    assert all(copies == 1 for _, copies in calls)
                # reruns are bit-identical, call for call
                assert self.run(g, seed) == (got, calls)

    def test_fewer_calls_than_unpacked(self, monkeypatch):
        g = gen.gen_graph("powerlaw", 30, 0.15, seed=21)
        got, packed = self.run(g, 1)
        monkeypatch.setattr(triangle, "BLOWUP_BUDGET", 0)
        unpacked = self.run(g, 1)
        assert got == unpacked[0] == oracle_edge_triangle_detect(g)
        assert len(packed) < len(unpacked[1])


class TestInnerListing:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(InputError):
            inner_listing(cycle_graph(3), 0)

    def test_small_capacity_uses_baseline(self):
        res = inner_listing(complete_graph(5), 10)
        assert res.triangles == oracle_triangle_list(complete_graph(5))

    def test_subset_of_truth(self):
        rng = random.Random(4)
        for trial in range(40):
            g = rand_graph(rng, rng.randint(4, 16), 0.4)
            t = rng.choice([g.m, 4 * g.m, 16 * g.m])
            res = inner_listing(g, t, zeta=4, rng=RandomSource(trial))
            assert res.triangles <= oracle_triangle_list(g)

    def test_full_recovery_when_few_triangles(self):
        # when the true count is at most t, a single call should usually
        # recover every triangle
        rng = random.Random(5)
        ok = 0
        trials = 50
        for trial in range(trials):
            g = rand_graph(rng, rng.randint(6, 14), 0.35)
            truth = oracle_triangle_list(g)
            t = max(1, len(truth))
            res = inner_listing(g, max(t, 8 * g.m), zeta=4, rng=RandomSource(trial))
            if res.triangles == truth:
                ok += 1
        assert ok >= int(0.9 * trials)

    def test_colored_rounds_match_loops(self):
        rng = random.Random(8)
        graphs = [rand_graph(rng, rng.randint(6, 16), 0.45) for _ in range(30)]
        cases = [(g, k * g.m) for g in graphs for k in (5, 16, 64)]
        # K17 at t = 4m + 1 has a color triple that fits but holds more
        # than zeta * q triangles, so its triangles are cut to that cap
        cases.append((complete_graph(17), 4 * 136 + 1))
        statuses = set()
        for seed, (g, t) in enumerate(cases):
            res = inner_listing(g, t, zeta=4, rng=RandomSource(seed))
            assert (res.triangles, res.status) == loop_inner_listing(g, t, 4, RandomSource(seed))
            statuses.add(res.status)
        assert statuses == {COMPLETE, TRUNCATED}

    @pytest.mark.parametrize(
        "g", [complete_graph(12), gen.gen_graph("gnp", 40, 0.5, seed=1)], ids=["K12", "gnp"]
    )
    def test_heavy_triangles_listed_once(self, g, monkeypatch):
        # at t = m^2 the degree limit is 1, so every vertex is above it,
        # and each triangle is paired at its first vertex by (degree, id)
        handed = []

        def recording(triangles, status):
            handed.append(np.sort(np.asarray(triangles).reshape(-1, 3), axis=1))
            return ListingResult(triangles, status)

        monkeypatch.setattr(triangle, "ListingResult", recording)
        assert np.diff(g.indptr)[1:].min() > 1
        res = inner_listing(g, g.m**2, zeta=1, rng=RandomSource(0))
        assert res.triangles == oracle_triangle_list(g) and res.status == COMPLETE
        (rows,) = handed
        assert len(rows) == len(res.rows) == len(np.unique(rows, axis=0))

    @pytest.mark.parametrize("t", [179, 357])
    def test_fewer_than_three_colors_not_complete(self, t):
        # r = t // m is 1 or 2: no color triple exists, so every light
        # triangle is missed and the result cannot claim complete
        g = gen.gen_graph("gnp", 60, 0.1, seed=3)
        assert (g.m, len(oracle_triangle_list(g))) == (178, 36)
        res = inner_listing(g, t, zeta=1, rng=RandomSource(1))
        assert (res.triangles, res.status) == loop_inner_listing(g, t, 1, RandomSource(1))
        assert res.status == TRUNCATED and len(res.triangles) < 36
        # without a light triangle, nothing is missed
        res = inner_listing(path_graph(8), 2 * 7, zeta=1, rng=RandomSource(1))
        assert res.triangles == set() and res.status == COMPLETE

    def test_triangle_free(self):
        res = inner_listing(path_graph(8), 1000, zeta=4, rng=RandomSource(0))
        assert res.triangles == set()

    def test_empty_graph(self):
        res = inner_listing(Graph(0, []), 5)
        assert res.triangles == set() and res.status == COMPLETE


def loop_inner_listing(g: Graph, t: int, zeta: int, rng: RandomSource):
    """Reference for inner_listing above capacity zeta * m, as Python
    loops: triangles through a vertex of degree above m / (t // m), then
    per round a color per light vertex (in id order) and each color
    triple's triangles, in sorted order, unless its edges exceed zeta * q;
    at most zeta * q of them."""
    m = g.m
    r = t // m
    heavy = {v for v in range(1, g.n + 1) if g.degree(v) > m / r}
    truth = oracle_triangle_list(g)
    found = {tri for tri in truth if heavy & set(tri)}
    light_edges = [(u, v) for u, v in g.sorted_edges() if not heavy & {u, v}]
    light = sorted({x for e in light_edges for x in e})
    light_tris = sorted(truth - found)
    q = m**3 / t**2
    cap = max(1, int(zeta * q))
    # below three colors no color triple exists
    clean = r >= 3 or not light_tris
    for rnd in range(math.ceil(2 * math.log2(max(2, m))) if light else 0):
        drawn = rng.uniform(len(light), "inner", rnd).tolist()
        color = {v: math.floor(x * r) for v, x in zip(light, drawn)}
        pair_edges = collections.Counter(
            tuple(sorted((color[u], color[v]))) for u, v in light_edges if color[u] != color[v]
        )
        by_triple = {}
        for tri in light_tris:
            cs = sorted({color[x] for x in tri})
            if len(cs) == 3:
                by_triple.setdefault(tuple(cs), []).append(tri)
        for (a, b, c), tris in sorted(by_triple.items()):
            if pair_edges[a, b] + pair_edges[a, c] + pair_edges[b, c] > zeta * q:
                clean = False
                continue
            clean = clean and len(tris) <= cap
            found.update(tris[:cap])
    return found, COMPLETE if clean else TRUNCATED


class TestMainListing:
    def test_finds_requested_count(self):
        g = complete_graph(8)  # 56 triangles
        truth = oracle_triangle_list(g)
        for t in (g.m, 2 * g.m):
            res = main_listing_retry(g, t, rng=RandomSource(0))
            assert len(res.triangles) >= min(t, len(truth))
            assert res.triangles <= truth

    def test_full_set_when_capacity_exceeds_truth(self):
        rng = random.Random(6)
        for trial in range(20):
            g = rand_graph(rng, rng.randint(5, 12), 0.4)
            truth = oracle_triangle_list(g)
            res = main_listing_retry(g, 10 * max(1, len(truth)) + 10, rng=RandomSource(trial))
            assert res.triangles == truth
            assert res.status == COMPLETE

    def test_triangle_free(self):
        res = main_listing(path_graph(6), 5, rng=RandomSource(0))
        assert res.triangles == set() and res.status == COMPLETE

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(InputError):
            main_listing(cycle_graph(3), 0)

    @pytest.mark.parametrize("g", [Graph(0, []), cycle_graph(3)], ids=["empty", "triangle"])
    def test_rejects_zeta_below_one(self, g):
        # checked before the first phase, so also where no phase lists
        for lister in (main_listing, main_listing_retry):
            with pytest.raises(InputError, match="zeta"):
                lister(g, 1, zeta=0)

    def test_matches_loops(self):
        rng = random.Random(9)
        statuses = set()
        for seed in range(16):
            g = rand_graph(rng, rng.randint(4, 13), rng.choice([0.25, 0.45, 0.7]))
            for t in (1, 5, g.m, 2 * g.m, 4 * g.m, 5 * g.m, 40 * g.m):
                for zeta in (4, 128):
                    res = main_listing(g, t, RandomSource(seed), zeta=zeta)
                    ref = loop_main_listing(g, t, zeta, RandomSource(seed))
                    assert (res.triangles, res.status) == ref
                    res = main_listing_retry(g, t, RandomSource(seed), zeta=zeta)
                    ref = loop_main_listing_retry(g, t, zeta, RandomSource(seed))
                    assert (res.triangles, res.status) == ref
                    statuses.add(res.status)
        assert statuses == {COMPLETE, TRUNCATED}

    def test_exact_complete_listing_ends_the_retries(self, monkeypatch):
        # t <= zeta * m / 32 and fewer than t triangles: the rate-1 phase
        # lists every triangle with the baseline lister, and nothing
        # runs after it
        calls = []

        def counting(g, cap):
            calls.append(g.m)
            return baseline_list(g, cap)

        monkeypatch.setattr(triangle, "baseline_list", counting)
        rng = random.Random(10)
        for seed in range(10):
            g = rand_graph(rng, rng.randint(5, 14), 0.4)
            truth = oracle_triangle_list(g)
            t = len(truth) + 1
            assert 32 * t <= 128 * g.m
            calls.clear()
            res = main_listing_retry(g, t, RandomSource(seed))
            assert (res.triangles, res.status) == (truth, COMPLETE)
            assert calls == [g.m]

    def test_colored_retry_stops_once_the_union_holds_every_triangle(self, monkeypatch):
        # at t > zeta * m / 32 and t > T the runs go on until their union
        # holds all T triangles, and no further; graphs 2, 3 and 5 are
        # still one triangle short after LIST_RETRIES runs, and failed
        runs = []

        def recording(*args):
            runs.append(args[2].seed)
            return main_listing_inner(*args)

        main_listing_inner = triangle._main_listing
        monkeypatch.setattr(triangle, "_main_listing", recording)
        # graph seed -> (runs made, triangles missing at the end)
        outcomes = {0: (2, 0), 1: (10, 0), 2: (10, 1), 3: (10, 1), 4: (4, 0), 5: (10, 1)}
        assert LIST_RETRIES == 10
        for seed, (needed, missing) in outcomes.items():
            g = gen.gen_graph("powerlaw", 100, 0.05, seed=seed)
            truth = oracle_triangle_list(g)
            t = len(truth) + 1
            runs.clear()
            res = main_listing_retry(g, t, RandomSource(seed), zeta=4)
            sources = [RandomSource(seed).split("retry", a) for a in range(needed)]
            assert runs == [source.seed for source in sources]
            assert res.triangles <= truth and len(truth - res.triangles) == missing
            assert res.status == (FAILED if missing else COMPLETE)
            # the runs before the last leave a triangle out, so the last
            # one was needed
            before = set()
            for source in sources[:-1]:
                before |= ListingResult(main_listing_inner(g, t, source, 4), COMPLETE).triangles
            assert before < truth

    def test_missing_triangle_is_failed_not_complete(self):
        # at zeta = 8 every run here misses one of the 1277 triangles
        g = gen.gen_graph("powerlaw", 200, 0.05, seed=0)
        for lister in (main_listing, main_listing_retry):
            res = lister(g, 2559, RandomSource(0), zeta=8)
            assert res.status == FAILED and len(res.triangles) == 1276

    @pytest.mark.parametrize("seed", [0, 1])
    def test_small_zeta_never_says_complete_with_a_triangle_missing(self, seed):
        g = gen.gen_graph("powerlaw", 200, 0.05, seed=seed)
        truth = oracle_triangle_list(g)
        for zeta in (1, 8):
            for t in (len(truth) + 1, 2 * len(truth) + 5):
                for lister in (main_listing, main_listing_retry):
                    res = lister(g, t, RandomSource(seed), zeta=zeta)
                    assert res.triangles <= truth
                    assert (res.status == COMPLETE) == (res.triangles == truth)
                    assert res.status in (COMPLETE, FAILED)


def loop_main_listing(g: Graph, t: int, zeta: int, rng: RandomSource):
    """Reference for main_listing without its exact case: every phase
    runs on its compacted vertex sample, until t triangles are found;
    the status is truncated-at-t at t or more, complete with every
    triangle, and failed otherwise."""
    truth = oracle_triangle_list(g)
    collected = set()
    for s in range(int(math.log2(g.m)) + 1 if g.m > 1 else 1):
        keep = [False] + [x < 2.0 ** (-s) for x in rng.uniform(g.n, "main", s).tolist()]
        edges = [(u, v) for u, v in g.sorted_edges() if keep[u] and keep[v]]
        if not edges:
            continue
        sub, back = compact(edges)
        back = [0] + back.tolist()
        result = inner_listing(sub, 32 * t, zeta=zeta, rng=rng.split("main-inner", s))
        collected |= {tuple(sorted(back[x] for x in tri)) for tri in result.triangles} & truth
        if len(collected) >= t:
            break
    return collected, loop_status(collected, t, truth)


def loop_status(collected: set, t: int, truth: set) -> str:
    if len(collected) >= t:
        return TRUNCATED
    return COMPLETE if collected == truth else FAILED


def loop_main_listing_retry(g: Graph, t: int, zeta: int, rng: RandomSource):
    """Reference for main_listing_retry: the union of every retry of
    loop_main_listing, until t triangles are found, with its status."""
    collected = set()
    for attempt in range(LIST_RETRIES):
        collected |= loop_main_listing(g, t, zeta, rng.split("retry", attempt))[0]
        if len(collected) >= t:
            break
    return collected, loop_status(collected, t, oracle_triangle_list(g))


class TestDeterminism:
    def test_same_seed_same_output(self):
        rng = random.Random(7)
        for trial in range(5):
            g = rand_graph(rng, 12, 0.4)
            a = main_listing_retry(g, 2 * g.m, rng=RandomSource(trial))
            b = main_listing_retry(g, 2 * g.m, rng=RandomSource(trial))
            assert (a.triangles, a.status) == (b.triangles, b.status)
            da = detect_via_listing(g, rng=RandomSource(trial))
            db = detect_via_listing(g, rng=RandomSource(trial))
            assert da == db


class TestDraws:
    """Each sample and each coloring is one ``RandomSource.uniform`` call:
    one per phase of the samplers, one per round of inner_listing."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        uniform = RandomSource.uniform

        def recording(self, shape, *tags):
            out = uniform(self, shape, *tags)
            calls.append((tags, out.shape))
            return out

        monkeypatch.setattr(RandomSource, "uniform", recording)
        return calls

    def test_detection_draws_once_per_phase(self, draws):
        # m = 178: phases s = 7 .. 0, each 2 * ceil(log2 m) = 16 samples of
        # the n = 60 vertices; the first attempt verifies
        g = gen.gen_graph("gnp", 60, 0.1, seed=3)
        assert detect_via_listing(g, rng=RandomSource(1)) == oracle_edge_triangle_detect(g)
        assert draws == [(("detect", 0, s), (16, 60)) for s in range(7, -1, -1)]

    def test_listing_draws_once_per_phase_and_round(self, draws):
        # at 32t > zeta * m the first phase, the whole graph, colors in
        # ceil(2 log2 178) = 15 rounds with no vertex above the degree
        # limit; the later samples color nothing: they have no edge, or
        # every vertex is above their degree limit m / r < 1
        g = gen.gen_graph("gnp", 60, 0.1, seed=3)
        main_listing(g, 37, RandomSource(1), zeta=4)
        assert draws == (
            [(("main", 0), (60,))]
            + [(("inner", rnd), (60,)) for rnd in range(15)]
            + [(("main", s), (60,)) for s in range(1, 8)]
        )

    HUB = [(1, v) for v in range(2, 8)] + [(2, 3), (3, 4)]

    @pytest.mark.parametrize(
        "g, t, rows, status",
        [
            # no vertex is above the degree limit m / 2, and the light
            # part, the whole graph, has triangles
            (gen.gen_graph("gnp", 60, 0.1, seed=3), 179, [], TRUNCATED),
            (gen.gen_graph("gnp", 60, 0.1, seed=3), 357, [], TRUNCATED),
            (gen.gen_graph("gnp", 1000, 0.05, seed=1), 2 * 24907 + 1, [], TRUNCATED),
            # vertex 1 is above the limit; the light part is a path, or a
            # triangle that no round could list
            (Graph(7, HUB), 17, [(1, 2, 3), (1, 3, 4)], COMPLETE),
            (Graph(7, HUB + [(2, 4)]), 19, [(1, 2, 3), (1, 2, 4), (1, 3, 4)], TRUNCATED),
        ],
        ids=["gnp60-179", "gnp60-357", "gnp1000", "hub-path", "hub-triangle"],
    )
    def test_no_draw_below_three_colors(self, draws, g, t, rows, status):
        assert 1 <= t // g.m < 3
        res = inner_listing(g, t, zeta=1, rng=RandomSource(1))
        assert (res.rows.tolist(), res.status) == ([list(x) for x in rows], status)
        assert draws == []


def assert_canonical(res: ListingResult):
    rows = res.rows
    assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 3
    assert ((rows[:, 0] < rows[:, 1]) & (rows[:, 1] < rows[:, 2])).all()
    listed = rows.tolist()
    assert all(a < b for a, b in zip(listed, listed[1:]))
    assert res.triangles == set(map(tuple, listed))


class TestCanonicalRows:
    GRAPHS = [
        Graph(0, []),
        cycle_graph(3),
        Graph(9, [(1, v) for v in range(2, 10)]),
        complete_graph(8),
        gen.gen_graph("gnp", 40, 0.3, seed=2),
        gen.gen_graph("powerlaw", 100, 0.05, seed=1),
    ]
    IDS = ["empty", "triangle", "star", "K8", "gnp", "powerlaw"]

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_every_lister_returns_canonical_rows(self, g):
        truth = oracle_triangle_list(g)
        m, total = g.m, len(truth)
        results = [
            baseline_list(g, g.m**2),
            baseline_list(g, total // 2),
            list_via_detection(g, oracle_edge_triangle_detect),
            inner_listing(g, 4 * m + 1, zeta=1, rng=RandomSource(3)),
            main_listing(g, total + 1, RandomSource(3), zeta=1),
            main_listing(g, 1, RandomSource(3)),
            main_listing_retry(g, total + 1, RandomSource(3), zeta=1),
            main_listing_retry(g, max(1, total // 2), RandomSource(3), zeta=1),
        ]
        for res in results:
            assert_canonical(res)
            assert res.triangles <= truth
        assert results[0].triangles == truth

    def test_any_collection_of_triples(self):
        expected = [[1, 2, 3], [1, 2, 4], [2, 5, 9]]
        for triples in (
            [(3, 2, 1), (4, 1, 2), (9, 5, 2), (1, 2, 3), (2, 1, 4), (1, 2, 3)],
            {(1, 2, 3), (1, 2, 4), (2, 5, 9)},
            np.array([[9, 2, 5], [2, 1, 3], [4, 2, 1], [1, 3, 2]]),
        ):
            res = ListingResult(triples, COMPLETE)
            assert res.rows.tolist() == expected
            assert_canonical(res)
        empty = ListingResult((), TRUNCATED)
        assert empty.rows.shape == (0, 3) and empty.rows.dtype == np.int64
        assert empty.triangles == set()

    @pytest.mark.parametrize("span", [10, 2**21, 2**21 + 1, 2**63 - 1])
    def test_matches_sorted_set_at_every_id_span(self, span):
        # up to span 2^21 the rows go by one int64 key, past it by column
        rng = random.Random(span)
        lo = -(2**62) if span > 2**62 else 7
        ids = [lo, lo + span - 1] + [rng.randint(lo, lo + span - 1) for _ in range(6)]
        triples = [tuple(rng.choice(ids) for _ in range(3)) for _ in range(200)]
        top = lo + span - 1  # the row of the three largest ids has the largest key
        triples = [t for t in triples if len(set(t)) == 3] + [(top, top - 2, top - 1), (lo + 1, lo, lo + 2)]
        res = ListingResult(triples, COMPLETE)
        assert res.rows.tolist() == sorted(map(list, {tuple(sorted(t)) for t in triples}))
        assert_canonical(res)

    def test_canonical_rows_are_not_sorted_again(self, monkeypatch):
        rows = baseline_list(gen.gen_graph("gnp", 40, 0.3, seed=2), 10**6).rows
        sorts = []
        for name in ("sort", "lexsort"):
            original = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, _f=original, **k: sorts.append(1) or _f(*a, **k))
        assert np.shares_memory(ListingResult(rows, COMPLETE).rows, rows)
        writeable = rows.copy()
        copied = ListingResult(writeable, TRUNCATED).rows
        assert copied is not writeable and np.array_equal(copied, rows) and not copied.flags.writeable
        assert sorts == []
        writeable[0] = (0, 1, 2)  # the owner's array is not the listing
        assert np.array_equal(copied, rows)

    @pytest.mark.parametrize(
        "triples",
        [
            [(1, 2, 3), (1, 2, 3)],
            [(1, 2, 3), (1, 2, 3), (2, 3, 4)],
            [(1, 2, 4), (1, 2, 3)],
            [(1, 3, 4), (2, 3, 4), (1, 5, 6)],
            [(1, 3, 2), (2, 3, 4)],
            [(2, 1, 3), (2, 3, 4)],
            [(2, 2, 3)],
            [(1, 2, 3), (3, 4, 4)],
            [(2**62, 2**62 + 1, 2**62 + 2), (-(2**63), 0, 2**63 - 1)],
        ],
        ids=["twice", "twice-first", "last-column", "first-column", "v-above-w", "u-above-v",
             "u-equals-v", "v-equals-w", "int64-extremes"],
    )
    def test_nearly_canonical_rows_are_made_canonical(self, triples):
        for form in (triples, np.array(triples, dtype=np.int64)):
            res = ListingResult(form, COMPLETE)
            assert res.rows.tolist() == sorted(map(list, {tuple(sorted(t)) for t in triples}))
            assert not res.rows.flags.writeable

    @pytest.mark.parametrize("n", [3, 9, 2**21 - 1, 2**21])
    def test_merge_is_the_canonical_union(self, n):
        # up to n = 2^21 - 1 ids the batch is placed by one int64 key per
        # row, past it the two are made canonical together
        rng = random.Random(n)
        ids = [1, 2, 3, n - 2, n - 1, n] + [rng.randint(1, n) for _ in range(4)]

        def draw(k):
            return triangle._canonical(
                [t for t in (rng.sample(ids, 3) for _ in range(k)) if len(set(t)) == 3]
            )

        for union, rows in [(draw(0), draw(0)), (draw(0), draw(30)), (draw(30), draw(0))] + [
            (draw(rng.randint(1, 60)), draw(rng.randint(1, 60))) for _ in range(20)
        ]:
            merged = triangle._merge(union, rows, n)
            assert np.array_equal(merged, triangle._canonical(np.concatenate((union, rows))))
            assert merged.dtype == np.int64

    def test_equality_reads_rows_and_status(self):
        a = ListingResult([(1, 2, 3), (2, 3, 4)], COMPLETE)
        assert a == ListingResult({(4, 3, 2), (3, 2, 1)}, COMPLETE)
        assert not a != ListingResult([(2, 3, 4), (1, 2, 3)], COMPLETE)
        assert a != ListingResult([(1, 2, 3), (2, 3, 4)], TRUNCATED)
        assert a != ListingResult([(1, 2, 3)], COMPLETE)
        assert a != ListingResult([(1, 2, 3), (2, 3, 5)], COMPLETE)
        assert a != {(1, 2, 3), (2, 3, 4)}
        assert [a, ListingResult((), FAILED)] == [a, ListingResult((), FAILED)]

    def test_triangles_is_built_once_and_rows_are_read_only(self):
        res = ListingResult([(1, 2, 3)], COMPLETE)
        assert "triangles" not in vars(res)
        first = res.triangles
        assert vars(res)["triangles"] is first and res.triangles is first
        with pytest.raises(ValueError):
            res.rows[0, 0] = 5

    def test_bad_status(self):
        with pytest.raises(InputError):
            ListingResult((), "done")
