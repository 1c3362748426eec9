"""Direct triangle solvers and the randomized listing/detection machinery."""

import math
import random

import numpy as np
import pytest

from conftest import complete_graph, cycle_graph, path_graph, rand_graph
from rangetri.core import (
    Graph,
    InputError,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_triangle_list,
)
from rangetri import gen, triangle
from rangetri.instrument import OpCounters
from rangetri.triangle import (
    COMPLETE,
    TRUNCATED,
    ListingResult,
    RandomSource,
    ayz_counts,
    ayz_edge_counts,
    baseline_list,
    detect_via_listing,
    inner_listing,
    list_via_detection,
    main_listing,
    main_listing_retry,
)


class TestRandomSource:
    def test_deterministic(self):
        a = RandomSource(7).stream("x", 1).random()
        b = RandomSource(7).stream("x", 1).random()
        assert a == b
        assert RandomSource(7).split("a").seed == RandomSource(7).split("a").seed

    def test_tags_independent(self):
        assert RandomSource(7).stream("x").random() != RandomSource(7).stream("y").random()
        assert RandomSource(7).split("a").seed != RandomSource(8).split("a").seed


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

    def test_heavy_part_spans_several_chunks(self):
        g = gen.gen_graph("gnp", 120, 0.3, seed=2)
        heavy = sum(1 for v in range(1, g.n + 1) if g.degree(v) > 1)
        # one chunk holds at most _WEDGE_CHUNK cells of the m x heavy rows
        assert g.m > triangle._WEDGE_CHUNK // heavy
        assert ayz_edge_counts(g, theta=1) == oracle_edge_triangle_counts(g)

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


def two_k4_and_path() -> Graph:
    """Disjoint union of two K4s and a path on four vertices."""
    k4 = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    edges = k4 + [(u + 4, v + 4) for u, v in k4] + [(9, 10), (10, 11), (11, 12)]
    return Graph(12, edges)


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
        rng = random.Random(2)
        for _ in range(50):
            g = rand_graph(rng, rng.randint(3, 16), 0.4)
            res = list_via_detection(g, oracle_edge_triangle_detect)
            truth = oracle_triangle_list(g)
            assert res.triangles <= truth
            assert len(res.triangles) == min(g.m, len(truth))

    def test_iteration_bound(self):
        calls = {"n": 0}

        def counting_detector(graph):
            calls["n"] += 1
            return oracle_edge_triangle_detect(graph)

        g = complete_graph(7)
        list_via_detection(g, counting_detector)
        assert calls["n"] <= max(1, math.ceil(math.log2(g.m))) + 1

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

    def test_rejects_nonpositive_restart_cap(self):
        with pytest.raises(InputError):
            detect_via_listing(cycle_graph(3), restart_cap=0)

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

    def test_triangle_free(self):
        res = inner_listing(path_graph(8), 1000, zeta=4, rng=RandomSource(0))
        assert res.triangles == set()

    def test_empty_graph(self):
        res = inner_listing(Graph(0, []), 5)
        assert res.triangles == set() and res.status == COMPLETE


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

    def test_counts_inner_calls(self):
        counters = OpCounters()
        main_listing(complete_graph(5), 5, rng=RandomSource(0), counters=counters)
        assert counters.inner_calls >= 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(InputError):
            main_listing(cycle_graph(3), 0)

    def test_rejects_nonpositive_retries(self):
        with pytest.raises(InputError):
            main_listing_retry(complete_graph(4), 4, retries=0)


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
