"""Acceptance gate: eleven end-to-end criteria, one PASS/FAIL line each.

Every criterion compares production code paths against independent
brute-force oracles on randomized instance batches with fixed seeds, plus
structural and statistical checks (operation budgets, iteration bounds,
empirical success rates, determinism).
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    query_objects,
    rand_array,
    rand_graph,
    rand_pair,
    rand_range,
    sqrt_block,
)
from rangetri.core import (
    EQP,
    INV,
    DenseMatrix,
    Graph,
    IntArray,
    Range,
    oracle_disjoint_query,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_minmax,
    oracle_pairs_query,
    oracle_triangle_list,
)
from rangetri.instrument import OpCounters
from rangetri.minmax import MinMaxStats, minmax_product
from rangetri.rangequery import mo_offline
from rangetri.reductions_range import (
    bmm_via_2req,
    reduce_1r_to_2r,
    reduce_2r_to_1r,
    reduce_eqp_to_inv,
    reduce_inv_to_eqp,
)
from rangetri.reductions_triangle import (
    build_query_multigraph,
    padded_length,
    reduce_2rdq_to_etd,
    reduce_2req_to_etc,
)
from rangetri.solvers import EDGE_COUNTERS, EDGE_DETECTORS, range_solver
from rangetri.triangle import (
    RandomSource,
    ayz_edge_counts,
    baseline_list,
    detect_via_listing,
    inner_listing,
    list_via_detection,
    main_listing,
    main_listing_retry,
)


def report(capsys, number: int, title: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({title}) failed"


def oracle_batch(f):
    return lambda a, qs: [oracle_pairs_query(f, a, q) for q in query_objects(qs)]


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, max(lo, int(2 ** rng.uniform(math.log2(lo), math.log2(hi) + 1e-9))))


# ---------------------------------------------------------------------------
# 1. Range-solver equivalence


def test_criterion_1_range_solver_equivalence(capsys):
    rng = random.Random(1001)
    algos = ("mo", "mo-online", "online-eq", "via-triangle")
    ok = True
    start = time.perf_counter()
    for _ in range(1000):
        n = log_uniform(rng, 2, 128)
        q = log_uniform(rng, 1, 128)
        a = IntArray([rng.randint(0, n - 1) for _ in range(n)])
        problem = rng.choice(["riq", "req", "2riq", "2req"])
        if problem.startswith("2"):
            queries = [rand_pair(rng, n) for _ in range(q)]
        else:
            queries = [rand_range(rng, n) for _ in range(q)]
        f = INV if problem in ("riq", "2riq") else EQP
        expected = [oracle_pairs_query(f, a, qq) for qq in queries]
        for algo in algos:
            if range_solver(problem, algo)(a, queries) != expected:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(capsys, 1, f"range-solver equivalence, {elapsed:.1f}s < 60s", ok)


# ---------------------------------------------------------------------------
# 2. Reduction web


def test_criterion_2_reduction_web(capsys):
    rng = random.Random(1002)
    ok = True
    pair_to_single_inv = reduce_2r_to_1r(INV, oracle_batch(INV))
    pair_to_single_eqp = reduce_2r_to_1r(EQP, oracle_batch(EQP))
    single_to_pair_inv = reduce_1r_to_2r(INV, oracle_batch(INV))
    single_to_pair_eqp = reduce_1r_to_2r(EQP, oracle_batch(EQP))
    eqp_from_inv = reduce_eqp_to_inv(oracle_batch(INV))
    inv_from_eqp = reduce_inv_to_eqp(oracle_batch(EQP))
    for _ in range(1000):
        n = rng.randint(2, 40)
        a = rand_array(rng, n, 0, rng.choice([3, n - 1, 2 * n]))
        pairs = [rand_pair(rng, n) for _ in range(3)]
        singles = [rand_range(rng, n) for _ in range(3)]
        want_pair_inv = [oracle_pairs_query(INV, a, p) for p in pairs]
        want_pair_eqp = [oracle_pairs_query(EQP, a, p) for p in pairs]
        ok &= pair_to_single_inv(a, pairs) == want_pair_inv
        ok &= pair_to_single_eqp(a, pairs) == want_pair_eqp
        ok &= single_to_pair_inv(a, singles) == [
            oracle_pairs_query(INV, a, s) for s in singles
        ]
        ok &= single_to_pair_eqp(a, singles) == [
            oracle_pairs_query(EQP, a, s) for s in singles
        ]
        ok &= eqp_from_inv(a, pairs) == want_pair_eqp
        ok &= inv_from_eqp(a, pairs) == want_pair_inv
    report(capsys, 2, "reduction web exact on 1000 instances", ok)


# ---------------------------------------------------------------------------
# 3. Query-to-triangle round trips


def test_criterion_3_query_to_triangle_round_trips(capsys):
    rng = random.Random(1003)
    ok = True
    for _ in range(500):
        n = rng.randint(2, 64)
        q = log_uniform(rng, 1, 64)
        a = IntArray([rng.randint(0, n - 1) for _ in range(n)])
        queries = [rand_pair(rng, n) for _ in range(q)]
        got = reduce_2req_to_etc(a, queries, EDGE_COUNTERS["oracle"])
        ok &= got == [oracle_pairs_query(EQP, a, qq) for qq in queries]
        build = build_query_multigraph(a, queries)
        n_pad = padded_length(n)
        log = int(math.log2(n_pad)) if n_pad > 1 else 1
        ok &= build.mg.uv_mult.sum() + build.mg.uw_mult.sum() <= 2 * n_pad * (log + 1)
        ok &= len(build.mg.vw) <= q * (2 * log) ** 2
    for _ in range(500):
        n = rng.randint(2, 64)
        q = log_uniform(rng, 1, 64)
        a = IntArray([rng.randint(0, n - 1) for _ in range(n)])
        queries = [rand_pair(rng, n) for _ in range(q)]
        got = reduce_2rdq_to_etd(a, queries, EDGE_DETECTORS["oracle"])
        ok &= got == [oracle_disjoint_query(a, qq) for qq in queries]
    report(capsys, 3, "query/triangle round trips with size bounds", ok)


# ---------------------------------------------------------------------------
# 4. Heavy/light triangle counting


def test_criterion_4_heavy_light_counting(capsys):
    rng = random.Random(1004)
    ok = True
    for trial in range(100):
        p = (0.1, 0.2, 0.4)[trial % 3]
        g = rand_graph(rng, 60, p)
        expected = oracle_edge_triangle_counts(g)
        for theta in (1, 4, 16, g.n):
            ok &= ayz_edge_counts(g, theta=theta) == expected
        ok &= sum(expected.values()) == 3 * len(oracle_triangle_list(g))
    ok &= set(ayz_edge_counts(complete_graph(4)).values()) == {2}
    report(capsys, 4, "heavy/light counting on G(60,p) grid", ok)


# ---------------------------------------------------------------------------
# 5. Listing from detection


def test_criterion_5_listing_from_detection(capsys):
    rng = random.Random(1005)
    ok = True
    graphs = [cycle_graph(3), complete_graph(4), complete_graph(6)]
    graphs += [rand_graph(rng, rng.randint(3, 16), 0.4) for _ in range(50)]
    for g in graphs:
        calls = {"n": 0}

        def detector(graph):
            calls["n"] += 1
            return oracle_edge_triangle_detect(graph)

        res = list_via_detection(g, detector)
        truth = oracle_triangle_list(g)
        ok &= res.triangles <= truth
        ok &= len(res.triangles) == min(g.m, len(truth))
        ok &= calls["n"] <= max(1, math.ceil(math.log2(g.m))) + 1
    report(capsys, 5, "detection-based listing yields min(m, t*)", ok)


# ---------------------------------------------------------------------------
# 6. Detection from listing


def test_criterion_6_detection_from_listing(capsys):
    rng = random.Random(1006)
    graphs = []
    for _ in range(50):
        n = rng.randint(3, 40)
        graphs.append(rand_graph(rng, n, min(0.2, 6.0 / n)))
    failures = 0
    mismatches = 0
    for seed in range(10):
        for g in graphs:
            try:
                got = detect_via_listing(g, lister=baseline_list, rng=RandomSource(seed))
            except RuntimeError:
                failures += 1
                continue
            if got != oracle_edge_triangle_detect(g):
                mismatches += 1
    ok = failures == 0 and mismatches == 0
    report(capsys, 6, f"listing-based detection, {failures}/500 restart failures", ok)


# ---------------------------------------------------------------------------
# 7. Randomized high-capacity listing


def test_criterion_7_randomized_listing(capsys):
    rng = random.Random(1007)
    ok = True
    # retry wrapper reaches min(t, t*) for t in {m, 2m, 4m}
    graphs = [rand_graph(rng, rng.randint(6, 14), 0.35) for _ in range(20)]
    graphs.append(complete_graph(6))
    for i, g in enumerate(graphs):
        truth = oracle_triangle_list(g)
        for t in (g.m, 2 * g.m, 4 * g.m):
            res = main_listing_retry(g, t, rng=RandomSource(10 * i + t))
            ok &= res.triangles <= truth
            ok &= len(res.triangles) >= min(t, len(truth))
    # single-run success rate over 200 seeded runs
    probe = rand_graph(random.Random(77), 12, 0.5)
    probe_truth = oracle_triangle_list(probe)
    target = probe.m
    successes = sum(
        len(main_listing(probe, target, rng=RandomSource(seed)).triangles)
        >= min(target, len(probe_truth))
        for seed in range(200)
    )
    ok &= successes >= 100
    # the colored lister emits only true triangles, and recovers the full
    # set with t* <= t at least 90% of the time (reduced-capacity config)
    recovered = 0
    for seed in range(50):
        g = rand_graph(rng, rng.randint(6, 14), 0.35)
        truth = oracle_triangle_list(g)
        t = max(max(1, len(truth)), 8 * g.m)
        res = inner_listing(g, t, zeta=4, rng=RandomSource(seed))
        ok &= res.triangles <= truth
        recovered += res.triangles == truth
    ok &= recovered >= 45
    report(
        capsys,
        7,
        f"randomized listing, {successes}/200 single runs, {recovered}/50 recoveries",
        ok,
    )


# ---------------------------------------------------------------------------
# 8. (min,max)-product


def test_criterion_8_minmax_product(capsys):
    rng = random.Random(1008)
    ok = True

    def chain(arr, qs):
        return reduce_2rdq_to_etd(arr, qs, EDGE_DETECTORS["oracle"])

    def direct(arr, qs):
        return [oracle_disjoint_query(arr, q) for q in query_objects(qs)]

    for trial in range(50):
        n = rng.randint(1, 24)
        lo, hi = (-50, 50) if trial % 2 else (-5, 5)  # the narrow band forces duplicates
        a = DenseMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        b = DenseMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        want = oracle_minmax(a, b)
        stats = MinMaxStats()
        ok &= minmax_product(a, b, direct, stats=stats) == want
        batches = math.ceil(math.log2(n))  # n candidates per cell
        ok &= stats.batches == batches
        ok &= minmax_product(a, b, chain) == want
    report(capsys, 8, "minmax product via disjointness and triangle chain", ok)


# ---------------------------------------------------------------------------
# 9. Boolean matrix product


def test_criterion_9_boolean_matrix_product(capsys):
    rng = random.Random(1009)
    ok = True
    solver = oracle_batch(EQP)

    def naive(x, y):
        d = x.rows
        xs, ys = x.array.tolist(), y.array.tolist()
        return DenseMatrix(
            [
                [1 if any(xs[i][k] and ys[k][j] for k in range(d)) else 0 for j in range(d)]
                for i in range(d)
            ]
        )

    ident = DenseMatrix(np.eye(8, dtype=np.int64))
    ones = DenseMatrix([[1] * 8] * 8)
    ok &= bmm_via_2req(ident, ident, solver) == ident
    ok &= bmm_via_2req(ones, ones, solver) == ones
    for _ in range(50):
        x = DenseMatrix([[rng.randint(0, 1) for _ in range(8)] for _ in range(8)])
        y = DenseMatrix([[rng.randint(0, 1) for _ in range(8)] for _ in range(8)])
        ok &= bmm_via_2req(x, y, solver) == naive(x, y)
    report(capsys, 9, "boolean matrix product via equal-pairs", ok)


# ---------------------------------------------------------------------------
# 10. Offline step budget and scaling exponent


def test_criterion_10_step_budget_and_scaling(capsys):
    rng = random.Random(1010)
    ok = True
    for _ in range(100):
        n = rng.randint(4, 100)
        q = rng.randint(1, 50)
        a = rand_array(rng, n, 0, n - 1)
        queries = [rand_range(rng, n) for _ in range(q)]
        counters = OpCounters()
        mo_offline(EQP, a, queries, counters=counters)
        block = sqrt_block(n, q)
        ok &= counters.extender_steps <= 4 * (n + block * q + n * n / block)
    xs, ys = [], []
    for k in range(8, 15):
        n = 2**k
        a = IntArray([rng.randint(0, n - 1) for _ in range(n)])
        queries = [rand_range(rng, n) for _ in range(n)]
        counters = OpCounters()
        mo_offline(EQP, a, queries, counters=counters)
        xs.append(math.log2(n))
        ys.append(math.log2(counters.extender_steps))
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    ok &= abs(slope - 1.5) <= 0.15
    report(capsys, 10, f"step budget and scaling slope {slope:.3f}", ok)


# ---------------------------------------------------------------------------
# 11. Determinism


def test_criterion_11_determinism(capsys):
    rng = random.Random(1011)
    ok = True
    for trial in range(20):
        kind = trial % 4
        seed = rng.randint(0, 10**6)
        g = rand_graph(rng, rng.randint(6, 14), 0.4)
        if kind == 0:
            runs = [
                main_listing_retry(g, 2 * g.m, rng=RandomSource(seed)) for _ in range(2)
            ]
            ok &= runs[0].triangles == runs[1].triangles
            ok &= runs[0].status == runs[1].status
        elif kind == 1:
            runs = [detect_via_listing(g, rng=RandomSource(seed)) for _ in range(2)]
            ok &= runs[0] == runs[1]
        elif kind == 2:
            runs = [
                inner_listing(g, 8 * g.m, zeta=4, rng=RandomSource(seed))
                for _ in range(2)
            ]
            ok &= runs[0].triangles == runs[1].triangles
            ok &= runs[0].status == runs[1].status
        else:
            runs = [main_listing(g, g.m, rng=RandomSource(seed)) for _ in range(2)]
            ok &= runs[0].triangles == runs[1].triangles
            ok &= runs[0].status == runs[1].status
    report(capsys, 11, "bit-identical reruns for 20 seeded pipelines", ok)
