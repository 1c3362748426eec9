"""Mo's algorithm (offline and online), the online equal-pairs
structure, and matrix multiplication."""

import math
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ADVERSARIAL,
    ADVERSARIAL_IDS,
    rand_array,
    rand_pair,
    rand_range,
    sqrt_block,
)
from rangetri import gen, rangequery
from rangetri.core import (
    EQP,
    INV,
    CapabilityError,
    DenseMatrix,
    InputError,
    IntArray,
    PairFunction,
    Range,
    RangeError,
    oracle_edge_triangle_counts,
    oracle_pairs_query,
    ranks,
)
from rangetri.instrument import OpCounters
from rangetri.rangequery import (
    MoOnline,
    OnlineEqSolver,
    Wavelet,
    _eq_answer,
    matmul,
    mo_offline,
    mo_offline_block_size,
    mo_online_block_size,
    online_eq_build,
    eq_values,
)
from rangetri.reductions_triangle import reduce_etc_to_2req
from rangetri.solvers import PROBLEMS, range_solver

ONLINE_INDICES = pytest.mark.parametrize(
    "make", [partial(MoOnline, EQP), OnlineEqSolver], ids=["mo-online", "online-eq"]
)


class TestWavelet:
    def test_less_matches_brute_force(self):
        # n = 1, d = 1, d a power of two (v = d needs one more bit) and not
        rng = random.Random(3)
        for values in ([0], [3, 1, 3, 7], [0] * 9, list(range(16)), list(range(17))):
            distinct, vals = ranks(values)
            n, d = len(vals), distinct.size
            needles = [(x, v) for x in (0, n) for v in (0, d)]
            needles += [(rng.randint(0, n), rng.randint(0, d)) for _ in range(200)]
            x, v = (np.asarray(c, dtype=np.int64) for c in zip(*needles))
            expected = [sum(1 for i in range(xi) if vals[i] < vi) for xi, vi in needles]
            assert Wavelet(vals, d).less(x, v).tolist() == expected


def mo_fronts(x: Range, block: int) -> tuple[int, int, int, int]:
    """0-based block starts below <= l <= above of ``x`` under block size
    ``block``, and its forward and backward front steps."""
    l, r = x.l - 1, x.r - 1
    below, above = l // block * block, -(-l // block) * block
    return below, above, min(above, r + 1) - l, l - below


class TestMoOffline:
    def test_examples(self):
        assert mo_offline(EQP, IntArray([1, 2, 1, 2, 1]), [Range(1, 5), Range(2, 4)]) == [4, 1]
        assert mo_offline(INV, IntArray([1, 2, 3]), [Range(1, 3)]) == [0]
        assert mo_offline(
            INV, IntArray([3, 1, 2]), [Range(1, 3), Range(1, 2), Range(2, 3)]
        ) == [2, 1, 0]

    def test_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 50)
            a = rand_array(rng, n, 0, 6)
            queries = [rand_range(rng, n) for _ in range(rng.randint(0, 12))]
            for f in (INV, EQP):
                expected = [oracle_pairs_query(f, a, q) for q in queries]
                assert mo_offline(f, a, queries) == expected

    @pytest.mark.parametrize("f", [INV, EQP], ids=["inv", "eqp"])
    def test_every_range_of_random_array(self, f):
        rng = random.Random(7)
        n = 60
        a = rand_array(rng, n, 0, 9)
        every = [Range(l, r) for l in range(1, n + 1) for r in range(l, n + 1)]
        rng.shuffle(every)
        for queries in (every, every[:n]):  # q > n and q = n: rows, then fronts
            assert mo_offline(f, a, queries) == [oracle_pairs_query(f, a, q) for q in queries]

    def test_full_precompute_fallback(self):
        # q > n^2: every position is a block start, so no query has a front
        rng = random.Random(12)
        a = IntArray([2, 0, 2, 1])
        queries = [rand_range(rng, 4) for _ in range(20)]
        expected = [oracle_pairs_query(INV, a, q) for q in queries]
        assert mo_offline(INV, a, queries) == expected

    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_front_batches_split_anywhere(self, monkeypatch, batch):
        # batches smaller than one query's front give empty parts too
        monkeypatch.setattr(rangequery, "FRONT_BATCH", batch)
        rng = random.Random(15)
        for _ in range(20):
            n = rng.randint(1, 40)
            a = rand_array(rng, n, 0, 4)
            queries = [rand_range(rng, n) for _ in range(rng.randint(1, 30))]
            for f in (EQP, INV):
                expected = [oracle_pairs_query(f, a, q) for q in queries]
                assert mo_offline(f, a, queries) == expected

    def test_unsupported_function(self):
        a = IntArray([1, 2, 3, 4])
        product = PairFunction.custom(lambda x, y: x * y)
        for queries in ([], [Range(1, 4)]):
            with pytest.raises(CapabilityError):
                mo_offline(product, a, queries)
        with pytest.raises(CapabilityError):
            MoOnline(product, a)

    def test_range_past_array(self):
        queries = [Range(1, 2), Range(2, 4), Range(1, 5)]
        with pytest.raises(RangeError, match=r"\[2, 4\]"):
            mo_offline(EQP, IntArray([1, 2, 3]), queries)

    @pytest.mark.parametrize("values", ADVERSARIAL, ids=ADVERSARIAL_IDS)
    def test_adversarial_shapes(self, values):
        a = IntArray(values)
        n = a.n
        every = [Range(l, r) for l in range(1, n + 1) for r in range(l, n + 1)]
        for f in (EQP, INV):
            assert mo_offline(f, a, []) == []
            expected = [oracle_pairs_query(f, a, q) for q in every]
            assert mo_offline(f, a, every) == expected
            assert mo_offline(f, a, every * (n + 1)) == expected * (n + 1)  # q > n^2
            for q in (every[0], every[-1], Range(1, n)):
                assert mo_offline(f, a, [q]) == [oracle_pairs_query(f, a, q)]

    @given(
        st.lists(st.integers(-(10**9), 10**9) | st.integers(0, 3), min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=30),
    )
    def test_property_matches_oracle(self, values, picks):
        a = IntArray(values)
        n = a.n
        queries = []
        for x, y in picks:
            l = 1 + x % n
            queries.append(Range(l, l + y % (n - l + 1)))
        for f in (EQP, INV):
            assert mo_offline(f, a, queries) == [oracle_pairs_query(f, a, q) for q in queries]

    def test_step_budget(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(4, 80)
            q = rng.randint(1, 40)
            a = rand_array(rng, n, 0, 5)
            queries = [rand_range(rng, n) for _ in range(q)]
            counters = OpCounters()
            mo_offline(EQP, a, queries, counters=counters)
            block = sqrt_block(n, q)
            budget = 4 * (n + block * q + n * n / block)
            assert counters.extender_steps <= budget

    def test_step_count(self):
        # n - s per answer row read, plus each query's shorter front:
        # forward from the block start s >= l or back from s' <= l
        rng = random.Random(14)
        for _ in range(30):
            n = rng.randint(1, 80)
            q = rng.randint(1, 60)
            a = rand_array(rng, n, 0, 5)
            queries = [rand_range(rng, n) for _ in range(q)]
            block = mo_offline_block_size(n, q)
            rows, fronts = set(), 0
            for x in queries:
                below, above, forward, backward = mo_fronts(x, block)
                s = below if backward < forward else above
                if s < x.r:
                    rows.add(s)
                fronts += min(forward, backward)
            for f in (EQP, INV):
                counters = OpCounters()
                mo_offline(f, a, queries, counters=counters)
                assert counters.extender_steps == sum(n - s for s in rows) + fronts

    def test_step_count_pinned(self, monkeypatch):
        # range_direct's batch shape, seed 1: the count is
        # rangequery.extender_steps in perfbench and does not depend on
        # how the fronts are chunked
        a = gen.gen_array(1024, 0, 1023, seed=101)
        queries = gen.gen_queries(1024, 1024, "single", seed=102)
        for batch in (rangequery.FRONT_BATCH, 7):
            monkeypatch.setattr(rangequery, "FRONT_BATCH", batch)
            for f in (EQP, INV):
                counters = OpCounters()
                mo_offline(f, a, queries, counters=counters)
                assert counters.extender_steps == 29_984

    def test_nearer_start_every_range(self, monkeypatch):
        # every (l, r) under every block size B in 1..n: l on a block start
        # (no front), ties (forward), backward fronts from s' = 0, and
        # ranges with no block start inside; then one query at a time (q = 1)
        rng = random.Random(16)
        arrays = [IntArray(v) for v in ADVERSARIAL]
        arrays += [rand_array(rng, n, 0, 4) for n in (9, 17, 24)]
        seen = set()
        for a in arrays:
            n = a.n
            every = [Range(l, r) for l in range(1, n + 1) for r in range(l, n + 1)]
            for f in (EQP, INV):
                expected = [oracle_pairs_query(f, a, x) for x in every]
                for block in range(1, n + 1):
                    monkeypatch.setattr(rangequery, "mo_offline_block_size", lambda n, q: block)
                    assert mo_offline(f, a, every) == expected
                    for x in every:
                        below, above, forward, backward = mo_fronts(x, block)
                        seen.add("on start" if backward == 0 else
                                 "tie" if backward == forward else
                                 "from 0" if backward < forward and below == 0 else
                                 "backward" if backward < forward else "forward")
                        if above >= x.r:
                            seen.add("no start inside")
                monkeypatch.undo()
                assert [mo_offline(f, a, [x])[0] for x in every] == expected
        assert seen == {"on start", "tie", "from 0", "backward", "forward", "no start inside"}

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=40),
        st.integers(1, 40),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=30),
    )
    def test_property_any_block_size(self, values, block, picks):
        a = IntArray(values)
        n = a.n
        queries = []
        for x, y in picks:
            l = 1 + x % n
            queries.append(Range(l, l + y % (n - l + 1)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rangequery, "mo_offline_block_size", lambda n, q: min(block, n))
            for f in (EQP, INV):
                expected = [oracle_pairs_query(f, a, q) for q in queries]
                assert mo_offline(f, a, queries) == expected


def power_block(n: int, q: int) -> int:
    """The largest power of two B with B * B * q <= 2 * n * n, or 1."""
    block = 1
    while 4 * block * block * q <= 2 * n * n:
        block *= 2
    return block


class TestMoOnline:
    def test_matches_offline_interleaved(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(1, 40)
            a = rand_array(rng, n, 0, 5)
            queries = [rand_range(rng, n) for _ in range(rng.randint(1, 30))]
            for f in (INV, EQP):
                offline = mo_offline(f, a, queries)
                online = MoOnline(f, a)
                assert [online.query(q) for q in queries] == offline

    def test_singleton_and_full_range(self):
        a = IntArray([4, 4, 1, 4])
        online = MoOnline(EQP, a)
        assert online.query(Range(2, 2)) == 0
        assert online.query(Range(1, 4)) == oracle_pairs_query(EQP, a, Range(1, 4))

    def test_q_doubling_never_changes_answers(self):
        rng = random.Random(22)
        a = rand_array(rng, 30, 0, 4)
        queries = [rand_range(rng, 30) for _ in range(40)]
        for f in (INV, EQP):
            adaptive = MoOnline(f, a, q_guess=1)
            upfront = MoOnline(f, a, q_guess=len(queries))
            for q in queries:
                assert adaptive.query(q) == upfront.query(q)
            assert adaptive.q_guess == 64  # six doublings happened

    @pytest.mark.parametrize("values", ADVERSARIAL, ids=ADVERSARIAL_IDS)
    def test_adversarial_shapes(self, values):
        a = IntArray(values)
        n = a.n
        every = [Range(l, r) for l in range(1, n + 1) for r in range(l, n + 1)]
        for f in (EQP, INV):
            expected = [oracle_pairs_query(f, a, q) for q in every]
            for q_guess in (1, len(every)):
                online = MoOnline(f, a, q_guess=q_guess)
                assert [online.query(q) for q in every] == expected
            for q in (every[0], every[-1], Range(1, n)):  # q = 1: one query per index
                assert MoOnline(f, a).query(q) == oracle_pairs_query(f, a, q)

    def test_block_is_a_power_of_two_near_n_over_sqrt_q(self):
        for n in range(1, 70):
            for q in [*range(1, 70), n * n, 2 * n * n, 2 * n * n + 1, 10**9]:
                block = mo_online_block_size(n, q)
                assert block == power_block(n, q)
                if q <= 2 * n * n:
                    assert n / math.sqrt(2 * q) < block <= math.sqrt(2) * n / math.sqrt(q)

    def test_step_budget(self):
        # rows cost n - s per block start s, a front extension fewer than B steps
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 80)
            q = rng.randint(1, 60)
            a = rand_array(rng, n, 0, 5)
            queries = [rand_range(rng, n) for _ in range(q)]
            block = power_block(n, q)
            for f in (EQP, INV):
                counters = OpCounters()
                online = MoOnline(f, a, counters=counters, q_guess=q)
                for x in queries:
                    online.query(x)
                assert online.block == block
                assert counters.extender_steps <= n * n / block + n + q * block

    def test_step_count(self):
        # n - s per answer row built, each block start once over every
        # rebuild, plus s - l per query
        rng = random.Random(24)
        for _ in range(30):
            n = rng.randint(1, 80)
            a = rand_array(rng, n, 0, 5)
            queries = [rand_range(rng, n) for _ in range(rng.randint(1, 60))]
            first_guess = rng.choice([1, len(queries), n * n])

            def starts(guess):
                return set(range(0, n, power_block(n, guess)))

            guess = first_guess
            held = starts(guess)
            expected = sum(n - s for s in held)
            for seen, x in enumerate(queries, start=1):
                if seen > guess:
                    while seen > guess:
                        guess *= 2
                    assert held <= starts(guess)  # the blocks nest
                    expected += sum(n - s for s in starts(guess) - held)
                    held = starts(guess)
                block = power_block(n, guess)
                expected += min(-(-(x.l - 1) // block) * block, x.r) - (x.l - 1)
            for f in (EQP, INV):
                counters = OpCounters()
                online = MoOnline(f, a, counters=counters, q_guess=first_guess)
                for x in queries:
                    online.query(x)
                assert online.q_guess == guess
                assert counters.extender_steps == expected

    @pytest.mark.parametrize("n", [1, 2, 37, 100, 128])
    def test_rebuilds_equal_a_fresh_build(self, n):
        # 37 and 100 end in a partial block; batches of 1 to 40 queries
        # move the guess by one doubling or several at once
        rng = random.Random(26 + n)
        a = rand_array(rng, n, 0, 4)
        for f in (EQP, INV):
            online = MoOnline(f, a)
            for size in [1, 1, 1, 2, 3, 7, 1, 40, 5, 40, 1, 200]:
                queries = [rand_range(rng, n) for _ in range(size)]
                guess = online.q_guess
                answers = online.batch(queries)
                assert answers == [oracle_pairs_query(f, a, x) for x in queries]
                if online.q_guess == guess:
                    continue
                fresh = MoOnline(f, a, q_guess=online.q_guess)
                assert online.block == fresh.block
                for mine, theirs in ((online.rows, fresh.rows), (online.cross, fresh.cross)):
                    assert len(mine) == len(theirs)
                    assert all(np.array_equal(x, y) for x, y in zip(mine, theirs))

    def test_stream_builds_each_final_start_once(self, monkeypatch):
        # Range(1, r) starts at a block start, so its front is 0 steps and
        # the count is the rows built
        n = 300
        a = rand_array(random.Random(27), n, 0, 20)
        built = []

        def answer_row(kind, vals, before, seen, s):
            built.append(s)
            return answer_row.original(kind, vals, before, seen, s)

        answer_row.original = rangequery._answer_row
        monkeypatch.setattr(rangequery, "_answer_row", answer_row)
        for f in (EQP, INV):
            built.clear()
            counters = OpCounters()
            online = MoOnline(f, a, counters=counters, q_guess=1)
            for r in range(1, 4 * n + 1):
                x = Range(1, 1 + r % n)
                assert online.query(x) == oracle_pairs_query(f, a, x)
            starts = range(0, n, power_block(n, 4 * n))
            assert online.block == power_block(n, 4 * n) < power_block(n, 1)
            assert sorted(built) == list(starts)
            assert counters.extender_steps == sum(n - s for s in starts)

    def test_doubling_that_keeps_the_block_builds_nothing(self):
        n = 100
        a = rand_array(random.Random(28), n, 0, 9)
        q = next(q for q in range(1, n) if power_block(n, q) == power_block(n, 2 * q))
        for f in (EQP, INV):
            counters = OpCounters()
            online = MoOnline(f, a, counters=counters, q_guess=q)
            rows, cross, steps = online.rows, online.cross, counters.extender_steps
            for _ in range(q + 1):
                online.query(Range(1, n))  # 0 front steps
            assert online.q_guess == 2 * q
            assert online.rows is rows and online.cross is cross
            assert counters.extender_steps == steps

    def test_memory_stays_near_the_tables(self):
        # q_guess = 1 makes B = 4096 of n = 5000: a front and its partial
        # block of ~B and ~n - B values must not meet in a front x block
        # comparison (tens of MB here)
        rng = random.Random(25)
        n = 5000
        a, b = rand_array(rng, n, 0, n), rand_array(rng, 3000, 0, 3000)
        for f in (EQP, INV):
            online = MoOnline(f, a)
            tracemalloc.start()
            try:
                answer = online.query(Range(2, n - 1))
                query_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                built = MoOnline(f, b, q_guess=b.n)
                build_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert query_peak < 1_000_000
            assert answer == mo_offline(f, a, [Range(2, n - 1)])[0]
            # a build holds its rows and cross rows plus O(n) scratch
            tables = sum(row.nbytes for row in built.cross) + sum(row.nbytes for row in built.rows)
            assert build_peak < 1.5 * tables

    def test_rebuild_memory_stays_near_the_new_rows(self):
        # a rebuild keeps the old rows in place: it allocates the rows of
        # its new block starts plus O(n) scratch, and copies nothing
        n = 3000
        a = rand_array(random.Random(29), n, 0, n)
        for f in (EQP, INV):
            online = MoOnline(f, a, q_guess=n)
            for _ in range(n):
                online.query(Range(1, 1))
            old = {id(row) for row in online.rows + online.cross}
            tracemalloc.start()
            try:
                online.query(Range(1, 1))  # the guess doubles and B halves
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            block = power_block(n, n) // 2
            assert online.block == block
            assert old <= {id(row) for row in online.rows + online.cross}
            new = [s for s in range(0, n, block) if s % (2 * block)]
            built = 8 * sum(n - s + n + 1 for s in new)  # an answer row and a cross row each
            tables = sum(row.nbytes for row in online.rows + online.cross)
            assert built < 0.6 * tables
            assert peak < 1.5 * built

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=40)
        | st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=12),
    )
    def test_property_matches_offline_and_oracle(self, values, picks):
        # three ranges per pick: any range, one inside a block of the upfront
        # guess's size, and one ending at that block's last position
        a = IntArray(values)
        n = a.n
        block = mo_online_block_size(n, 3 * len(picks))
        queries = []
        for x, y in picks:
            first = x % n // block * block + 1
            last = min(first + block - 1, n)
            l = first + y % (last - first + 1)
            queries += [
                Range(1 + y % n, 1 + y % n + x % (n - y % n)),
                Range(l, l + x % (last - l + 1)),
                Range(1 + y % last, last),
            ]
        for f in (EQP, INV):
            expected = [oracle_pairs_query(f, a, q) for q in queries]
            assert mo_offline(f, a, queries) == expected
            for q_guess in (1, len(queries), n * n):  # n * n: B = 1
                online = MoOnline(f, a, q_guess=q_guess)
                answers = [online.query(q) for q in queries]
                assert answers == expected
                assert {type(x) for x in answers} == {int}


class TestOnlineEq:
    def test_all_equal_block(self):
        assert OnlineEqSolver(IntArray([1] * 8), q_guess=8).query(Range(1, 8)) == 28

    def test_all_distinct(self):
        solver = OnlineEqSolver(IntArray([1, 2, 3, 4]), q_guess=10)
        for l in range(1, 5):
            for r in range(l, 5):
                assert solver.query(Range(l, r)) == 0
        assert solver.q_guess == 10  # no rebuild

    def test_structure_invariants(self):
        # prefix's four-term difference at blocks (i, j) is the number of
        # ordered equal-value pairs (p, p') with p in block i and p' in
        # block j, the diagonal's p = p' pairs included
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 60)
            a = rand_array(rng, n, 0, rng.choice([3, 7, n]))
            vals = a.values.tolist()
            for q_hint in (1, n, 4 * n, n * n):
                s = online_eq_build(a, q_hint=q_hint)
                bc, prefix = s.b_cnt, s.prefix
                assert prefix.shape == (bc + 1, bc + 1) and prefix.dtype == np.int64
                brute = [[0] * bc for _ in range(bc)]
                for p in range(n):
                    for p2 in range(n):
                        if vals[p] == vals[p2]:
                            brute[p // s.b_len][p2 // s.b_len] += 1
                for i in range(bc):
                    for j in range(bc):
                        assert (
                            prefix[i + 1, j + 1] - prefix[i, j + 1] - prefix[i + 1, j] + prefix[i, j]
                            == brute[i][j]
                        )

    def test_matches_oracle(self):
        rng = random.Random(32)
        for hi in (7, 63):  # frequent values; mostly rare ones
            a = rand_array(rng, 64, 0, hi)
            for q_guess in (1, 64, 100, 256, 64 * 64):  # 1, n, q, 4n, n^2
                solver = OnlineEqSolver(a, q_guess=q_guess)
                for _ in range(100):
                    q = rand_range(rng, 64)
                    assert solver.query(q) == oracle_pairs_query(EQP, a, q)
                # a guess of 100 or more never rebuilds; a smaller one doubles past it
                assert solver.q_guess == (q_guess if q_guess >= 100 else 128)

    def test_block_parameters_across_q_equals_n(self, monkeypatch):
        # beta = 2 alpha / (omega + 1) up to q = n and
        # (3 - alpha + omega (alpha - 1)) / (omega + 1) above: the two meet at
        # q = n for any omega, beta never falls as q grows, and it reaches
        # its clip at q = n^2; gamma = 1 + beta - alpha
        for omega in (2.373, rangequery.OMEGA):  # ends on the module's own
            monkeypatch.setattr(rangequery, "OMEGA", omega)
            for n in (2, 3, 64, 1000, 4096):
                hints = sorted({*range(1, 40), *(round(n ** (x / 32)) for x in range(65))})
                betas = [rangequery._block_parameters(n, q)[0] for q in hints]
                assert betas == sorted(betas)
                below = rangequery._block_parameters(n, n)
                above = rangequery._block_parameters(n, n + 1)
                alpha = math.log(n + 1) / math.log(n)
                assert below[0] == pytest.approx(2 / (omega + 1))
                assert above[0] - below[0] <= alpha - 1  # no jump at q = n
                assert above[1] == pytest.approx(1 + above[0] - alpha)
                assert rangequery._block_parameters(n, n * n)[0] == 0.99
        # at omega = 3 the two branches are one line, beta = alpha / 2, so
        # b_len = ceil(EQ_BLOCK_SCALE * n / sqrt(q_hint)) below the clip
        for n, q in ((1024, 1024), (1024, 4096), (20_000, 20_000), (10_026, 20_052)):
            s = online_eq_build(IntArray([0] * n), q_hint=q)
            assert s.b_len == math.ceil(rangequery.EQ_BLOCK_SCALE * n / math.sqrt(q))

    def test_triangle_counts_through_online_eq_stay_small(self, monkeypatch):
        # reduce_etc_to_2req asks ~2n queries on an array of n = 2m: q > n.
        # Each build of this run is traced alone (tracing the Python tail
        # walks too would take seconds)
        peaks = []
        build = rangequery.online_eq_build

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return build(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(rangequery, "online_eq_build", traced)
        g = gen.gen_graph("powerlaw", 1000, 0.01, seed=102)
        counts = reduce_etc_to_2req(g, range_solver("2req", "online-eq"))
        assert counts == oracle_edge_triangle_counts(g)
        assert len(peaks) == 1 and peaks[0] < 32 << 20

    def test_adaptive_solver(self):
        rng = random.Random(33)
        for _ in range(20):
            n = rng.randint(1, 40)
            a = rand_array(rng, n, 0, 5)
            solver = OnlineEqSolver(a)
            for _ in range(rng.randint(1, 20)):
                q = rand_range(rng, n)
                assert solver.query(q) == oracle_pairs_query(EQP, a, q)

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=40)
        | st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=8),
    )
    def test_property_matches_oracle(self, values, picks):
        # per hint, four ranges per pick: any range, one inside a block of
        # that build, one ending at that block's last position, one with r = n
        a = IntArray(values)
        n = a.n
        q = 4 * len(picks)
        streamed = []
        for q_hint in (1, q, n, 4 * n, n * n):
            s = online_eq_build(a, q_hint=q_hint)
            queries = []
            for x, y in picks:
                first = x % n // s.b_len * s.b_len + 1
                last = min(first + s.b_len - 1, n)
                l = first + y % (last - first + 1)
                queries += [
                    Range(1 + y % n, 1 + y % n + x % (n - y % n)),
                    Range(l, l + x % (last - l + 1)),
                    Range(1 + y % last, last),
                    Range(1 + x % n, n),
                ]
            answers = [_eq_answer(s, x.l, x.r) for x in queries]
            assert answers == [oracle_pairs_query(EQP, a, x) for x in queries]
            assert {type(x) for x in answers} == {int}
            streamed += queries
        solver = OnlineEqSolver(a)
        shared = solver.shared
        answers = []
        for x in streamed:
            answers.append(solver.query(x))
            s = solver.structure  # rebuilds share one copy of each list
            assert s.index_lists is shared.index_lists and s.occ is shared.occ
            assert s.nxt is shared.nxt and s.prv is shared.prv
        assert solver.q_guess >= len(streamed) > 1  # the stream forced rebuilds
        assert answers == [oracle_pairs_query(EQP, a, x) for x in streamed]
        assert {type(x) for x in answers} == {int}

    def test_links_match_index_lists(self):
        rng = random.Random(36)
        arrays = [[5], [5, 5], [7, 3], [2] * 9, rng.sample(range(100), 30)]
        arrays += [[rng.randint(0, 3) for _ in range(rng.randint(1, 40))] for _ in range(10)]
        for values in arrays:
            n = len(values)
            shared = eq_values(IntArray(values))
            occ, nxt, prv = shared.occ, shared.nxt, shared.prv
            assert len(occ) == len(nxt) == len(prv) == n + 2
            assert {type(x) for x in occ + nxt + prv} == {int}
            seen = []
            for lst in shared.index_lists.values():
                seen += lst
                for k, p in enumerate(lst):
                    assert occ[p] == k + 1
                    assert nxt[p] == (lst[k + 1] if k + 1 < len(lst) else n + 1)
                    assert prv[p] == (lst[k - 1] if k > 0 else 0)
            assert sorted(seen) == list(range(1, n + 1))

    def test_bisects_only_where_the_value_recurs(self, monkeypatch):
        calls = []
        bisect = rangequery.bisect_right
        monkeypatch.setattr(
            rangequery, "bisect_right", lambda *args: calls.append(args) or bisect(*args)
        )
        n = 40
        for distinct, values in ((True, list(range(n))), (False, [7] * n)):
            for q_hint in (1, n, n * n):
                s = online_eq_build(IntArray(values), q_hint=q_hint)
                for l in range(1, n + 1):
                    for r in range(l, n + 1):
                        calls.clear()
                        answer = _eq_answer(s, l, r)
                        if distinct:
                            assert (answer, calls) == (0, [])
                            continue
                        assert answer == (r - l + 1) * (r - l) // 2
                        # tail positions: outside the whole blocks [big_l, big_r]
                        big_l = -(-(l - 1) // s.b_len) * s.b_len + 1
                        big_r = n if r == n else r // s.b_len * s.b_len
                        tail = r - l + 1 if big_l > big_r else big_l - l + r - big_r
                        assert len(calls) <= tail

    def test_batch_checks_bounds_once(self, monkeypatch):
        checked = []
        check = Range.check
        monkeypatch.setattr(Range, "check", lambda rng, n: checked.append(rng) or check(rng, n))
        a = IntArray([1, 2, 1, 1, 2])
        queries = [Range(l, r) for l in range(1, 6) for r in range(l, 6)]
        expected = [oracle_pairs_query(EQP, a, q) for q in queries]
        rows = np.array([(q.l, q.r) for q in queries], dtype=np.int64)
        for algo in ("mo-online", "online-eq"):
            solve = range_solver("req", algo)
            checked.clear()
            assert solve(a, queries) == expected
            assert solve(a, rows) == expected
            assert checked == []  # core.bounds checks the batch in numpy
            with pytest.raises(RangeError, match=r"\[2, 9\]"):
                solve(a, np.array([[1, 5], [2, 9]], dtype=np.int64))

    def test_build_memory_stays_near_the_table(self):
        # n = 1024 and q_hint = 4096 give blocks of ceil(0.15 * 1024**0.4) = 3
        # positions, so 342 blocks.  A build keeps one (b_cnt + 1)^2 int64
        # table plus the O(n) value lists; while it fills the table it also
        # holds scratch: matmul's float64 operands and a row chunk of its
        # cast, the rare values' pairs and O(n) arrays
        rng = random.Random(35)
        n = 1024
        for hi in (15, 1023):  # 9 of 16 values frequent (tau = 64); all rare
            a = rand_array(rng, n, 0, hi)
            online_eq_build(a, q_hint=4096)  # warm-up
            tracemalloc.start()
            try:
                s = online_eq_build(a, q_hint=4096)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (s.b_len, s.b_cnt) == (3, 342)
            table = s.prefix.nbytes
            assert kept < table + 256 * n
            assert peak < table + 1280 * n

    def test_one_range_check_per_query(self, monkeypatch):
        checked = []
        check = Range.check
        monkeypatch.setattr(Range, "check", lambda rng, n: checked.append(rng) or check(rng, n))
        solver = OnlineEqSolver(IntArray([1, 2, 1]))
        assert solver.query(Range(1, 3)) == 1
        assert len(checked) == 1

    @ONLINE_INDICES
    def test_rejected_query_is_not_counted(self, make):
        solver = make(IntArray([1, 2, 1]))
        for _ in range(3):
            with pytest.raises(RangeError, match=r"\[2, 9\]"):
                solver.query(Range(2, 9))
        # a bad row rejects its whole batch, objects or bounds array
        for bad in ([Range(1, 2), Range(2, 9)], np.array([[1, 2], [2, 9], [1, 1]])):
            with pytest.raises(RangeError, match=r"\[2, 9\]"):
                solver.batch(bad)
        assert (solver.q_seen, solver.q_guess) == (0, 1)
        assert solver.batch([Range(1, 3), Range(2, 3)]) == [1, 0]
        assert (solver.q_seen, solver.q_guess) == (2, 2)

    @ONLINE_INDICES
    def test_query_guess_below_one_is_refused(self, make):
        for q_guess in (0, -3):
            with pytest.raises(InputError, match="at least 1"):
                make(IntArray([1, 2, 1]), q_guess=q_guess)

    @pytest.mark.parametrize(
        "algo, problems",
        [("mo-online", PROBLEMS), ("online-eq", ("req", "2req", "2rdq"))],
    )
    def test_batch_builds_once(self, monkeypatch, algo, problems):
        # one native batch per solver call: one build for the whole batch,
        # where answering it query by query from q_guess = 1 would rebuild
        builds = []
        for cls in (MoOnline, OnlineEqSolver):
            prepare = cls._prepare
            monkeypatch.setattr(
                cls, "_prepare", lambda self, prepare=prepare: builds.append(self) or prepare(self)
            )
        rng = random.Random(37)
        a = rand_array(rng, 30, 0, 4)
        for problem in problems:
            if problem.startswith("2"):
                queries = [rand_pair(rng, 30) for _ in range(20)]
            else:
                queries = [rand_range(rng, 30) for _ in range(20)]
            builds.clear()
            answers = range_solver(problem, algo)(a, queries)
            assert answers == range_solver(problem, "oracle")(a, queries)
            assert len(builds) == 1


class TestMatmul:
    def test_examples(self):
        x = DenseMatrix([[1, 2], [3, 4]])
        y = DenseMatrix([[5, 6], [7, 8]])
        assert matmul(x, y).array.tolist() == [[19, 22], [43, 50]]
        ident = DenseMatrix(np.eye(3, dtype=np.int64))
        z = DenseMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert matmul(ident, z) == z
        zero = DenseMatrix([[0, 0], [0, 0]])
        assert matmul(zero, x) == zero

    def test_matches_triple_loop(self):
        rng = random.Random(41)
        for trial in range(200):
            if trial < 190:
                r, k, c = (rng.randint(1, 24) for _ in range(3))
            else:
                r = k = c = rng.randint(33, 64)
            ra = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)]
            rb = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(k)]
            a, b = DenseMatrix(ra), DenseMatrix(rb)
            expected = [
                [sum(ra[i][t] * rb[t][j] for t in range(k)) for j in range(c)]
                for i in range(r)
            ]
            assert matmul(a, b).array.tolist() == expected

    def test_rejects_possible_overflow(self):
        row = DenseMatrix([[2**31, 2**31]])
        with pytest.raises(InputError, match="int64"):
            matmul(row, DenseMatrix([[2**31], [2**31]]))
        fits = matmul(row, DenseMatrix([[2**31 - 1], [2**31 - 1]]))
        assert fits.array.tolist() == [[2**63 - 2**32]]
        with pytest.raises(InputError, match="int64"):
            matmul(DenseMatrix([[-(2**63)]]), DenseMatrix([[-1]]))

    def test_float_path_is_exact(self):
        # max|a| * max|b| * k just under 2**53: the float64 product, whose
        # partial sums are integers below 2**53, matches Python ints exactly
        rng = random.Random(42)
        for r, k, c in ((1, 1, 1), (3, 5, 4), (16, 16, 16)):
            peak = math.isqrt((2**53 - 1) // k)
            rows = [[rng.randint(-peak, peak) for _ in range(k)] for _ in range(r)]
            cols = [[rng.randint(-peak, peak) for _ in range(c)] for _ in range(k)]
            rows[0][0], cols[0][0] = peak, -peak
            x, y = DenseMatrix(rows), DenseMatrix(cols)
            assert 2**52 <= rangequery._peak(x) * rangequery._peak(y) * k < 2**53
            expected = [
                [sum(rows[i][t] * cols[t][j] for t in range(k)) for j in range(c)]
                for i in range(r)
            ]
            assert matmul(x, y).array.tolist() == expected

    def test_float_path_holds_one_table(self, monkeypatch):
        # online-eq's block product at n = 1024, q_hint = 4096 and 16
        # values: a 343 x 343 table, cast to int64 in its own buffer in
        # chunks of rows; casting it whole would hold two tables
        seen = []

        def measured(a, b):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            product = matmul(a, b)
            grown = tracemalloc.get_traced_memory()[1] - before
            seen.append((grown, product.array.nbytes, np.array_equal(product.array, a.array @ b.array)))
            return product

        monkeypatch.setattr(rangequery, "matmul", measured)
        a = rand_array(random.Random(35), 1024, 0, 15)
        tracemalloc.start()
        try:
            online_eq_build(a, q_hint=4096)
        finally:
            tracemalloc.stop()
        [(grown, table, exact)] = seen
        assert table == 343 * 343 * 8
        assert grown < 1.25 * table and exact

    def test_int_path_past_float_precision(self):
        # float64 would round 2**53 + 1 to 2**53
        product = matmul(DenseMatrix([[2**53 + 1]]), DenseMatrix([[1]]))
        assert product.array.tolist() == [[2**53 + 1]]
