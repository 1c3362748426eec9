"""Mo's algorithm (offline and online), the online equal-pairs
structure, and matrix multiplication."""

import math
import random

import pytest

from conftest import rand_array, rand_range
from rangetri.core import (
    EQP,
    INV,
    MUL,
    CapabilityError,
    DenseMatrix,
    InputError,
    IntArray,
    Range,
    normalize,
    oracle_pairs_query,
)
from rangetri.instrument import OpCounters
from rangetri.rangequery import (
    Fenwick,
    MoOnline,
    OnlineEqSolver,
    make_extender,
    matmul,
    mo_block_size,
    mo_offline,
    online_eq_build,
    online_eq_query,
)


class TestFenwick:
    def test_prefix_counts(self):
        fw = Fenwick(8)
        for v in [3, 1, 3, 7]:
            fw.add(v, 1)
        assert fw.prefix(0) == 0
        assert fw.prefix(3) == 3
        assert fw.prefix(7) == 4
        assert fw.total == 4


class TestExtender:
    @pytest.mark.parametrize("f", [INV, EQP], ids=["inv", "eqp"])
    def test_random_walk_soundness(self, f):
        rng = random.Random(7)
        n = 60
        a = rand_array(rng, n, 0, 9)
        vals = normalize(a.values)
        ext = make_extender(f, max(vals) + 1)
        l, r = 1, 0  # empty range
        for _ in range(1000):
            moves = []
            if r < n:
                moves.append("ar")
            if l > 1:
                moves.append("al")
            if r >= l:
                moves.extend(["rr", "rl"])
            move = rng.choice(moves)
            if move == "ar":
                r += 1
                ext.add_right(vals[r - 1])
            elif move == "al":
                l -= 1
                ext.add_left(vals[l - 1])
            elif move == "rr":
                ext.remove_right(vals[r - 1])
                r -= 1
            else:
                ext.remove_left(vals[l - 1])
                l += 1
            expected = 0 if l > r else oracle_pairs_query(f, a, Range(l, r))
            assert ext.answer == expected

    def test_unsupported_function(self):
        with pytest.raises(CapabilityError):
            make_extender(MUL, 4)


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

    def test_full_precompute_fallback(self):
        # q > n^2 triggers the precomputation path
        rng = random.Random(12)
        a = IntArray([2, 0, 2, 1])
        queries = [rand_range(rng, 4) for _ in range(20)]
        expected = [oracle_pairs_query(INV, a, q) for q in queries]
        assert mo_offline(INV, a, queries) == expected

    def test_step_budget(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(4, 80)
            q = rng.randint(1, 40)
            a = rand_array(rng, n, 0, 5)
            queries = [rand_range(rng, n) for _ in range(q)]
            counters = OpCounters()
            mo_offline(EQP, a, queries, counters=counters)
            block = mo_block_size(n, q)
            budget = 4 * (n + block * q + n * n / block)
            assert counters.extender_steps <= budget


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
            assert adaptive.q_guess == 64  # six rebuilds happened

    @pytest.mark.parametrize(
        "values",
        [
            [7],
            [3, 3],
            [2, -9],
            [5] * 12,
            list(range(1, 13)),
            list(range(12, 0, -1)),
            [-4, 10**9, -4, 0, -(10**9), 10**9, -3],
        ],
        ids=["n1", "n2-equal", "n2-decreasing", "all-equal", "increasing", "decreasing", "negative"],
    )
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

    def test_step_budget(self):
        # rows cost n - s per block start s, a front extension fewer than B steps
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 80)
            q = rng.randint(1, 60)
            a = rand_array(rng, n, 0, 5)
            queries = [rand_range(rng, n) for _ in range(q)]
            block = mo_block_size(n, q)
            for f in (EQP, INV):
                counters = OpCounters()
                online = MoOnline(f, a, counters=counters, q_guess=q)
                for x in queries:
                    online.query(x)
                assert online.block == block
                assert counters.extender_steps <= n * n / block + n + q * block


class TestOnlineEq:
    def test_all_equal_block(self):
        s = online_eq_build(IntArray([1] * 8), q_hint=8)
        assert online_eq_query(s, Range(1, 8)) == 28

    def test_all_distinct(self):
        s = online_eq_build(IntArray([1, 2, 3, 4]), q_hint=4)
        for l in range(1, 5):
            for r in range(l, 5):
                assert online_eq_query(s, Range(l, r)) == 0

    def test_structure_invariants(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 60)
            a = rand_array(rng, n, 0, 7)
            s = online_eq_build(a, q_hint=rng.randint(1, 100))
            bc = s.b_cnt
            for i in range(bc):
                for j in range(bc):
                    assert s.mat_b[i, j] == s.mat_bf[i, j] + s.mat_br[i, j]
                    assert (
                        s.prefix[i + 1, j + 1]
                        == s.prefix[i + 1, j]
                        + s.prefix[i, j + 1]
                        - s.prefix[i, j]
                        + s.mat_b[i, j]
                    )

    def test_matches_oracle(self):
        rng = random.Random(32)
        a = rand_array(rng, 64, 0, 7)
        s = online_eq_build(a, q_hint=100)
        for _ in range(100):
            q = rand_range(rng, 64)
            assert online_eq_query(s, q) == oracle_pairs_query(EQP, a, q)

    def test_adaptive_solver(self):
        rng = random.Random(33)
        for _ in range(20):
            n = rng.randint(1, 40)
            a = rand_array(rng, n, 0, 5)
            solver = OnlineEqSolver(a)
            for _ in range(rng.randint(1, 20)):
                q = rand_range(rng, n)
                assert solver.query(q) == oracle_pairs_query(EQP, a, q)

    def test_omega_is_tuning_only(self):
        rng = random.Random(34)
        a = rand_array(rng, 48, 0, 5)
        queries = [rand_range(rng, 48) for _ in range(30)]
        expected = [oracle_pairs_query(EQP, a, q) for q in queries]
        for omega in (2.0, 2.807, 3.0):
            s = online_eq_build(a, q_hint=30, omega_eff=omega)
            assert [online_eq_query(s, q) for q in queries] == expected


class TestMatmul:
    def test_examples(self):
        x = DenseMatrix.from_rows([[1, 2], [3, 4]])
        y = DenseMatrix.from_rows([[5, 6], [7, 8]])
        assert matmul(x, y).to_rows() == [[19, 22], [43, 50]]
        ident = DenseMatrix.identity(3)
        z = DenseMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert matmul(ident, z) == z
        zero = DenseMatrix.zeros(2, 2)
        assert matmul(zero, x) == zero

    def test_matches_triple_loop(self):
        rng = random.Random(41)
        for trial in range(200):
            if trial < 190:
                r, k, c = (rng.randint(1, 24) for _ in range(3))
            else:
                r = k = c = rng.randint(33, 64)
            a = DenseMatrix(r, k, [rng.randint(-9, 9) for _ in range(r * k)])
            b = DenseMatrix(k, c, [rng.randint(-9, 9) for _ in range(k * c)])
            ra, rb = a.to_rows(), b.to_rows()
            expected = [
                [sum(ra[i][t] * rb[t][j] for t in range(k)) for j in range(c)]
                for i in range(r)
            ]
            assert matmul(a, b).to_rows() == expected

    def test_rejects_possible_overflow(self):
        row = DenseMatrix.from_rows([[2**31, 2**31]])
        with pytest.raises(InputError, match="int64"):
            matmul(row, DenseMatrix.from_rows([[2**31], [2**31]]))
        fits = matmul(row, DenseMatrix.from_rows([[2**31 - 1], [2**31 - 1]]))
        assert fits.to_rows() == [[2**63 - 2**32]]
        with pytest.raises(InputError, match="int64"):
            matmul(DenseMatrix.from_rows([[-(2**63)]]), DenseMatrix.from_rows([[-1]]))

    def test_counts_calls(self):
        counters = OpCounters()
        x = DenseMatrix.identity(2)
        matmul(x, x, counters=counters)
        matmul(x, x, counters=counters)
        assert counters.matmul_calls == 2
