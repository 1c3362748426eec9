"""Reductions among the range query problems."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ADVERSARIAL, ADVERSARIAL_IDS, query_objects, rand_array, rand_pair, rand_range
from rangetri.core import (
    EQP,
    INV,
    MUL,
    CapabilityError,
    DenseMatrix,
    InputError,
    IntArray,
    PairFunction,
    Range,
    ShapeError,
    bounds,
    oracle_pairs_query,
    pair,
)
from rangetri.reductions_range import (
    Decomposition,
    apply_decomposition,
    bmm_via_2req,
    eqp_decomposition,
    inv_bit_arrays,
    inv_decomposition,
    mul_pairs_fast,
    reduce_1r_to_2r,
    reduce_2r_to_1r,
    reduce_eqp_to_inv,
    reduce_inv_to_eqp,
)


def oracle_single(f):
    return lambda a, qs: [oracle_pairs_query(f, a, q) for q in query_objects(qs)]


def oracle_pairs(f):
    return lambda a, qs: [oracle_pairs_query(f, a, q) for q in query_objects(qs)]


class TestDecomposition:
    def test_eqp_identity(self):
        assert eqp_decomposition().validate(64, lambda x, y: int(x == y))

    @given(st.integers(min_value=1, max_value=64))
    def test_inv_decomposition_valid(self, n):
        d = inv_decomposition(n)
        assert d.validate(n, lambda x, y: int(x > y))

    @given(st.integers(min_value=1, max_value=300))
    def test_term_count(self, n):
        k = 1 if n == 1 else math.ceil(math.log2(n))
        assert len(inv_decomposition(n)) == max(1, k)

    def test_bit_arrays_shape(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(1, 40)
            a = rand_array(rng, n)
            arrays = inv_bit_arrays(a)
            k = 1 if n == 1 else math.ceil(math.log2(n))
            assert len(arrays) == max(1, k)
            assert all(t.n == 2 * n for t in arrays)

    def test_bit_identity_on_every_query(self):
        # the per-term equal-pair sums reproduce inversions exactly
        rng = random.Random(1)
        for _ in range(60):
            n = rng.randint(2, 32)
            a = rand_array(rng, n, 0, 8)
            p = rand_pair(rng, n)
            arrays = inv_bit_arrays(a)
            shifted = pair(p.first.l, p.first.r, n + p.second.l, n + p.second.r)
            total = sum(oracle_pairs_query(EQP, t, shifted) for t in arrays)
            assert total == oracle_pairs_query(INV, a, p)


class TestTwoRangeFromSingle:
    @pytest.mark.parametrize("f", [INV, EQP], ids=["inv", "eqp"])
    def test_matches_oracle(self, f):
        rng = random.Random(2)
        solver = reduce_2r_to_1r(f, oracle_single(f))
        for _ in range(150):
            n = rng.randint(2, 40)
            a = rand_array(rng, n, -4, 4)
            pairs = [rand_pair(rng, n) for _ in range(6)]
            assert solver(a, pairs) == [oracle_pairs_query(f, a, p) for p in pairs]

    def test_empty_batch(self):
        solver = reduce_2r_to_1r(INV, oracle_single(INV))
        assert solver(IntArray([1, 2]), []) == []


class TestSingleFromTwoRange:
    @pytest.mark.parametrize("f", [INV, EQP], ids=["inv", "eqp"])
    def test_matches_oracle(self, f):
        rng = random.Random(3)
        solver = reduce_1r_to_2r(f, oracle_pairs(f))
        for _ in range(150):
            n = rng.randint(1, 40)
            a = rand_array(rng, n, -4, 4)
            queries = [rand_range(rng, n) for _ in range(6)]
            assert solver(a, queries) == [oracle_pairs_query(f, a, q) for q in queries]

    def test_no_decomposition_for_opaque_function(self):
        solver = reduce_1r_to_2r(MUL, oracle_pairs(MUL))
        with pytest.raises(CapabilityError):
            solver(IntArray([1, 2, 3]), [rand_range(random.Random(0), 3)])


class TestEqpInvInterplay:
    def test_eqp_from_inv(self):
        rng = random.Random(4)
        solver = reduce_eqp_to_inv(oracle_pairs(INV))
        for _ in range(100):
            n = rng.randint(2, 40)
            a = rand_array(rng, n, -4, 4)
            pairs = [rand_pair(rng, n) for _ in range(5)]
            assert solver(a, pairs) == [oracle_pairs_query(EQP, a, p) for p in pairs]

    def test_inv_from_eqp(self):
        rng = random.Random(5)
        solver = reduce_inv_to_eqp(oracle_pairs(EQP))
        for _ in range(100):
            n = rng.randint(2, 40)
            a = rand_array(rng, n, -4, 4)
            pairs = [rand_pair(rng, n) for _ in range(5)]
            assert solver(a, pairs) == [oracle_pairs_query(INV, a, p) for p in pairs]

    def test_identity_decomposition_is_transparent(self):
        rng = random.Random(6)
        wrapped = apply_decomposition(eqp_decomposition(), oracle_pairs(EQP))
        for _ in range(50):
            n = rng.randint(2, 30)
            a = rand_array(rng, n, 0, 5)
            pairs = [rand_pair(rng, n) for _ in range(4)]
            assert wrapped(a, pairs) == oracle_pairs(EQP)(a, pairs)

    def test_custom_decomposition(self):
        # parity match counter: f(x, y) = [x mod 2 == y mod 2]
        d = Decomposition(((1, lambda x: x % 2, lambda y: y % 2),))
        assert d.validate(16, lambda x, y: int(x % 2 == y % 2))
        rng = random.Random(7)
        solver = apply_decomposition(d, oracle_pairs(EQP))
        for _ in range(30):
            n = rng.randint(2, 20)
            a = rand_array(rng, n, 0, 9)
            p = rand_pair(rng, n)
            vals = a.normalized().values
            expected = sum(
                int(vals[i] % 2 == vals[j] % 2)
                for i in range(p.first.l - 1, p.first.r)
                for j in range(p.second.l - 1, p.second.r)
            )
            assert solver(a, [p]) == [expected]


class TestMulFast:
    def test_examples(self):
        a = IntArray([1, 2, 3])
        assert mul_pairs_fast(a, [pair(1, 1, 2, 3)]) == [5]
        assert mul_pairs_fast(IntArray([0, 0, 0]), [pair(1, 2, 3, 3)]) == [0]
        b = IntArray([2, 3, 4, 5])
        assert mul_pairs_fast(b, [pair(2, 2, 4, 4)]) == [15]

    def test_matches_oracle(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(2, 30)
            a = rand_array(rng, n, -9, 9)
            pairs = [rand_pair(rng, n) for _ in range(5)]
            assert mul_pairs_fast(a, pairs) == [oracle_pairs_query(MUL, a, p) for p in pairs]


class TestBooleanMatrixProduct:
    @staticmethod
    def naive(x, y):
        d = x.rows
        return DenseMatrix.from_rows(
            [
                [1 if any(x[i, k] and y[k, j] for k in range(d)) else 0 for j in range(d)]
                for i in range(d)
            ]
        )

    def test_identity_and_ones(self):
        ident = DenseMatrix.identity(4)
        ones = DenseMatrix(4, 4, [1] * 16)
        solver = oracle_pairs(EQP)
        assert bmm_via_2req(ident, ident, solver) == ident
        assert bmm_via_2req(ones, ones, solver) == ones

    def test_random_pairs(self):
        rng = random.Random(9)
        solver = oracle_pairs(EQP)
        for _ in range(50):
            x = DenseMatrix(8, 8, [rng.randint(0, 1) for _ in range(64)])
            y = DenseMatrix(8, 8, [rng.randint(0, 1) for _ in range(64)])
            assert bmm_via_2req(x, y, solver) == self.naive(x, y)

    def test_rejects_bad_input(self):
        solver = oracle_pairs(EQP)
        with pytest.raises(ShapeError):
            bmm_via_2req(DenseMatrix.zeros(2, 3), DenseMatrix.zeros(3, 3), solver)
        with pytest.raises(InputError):
            bmm_via_2req(
                DenseMatrix.from_rows([[2, 0], [0, 1]]), DenseMatrix.identity(2), solver
            )


PARITY = Decomposition(((1, lambda x: x % 2, lambda y: y % 2),))


def every_range(n):
    return [Range(l, r) for l in range(1, n + 1) for r in range(l, n + 1)]


def every_pair(n):
    return [
        pair(l1, r1, l2, r2)
        for l1 in range(1, n + 1)
        for r1 in range(l1, n + 1)
        for l2 in range(r1 + 1, n + 1)
        for r2 in range(l2, n + 1)
    ]


# name -> (solver, pair function answered, single ranges?, oracle on ranks?)
REDUCTIONS = {
    "2r_to_1r-inv": (reduce_2r_to_1r(INV, oracle_single(INV)), INV, False, False),
    "2r_to_1r-eqp": (reduce_2r_to_1r(EQP, oracle_single(EQP)), EQP, False, False),
    "1r_to_2r-inv": (reduce_1r_to_2r(INV, oracle_pairs(INV)), INV, True, False),
    "1r_to_2r-eqp": (reduce_1r_to_2r(EQP, oracle_pairs(EQP)), EQP, True, False),
    "eqp_to_inv": (reduce_eqp_to_inv(oracle_pairs(INV)), EQP, False, False),
    "inv_to_eqp": (reduce_inv_to_eqp(oracle_pairs(EQP)), INV, False, False),
    "parity": (
        apply_decomposition(PARITY, oracle_pairs(EQP)),
        PairFunction.custom(lambda x, y: int(x % 2 == y % 2)),
        False,
        True,
    ),
    "mul": (mul_pairs_fast, MUL, False, False),
}


class TestAdversarialShapes:
    """Every range reduction on the shared adversarial arrays, over every
    range or pair and q = 0, given as objects and as a bounds array."""

    @pytest.mark.parametrize("values", ADVERSARIAL, ids=ADVERSARIAL_IDS)
    @pytest.mark.parametrize("name", list(REDUCTIONS))
    def test_both_forms_match_oracle(self, name, values):
        solver, f, single, on_ranks = REDUCTIONS[name]
        a = IntArray(values)
        queries = every_range(a.n) if single else every_pair(a.n)
        b = bounds(queries, a.n, 2 if single else 4)
        reference = a.normalized() if on_ranks else a
        want = [oracle_pairs_query(f, reference, q) for q in queries]
        for batch in (queries, b, [], b[:0]):
            got = solver(a, batch)
            assert got == (want if len(batch) else [])
            assert all(type(x) is int for x in got)

    def test_mul_beyond_int64(self):
        # range sums of values near 2**62 leave int64, and so do products
        rng = random.Random(10)
        for _ in range(20):
            n = rng.randint(2, 12)
            a = IntArray([rng.choice([1, -1]) * rng.randint(2**62 - 99, 2**62) for _ in range(n)])
            pairs = every_pair(n)
            want = [oracle_pairs_query(MUL, a, p) for p in pairs]
            assert mul_pairs_fast(a, pairs) == want
            assert mul_pairs_fast(a, bounds(pairs, n, 4)) == want
