"""Reductions among the range query problems."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ADVERSARIAL, ADVERSARIAL_IDS, query_objects, rand_array, rand_pair, rand_range
from rangetri import core, reductions_range
from rangetri.core import (
    EQP,
    INV,
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
    ranks,
)
from rangetri.reductions_range import (
    Decomposition,
    apply_decomposition,
    bit_count,
    bmm_via_2req,
    eqp_decomposition,
    inv_decomposition,
    reduce_1r_to_2r,
    reduce_2r_to_1r,
    reduce_eqp_to_inv,
    reduce_inv_to_eqp,
)
from rangetri.solvers import ALGOS, range_solver


def oracle_single(f):
    return lambda a, qs: [oracle_pairs_query(f, a, q) for q in query_objects(qs)]


def oracle_pairs(f):
    return lambda a, qs: [oracle_pairs_query(f, a, q) for q in query_objects(qs)]


def leq_decomposition(n):
    """[x <= y] for arrays of at most n distinct values: INV's terms with
    g and h swapped, which give [y > x], plus EQP's identity.  INV's maps
    read ranks, so each is composed with ``ranks`` to read values."""

    def on_ranks(m):
        return lambda v: m(ranks(v)[1])

    swapped = tuple((alpha, on_ranks(h), on_ranks(g)) for alpha, g, h in inv_decomposition(n).terms)
    return Decomposition(swapped + eqp_decomposition().terms)


# Members of the pair-function class beyond INV and EQP, each evaluated
# and decomposed on values: name -> (f, decomposition).  Their maps are
# defined on all of int64, so every ADVERSARIAL array is in their domain
# (leq's holds at most 16 distinct values).
MEMBERS = {
    "parity": (
        PairFunction.custom(lambda x, y: int(x % 2 == y % 2)),
        Decomposition(((1, lambda x: x % 2, lambda y: y % 2),)),
    ),
    "mod3": (
        PairFunction.custom(lambda x, y: int(x % 3 == y % 3)),
        Decomposition(((1, lambda x: x % 3, lambda y: y % 3),)),
    ),
    "div4": (
        PairFunction.custom(lambda x, y: int(x // 4 == y // 4)),
        Decomposition(((1, lambda x: x // 4, lambda y: y // 4),)),
    ),
    "leq": (PairFunction.custom(lambda x, y: int(x <= y)), leq_decomposition(16)),
}
# f(x, y) = [x = y + 1].  Its map y + 1 wraps at 2**63 - 1, which is
# outside this member's domain, so it is tested on small values only.
SUCCESSOR = (
    PairFunction.custom(lambda x, y: int(x == y + 1)),
    Decomposition(((1, lambda x: x, lambda y: y + 1),)),
)


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
        product = PairFunction.custom(lambda x, y: x * y)
        solver = reduce_1r_to_2r(product, oracle_pairs(product))
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
        # parity match counter f(x, y) = [x mod 2 == y mod 2], on values:
        # the parities of ranks would differ on 1, 4, 7
        f, d = MEMBERS["parity"]
        assert d.validate(16, f)
        solver = apply_decomposition(d, oracle_pairs(EQP))
        a = IntArray([1, 4, 7])
        assert solver(a, [pair(1, 1, 2, 3)]) == [1]
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 20)
            a = rand_array(rng, n, 0, 9)
            p = rand_pair(rng, n)
            assert solver(a, [p]) == [oracle_pairs_query(f, a, p)]


class TestBooleanMatrixProduct:
    @staticmethod
    def naive(x, y):
        d = x.rows
        xs, ys = x.array.tolist(), y.array.tolist()
        return DenseMatrix(
            [
                [1 if any(xs[i][k] and ys[k][j] for k in range(d)) else 0 for j in range(d)]
                for i in range(d)
            ]
        )

    def test_identity_and_ones(self):
        ident = DenseMatrix(np.eye(4, dtype=np.int64))
        ones = DenseMatrix([[1] * 4] * 4)
        solver = oracle_pairs(EQP)
        assert bmm_via_2req(ident, ident, solver) == ident
        assert bmm_via_2req(ones, ones, solver) == ones

    def test_random_pairs(self):
        rng = random.Random(9)
        solver = oracle_pairs(EQP)
        for _ in range(50):
            x = DenseMatrix([[rng.randint(0, 1) for _ in range(8)] for _ in range(8)])
            y = DenseMatrix([[rng.randint(0, 1) for _ in range(8)] for _ in range(8)])
            assert bmm_via_2req(x, y, solver) == self.naive(x, y)

    def test_rejects_bad_input(self):
        solver = oracle_pairs(EQP)
        with pytest.raises(ShapeError):
            bmm_via_2req(DenseMatrix([[0] * 3] * 2), DenseMatrix([[0] * 3] * 3), solver)
        with pytest.raises(InputError):
            bmm_via_2req(DenseMatrix([[2, 0], [0, 1]]), DenseMatrix([[1, 0], [0, 1]]), solver)


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


# name -> (solver, pair function answered, single ranges?); each member
# of the class goes through apply_decomposition (under its own name) and
# through reduce_1r_to_2r with its decomposition
REDUCTIONS = {
    "2r_to_1r-inv": (reduce_2r_to_1r(INV, oracle_single(INV)), INV, False),
    "2r_to_1r-eqp": (reduce_2r_to_1r(EQP, oracle_single(EQP)), EQP, False),
    "1r_to_2r-inv": (reduce_1r_to_2r(INV, oracle_pairs(INV)), INV, True),
    "1r_to_2r-eqp": (reduce_1r_to_2r(EQP, oracle_pairs(EQP)), EQP, True),
    "eqp_to_inv": (reduce_eqp_to_inv(oracle_pairs(INV)), EQP, False),
    "inv_to_eqp": (reduce_inv_to_eqp(oracle_pairs(EQP)), INV, False),
    **{
        name: (apply_decomposition(d, oracle_pairs(EQP)), f, False)
        for name, (f, d) in MEMBERS.items()
    },
    **{
        f"1r_to_2r-{name}": (reduce_1r_to_2r(f, oracle_pairs(f), d), f, True)
        for name, (f, d) in MEMBERS.items()
    },
}


class TestAdversarialShapes:
    """Every range reduction on the shared adversarial arrays, over every
    range or pair and q = 0, given as objects and as a bounds array."""

    @pytest.mark.parametrize("values", ADVERSARIAL, ids=ADVERSARIAL_IDS)
    @pytest.mark.parametrize("name", list(REDUCTIONS))
    def test_both_forms_match_oracle(self, name, values):
        solver, f, single = REDUCTIONS[name]
        a = IntArray(values)
        queries = every_range(a.n) if single else every_pair(a.n)
        b = bounds(queries, a.n, 2 if single else 4)
        want = [oracle_pairs_query(f, a, q) for q in queries]
        for batch in (queries, b, [], b[:0]):
            got = solver(a, batch)
            assert got == (want if len(batch) else [])
            assert all(type(x) is int for x in got)


class TestValueMembers:
    """Decompositions read the array's values, as the oracle does."""

    def test_successor_on_values(self):
        f, d = SUCCESSOR
        assert d.validate(16, f)
        pairs_solver = apply_decomposition(d, oracle_pairs(EQP))
        singles_solver = reduce_1r_to_2r(f, oracle_pairs(f), d)
        # on ranks [2, 1, 3, 0] these would read 1 and 2
        a = IntArray([10, 5, 20, 4])
        assert pairs_solver(a, [pair(1, 1, 2, 4)]) == [0]
        assert singles_solver(a, [Range(1, 4)]) == [1]
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 24)
            a = rand_array(rng, n, -50, 50)
            pairs = [rand_pair(rng, n) for _ in range(5)]
            singles = [rand_range(rng, n) for _ in range(5)]
            assert pairs_solver(a, pairs) == [oracle_pairs_query(f, a, p) for p in pairs]
            assert singles_solver(a, singles) == [oracle_pairs_query(f, a, q) for q in singles]

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("name", [*MEMBERS, "successor"])
    def test_every_2req_algo(self, name, algo):
        f, d = MEMBERS.get(name, SUCCESSOR)
        pairs_solver = apply_decomposition(d, range_solver("2req", algo))
        singles_solver = reduce_1r_to_2r(f, pairs_solver, d)
        rng = random.Random(12)
        for _ in range(6):
            n = rng.randint(2, 16)
            a = rand_array(rng, n, -50, 50)
            pairs = [rand_pair(rng, n) for _ in range(6)]
            singles = [rand_range(rng, n) for _ in range(6)]
            assert pairs_solver(a, pairs) == [oracle_pairs_query(f, a, p) for p in pairs]
            assert singles_solver(a, singles) == [oracle_pairs_query(f, a, q) for q in singles]


# f(x, y) = [x = y mod 2] - [x = y mod 3] + [x // 4 = y // 4], as four
# terms whose outputs collide across terms (parity twice, with alpha 2
# and -1): only the offsets of a packed call keep the terms apart
COLLIDING = (
    PairFunction.custom(lambda x, y: int(x % 2 == y % 2) - int(x % 3 == y % 3) + int(x // 4 == y // 4)),
    Decomposition((
        (2, lambda x: x % 2, lambda y: y % 2),
        (-1, lambda x: x % 3, lambda y: y % 3),
        (1, lambda x: x // 4, lambda y: y // 4),
        (-1, lambda x: x % 2, lambda y: y % 2),
    )),
)


def recording(calls):
    """The EQP oracle as an eqp_solver that records each call's
    (array length, number of queries)."""
    inner = oracle_pairs(EQP)

    def solver(a, qs):
        calls.append((a.n, len(qs)))
        return inner(a, qs)

    return solver


class TestPackedTerms:
    """apply_decomposition lays consecutive terms side by side in one
    eqp_solver call while their sizes 2n * q sum to at most TERM_BUDGET."""

    # None keeps the module's budget
    @pytest.mark.parametrize("budget", [None, 0, 24, 200])
    def test_calls_within_budget_match_oracle(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(reductions_range, "TERM_BUDGET", budget)
        budget = reductions_range.TERM_BUDGET
        f, d = COLLIDING
        assert d.validate(16, f)
        rng = random.Random(13)
        for n in (1, 2, 3, 7, 12):
            a = rand_array(rng, n, -9, 9)
            for q in (0, 1, 4) if n > 1 else (0,):
                pairs = [rand_pair(rng, n) for _ in range(q)]
                calls = []
                assert apply_decomposition(d, recording(calls))(a, pairs) == [
                    oracle_pairs_query(f, a, p) for p in pairs
                ]
                if not q:
                    assert calls == []
                    continue
                size = 2 * n * q
                terms = [length // (2 * n) for length, _ in calls]
                assert sum(terms) == len(d)
                assert [asked for _, asked in calls] == [k * q for k in terms]
                assert all(k == 1 or k * size <= budget for k in terms)
                # greedy: every call takes as many terms as fit, at least one
                assert len(calls) == math.ceil(len(d) / max(1, budget // size))

    def test_terms_over_budget_go_one_per_call(self):
        f, d = COLLIDING
        n = 16
        q = reductions_range.TERM_BUDGET // (2 * n) + 1
        rng = random.Random(14)
        a = rand_array(rng, n, 0, 9)
        pairs = [rand_pair(rng, n) for _ in range(q)]
        calls = []
        got = apply_decomposition(d, recording(calls))(a, pairs)
        assert calls == [(2 * n, q)] * len(d)
        assert got == [oracle_pairs_query(f, a, p) for p in pairs]


def counted_ranks(monkeypatch) -> list:
    """Rebind ``core.ranks`` wherever a rangetri module bound it, to a
    wrapper that appends to the returned list on every call."""
    calls = []
    original = core.ranks

    def counted(values):
        calls.append(1)
        return original(values)

    for name, mod in list(sys.modules.items()):
        if name == "rangetri" or name.startswith("rangetri."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestRankOnce:
    """INV's bit split ranks the array once per call and each term's
    array once: 1 + k calls of ``core.ranks`` for k terms, around an
    inner oracle that ranks nothing.  EQP's one identity term is ranked
    once, and the array is not ranked before it."""

    @pytest.mark.parametrize(
        "solver, f, single, ranked",
        [
            (reduce_inv_to_eqp(oracle_pairs(EQP)), INV, False, 1 + bit_count(32)),
            (reduce_1r_to_2r(INV, oracle_pairs(INV)), INV, True, 1 + bit_count(32)),
            (reduce_1r_to_2r(EQP, oracle_pairs(EQP)), EQP, True, 1),
        ],
        ids=["inv_to_eqp", "1r_to_2r-inv", "1r_to_2r-eqp"],
    )
    def test_one_rank_per_array_and_term(self, monkeypatch, solver, f, single, ranked):
        rng = random.Random(15)
        n = 32
        a = rand_array(rng, n, -10**9, 10**9)
        queries = [rand_range(rng, n) if single else rand_pair(rng, n) for _ in range(6)]
        calls = counted_ranks(monkeypatch)
        got = solver(a, queries)
        assert len(calls) == ranked
        assert got == [oracle_pairs_query(f, a, q) for q in queries]
