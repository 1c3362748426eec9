"""Core types, normalization, and the brute-force oracles."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import complete_graph, cycle_graph, path_graph, rand_array, rand_graph, rand_pair, rand_range
from rangetri.core import (
    DENSE_SPAN,
    EQP,
    INV,
    DenseMatrix,
    Graph,
    InputError,
    IntArray,
    PairFunction,
    Range,
    RangeError,
    RangePair,
    ShapeError,
    as_queries,
    bounds,
    compact,
    normalize,
    oracle_disjoint_query,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_minmax,
    oracle_pairs_query,
    oracle_triangle_list,
    pack,
    pair,
    ranks,
)

short_int_lists = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40)


class TestNormalize:
    def test_examples(self):
        assert normalize([30, -5, 30, 7]).tolist() == [2, 0, 2, 1]
        assert normalize([4]).tolist() == [0]
        assert normalize([1, 2, 3]).tolist() == [0, 1, 2]

    @given(short_int_lists)
    def test_idempotent(self, values):
        once = normalize(values)
        assert normalize(once).tolist() == once.tolist()

    @given(short_int_lists)
    def test_order_preserving(self, values):
        ranks = normalize(values)
        for i in range(len(values)):
            for j in range(len(values)):
                assert (values[i] < values[j]) == (ranks[i] < ranks[j])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            normalize([])


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def id_arrays(draw) -> np.ndarray:
    """int64 ids, flat or as (k, 2) edge rows, drawn from a window of
    width 1, up to DENSE_SPAN * size, just past it, or all of int64,
    placed anywhere in int64 (so at either extreme too)."""
    size = draw(st.integers(1, 24))
    dense = DENSE_SPAN * size
    width = draw(st.sampled_from([1, dense, dense + 1, dense + 7, 2**64]))
    lo = draw(st.integers(INT64_MIN, INT64_MAX - width + 1))
    values = np.array(draw(st.lists(st.integers(lo, lo + width - 1), min_size=size, max_size=size)))
    if draw(st.booleans()) and size % 2 == 0:
        values = values.reshape(-1, 2)
    return values.astype(np.int64)


def assert_ranks_like_unique(values) -> None:
    distinct, inverse = ranks(values)
    want_distinct, want_inverse = np.unique(values, return_inverse=True)
    assert distinct.tolist() == want_distinct.tolist()
    assert inverse.dtype == np.int64 and inverse.shape == np.shape(values)
    assert inverse.tolist() == want_inverse.reshape(np.shape(values)).tolist()


class TestRanks:
    @given(id_arrays())
    def test_matches_unique(self, values):
        assert_ranks_like_unique(values)

    @pytest.mark.parametrize(
        "values",
        [
            [5],
            [INT64_MIN],
            [INT64_MAX, INT64_MAX],
            [-3, -9, -3, -1],
            [INT64_MIN, INT64_MAX, 0],
            [INT64_MIN, INT64_MIN + 2, INT64_MIN + 1],
            [INT64_MAX - 1, INT64_MAX - 3, INT64_MAX],
            [[7, -2], [-2, 10**9], [3, 7]],
            [[INT64_MAX, INT64_MIN], [INT64_MIN, 0]],
        ],
    )
    def test_examples(self, values):
        assert_ranks_like_unique(np.array(values, dtype=np.int64))

    @pytest.mark.parametrize("past", [0, 1])
    def test_sorts_only_past_dense_span(self, past, monkeypatch):
        # six ids spanning exactly DENSE_SPAN * 6 are ranked without a
        # sort; one more id of span sends them to np.unique
        values = np.array([-4, -4 + DENSE_SPAN * 6 - 1 + past, 0, -1, 0, 2], dtype=np.int64)
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
        ranks(values)
        assert len(calls) == past
        monkeypatch.undo()
        assert_ranks_like_unique(values)

    def test_lists_and_other_dtypes(self):
        for values in ([3, 1, 3], [2**64, -1, 2**64], np.array([2**63, 5], dtype=np.uint64), [1.5, -2.0, 1.5]):
            assert_ranks_like_unique(values)


class TestTypes:
    def test_array_validation(self):
        with pytest.raises(InputError):
            IntArray([])
        a = IntArray([3, 1, 2])
        assert a.n == 3
        assert IntArray([10**9]).values.tolist() == [10**9]
        assert normalize(a.values).tolist() == [2, 0, 1]

    def test_range_validation(self):
        with pytest.raises(RangeError):
            Range(0, 3)
        with pytest.raises(RangeError):
            Range(4, 3)
        with pytest.raises(RangeError):
            Range(1, 5).check(4)
        assert Range(2, 4).length == 3

    def test_array_is_read_only_int64(self):
        a = IntArray(v for v in (2**63 - 1, -(2**63)))
        assert a.values.dtype == np.int64 and a.values.tolist() == [2**63 - 1, -(2**63)]
        with pytest.raises(ValueError):
            a.values[0] = 1
        for big in (2**63, -(2**63) - 1):
            with pytest.raises(InputError, match=r"^array value outside int64$"):
                IntArray([1, big])

    def test_unsigned_arrays_must_fit_int64(self):
        big = np.array([2**63, 1], dtype=np.uint64)
        with pytest.raises(InputError, match=r"^array value outside int64$"):
            IntArray(big)
        with pytest.raises(InputError, match=r"^matrix entry outside int64$"):
            DenseMatrix(1, 2, big)
        with pytest.raises(InputError, match=r"^matrix entry outside int64$"):
            DenseMatrix.from_rows(big.reshape(1, 2))
        fits = np.array([2**63 - 1, 0], dtype=np.uint64)
        assert IntArray(fits).values.tolist() == [2**63 - 1, 0]
        assert DenseMatrix(2, 1, fits).entries == [2**63 - 1, 0]
        # an int64 array is copied before it is made read-only
        own = np.array([3, 1])
        assert IntArray(own).values.tolist() == [3, 1] and own.flags.writeable

    @pytest.mark.parametrize(
        "values",
        [
            [1.5, 2],
            [1.0, 2],
            ["1", "2"],
            [b"1", 2],
            [1, None],
            [[1, 2], [3]],
            np.array([1.5, 2.0]),
            np.array([1, 2], dtype=np.float16),
            np.array(["1", "2"]),
            np.array([1, 2], dtype=object) + 0.5,
        ],
        ids=[
            "float", "integral-float", "strings", "bytes", "none", "ragged", "float-array",
            "float16-array", "string-array", "object-floats",
        ],
    )
    def test_non_integers_rejected(self, values):
        """Nothing is truncated or parsed: a non-integer entry or dtype is
        an InputError for arrays and matrices alike."""
        with pytest.raises(InputError, match=r"^array values must be integers$"):
            IntArray(values)
        with pytest.raises(InputError, match=r"^matrix entries must be integers$"):
            DenseMatrix(1, len(values), values)

    def test_integer_forms_accepted(self):
        forms = [[1, 2], (1, 2), [np.int8(1), np.uint64(2)], [True, 2],
                 np.array([1, 2], dtype=np.int16), np.array([1, 2], dtype=object)]
        for values in forms:
            assert IntArray(values).values.tolist() == [1, 2]
            assert DenseMatrix(1, 2, values).entries == [1, 2]
        # ints that no single numpy dtype holds are still checked for range
        assert IntArray([-1, 2**63 - 1]).values.tolist() == [-1, 2**63 - 1]
        with pytest.raises(InputError, match=r"^array value outside int64$"):
            IntArray([-1, 2**63])

    def test_pair_nonoverlap(self):
        with pytest.raises(RangeError):
            pair(1, 3, 3, 5)
        with pytest.raises(RangeError):
            pair(4, 5, 1, 2)
        p = pair(1, 2, 4, 5)
        assert p.first.r < p.second.l

    def test_pair_function(self):
        assert INV(3, 1) == 1 and INV(1, 3) == 0 and INV(2, 2) == 0
        assert EQP(5, 5) == 1 and EQP(5, 6) == 0
        with pytest.raises(InputError):
            PairFunction.builtin("nope")

    def test_graph_validation(self):
        with pytest.raises(InputError, match=r"^self-loop at vertex 1$"):
            Graph(2, [(1, 1)])
        with pytest.raises(InputError, match=r"^parallel edge \(1, 2\)$"):
            Graph(2, [(1, 2), (2, 1)])
        with pytest.raises(InputError, match=r"^isolated vertex 3$"):
            Graph(3, [(1, 2)])
        with pytest.raises(InputError, match=r"^isolated vertex 2$"):
            Graph(5, [(1, 3), (3, 4), (4, 5)])
        with pytest.raises(InputError, match=r"^edge \(1, 3\) outside vertex range 1..2$"):
            Graph(2, [(1, 3)])
        g = Graph(3, [(3, 1), (2, 3)])
        assert g.m == 2 and g.neighbors(3) == [1, 2]
        assert g.edge_index(1, 3) == 0 and g.edge_index(3, 2) == 1 and g.edge_index(1, 2) == -1

        pairs = [(4, 2), (1, 2), (3, 1), (2, 3), (5, 4)]
        arr = np.array(pairs, dtype=np.int64)
        for h in (Graph(5, arr), Graph(5, arr.astype(np.int32))):
            g = Graph(5, pairs)
            assert (h.n, h.m, h.sorted_edges()) == (g.n, g.m, g.sorted_edges())
            assert all(h.neighbors(v) == g.neighbors(v) for v in range(1, 6))
        assert g.sorted_edges() == [(1, 2), (1, 3), (2, 3), (2, 4), (4, 5)]
        assert [g.neighbors(v) for v in range(1, 6)] == [[2, 3], [1, 3, 4], [1, 2], [2, 5], [4]]
        assert [g.degree(v) for v in range(1, 6)] == [2, 3, 2, 2, 1]
        values = [g.n, g.m, g.degree(2), *g.neighbors(2), *(x for e in g.sorted_edges() for x in e)]
        assert all(type(x) is int for x in values)

    @pytest.mark.parametrize(
        "edges",
        [
            [(1, 2), (2, 3)],
            [[1, 2], [2, 3]],
            ((1, 2), (2, 3)),
            iter([(1, 2), (2, 3)]),
            [(np.int64(1), np.int32(2)), (np.uint8(2), 3)],
            [np.array([1, 2]), np.array([2, 3])],
            np.array([[1, 2], [2, 3]], dtype=np.int64),
            np.array([[1, 2], [2, 3]], dtype=np.uint16),
        ],
        ids=["tuples", "lists", "tuple", "iterator", "numpy-scalars", "array-rows", "int64", "uint16"],
    )
    def test_graph_accepts_every_pair_form(self, edges):
        g = Graph(3, edges)
        assert g.sorted_edges() == [(1, 2), (2, 3)]
        assert all(type(x) is int for e in g.sorted_edges() for x in e)

    @pytest.mark.parametrize("edges", [[], (), iter([]), np.zeros((0, 2), dtype=np.int64), np.zeros(0)])
    def test_graph_accepts_empty_input(self, edges):
        g = Graph(0, edges)
        assert (g.n, g.m, g.sorted_edges()) == (0, 0, [])

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(1, 2, 3), (4,)], "edges must be vertex pairs"),
            ([(1, 2), (2, 3, 1)], "edges must be vertex pairs"),
            ([(1, 2, 3), (1, 2, 3)], "edges must be vertex pairs"),
            ([(1, 2), ()], "edges must be vertex pairs"),
            ([1, 2], "edges must be vertex pairs"),
            (["12", "23"], "edges must be vertex pairs"),
            ([b"12"], "edges must be vertex pairs"),
            (np.array([1, 2]), "edges must be vertex pairs"),
            (np.array([[1, 2, 3]]), "edges must be vertex pairs"),
            ([(1, None)], "vertex ids must be integers"),
            ([((1, 2), (2, 3))], "vertex ids must be integers"),
            ([(2**63, 1)], "vertex id outside int64"),
            ([(1, -(2**63) - 1)], "vertex id outside int64"),
            (np.array([[2**63, 1]], dtype=np.uint64), "vertex id outside int64"),
            ([(1.5, 2), (2, 3)], "vertex ids must be integers"),
            ([(1, 2.0), (2, 3)], "vertex ids must be integers"),
            ([("1", "2"), (2, 3)], "vertex ids must be integers"),
            ([(b"1", 2), (2, 3)], "vertex ids must be integers"),
            (np.array([[1.5, 2], [2, 3]]), "vertex ids must be integers"),
            (np.array([[1, 2], [2, 3]], dtype=np.float32), "vertex ids must be integers"),
            (np.array([["1", "2"], ["2", "3"]]), "vertex ids must be integers"),
        ],
        ids=[
            "ragged", "one-triple", "triples", "empty-item", "flat", "strings", "bytes",
            "flat-array", "wide-array", "none", "nested", "big", "small", "big-unsigned",
            "float-id", "integral-float-id", "string-ids", "bytes-id", "float-array",
            "integral-float-array", "string-array",
        ],
    )
    def test_graph_rejects_malformed_edges(self, edges, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            Graph(3, edges)

    def test_edge_index(self):
        g = Graph(5, [(4, 2), (1, 2), (3, 1), (2, 3), (5, 4)])
        u = np.array([[1, 2, 4], [3, 5, 1]])
        v = np.array([[2, 1, 5], [2, 3, 5]])
        got = g.edge_index(u, v)
        assert got.shape == (2, 3) and got.tolist() == [[0, 0, 4], [2, -1, -1]]
        pairs = g.sorted_edges()
        assert g.edge_index(g.ev, g.eu).tolist() == list(range(len(pairs)))
        assert Graph(0, []).edge_index([1, 2], [2, 1]).tolist() == [-1, -1]

    def test_edge_index_refuses_ids_outside_the_graph(self):
        # on K3, key(0, 7) = 0 * 4 + 7 is the key of edge (1, 3)
        g = Graph(3, [(1, 2), (1, 3), (2, 3)])
        assert g.edge_index([0, 7, -1, 4], [7, 0, 2, 1]).tolist() == [-1, -1, -1, -1]

    def test_edge_index_without_bitmap(self):
        n = 3000
        path = [(v, v + 1) for v in range(1, n)]
        narrow, wide = Graph(n, path), Graph(n, path + [(1, n)])
        # the path's edges span 2 ids, so its bitmap has 2(n + 1) cells;
        # the edge (1, n) spans n, too wide for a bitmap
        assert narrow.adjacency[0] == 2 and narrow.adjacency[1].size == 2 * (n + 1)
        assert wide.adjacency[0] == 1 and wide.adjacency[1].tolist() == [True]
        rng = random.Random(5)
        # (1, n), u == v, edges in both orders, pairs further apart than
        # the band, (0, 2n + 1), whose key is that of (1, n), and random
        # pairs, mostly non-edges
        u = [1, n, 7, 8, 5, n - 1, n, 1, 2, 0] + [rng.randint(1, n) for _ in range(300)]
        v = [n, 1, 7, 7, 8, n, n - 1, 3, 1, 2 * n + 1] + [rng.randint(1, n) for _ in range(300)]
        for g in (narrow, wide):
            position = {e: k for k, e in enumerate(g.sorted_edges())}
            want = [position.get((min(a, b), max(a, b)), -1) for a, b in zip(u, v)]
            assert g.edge_index(u, v).tolist() == want
            assert g.edge_index(v, u).tolist() == want
        # both answer every path edge, at positions one apart past (1, 2)
        a, b = narrow.eu, narrow.ev
        assert np.array_equal(wide.edge_index(a, b) - (a > 1), narrow.edge_index(b, a))

    def test_compact(self):
        old_edges = [(30, 7), (7, 12), (30, 12), (40, 30)]
        g, back = compact(old_edges)
        # unused ids (1..6, 8..11, ...) are dropped and the rest keep their order
        assert back.tolist() == [7, 12, 30, 40]
        assert g.n == 4 and g.sorted_edges() == [(1, 2), (1, 3), (2, 3), (3, 4)]
        old = back.tolist()
        assert {(old[u - 1], old[v - 1]) for u, v in g.sorted_edges()} == {
            (min(e), max(e)) for e in old_edges
        }
        same, ident = compact(np.array([(1, 2), (2, 3)]))
        assert ident.tolist() == [1, 2, 3] and same.sorted_edges() == [(1, 2), (2, 3)]
        for empty in ([], np.zeros((0, 2), dtype=np.int64)):
            none, back = compact(empty)
            assert (none.n, none.m) == (0, 0)
            assert back.dtype == np.int64 and back.size == 0

    def test_matrix(self):
        m = DenseMatrix.from_rows([[1, 2], [3, 4]])
        assert m[1, 0] == 3
        assert m.col(1) == [2, 4]
        with pytest.raises(ShapeError):
            DenseMatrix(2, 2, [1, 2, 3])
        with pytest.raises(ShapeError):
            DenseMatrix.from_rows([[1, 2], [3]])

    def test_matrix_entries_must_fit_int64(self):
        m = DenseMatrix(1, 2, [2**63 - 1, -(2**63)])
        assert m.entries == [2**63 - 1, -(2**63)]
        assert all(type(x) is int for x in m.entries + m.row(0) + m.col(1))
        with pytest.raises(InputError, match="int64"):
            DenseMatrix(1, 2, [0, 2**63])
        with pytest.raises(InputError, match="int64"):
            DenseMatrix.from_rows([[-(2**63) - 1]])


def test_pack_runs():
    """Consecutive instances share a run while their sizes fit the
    budget; one over it runs alone, and empty instances cost nothing."""
    assert pack([], 10) == []
    assert pack([4, 4, 4, 4, 4], 10) == [range(0, 2), range(2, 4), range(4, 5)]
    assert pack([3, 20, 3, 3], 10) == [range(0, 1), range(1, 2), range(2, 4)]
    assert pack([0, 0, 10, 0, 1], 10) == [range(0, 4), range(4, 5)]
    assert pack([5, 5], 0) == [range(0, 1), range(1, 2)]


class TestBounds:
    # rows that Range, RangePair or .check(8) reject, one per rule
    BAD = [
        (0, 3), (4, 3), (2, 9),
        (0, 1, 3, 4), (3, 2, 4, 5), (1, 2, 5, 4), (1, 3, 3, 5), (4, 5, 1, 2), (1, 2, 4, 9), (1, 9, 10, 11),
    ]

    @pytest.mark.parametrize("row", BAD, ids=lambda row: "-".join(map(str, row)))
    def test_array_error_matches_object_error(self, row):
        n, width = 8, len(row)
        with pytest.raises(RangeError) as want:
            (Range(*row) if width == 2 else pair(*row)).check(n)
        good = (1, 8) if width == 2 else (1, 2, 3, 8)
        later = (5, 9) if width == 2 else (1, 1, 2, 12)  # a different, later error
        batch = np.array([good, good, row, good, later], dtype=np.int64)
        with pytest.raises(RangeError) as got:
            bounds(batch, n, width)
        assert str(got.value) == str(want.value)

    def test_object_batch_past_array(self):
        with pytest.raises(RangeError, match=r"^range \[2, 9\] outside array of length 8$"):
            bounds([Range(1, 8), Range(2, 9), Range(1, 10)], 8, 2)
        with pytest.raises(RangeError, match=r"^range \[4, 9\] outside array of length 8$"):
            bounds([pair(1, 2, 3, 4), pair(1, 2, 4, 9)], 8, 4)

    def test_object_bound_past_int64(self):
        # np.int64 cannot hold the bound; the objects' own check names it
        with pytest.raises(RangeError, match=rf"^range \[3, {10**23}\] outside array of length 8$"):
            bounds([pair(1, 2, 3, 4), pair(1, 2, 3, 10**23)], 8, 4)
        with pytest.raises(RangeError, match=rf"^range \[1, {2**63}\] outside array of length 8$"):
            bounds([Range(1, 2**63)], 8, 2)

    def test_malformed_batches(self):
        with pytest.raises(InputError, match=r"shape \(q, 4\)"):
            bounds(np.ones((3, 2), dtype=np.int64), 8, 4)
        with pytest.raises(InputError, match=r"shape \(q, 2\)"):
            bounds(np.ones(2, dtype=np.int64), 8, 2)
        with pytest.raises(InputError, match=r"shape \(q, 2\)"):
            bounds(np.array([[1.0, 2.0]]), 8, 2)
        with pytest.raises(InputError, match="RangePair"):
            bounds([Range(1, 2)], 8, 4)

    def test_unsigned_rows_are_checked_before_the_cast(self):
        with pytest.raises(RangeError, match=r"^range \[1, 9223372036854775808\] outside array of length 8$"):
            bounds(np.array([[1, 2], [1, 2**63]], dtype=np.uint64), 8, 2)
        with pytest.raises(RangeError, match=r"^range \[3, 18446744073709551615\] outside array of length 8$"):
            bounds(np.array([[1, 2, 3, 2**64 - 1]], dtype=np.uint64), 8, 4)
        b = bounds(np.array([[1, 2, 3, 8]], dtype=np.uint64), 8, 4)
        assert b.dtype == np.int64 and b.tolist() == [[1, 2, 3, 8]]

    def test_round_trip(self):
        rng = random.Random(2)
        singles = [rand_range(rng, 30) for _ in range(20)]
        pairs = [rand_pair(rng, 30) for _ in range(20)]
        for queries, width in ((singles, 2), (pairs, 4)):
            b = bounds(queries, 30, width)
            assert b.dtype == np.int64 and b.shape == (20, width)
            assert as_queries(b) == queries
            assert np.array_equal(bounds(b.astype(np.int32), 30, width), b)
            assert bounds([], 30, width).shape == (0, width)


class TestPairsOracle:
    def test_examples(self):
        assert oracle_pairs_query(INV, IntArray([3, 1, 2]), Range(1, 3)) == 2
        assert oracle_pairs_query(INV, IntArray([1, 2, 3, 4]), Range(1, 4)) == 0
        assert oracle_pairs_query(EQP, IntArray([7, 7, 7]), Range(1, 3)) == 3
        assert oracle_pairs_query(EQP, IntArray([5, 5, 6]), pair(1, 1, 2, 3)) == 1

    def test_bounds_checked(self):
        with pytest.raises(RangeError):
            oracle_pairs_query(INV, IntArray([1, 2]), Range(1, 3))

    def test_fast_path_matches_pure_loop(self):
        # custom kind forces the double loop; built-ins use numpy
        rng = random.Random(0)
        slow_inv = PairFunction.custom(lambda x, y: 1 if x > y else 0)
        slow_eqp = PairFunction.custom(lambda x, y: 1 if x == y else 0)
        for _ in range(50):
            n = rng.randint(2, 30)
            a = rand_array(rng, n, -4, 4)
            queries = [rand_range(rng, n), rand_pair(rng, n)]
            for q in queries:
                assert oracle_pairs_query(INV, a, q) == oracle_pairs_query(slow_inv, a, q)
                assert oracle_pairs_query(EQP, a, q) == oracle_pairs_query(slow_eqp, a, q)

    def test_inversion_complement_identity(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(2, 40)
            a = rand_array(rng, n, -5, 5)
            neg = IntArray([-v for v in a.values])
            p = rand_pair(rng, n)
            total = p.first.length * p.second.length
            assert (
                oracle_pairs_query(INV, a, p)
                + oracle_pairs_query(INV, neg, p)
                + oracle_pairs_query(EQP, a, p)
                == total
            )

    def test_disjoint_oracle(self):
        a = IntArray([1, 2, 1, 3])
        assert not oracle_disjoint_query(a, pair(1, 1, 3, 4))
        assert oracle_disjoint_query(a, pair(1, 1, 2, 2))


class TestTriangleOracles:
    def test_counts_examples(self):
        assert set(oracle_edge_triangle_counts(complete_graph(4)).values()) == {2}
        assert set(oracle_edge_triangle_counts(cycle_graph(3)).values()) == {1}
        assert set(oracle_edge_triangle_counts(path_graph(3)).values()) == {0}

    def test_counts_memory_stays_linear_on_sparse_graphs(self):
        # n * m >= 50 000 on both; an (n + 1)^2 adjacency matrix would take
        # 9 MB for the path and 3.7 kB for K60
        path, clique = path_graph(3000), complete_graph(60)
        tracemalloc.start()
        try:
            counts = oracle_edge_triangle_counts(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000 and set(counts.values()) == {0}
        assert set(oracle_edge_triangle_counts(clique).values()) == {58}

    def test_detect(self):
        g = Graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
        det = oracle_edge_triangle_detect(g)
        assert det[(1, 2)] and det[(2, 3)] and det[(1, 3)]
        assert not det[(3, 4)]

    def test_list_examples(self):
        assert oracle_triangle_list(cycle_graph(3)) == {(1, 2, 3)}
        assert len(oracle_triangle_list(complete_graph(4))) == 4
        bip = Graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert oracle_triangle_list(bip) == set()

    def test_handshake_identity(self):
        rng = random.Random(2)
        for _ in range(40):
            g = rand_graph(rng, rng.randint(3, 15), 0.4)
            counts = oracle_edge_triangle_counts(g)
            assert sum(counts.values()) == 3 * len(oracle_triangle_list(g))


class TestMinmaxOracle:
    def test_examples(self):
        a = DenseMatrix.from_rows([[1, 2], [3, 4]])
        b = DenseMatrix.from_rows([[5, 6], [7, 8]])
        assert oracle_minmax(a, b).to_rows() == [[5, 6], [5, 6]]
        one = oracle_minmax(DenseMatrix.from_rows([[3]]), DenseMatrix.from_rows([[7]]))
        assert one.to_rows() == [[7]]

    def test_zero_row(self):
        a = DenseMatrix.from_rows([[0, 0, 0], [1, 1, 1]])
        b = DenseMatrix.from_rows([[4, 9, 2], [6, 1, 8], [5, 3, 7]])
        out = oracle_minmax(a, b)
        assert out.row(0) == [min(b.col(j)) for j in range(3)]

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            oracle_minmax(DenseMatrix.zeros(2, 3), DenseMatrix.zeros(2, 2))

    def test_entry_bounds(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 6)
            a = DenseMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
            b = DenseMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
            out = oracle_minmax(a, b)
            lo = min(a.entries + b.entries)
            hi = max(a.entries + b.entries)
            assert all(lo <= e <= hi for e in out.entries)
