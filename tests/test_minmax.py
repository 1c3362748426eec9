"""(min,max)-product via batched range disjointness."""

import math
import random

import pytest

from rangetri.core import (
    DenseMatrix,
    IntArray,
    ShapeError,
    oracle_disjoint_query,
    oracle_minmax,
)
from rangetri.minmax import MinMaxStats, _rank_entries, build_table, minmax_product
from rangetri.reductions_triangle import reduce_2rdq_to_etd
from rangetri.solvers import EDGE_DETECTORS


def disjoint_oracle(a, queries):
    return [oracle_disjoint_query(a, q) for q in queries]


def disjoint_via_triangle_detection(a, queries):
    return reduce_2rdq_to_etd(a, queries, EDGE_DETECTORS["oracle"])


def rand_matrix(rng, n, lo=-50, hi=50):
    return DenseMatrix(n, n, [rng.randint(lo, hi) for _ in range(n * n)])


class TestRanking:
    def test_ranks_are_a_permutation(self):
        rng = random.Random(0)
        a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
        ra, rb, rank_to_value = _rank_entries(a, b)
        flat = sorted(x for row in ra for x in row) + sorted(x for row in rb for x in row)
        assert sorted(flat) == list(range(1, 33))
        assert rank_to_value == sorted(rank_to_value)

    def test_table_segments_hold_sorted_prefixes(self):
        rng = random.Random(1)
        a, b = rand_matrix(rng, 3), rand_matrix(rng, 3)
        ra, rb, _ = _rank_entries(a, b)
        table = build_table(ra, rb)
        assert table.array.n == 2 * 9
        for i in range(3):
            assert table.row_ranks[i] == sorted(table.row_ranks[i])
            seg = table.row_segment(i, 3)
            assert list(table.array.values[seg.l - 1 : seg.r]) == table.row_perms[i]
        for j in range(3):
            assert table.col_ranks[j] == sorted(table.col_ranks[j])


class TestProduct:
    def test_examples(self):
        a = DenseMatrix.from_rows([[1, 2], [3, 4]])
        b = DenseMatrix.from_rows([[5, 6], [7, 8]])
        assert minmax_product(a, b, disjoint_oracle) == oracle_minmax(a, b)
        one = minmax_product(
            DenseMatrix.from_rows([[3]]), DenseMatrix.from_rows([[7]]), disjoint_oracle
        )
        assert one.to_rows() == [[7]]

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            minmax_product(DenseMatrix.zeros(2, 3), DenseMatrix.zeros(3, 3), disjoint_oracle)
        with pytest.raises(ShapeError):
            minmax_product(DenseMatrix.zeros(2, 2), DenseMatrix.zeros(3, 3), disjoint_oracle)

    def test_random_with_oracle_disjointness(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 10)
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            assert minmax_product(a, b, disjoint_oracle) == oracle_minmax(a, b)

    def test_random_with_triangle_detection_chain(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(1, 6)
            a, b = rand_matrix(rng, n, -9, 9), rand_matrix(rng, n, -9, 9)
            got = minmax_product(a, b, disjoint_via_triangle_detection)
            assert got == oracle_minmax(a, b)

    def test_duplicate_values(self):
        a = DenseMatrix.from_rows([[5, 5], [5, 5]])
        b = DenseMatrix.from_rows([[5, 2], [5, 2]])
        assert minmax_product(a, b, disjoint_oracle) == oracle_minmax(a, b)


class TestInstrumentation:
    def test_batch_and_probe_accounting(self):
        rng = random.Random(4)
        for n in (1, 2, 3, 5, 8):
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            stats = MinMaxStats()
            minmax_product(a, b, disjoint_oracle, stats=stats)
            expected_batches = max(1, math.ceil(math.log2(2 * n * n)))
            assert stats.batches == expected_batches
            assert stats.probes_per_batch == [n * n] * expected_batches
            assert stats.solver_queries <= expected_batches * n * n

    def test_trace_is_consistent_binary_search(self):
        rng = random.Random(5)
        a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
        stats = MinMaxStats()
        out = minmax_product(a, b, disjoint_oracle, stats=stats)
        ra, rb, rank_to_value = _rank_entries(a, b)
        for (i, j), probes in stats.trace.items():
            answer_rank = min(
                max(ra[i][k], rb[k][j]) for k in range(4)
            )
            for x, leq in probes:
                assert leq == (answer_rank <= x)
            assert out[i, j] == rank_to_value[answer_rank - 1]
