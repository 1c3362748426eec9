"""(min,max)-product via batched range disjointness."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import query_objects
from rangetri.core import (
    DenseMatrix,
    IntArray,
    ShapeError,
    oracle_disjoint_query,
    oracle_minmax,
)
from rangetri.minmax import MinMaxStats, minmax_product
from rangetri.reductions_triangle import reduce_2rdq_to_etd
from rangetri.solvers import EDGE_DETECTORS


def disjoint_oracle(a, queries):
    return [oracle_disjoint_query(a, q) for q in query_objects(queries)]


def disjoint_via_triangle_detection(a, queries):
    return reduce_2rdq_to_etd(a, queries, EDGE_DETECTORS["oracle"])


def disjoint_via_ayz(a, queries):
    return reduce_2rdq_to_etd(a, queries, EDGE_DETECTORS["ayz"])


def rand_matrix(rng, n, lo=-50, hi=50):
    return DenseMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def rank_entries(a, b):
    """Distinct ranks in [1, 2n^2] of all entries, ties broken by (source
    matrix, position), and the values in rank order."""
    n = a.rows
    x, y = a.array.tolist(), b.array.tolist()
    keyed = []
    for i in range(n):
        for j in range(n):
            keyed.append((x[i][j], 0, i, j))
            keyed.append((y[i][j], 1, i, j))
    keyed.sort()
    rank_of = {key: pos + 1 for pos, key in enumerate(keyed)}
    ra = [[rank_of[(x[i][j], 0, i, j)] for j in range(n)] for i in range(n)]
    rb = [[rank_of[(y[i][j], 1, i, j)] for j in range(n)] for i in range(n)]
    return ra, rb, [key[0] for key in keyed]


def solver_arrays(a, b):
    """The arrays minmax_product hands its disjointness solver."""
    seen = []

    def recording(arr, queries):
        seen.append(arr)
        return disjoint_oracle(arr, queries)

    minmax_product(a, b, recording)
    return seen


@st.composite
def matrix_pairs(draw, n):
    """Two n x n matrices of one family: all entries equal, entries in
    -1..1 (ties everywhere), rows and columns monotone (sorted row-major,
    either way), or int64-extreme entries."""
    family = draw(st.sampled_from(["equal", "band", "monotone", "extremes"]))

    def matrix():
        if family == "equal":
            return DenseMatrix([[draw(st.integers(-3, 3))] * n] * n)
        entries = st.integers(-1, 1) if family == "band" else st.integers(-20, 20)
        if family == "extremes":
            entries = st.sampled_from([-(2**63), -1, 0, 2**63 - 1])
        flat = draw(st.lists(entries, min_size=n * n, max_size=n * n))
        if family == "monotone":
            flat.sort(reverse=draw(st.booleans()))
        return DenseMatrix([flat[k : k + n] for k in range(0, n * n, n)])

    return matrix(), matrix()


class TestRanking:
    def test_ranks_are_a_permutation(self):
        # every n-long segment of the solver's array is a permutation of 1..n
        rng = random.Random(0)
        a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
        arrays = solver_arrays(a, b)
        assert arrays and all(arr == arrays[0] for arr in arrays)
        segments = arrays[0].values.reshape(8, 4).tolist()
        assert all(sorted(seg) == [1, 2, 3, 4] for seg in segments)

    def test_table_segments_hold_sorted_prefixes(self):
        rng = random.Random(1)
        a, b = rand_matrix(rng, 3), rand_matrix(rng, 3)
        ra, rb, _ = rank_entries(a, b)
        (table, *_) = solver_arrays(a, b)
        assert table.n == 2 * 9
        segments = table.values.reshape(6, 3).tolist()
        for i in range(3):
            assert segments[i] == sorted(range(1, 4), key=lambda k: ra[i][k - 1])
        for j in range(3):
            assert segments[3 + j] == sorted(range(1, 4), key=lambda k: rb[k - 1][j])


class TestProduct:
    def test_examples(self):
        a = DenseMatrix([[1, 2], [3, 4]])
        b = DenseMatrix([[5, 6], [7, 8]])
        assert minmax_product(a, b, disjoint_oracle) == oracle_minmax(a, b)
        one = minmax_product(DenseMatrix([[3]]), DenseMatrix([[7]]), disjoint_oracle)
        assert one.array.tolist() == [[7]]

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            minmax_product(DenseMatrix([[0] * 3] * 2), DenseMatrix([[0] * 3] * 3), disjoint_oracle)
        with pytest.raises(ShapeError):
            minmax_product(DenseMatrix([[0] * 2] * 2), DenseMatrix([[0] * 3] * 3), disjoint_oracle)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_property_matches_oracle(self, n, data):
        a, b = data.draw(matrix_pairs(n))
        want = oracle_minmax(a, b)
        assert minmax_product(a, b, disjoint_oracle) == want
        assert minmax_product(a, b, disjoint_via_ayz) == want

    def test_duplicate_values(self):
        a = DenseMatrix([[5, 5], [5, 5]])
        b = DenseMatrix([[5, 2], [5, 2]])
        assert minmax_product(a, b, disjoint_oracle) == oracle_minmax(a, b)


class TestInstrumentation:
    def test_batch_and_probe_accounting(self):
        rng = random.Random(4)
        for n in (1, 2, 3, 5, 8):
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            stats = MinMaxStats()
            minmax_product(a, b, disjoint_oracle, stats=stats)
            expected_batches = math.ceil(math.log2(n))  # n candidates per cell
            assert stats.batches == expected_batches
            assert stats.solver_queries <= expected_batches * n * n

    def test_solver_protocol(self):
        # each cell's queries are its own binary search over t = pa + pb
        # in 2..n + 1, replayed here from the ranks: both prefixes are
        # non-empty, and a converged cell is not asked again
        rng = random.Random(6)
        for n in (1, 2, 3, 7, 13):
            a, b = rand_matrix(rng, n, -3, 3), rand_matrix(rng, n, -3, 3)
            asked = []

            def recording(arr, queries):
                asked.append(np.asarray(queries).tolist())
                return disjoint_oracle(arr, queries)

            minmax_product(a, b, recording)
            ra, rb, _ = rank_entries(a, b)
            rounds = math.ceil(math.log2(n))
            want = [[] for _ in range(rounds)]
            for i in range(n):
                for j in range(n):
                    merged = sorted([(r, 0) for r in ra[i]] + [(rb[k][j], 1) for k in range(n)])
                    answer = min(max(ra[i][k], rb[k][j]) for k in range(n))
                    lo, hi = 2, n + 1
                    for r in range(rounds):
                        if lo == hi:
                            break
                        t = (lo + hi) // 2
                        pa = sum(side == 0 for _, side in merged[:t])
                        if 0 < pa < t:
                            want[r].append([i * n + 1, i * n + pa, (n + j) * n + 1, (n + j) * n + t - pa])
                        if answer <= merged[t - 1][0]:
                            hi = t
                        else:
                            lo = t + 1
                    assert lo == hi
            assert asked == [queries for queries in want if queries]
            for queries in asked:
                for first_a, last_a, first_b, last_b in queries:
                    pa, pb = last_a - first_a + 1, last_b - first_b + 1
                    assert pa >= 1 and pb >= 1 and 2 <= pa + pb <= n + 1
            if n == 1:
                assert asked == []
