"""(min,max)-product of integer matrices through range disjointness.

C[i][j] = min over k of max(A[i][k], B[k][j]).  After replacing every
entry by its position in a global sorted order, C[i][j] <= x holds
exactly when some column index k appears both among the x-smallest
entries of row i of A and the x-smallest of column j of B -- a
disjointness question about two prefixes of sorted index permutations.
A parallel binary search over x answers all cells at once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .core import DenseMatrix, IntArray, Range, RangePair, ShapeError

DisjointSolver = Callable[[IntArray, Sequence[RangePair]], list[bool]]


@dataclass
class SortedPermutationTable:
    """Rows of A and columns of B as rank-sorted index permutations.

    ``array`` concatenates all row permutations, then all column
    permutations; segments are recovered from the dimension.  The rank
    lists mirror the permutations and stay sorted, so prefix lengths for
    a threshold come from binary search.
    """

    n: int
    row_perms: list[list[int]]
    col_perms: list[list[int]]
    row_ranks: list[list[int]]
    col_ranks: list[list[int]]
    array: IntArray

    def row_segment(self, i: int, length: int) -> Range:
        start = i * self.n + 1
        return Range(start, start + length - 1)

    def col_segment(self, j: int, length: int) -> Range:
        start = self.n * self.n + j * self.n + 1
        return Range(start, start + length - 1)


@dataclass
class MinMaxStats:
    """Instrumentation for the parallel binary search."""

    batches: int = 0
    probes_per_batch: list[int] = field(default_factory=list)
    solver_queries: int = 0
    # per cell, the probed (threshold, answer<=threshold) pairs
    trace: dict[tuple[int, int], list[tuple[int, bool]]] = field(default_factory=dict)


def _rank_entries(a: DenseMatrix, b: DenseMatrix) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Distinct ranks in [1, 2n^2] for all entries of both matrices.

    Ties between equal values break by (source matrix, position), which
    keeps every A-to-B comparison consistent with the original values.
    """
    n = a.rows
    keyed = []
    for i in range(n):
        for j in range(n):
            keyed.append((a[i, j], 0, i, j))
            keyed.append((b[i, j], 1, i, j))
    keyed.sort()
    rank_of = {key: pos + 1 for pos, key in enumerate(keyed)}
    rank_to_value = [key[0] for key in keyed]
    ra = [[rank_of[(a[i, j], 0, i, j)] for j in range(n)] for i in range(n)]
    rb = [[rank_of[(b[i, j], 1, i, j)] for j in range(n)] for i in range(n)]
    return ra, rb, rank_to_value


def build_table(ra: list[list[int]], rb: list[list[int]]) -> SortedPermutationTable:
    n = len(ra)
    row_perms, row_ranks = [], []
    for i in range(n):
        perm = sorted(range(1, n + 1), key=lambda k: ra[i][k - 1])
        row_perms.append(perm)
        row_ranks.append([ra[i][k - 1] for k in perm])
    col_perms, col_ranks = [], []
    for j in range(n):
        perm = sorted(range(1, n + 1), key=lambda k: rb[k - 1][j])
        col_perms.append(perm)
        col_ranks.append([rb[k - 1][j] for k in perm])
    values: list[int] = []
    for perm in row_perms:
        values.extend(perm)
    for perm in col_perms:
        values.extend(perm)
    return SortedPermutationTable(n, row_perms, col_perms, row_ranks, col_ranks, IntArray(values))


def minmax_product(
    a: DenseMatrix,
    b: DenseMatrix,
    disjoint_solver: DisjointSolver,
    stats: Optional[MinMaxStats] = None,
) -> DenseMatrix:
    """Entrywise min over k of max(a[i][k], b[k][j]), computed through
    offline batches of two-range disjointness queries.

    Each of the ceil(log2(2 n^2)) rounds probes all n^2 cells at the
    midpoints of their threshold intervals; cells whose prefix on either
    side is empty are trivially disjoint and skip the solver.
    """
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ShapeError("expected square matrices of equal dimension")
    n = a.rows
    ra, rb, rank_to_value = _rank_entries(a, b)
    table = build_table(ra, rb)
    total = 2 * n * n

    lo = [[1] * n for _ in range(n)]
    hi = [[total] * n for _ in range(n)]
    rounds = max(1, math.ceil(math.log2(total)))
    for _ in range(rounds):
        queries: list[RangePair] = []
        owners: list[tuple[int, int, int]] = []
        mids = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                # converged cells keep probing at their answer so every
                # batch carries exactly n^2 probes
                x = (lo[i][j] + hi[i][j]) // 2
                mids[i][j] = x
                plen = bisect_right(table.row_ranks[i], x)
                qlen = bisect_right(table.col_ranks[j], x)
                if plen == 0 or qlen == 0:
                    # empty prefix: trivially disjoint, no solver query
                    lo[i][j] = x + 1
                    if stats is not None:
                        stats.trace.setdefault((i, j), []).append((x, False))
                    continue
                queries.append(
                    RangePair(table.row_segment(i, plen), table.col_segment(j, qlen))
                )
                owners.append((i, j, x))
        if stats is not None:
            stats.batches += 1
            stats.probes_per_batch.append(n * n)
            stats.solver_queries += len(queries)
        answers = disjoint_solver(table.array, queries) if queries else []
        for (i, j, x), disjoint in zip(owners, answers):
            leq = not disjoint
            if stats is not None:
                stats.trace.setdefault((i, j), []).append((x, leq))
            if leq:
                hi[i][j] = x
            else:
                lo[i][j] = x + 1

    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if lo[i][j] != hi[i][j]:
                raise RuntimeError(f"binary search did not converge at ({i}, {j})")
            out[i][j] = rank_to_value[lo[i][j] - 1]
    return DenseMatrix.from_rows(out)
