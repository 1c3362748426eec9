"""(min,max)-product of integer matrices through range disjointness.

C[i][j] = min over k of max(A[i][k], B[k][j]).  After replacing every
entry by its position in a global sorted order, C[i][j] <= x holds
exactly when some column index k appears both among the entries of
row i of A ranked at most x and those of column j of B -- a
disjointness question about two prefixes of sorted index permutations.

C[i][j] is the larger rank of some pair, so it is one of the 2n ranks
of row i and column j.  Probed at the t-th smallest of them, the two
prefixes hold t indices together: at t = 1 one prefix is empty, and at
t = n + 1 they hold n + 1 indices out of n, so by pigeonhole they
share one.  Each cell therefore binary-searches its own n candidates,
t = 2 .. n + 1, and ceil(log2 n) rounds of batched disjointness
queries answer all cells at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import DenseMatrix, IntArray, RangePair, ShapeError

DisjointSolver = Callable[[IntArray, Union[Sequence[RangePair], np.ndarray]], list[bool]]


@dataclass
class MinMaxStats:
    """Instrumentation for the per-cell binary search."""

    batches: int = 0
    solver_queries: int = 0


def minmax_product(
    a: DenseMatrix,
    b: DenseMatrix,
    disjoint_solver: DisjointSolver,
    stats: Optional[MinMaxStats] = None,
) -> DenseMatrix:
    """Entrywise min over k of max(a[i][k], b[k][j]), computed through
    offline batches of two-range disjointness queries.

    Every entry gets a distinct rank in [1, 2n^2]; ties between equal
    values break by (source matrix, position), which keeps every A-to-B
    comparison consistent with the values.  One array holds the column
    indices k of each row of A in rank order, then the row indices k of
    each column of B, so the entries of a row or column ranked at most
    x form a prefix of its n-long segment.

    Cell (i, j) searches t in [2, n + 1] for the least t at which the t
    smallest of its 2n ranks, pa of them from row i and pb = t - pa
    from column j, share an index k.  pa comes from a vectorised
    k-th-of-two-sorted-arrays search over the sorted segment ranks.
    Each of the ceil(log2 n) rounds probes the cells in row-major
    order; converged cells and cells with an empty prefix skip the
    solver.  C[i][j]'s rank is the larger of the last ranks of the two
    prefixes at the t found.
    """
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ShapeError("expected square matrices of equal dimension")
    n = a.rows
    total = 2 * n * n
    values = np.concatenate((a.array.ravel(), b.array.ravel()))
    order = np.argsort(values, kind="stable")  # ties by (source, i, j)
    rank = np.empty(total, dtype=np.int64)
    rank[order] = np.arange(1, total + 1)
    # segment s < n is row s of A, segment n + j is column j of B
    seg_ranks = np.concatenate((rank[: n * n].reshape(n, n), rank[n * n :].reshape(n, n).T))
    perm = np.argsort(seg_ranks, axis=1)
    table = IntArray(perm.ravel() + 1)
    # row s holds segment s's ranks in increasing order in columns 1..n,
    # between sentinels 0 (empty prefix) and total + 1 (past the segment)
    width = n + 2
    sorted_ranks = np.zeros((2 * n, width), dtype=np.int64)
    sorted_ranks[:, 1:-1] = np.take_along_axis(seg_ranks, perm, axis=1)
    sorted_ranks[:, -1] = total + 1
    sorted_ranks = sorted_ranks.ravel()
    row = (np.arange(n) * width)[:, None]
    col = ((n + np.arange(n)) * width)[None, :]

    def split(t: np.ndarray) -> np.ndarray:
        """How many of each cell's t smallest ranks lie in its row of A:
        the largest p whose p-th row rank is below the (t - p + 1)-th
        column rank, which holds at the lower end max(0, t - n)."""
        lo, hi = np.maximum(t - n, 0), np.minimum(t, n)
        for _ in range(n.bit_length()):  # ceil(log2(n + 1))
            mid = (lo + hi + 1) // 2
            below = sorted_ranks[row + mid] < sorted_ranks[col + t - mid + 1]
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid - 1)
        return lo

    lo = np.full((n, n), 2, dtype=np.int64)
    hi = np.full((n, n), n + 1, dtype=np.int64)
    for _ in range((n - 1).bit_length()):  # ceil(log2 n)
        t = (lo + hi) // 2
        pa = split(t)
        pb = t - pa
        i, j = np.nonzero((lo < hi) & (pa > 0) & (pb > 0))
        queries = np.stack((i * n + 1, i * n + pa[i, j], (n + j) * n + 1, (n + j) * n + pb[i, j]), axis=1)
        leq = lo == hi  # a converged cell sits at its answer
        if len(queries):
            leq[i, j] = ~np.asarray(disjoint_solver(table, queries), dtype=bool)
        if stats is not None:
            stats.batches += 1
            stats.solver_queries += len(queries)
        hi = np.where(leq, t, hi)
        lo = np.where(leq, lo, t + 1)

    pa = split(lo)
    answer = np.maximum(sorted_ranks[row + pa], sorted_ranks[col + lo - pa])
    return DenseMatrix(values[order][answer - 1])
