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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import DenseMatrix, IntArray, RangePair, ShapeError

DisjointSolver = Callable[[IntArray, Union[Sequence[RangePair], np.ndarray]], list[bool]]


@dataclass
class MinMaxStats:
    """Instrumentation for the parallel binary search."""

    batches: int = 0
    probes_per_batch: list[int] = field(default_factory=list)
    solver_queries: int = 0
    # per round, the (n, n) probed thresholds and answers "C[i][j] <= x"
    trace: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


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
    each column of B, so the x-smallest entries of a row or column form
    a prefix of its n-long segment.  Each of the ceil(log2(2 n^2))
    rounds probes all n^2 cells at the midpoints of their threshold
    intervals, in row-major order; cells whose prefix on either side is
    empty are trivially disjoint and skip the solver.
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
    # sorted ranks offset by segment: prefix lengths in one searchsorted
    stride = total + 1
    keys = (np.take_along_axis(seg_ranks, perm, axis=1) + stride * np.arange(2 * n)[:, None]).ravel()
    row = np.arange(n)[:, None]
    col = n + np.arange(n)[None, :]

    lo = np.ones((n, n), dtype=np.int64)
    hi = np.full((n, n), total, dtype=np.int64)
    rounds = max(1, math.ceil(math.log2(total)))
    for _ in range(rounds):
        # converged cells keep probing at their answer so every batch
        # carries exactly n^2 probes
        mids = (lo + hi) // 2
        ends = np.searchsorted(keys, np.stack((row * stride + mids, col * stride + mids)), side="right")
        i, j = np.nonzero((ends[0] > row * n) & (ends[1] > col * n))
        queries = np.stack((i * n + 1, ends[0][i, j], (n + j) * n + 1, ends[1][i, j]), axis=1)
        leq = np.zeros((n, n), dtype=bool)
        if len(queries):
            leq[i, j] = ~np.asarray(disjoint_solver(table, queries), dtype=bool)
        if stats is not None:
            stats.batches += 1
            stats.probes_per_batch.append(n * n)
            stats.solver_queries += len(queries)
            stats.trace.append((mids, leq))
        hi = np.where(leq, mids, hi)
        lo = np.where(leq, lo, mids + 1)

    if (lo != hi).any():
        i, j = np.argwhere(lo != hi)[0]
        raise RuntimeError(f"binary search did not converge at ({i}, {j})")
    return DenseMatrix(n, n, values[order][lo - 1])
