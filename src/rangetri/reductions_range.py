"""Reductions among the range query problems.

Solvers are plain callables: a single-range solver maps an
``IntArray`` and a batch of single ranges to a list of ints, and a
two-range solver does the same for range pairs.  A batch is a list of
``Range`` / ``RangePair`` objects or its (q, 2) / (q, 4) bounds array
(see ``core.bounds``); every reduction validates its batch once, works
on the bounds array, and hands arrays to the solver it wraps, batching
all generated subqueries into a single offline call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    CapabilityError,
    DenseMatrix,
    InputError,
    IntArray,
    PairFunction,
    Range,
    RangePair,
    ShapeError,
    bounds,
    normalize,
    pack,
    ranks,
)

SingleSolver = Callable[[IntArray, Union[Sequence[Range], np.ndarray]], list[int]]
PairSolver = Callable[[IntArray, Union[Sequence[RangePair], np.ndarray]], list[int]]
# a map of a decomposition term: the int64 values of the whole array in,
# an integer array of the same length out
ValueMap = Callable[[np.ndarray], np.ndarray]

NEG_SENTINEL = -1


@dataclass(frozen=True)
class Decomposition:
    """A binary function written as a weighted sum of equality predicates.

    ``terms`` is a list of (alpha, g, h) with integer coefficient alpha
    and pure maps g, h; the represented function is
    f(x, y) = sum_i alpha_i * [g_i(x) == h_i(y)] on the array's values.
    A map is called once per array, on all of its int64 values, and
    returns one integer per value.  Most maps act elementwise; a map may
    also read the whole array, as INV's bit split does to rank it.

    A map must keep every output inside int64.  numpy wraps an overflow
    silently, and both reductions then answer wrong with no error: the
    successor map y -> y + 1 sends 2**63 - 1 to -2**63.
    """

    terms: tuple[tuple[int, ValueMap, ValueMap], ...]

    def __len__(self) -> int:
        return len(self.terms)

    def validate(self, domain: int, f: Callable[[int, int], int]) -> bool:
        """Exhaustively check the identity on [0, domain)^2."""
        x = np.arange(domain, dtype=np.int64)
        got = np.zeros((domain, domain), dtype=np.int64)
        for alpha, g, h in self.terms:
            got += alpha * (g(x)[:, None] == h(x)[None, :])
        return all(got[i, j] == f(i, j) for i in range(domain) for j in range(domain))


def eqp_decomposition() -> Decomposition:
    identity = lambda v: v
    return Decomposition(((1, identity, identity),))


def bit_count(n: int) -> int:
    """Number of bits used for the inversion bit-split: ceil(log2 n), min 1."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def inv_decomposition(n: int) -> Decomposition:
    """Split the inversion indicator by most significant differing bit,
    for arrays of at most n distinct values.

    Each map first ranks its array into [0, n), which keeps every
    inversion.  Term t keeps the top t-1 bits of a rank when bit t
    (counted from the most significant of k = ceil(log2 n) bits) is 1 on
    the left / 0 on the right, and otherwise maps to a sentinel that can
    never match: -1 on the left, 2n on the right.
    """
    k = bit_count(n)
    pos_sentinel = 2 * n
    terms = []
    for t in range(1, k + 1):
        shift_bit = k - t
        shift_prefix = k - t + 1

        def g(x, _b=shift_bit, _p=shift_prefix):
            x = normalize(x)
            return np.where((x >> _b) & 1, x >> _p, NEG_SENTINEL)

        def h(y, _b=shift_bit, _p=shift_prefix, _s=pos_sentinel):
            y = normalize(y)
            return np.where((y >> _b) & 1, _s, y >> _p)

        terms.append((1, g, h))
    return Decomposition(tuple(terms))


def decomposition_for(f: PairFunction, n: int) -> Decomposition:
    if f.kind == "eqp":
        return eqp_decomposition()
    if f.kind == "inv":
        return inv_decomposition(n)
    raise CapabilityError(f"no equality decomposition available for {f.kind!r}")


def _term_values(g: ValueMap, h: ValueMap, vals: np.ndarray) -> np.ndarray:
    """The 2n-long term array: g over ``vals``, then h over ``vals``."""
    out = np.concatenate((g(vals), h(vals)))
    if out.dtype.kind not in "iub":
        raise InputError("decomposition maps must produce integers")
    return out


# ---------------------------------------------------------------------------
# Single range <-> two ranges

# signs of F(a,d), F(a,c-1), F(b+1,d), F(b+1,c-1) in a pair's answer
_SIGNS = np.array([1, -1, -1, 1], dtype=np.int64)


def reduce_2r_to_1r(f: PairFunction, single_solver: SingleSolver) -> PairSolver:
    """Answer two-range queries with four single-range queries each.

    The cross pairs of ([a,b],[c,d]) equal the inclusion-exclusion
    F(a,d) - F(a,c-1) - F(b+1,d) + F(b+1,c-1) over within-range pair sums
    F; degenerate ranges (left endpoint past right) contribute 0 and are
    not asked.
    """
    def solver(a: IntArray, pairs) -> list[int]:
        l1, r1, l2, r2 = bounds(pairs, a.n, 4).T
        lo = np.stack((l1, l1, r1 + 1, r1 + 1), axis=1)
        hi = np.stack((r2, l2 - 1, r2, l2 - 1), axis=1)
        asked = lo <= hi
        answers = np.zeros(lo.shape, dtype=np.int64)
        answers[asked] = single_solver(a, np.stack((lo[asked], hi[asked]), axis=1))
        return (answers * _SIGNS).sum(axis=1).tolist()

    return solver


def _earlier_matches(term: np.ndarray) -> np.ndarray:
    """For the 2n-long term array [g(v), h(v)], each x's count
    #{i < x : g(v_i) == h(v_x)} as int64: one sort of the (value rank,
    position) keys of the g half, and two searchsorted."""
    n = term.size // 2
    rank = ranks(term)[1]
    keys = np.sort(rank[:n] * n + np.arange(n))
    first = rank[n:] * n
    return np.searchsorted(keys, first + np.arange(n)) - np.searchsorted(keys, first)


def reduce_1r_to_2r(
    f: PairFunction,
    pair_solver: PairSolver,
    decomposition: Optional[Decomposition] = None,
) -> SingleSolver:
    """Answer single-range queries with prefix precomputation plus one
    two-range query each.

    P[x] = f([1, x]) sums, over the decomposition's terms, alpha times
    the earlier positions i whose left map g(v_i) equals the right map
    h(v_x).  Then f([a, b]) = P[b] - P[a-1] - f([1, a-1], [a, b]).

    The maps read the values of A, as f does, and ``pair_solver`` is
    asked about A itself.  Without a ``decomposition``, f must be inv or
    eqp.
    """

    def solver(a: IntArray, queries) -> list[int]:
        l, r = bounds(queries, a.n, 2).T
        d = decomposition if decomposition is not None else decomposition_for(f, a.n)

        gained = np.zeros(a.n, dtype=np.int64)
        for alpha, g, h in d.terms:
            gained += alpha * _earlier_matches(_term_values(g, h, a.values))
        prefix = np.concatenate(([0], np.cumsum(gained)))

        cut = l > 1
        middle = np.zeros(l.size, dtype=np.int64)
        cross = np.stack((np.ones_like(l[cut]), l[cut] - 1, l[cut], r[cut]), axis=1)
        middle[cut] = pair_solver(a, cross)
        return (prefix[r] - prefix[l - 1] - middle).tolist()

    return solver


# ---------------------------------------------------------------------------
# eqp <-> inv


def reduce_eqp_to_inv(inv_solver: PairSolver) -> PairSolver:
    """Equal pairs from two inversion runs: on A and on the negated array.

    A pair is equal exactly when it is an inversion in neither A nor -A,
    so eqp = |cross product| - inv_A - inv_{-A}.  The ranks are negated,
    not the values, which could leave int64.
    """

    def solver(a: IntArray, pairs) -> list[int]:
        b = bounds(pairs, a.n, 4)
        inv_a = inv_solver(a, b)
        inv_neg = inv_solver(IntArray(-normalize(a.values)), b)
        sizes = (b[:, 1] - b[:, 0] + 1) * (b[:, 3] - b[:, 2] + 1)
        return (sizes - inv_a - inv_neg).tolist()

    return solver


# The most 2n * q that one eqp_solver call of apply_decomposition takes:
# a term costs 2n * q, for its 2n-long array asked q pairs.  Chosen by a
# sweep of 2riq via-triangle + AYZ on gen arrays and pair queries, INV's
# ceil(log2 n) terms, best of 9 interleaved runs on a 2-vCPU VM, in ms:
#
#   n = q        32     64     128     256     512
#   unpacked    5.7   11.7    28.6    98.4     294
#   2^14        2.4    9.4    28.7    98.1     291
#   2^16        2.4    7.7    27.5    96.6     300
#   2^18        2.4    7.7    30.1   105.7     300
#
# A call past ~2^17 loses to the superlinear inner solver; at 2^16 every
# term from n = q = 256 on (2n * q >= 2^17) has a call of its own.
TERM_BUDGET = 1 << 16


def apply_decomposition(d: Decomposition, eqp_solver: PairSolver) -> PairSolver:
    """Turn a two-range equal-pairs solver into a solver for any function
    given as a weighted sum of equality predicates.

    Each term is a 2n-long array, the left map applied to the values of
    A in the first half and the right map in the second half, and the
    query ([a,b],[c,d]) asks ([a,b],[n+c,n+d]) of it.  Consecutive terms
    share one eqp_solver call while their sizes 2n * q sum to at most
    ``TERM_BUDGET`` (``core.pack``): each term's array is ranked and
    offset by 2n times its place in the call, so no two terms share a
    value, the arrays are laid side by side, and each term's queries are
    shifted onto its block.  The answers are summed alpha-weighted per
    query.
    """

    def solver(a: IntArray, pairs) -> list[int]:
        b = bounds(pairs, a.n, 4)
        if not len(b):
            return []
        width = 2 * a.n
        shifted = b + np.array([0, 0, a.n, a.n])
        totals = np.zeros(len(b), dtype=np.int64)
        for run in pack([width * len(b)] * len(d), TERM_BUDGET):
            terms = [d.terms[i] for i in run]
            offset = width * np.arange(len(terms))
            values = np.concatenate([
                normalize(_term_values(g, h, a.values)) + off
                for (_, g, h), off in zip(terms, offset.tolist())
            ])
            queries = (shifted + offset[:, None, None]).reshape(-1, 4)
            answers = np.asarray(eqp_solver(IntArray(values), queries), dtype=np.int64)
            totals += np.array([alpha for alpha, _, _ in terms]) @ answers.reshape(len(terms), -1)
        return totals.tolist()

    return solver


def reduce_inv_to_eqp(eqp_solver: PairSolver) -> PairSolver:
    """Inversions from ceil(log2 n) equal-pairs instances via the
    most-significant-differing-bit split."""

    def solver(a: IntArray, pairs) -> list[int]:
        d = inv_decomposition(a.n)
        return apply_decomposition(d, eqp_solver)(a, pairs)

    return solver


# ---------------------------------------------------------------------------
# Boolean matrix product


def _segments(ones: np.ndarray, d: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """1-based (start, end) of d consecutive segments whose lengths count
    the entries of the sorted ``ones`` equal to 0..d-1, after ``offset``."""
    count = np.bincount(ones, minlength=d)
    end = offset + np.cumsum(count)
    return end - count + 1, end


def bmm_via_2req(x: DenseMatrix, y: DenseMatrix, eqp_solver: PairSolver) -> DenseMatrix:
    """Boolean matrix product through two-range equal-pairs queries.

    Each row of x and column of y is written out as the list of its
    1-positions; the concatenation forms one array, and cell (i, j) is 1
    exactly when the row-i and column-j segments share an index.
    """
    if x.rows != x.cols or y.rows != y.cols or x.rows != y.rows:
        raise ShapeError("expected square boolean matrices of equal dimension")
    d = x.rows
    for mat in (x, y):
        if ((mat.array != 0) & (mat.array != 1)).any():
            raise InputError("matrix entries must be 0/1")

    row, row_k = np.nonzero(x.array)  # row-major: row i's 1-columns in order
    col, col_k = np.nonzero(y.array.T)
    out = np.zeros((d, d), dtype=np.int64)
    if not row.size + col.size:
        return DenseMatrix(d, d, out)
    row_start, row_end = _segments(row, d, 0)
    col_start, col_end = _segments(col, d, row.size)
    i, j = np.nonzero(np.outer(row_end >= row_start, col_end >= col_start))
    probes = np.stack((row_start[i], row_end[i], col_start[j], col_end[j]), axis=1)
    answers = eqp_solver(IntArray(np.concatenate((row_k, col_k))), probes)
    out[i, j] = np.asarray(answers, dtype=np.int64) > 0
    return DenseMatrix(d, d, out)
