"""Reductions among the range query problems.

Solvers are plain callables: a single-range solver maps
``(IntArray, [Range]) -> [int]`` and a two-range solver maps
``(IntArray, [RangePair]) -> [int]``.  Each reduction wraps a solver for
one problem into a solver for another, batching all generated subqueries
into a single offline call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    CapabilityError,
    DenseMatrix,
    InputError,
    IntArray,
    PairFunction,
    Range,
    RangePair,
    ShapeError,
    eqp,
    normalize,
)

SingleSolver = Callable[[IntArray, Sequence[Range]], list[int]]
PairSolver = Callable[[IntArray, Sequence[RangePair]], list[int]]

NEG_SENTINEL = -1


@dataclass(frozen=True)
class Decomposition:
    """A binary function written as a weighted sum of equality predicates.

    ``terms`` is a list of (alpha, g, h) with integer coefficient alpha
    and pure value maps g, h; the represented function is
    f(x, y) = sum_i alpha_i * [g_i(x) == h_i(y)].
    """

    terms: tuple[tuple[int, Callable[[int], int], Callable[[int], int]], ...]

    def __len__(self) -> int:
        return len(self.terms)

    def evaluate(self, x: int, y: int) -> int:
        return sum(alpha * eqp(g(x), h(y)) for alpha, g, h in self.terms)

    def validate(self, domain: int, f: Callable[[int, int], int]) -> bool:
        """Exhaustively check the identity on [0, domain)^2."""
        return all(
            self.evaluate(x, y) == f(x, y)
            for x in range(domain)
            for y in range(domain)
        )


def eqp_decomposition() -> Decomposition:
    identity = lambda v: v
    return Decomposition(((1, identity, identity),))


def bit_count(n: int) -> int:
    """Number of bits used for the inversion bit-split: ceil(log2 n), min 1."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def inv_decomposition(n: int) -> Decomposition:
    """Split the inversion indicator over [0, n) by most significant
    differing bit.

    Term t keeps the top t-1 bits when bit t (counted from the most
    significant of k = ceil(log2 n) bits) is 1 on the left / 0 on the
    right, and otherwise maps to a sentinel that can never match: -1 on
    the left, 2n on the right.
    """
    k = bit_count(n)
    pos_sentinel = 2 * n
    terms = []
    for t in range(1, k + 1):
        shift_bit = k - t
        shift_prefix = k - t + 1

        def g(x, _b=shift_bit, _p=shift_prefix):
            return (x >> _p) if (x >> _b) & 1 else NEG_SENTINEL

        def h(y, _b=shift_bit, _p=shift_prefix, _s=pos_sentinel):
            return (y >> _p) if not ((y >> _b) & 1) else _s

        terms.append((1, g, h))
    return Decomposition(tuple(terms))


def decomposition_for(f: PairFunction, n: int) -> Decomposition:
    if f.kind == "eqp":
        return eqp_decomposition()
    if f.kind == "inv":
        return inv_decomposition(n)
    if f.decomposition is not None:
        return f.decomposition
    raise CapabilityError(f"no equality decomposition available for {f.kind!r}")


# ---------------------------------------------------------------------------
# Single range <-> two ranges


def reduce_2r_to_1r(f: PairFunction, single_solver: SingleSolver) -> PairSolver:
    """Answer two-range queries with four single-range queries each.

    The cross pairs of ([a,b],[c,d]) equal the inclusion-exclusion
    F(a,d) - F(a,c-1) - F(b+1,d) + F(b+1,c-1) over within-range pair sums
    F; degenerate ranges (left endpoint past right) contribute 0.
    """

    def solver(a: IntArray, pairs: Sequence[RangePair]) -> list[int]:
        for p in pairs:
            p.check(a.n)
        subqueries: list[Range] = []
        plans: list[list[tuple[int, Optional[int]]]] = []
        for p in pairs:
            lo1, hi1 = p.first.l, p.first.r
            lo2, hi2 = p.second.l, p.second.r
            plan: list[tuple[int, Optional[int]]] = []
            for sign, l, r in (
                (1, lo1, hi2),
                (-1, lo1, lo2 - 1),
                (-1, hi1 + 1, hi2),
                (1, hi1 + 1, lo2 - 1),
            ):
                if l <= r:
                    plan.append((sign, len(subqueries)))
                    subqueries.append(Range(l, r))
                else:
                    plan.append((sign, None))
            plans.append(plan)
        answers = single_solver(a, subqueries)
        out = []
        for plan in plans:
            total = 0
            for sign, idx in plan:
                if idx is not None:
                    total += sign * answers[idx]
            out.append(total)
        return out

    return solver


def reduce_1r_to_2r(
    f: PairFunction,
    pair_solver: PairSolver,
    decomposition: Optional[Decomposition] = None,
) -> SingleSolver:
    """Answer single-range queries with prefix precomputation plus one
    two-range query each.

    P[x] = f([1, x]) is accumulated in one pass, looking up per-term
    multisets of already-seen mapped values.  Then
    f([a, b]) = P[b] - P[a-1] - f([1, a-1], [a, b]).

    Works on the rank-normalized array; for inv and eqp the answers are
    unchanged by normalization.
    """

    def solver(a: IntArray, queries: Sequence[Range]) -> list[int]:
        for q in queries:
            q.check(a.n)
        vals = normalize(a.values)
        n = len(vals)
        d = decomposition if decomposition is not None else decomposition_for(f, n)
        arr = IntArray(vals)

        prefix = [0] * (n + 1)
        multisets: list[dict[int, int]] = [dict() for _ in d.terms]
        for x in range(1, n + 1):
            v = vals[x - 1]
            delta = 0
            for (alpha, g, h), seen in zip(d.terms, multisets):
                delta += alpha * seen.get(h(v), 0)
            prefix[x] = prefix[x - 1] + delta
            for (alpha, g, h), seen in zip(d.terms, multisets):
                key = g(v)
                seen[key] = seen.get(key, 0) + 1

        cross_pairs: list[RangePair] = []
        slots: list[Optional[int]] = []
        for q in queries:
            if q.l > 1:
                slots.append(len(cross_pairs))
                cross_pairs.append(RangePair(Range(1, q.l - 1), Range(q.l, q.r)))
            else:
                slots.append(None)
        cross = pair_solver(arr, cross_pairs)

        out = []
        for q, slot in zip(queries, slots):
            middle = cross[slot] if slot is not None else 0
            out.append(prefix[q.r] - prefix[q.l - 1] - middle)
        return out

    return solver


# ---------------------------------------------------------------------------
# eqp <-> inv


def reduce_eqp_to_inv(inv_solver: PairSolver) -> PairSolver:
    """Equal pairs from two inversion runs: on A and on the negated array.

    A pair is equal exactly when it is an inversion in neither A nor -A,
    so eqp = |cross product| - inv_A - inv_{-A}.
    """

    def solver(a: IntArray, pairs: Sequence[RangePair]) -> list[int]:
        for p in pairs:
            p.check(a.n)
        negated = IntArray([-v for v in a.values], cap=a.cap)
        inv_a = inv_solver(a, pairs)
        inv_neg = inv_solver(negated, pairs)
        return [
            p.first.length * p.second.length - x - y
            for p, x, y in zip(pairs, inv_a, inv_neg)
        ]

    return solver


def apply_decomposition(d: Decomposition, eqp_solver: PairSolver) -> PairSolver:
    """Turn a two-range equal-pairs solver into a solver for any function
    given as a weighted sum of equality predicates.

    One 2n-length array per term: the left map applied to the original
    values in the first half, the right map in the second half; the query
    ([a,b],[c,d]) becomes ([a,b],[n+c,n+d]) on each term array.
    """

    def solver(a: IntArray, pairs: Sequence[RangePair]) -> list[int]:
        for p in pairs:
            p.check(a.n)
        vals = normalize(a.values)
        n = len(vals)
        if not pairs:
            return []
        shifted = [
            RangePair(p.first, Range(n + p.second.l, n + p.second.r)) for p in pairs
        ]
        totals = [0] * len(pairs)
        for alpha, g, h in d.terms:
            term_vals = [g(v) for v in vals] + [h(v) for v in vals]
            for tv in term_vals:
                if not isinstance(tv, int):
                    raise InputError("decomposition maps must produce integers")
            term_arr = IntArray(term_vals)
            answers = eqp_solver(term_arr, shifted)
            for i, ans in enumerate(answers):
                totals[i] += alpha * ans
        return totals

    return solver


def reduce_inv_to_eqp(eqp_solver: PairSolver) -> PairSolver:
    """Inversions from ceil(log2 n) equal-pairs instances via the
    most-significant-differing-bit split."""

    def solver(a: IntArray, pairs: Sequence[RangePair]) -> list[int]:
        d = inv_decomposition(a.n)
        return apply_decomposition(d, eqp_solver)(a, pairs)

    return solver


def inv_bit_arrays(a: IntArray) -> list[IntArray]:
    """The 2n-length term arrays of the inversion bit split (test hook)."""
    vals = normalize(a.values)
    n = len(vals)
    arrays = []
    for alpha, g, h in inv_decomposition(n).terms:
        arrays.append(IntArray([g(v) for v in vals] + [h(v) for v in vals]))
    return arrays


# ---------------------------------------------------------------------------
# The easy cases


def mul_pairs_fast(a: IntArray, pairs: Sequence[RangePair]) -> list[int]:
    """Two-range product sums in linear time via prefix sums."""
    for p in pairs:
        p.check(a.n)
    prefix = [0]
    for v in a.values:
        prefix.append(prefix[-1] + v)
    return [
        (prefix[p.first.r] - prefix[p.first.l - 1])
        * (prefix[p.second.r] - prefix[p.second.l - 1])
        for p in pairs
    ]


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
        if any(e not in (0, 1) for e in mat.entries):
            raise InputError("matrix entries must be 0/1")

    values: list[int] = []
    row_seg: list[Optional[Range]] = []
    for i in range(d):
        ones = [k for k in range(d) if x[i, k]]
        if ones:
            row_seg.append(Range(len(values) + 1, len(values) + len(ones)))
            values.extend(ones)
        else:
            row_seg.append(None)
    col_seg: list[Optional[Range]] = []
    for j in range(d):
        ones = [k for k in range(d) if y[k, j]]
        if ones:
            col_seg.append(Range(len(values) + 1, len(values) + len(ones)))
            values.extend(ones)
        else:
            col_seg.append(None)

    out = [[0] * d for _ in range(d)]
    if not values:
        return DenseMatrix.from_rows(out)
    arr = IntArray(values)
    queries: list[RangePair] = []
    cells: list[tuple[int, int]] = []
    for i in range(d):
        if row_seg[i] is None:
            continue
        for j in range(d):
            if col_seg[j] is None:
                continue
            queries.append(RangePair(row_seg[i], col_seg[j]))
            cells.append((i, j))
    answers = eqp_solver(arr, queries)
    for (i, j), ans in zip(cells, answers):
        out[i][j] = 1 if ans > 0 else 0
    return DenseMatrix.from_rows(out)
