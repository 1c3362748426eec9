"""Direct solvers for range-pair query problems.

Three families live here:

* the offline square-root-decomposition solver (``mo_offline``), which
  reads each query [l, r] off the int64 answer row of the nearer of the
  block starts s' <= l <= s and corrects it by its front, summed for the
  whole batch in vectorised chunks: from s it adds the pairs each
  position in [l, s) gains, from s' it subtracts those of [s', l), as
  pairs[s', r] - pairs[l, r] telescopes to that sum;
* its online variant (``MoOnline``), which precomputes an int64 row of
  answers for every block start and answers an arbitrary query by
  adding its front to a row entry in O(1) Python: ceil(n / B) + 1 prefix
  count rows of n + 1 int64 entries for block size B, plus a sort and a
  binary search over fewer than B values.  B is a power of two near
  n / sqrt(q), so a doubling rebuild keeps every row it has and builds
  only those of the new block starts;
* the online block/matrix equal-pairs structure (``online_eq_build``),
  which splits the array into blocks, counts equal pairs between blocks
  with a matrix product for frequent values and direct enumeration for
  rare ones, both written into the interior of one (b_cnt + 1) x
  (b_cnt + 1) int64 prefix table that two in-place cumulative sums
  finish, and answers queries from that table plus the range tails.  A
  tail position costs one list read, and one binary search of its
  value's index list only when that value recurs in the range.
  ``OnlineEqSolver`` computes the ranks, index lists and position links
  once and shares them with every doubling rebuild.  For q_hint =
  n**alpha queries a block is ceil(c * n**(1 - beta)) positions, with
  beta = 2 alpha / (omega + 1) up to q = n and (3 - alpha + omega (alpha
  - 1)) / (omega + 1) above (the two meet at q = n; at ``OMEGA`` = 3 both
  are alpha / 2, so a block is about c * n / sqrt(q)).  The constant c,
  ``EQ_BLOCK_SCALE`` = 0.15, was swept: a tail step is a Python list read
  and a bisect, dearer than a table cell by about two orders.

The two online solvers share ``OnlineIndex``'s ``query``/``batch`` driver.

``matmul``, the exact integer matrix product (float64 BLAS while every
partial sum stays below 2**53, int64 beyond), is also defined here since
the block structure is its one consumer.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    CapabilityError,
    DenseMatrix,
    InputError,
    IntArray,
    PairFunction,
    Range,
    ShapeError,
    bounds,
    ranks,
)
from .instrument import OpCounters


# ---------------------------------------------------------------------------
# Pair counts over the array's ranks (offline Mo)


class Wavelet:
    """Wavelet matrix over values in [0, domain) ("The Wavelet Matrix",
    SPIRE 2012): one row of prefix zero counts per bit, top bit first,
    each level stably partitioned by its bit.

    ``less(x, v)`` answers #{i < x : vals[i] < v} for whole needle arrays
    in one pass per level; x lies in [0, n] and v in [0, domain]."""

    def __init__(self, vals: np.ndarray, domain: int):
        n = len(vals)
        self.zeros = np.zeros((domain.bit_length(), n + 1), dtype=np.int64)
        for level, row in enumerate(self.zeros):
            bit = (vals >> (len(self.zeros) - 1 - level)) & 1
            np.cumsum(1 - bit, out=row[1:])
            vals = np.concatenate((vals[bit == 0], vals[bit == 1]))

    def less(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        lo, hi = np.zeros_like(x), x
        count = np.zeros_like(x)
        for level, row in enumerate(self.zeros):
            one = ((v >> (len(self.zeros) - 1 - level)) & 1).astype(bool)
            zlo, zhi = row[lo], row[hi]
            count += np.where(one, zhi - zlo, 0)
            lo = np.where(one, row[-1] + lo - zlo, zlo)
            hi = np.where(one, row[-1] + hi - zhi, zhi)
        return count


def _pair_counts(kind: str, vals: np.ndarray, domain: int):
    """``(before, own, gain)`` for the pair function ``kind`` on ``vals``.

    before[j] = #{i < j : pair(vals[i], vals[j])}, and gain(p, r) is the
    number of pairs gained by prepending position p to (p, r]: the values
    in vals[p+1 : r+1] equal to (EQP) or less than (INV) vals[p].
    own[p] counts those values in vals[0 : p+1], so that gain(p, r) is
    the same count over vals[0 : r+1] minus own[p]."""
    n = len(vals)
    pos = np.arange(n, dtype=np.int64)
    if kind == "eqp":
        order = np.argsort(vals, kind="stable")
        keys = vals[order] * (n + 1) + order  # sorted (value, position) keys
        rank = np.empty(n, dtype=np.int64)  # position -> index in keys
        rank[order] = pos
        before = rank - np.searchsorted(keys, vals * (n + 1))

        own = before + 1

        def gain(p: np.ndarray, r: np.ndarray) -> np.ndarray:
            return np.searchsorted(keys, vals[p] * (n + 1) + r, side="right") - rank[p] - 1

    else:
        wavelet = Wavelet(vals, domain)
        before = pos - wavelet.less(pos, vals + 1)
        own = wavelet.less(pos, vals)  # #{i < p : vals[i] < vals[p]}

        def gain(p: np.ndarray, r: np.ndarray) -> np.ndarray:
            return wavelet.less(r + 1, vals[p]) - own[p]

    return before, own, gain


def _answer_row(kind: str, vals: np.ndarray, before: np.ndarray, seen: np.ndarray, s: int):
    """int64 answers of the ranges [s, k], k = s..n-1 (0-based), given the
    value counts ``seen`` of vals[0:s].

    Appending vals[j] to [s, j) gains before[j] - C_s[vals[j]] pairs, where
    C_s counts the values in vals[0:s] that pair with it: those equal (EQP)
    or greater (INV)."""
    paired = seen if kind == "eqp" else s - np.cumsum(seen)
    return np.cumsum(before[s:] - paired[vals[s:]])


def _front_sums(gain, l: np.ndarray, r: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """For each query i, the sum of gain(p, r[i]) over p in [l[i], l[i] + lens[i])."""
    ends = np.cumsum(lens)
    p = np.arange(lens.sum()) - np.repeat(ends - lens - l, lens)
    sums = np.concatenate(([0], np.cumsum(gain(p, np.repeat(r, lens)))))
    return sums[ends] - sums[ends - lens]


def _check_kind(f: PairFunction) -> None:
    if f.kind not in ("inv", "eqp"):
        raise CapabilityError(f"no square-root solver for pair function {f.kind!r}")


# ---------------------------------------------------------------------------
# Offline Mo


# Front steps summed in one numpy chunk; bounds the front pass's scratch
# memory.  Swept over 2**11 .. 2**16 with the nearer-start fronts and
# mo_offline_block_size on perfbench's mo_offline batches at seeds 1 and
# 4242 (median of 30 interleaved runs, 2-vCPU VM).  graph_triangle's two
# reduce_etc_to_2req batches (seed 1: n = 7120, q = 14206 and n = 10026,
# q = 20029) took 15.4 and 20.1 ms at 2**13; 2**14 was within 1.5 % of
# that, 2**12 3-6 % and 2**11 9-12 % slower, 2**15 10-12 % and 2**16
# 13-16 % slower.  range_direct's n = q = 1024 req and riq batches took
# 1.4 and 3.1 ms from 2**13 up, 2-3 % more at 2**12 and 4-5 % at 2**11.
FRONT_BATCH = 1 << 13


def mo_online_block_size(n: int, q: int) -> int:
    """MoOnline's block size: the largest power of two B with
    B**2 <= 2 n**2 / q (1 when there is none), within a factor sqrt(2)
    of n / sqrt(q).  Doubling q keeps B or halves it, so a later
    guess's block starts include the earlier ones."""
    e = ((2 * n * n) // q).bit_length() - 1
    return 1 << max(0, e // 2)


# mo_offline's block size: 0.7 times n / sqrt(q), about MoOnline's
# block.  A smaller block builds more rows, each one O(n) cumsum,
# to shorten every front, whose steps cost a searchsorted or a wavelet
# walk each.  Paired against 1.0 over interleaved runs at seeds 1 and
# 4242 (2-vCPU VM, FRONT_BATCH = 2**13), as median per-run time ratios:
# 0.7 took the reduce_etc_to_2req batches to 0.89 / 0.85 (seed 1) and
# 0.89 / 0.80 (seed 4242) and the riq batch to 0.94, and left the req
# batch at 0.995 / 1.004 (200 runs).  0.5 took the reduce_etc_to_2req
# batches to 0.74-0.88 but the req batch to 1.04 / 1.08.
def mo_offline_block_size(n: int, q: int) -> int:
    return max(1, int(0.7 * n / math.sqrt(q)))


def mo_offline(
    f: PairFunction,
    a: IntArray,
    queries: Sequence[Range] | np.ndarray,
    counters: Optional[OpCounters] = None,
) -> list[int]:
    """Answer offline single-range queries (``Range`` objects or their
    (q, 2) bounds array) from block rows plus front sums.

    With B = max(1, 0.7 n / sqrt(q)) (``mo_offline_block_size``) and
    gain(p, r) the pairs that prepending p to (p, r] gains, each query
    [l, r] reads the nearer of two anchors, ties going forward:

    * forward, from the block start s >= l: row_s[r] plus gain(p, r) for
      p in [l, min(s, r + 1)), with no row when s > r;
    * backward, from the block start s' <= l: row_s'[r] minus gain(p, r)
      for p in [s', l).  pairs[s', r] - pairs[l, r] telescopes to that
      sum, and s' <= r, so the row always exists.

    Two passes answer the batch.  The row pass visits each anchor some
    query reads a row of, builds its answer row, the int64 answers of
    [s, k] for every k, in O(n) numpy work, and reads it off for those
    queries.  The front pass then sums every query's front, signed by
    its direction, over the whole batch in vectorised chunks of about
    ``FRONT_BATCH`` steps.  That is at most n / B + 1 rows and at most
    B / 2 front steps per query, about B / 4 on average, O(n sqrt(q)) in
    all, for any q.
    """
    _check_kind(f)
    l, r = bounds(queries, a.n, 2).T - 1
    q = l.size
    if q == 0:
        return []
    n = a.n
    distinct, vals = ranks(a.values)
    domain = distinct.size
    before, _, gain = _pair_counts(f.kind, vals, domain)

    block = mo_offline_block_size(n, q)
    below = l // block * block  # block start at or before l
    above = -(-l // block) * block  # block start at or after l
    forward = np.minimum(above, r + 1) - l  # front steps from above
    back = l - below < forward  # read below instead; ties go forward
    start = np.where(back, below, above)  # each query's anchor
    front = np.where(back, l - below, forward)
    front_lo = np.minimum(start, l)  # a front covers [front_lo, front_lo + front)
    answers = np.zeros(q, dtype=np.int64)
    seen = np.zeros(domain, dtype=np.int64)  # value counts of vals[0:counted]
    inside = np.flatnonzero(start <= r)
    inside = inside[np.argsort(start[inside], kind="stable")]
    starts, first = np.unique(start[inside], return_index=True)
    counted = 0
    for s, group in zip(starts.tolist(), np.split(inside, first[1:])):
        seen += np.bincount(vals[counted:s], minlength=domain)
        counted = s
        answers[group] = _answer_row(f.kind, vals, before, seen, s)[r[group] - s]
    ends = np.cumsum(front)
    cuts = np.searchsorted(ends, np.arange(FRONT_BATCH, ends[-1], FRONT_BATCH)).tolist()
    for i, j in zip([0, *cuts], [*cuts, q]):
        sums = _front_sums(gain, front_lo[i:j], r[i:j], front[i:j])
        answers[i:j] += np.where(back[i:j], -sums, sums)
    if counters is not None:
        counters.extender_steps += int((n - starts).sum() + ends[-1])
    return answers.tolist()


# ---------------------------------------------------------------------------
# Online indices


class OnlineIndex:
    """A range index that answers online: one ``Range`` (``query``) or
    one batch (``batch``) at a time.

    A subclass builds its tables for the query-count guess ``q_guess`` in
    ``_prepare()`` and answers a checked 1-based [l, r] in ``_answer``.
    Once the counted queries exceed the guess, it doubles until it covers
    them and the tables are rebuilt; no answer depends on the guess.
    """

    def __init__(self, n: int, counters: Optional[OpCounters], q_guess: int):
        if q_guess < 1:
            raise InputError("query hint must be at least 1")
        self.n = n
        self.counters = counters
        self.q_guess = q_guess
        self.q_seen = 0

    def _grow(self) -> None:
        while self.q_seen > self.q_guess:
            self.q_guess *= 2
        self._prepare()

    def query(self, rng: Range) -> int:
        rng.check(self.n)
        self.q_seen += 1
        if self.q_seen > self.q_guess:
            self._grow()
        return self._answer(rng.l, rng.r)

    def batch(self, queries: Sequence[Range] | np.ndarray) -> list[int]:
        """Answer ``Range`` objects or their (q, 2) bounds array."""
        rows = bounds(queries, self.n, 2).tolist()
        self.q_seen += len(rows)
        if self.q_seen > self.q_guess:
            self._grow()
        answer = self._answer
        return [answer(l, r) for l, r in rows]


class MoOnline(OnlineIndex):
    """Online variant of the block walk: answer rows plus count tables.

    With 0-based positions, block size B and C_x(v) the number of i < x
    whose value pairs with v (equals v for EQP, is less than v for INV),
    a query [l, r] whose first block start at or after l is s reads

        answer(l, r) = row_s[r] + sum over p in [l, s) of
                       C_{r+1}(vals[p]) - C_{p+1}(vals[p]),

    with the row term 0 and s = r + 1 when no block start lies inside.
    Unlike ``mo_offline`` it always reads this forward start: a query
    costs O(1) Python whatever its front, so a shorter one does not pay.
    ``rows[j]`` holds the int64 answers of [jB, k] for every k.  The
    prefix sums of C_{p+1}(vals[p]), one number per position, give the
    second sum.  For the first, C_{r+1}(v) is T_k(v), the count over
    vals[0:kB] with k = (r + 1) // B, plus the pairs in [kB, r]; the
    row ``cross[k]`` holds the sums of T_k(vals[i]) over i < x for
    x = 0..n, one row of n + 1 int64 entries per block start and one
    for kB >= n.  The front and [kB, r] both hold fewer than B values;
    their pairs are counted by sorting [kB, r] and searching it for
    every front value.  A query thus costs O(1) Python and O(B log B)
    numpy work in O(B) memory.

    B is a power of two (``mo_online_block_size``), so a doubling of the
    guess keeps B or divides it by a power of two, and the old block
    starts are among the new ones.  A rebuild keeps every row it has and
    builds the rows of the new starts only, O(n) numpy work each, in no
    more memory than the new tables plus O(n).  From ``q_guess`` = 1 the
    rows built over every rebuild are those of the final B.
    """

    def __init__(
        self,
        f: PairFunction,
        a: IntArray,
        counters: Optional[OpCounters] = None,
        q_guess: int = 1,
    ):
        _check_kind(f)
        super().__init__(a.n, counters, q_guess)
        self.kind = f.kind
        distinct, self.vals = ranks(a.values)
        self.domain = distinct.size
        self._before, own, _ = _pair_counts(self.kind, self.vals, self.domain)
        self._own = np.concatenate(([0], np.cumsum(own)))  # prefix sums of C_{p+1}(vals[p])
        self.block, self.rows, self.cross = 0, [], []
        self._prepare()

    def _prepare(self) -> None:
        """Bring the answer rows and ``cross`` to the current guess's
        block, building only the rows of block starts not yet held."""
        n, domain, vals = self.n, self.domain, self.vals
        block = mo_online_block_size(n, self.q_guess)
        if block == self.block:
            return
        step = self.block // block  # the old rows sit at every step-th start; 0 at first
        rows, cross = [], []
        built = 0
        seen = np.zeros(domain, dtype=np.int64)  # value counts of vals[0:s]
        for j, s in enumerate([*range(0, n, block), n]):  # one more cross row, for kB >= n
            if step and s == n:
                cross.append(self.cross[-1])
            elif step and j % step == 0:
                rows.append(self.rows[j // step])
                cross.append(self.cross[j // step])
            else:
                if s < n:
                    rows.append(_answer_row(self.kind, vals, self._before, seen, s))
                    built += n - s
                paired = seen if self.kind == "eqp" else np.cumsum(seen) - seen
                row = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(paired[vals], out=row[1:])
                cross.append(row)
            seen += np.bincount(vals[s : s + block], minlength=domain)
        self.block, self.rows, self.cross = block, rows, cross
        if self.counters is not None:
            self.counters.extender_steps += built

    def _answer(self, l: int, r: int) -> int:
        block = self.block
        l, r = l - 1, r - 1
        j = -(-l // block)  # first block start >= l is jB
        s = j * block
        if s > r:  # no block start inside: the front is the whole range
            s, ans = r + 1, 0
        else:
            ans = self.rows[j].item(r - s)
        if self.counters is not None:
            self.counters.extender_steps += s - l
        if s == l:
            return ans
        k = (r + 1) // block
        front, tail = self.vals[l:s], self.vals[k * block : r + 1].copy()
        tail.sort()  # O(B log B), with no front x tail comparison
        pairs = tail.searchsorted(front)  # tail values less than each front value
        if self.kind == "eqp":
            pairs = tail.searchsorted(front, "right") - pairs
        cross, own = self.cross[k], self._own
        ans += cross.item(s) - cross.item(l) - own.item(s) + own.item(l)
        return ans + int(pairs.sum())


# ---------------------------------------------------------------------------
# Matrix multiplication


def _peak(m: DenseMatrix) -> int:
    return max(int(m.array.max()), -int(m.array.min()))


# entries of matmul's float64 product cast to int64 per step
_CAST_CHUNK = 1 << 14


def matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Exact integer matrix product.

    With bound = max|a| * max|b| * inner dimension, operands with
    bound >= 2**63 are refused, so the result never wraps.  Below 2**53
    the product runs in float64 (BLAS): every partial sum is then an
    integer of magnitude below 2**53, exactly representable, so the
    result is exact in any summation order.  It is cast to int64 in its
    own buffer, a few rows at a time, so one table is held, not two.
    Otherwise it runs in int64.
    """
    if a.cols != b.rows:
        raise ShapeError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    bound = _peak(a) * _peak(b) * a.cols
    if bound >= 2**63:
        raise InputError("matrix product may overflow int64")
    if bound < 2**53:
        floats = a.array.astype(np.float64) @ b.array.astype(np.float64)
        product = floats.view(np.int64)
        # numpy buffers a source that overlaps its target, so each step
        # holds one chunk more
        step = max(1, _CAST_CHUNK // b.cols)
        for row in range(0, a.rows, step):
            product[row : row + step] = floats[row : row + step]
    else:
        product = a.array @ b.array
    return DenseMatrix(product)


# ---------------------------------------------------------------------------
# Online equal-pairs block/matrix structure


class EqValues(NamedTuple):
    """What every build over one array shares, whatever its query hint:
    the values' ranks as an int64 array (``ranks``) and as a list
    (``values``), each value's sorted 1-based positions, and three int
    lists of length n + 2 that link each 1-based position p to the others
    holding its value: ``occ[p]``, p's 1-based rank in its value's index
    list; ``nxt[p]``, the next position with that value (n + 1 if none);
    ``prv[p]``, the previous one (0 if none)."""

    ranks: np.ndarray
    values: list[int]
    index_lists: dict[int, list[int]]
    occ: list[int]
    nxt: list[int]
    prv: list[int]


def eq_values(a: IntArray) -> EqValues:
    rank = ranks(a.values)[1]
    values = rank.tolist()  # walked in Python per query
    index_lists: dict[int, list[int]] = {}
    for p, v in enumerate(values, start=1):
        index_lists.setdefault(v, []).append(p)
    n = len(values)
    order = np.argsort(rank, kind="stable")  # positions by (value, position)
    pos = order + 1
    same = rank[order[1:]] == rank[order[:-1]]  # sorted i and i + 1 share a value
    first = np.zeros(n, dtype=np.int64)  # sorted index where i's value starts
    first[1:][~same] = np.flatnonzero(~same) + 1
    np.maximum.accumulate(first, out=first)
    occ = np.zeros(n + 2, dtype=np.int64)
    nxt = np.full(n + 2, n + 1, dtype=np.int64)
    prv = np.zeros(n + 2, dtype=np.int64)
    occ[pos] = np.arange(1, n + 1) - first
    nxt[pos[:-1]] = np.where(same, pos[1:], n + 1)
    prv[pos[1:]] = np.where(same, pos[:-1], 0)
    return EqValues(rank, values, index_lists, occ.tolist(), nxt.tolist(), prv.tolist())


@dataclass
class OnlineEqStructure:
    """Preprocessed block structure for online equal-pairs queries.

    ``prefix`` is one (b_cnt + 1) x (b_cnt + 1) int64 table: entry
    [i, j] counts the ordered position pairs (p, p') with p in blocks
    0..i-1, p' in blocks 0..j-1 and equal values, the trivial p = p'
    pairs included, which query time corrects for.  So the four-term
    difference at (i, j) counts the pairs between blocks i and j.
    ``values``, ``index_lists`` and the position links ``occ``/``nxt``/
    ``prv`` are ``EqValues``' lists, read by the range tails.
    """

    n: int
    values: list[int]
    b_len: int
    b_cnt: int
    tau: float
    prefix: np.ndarray
    index_lists: dict[int, list[int]]
    occ: list[int]
    nxt: list[int]
    prv: list[int]


# The matrix-product exponent the block parameters assume, kept by
# measurement: at 2, the exponent of AYZ's measured split
# (triangle.default_theta), req through online-eq at n = 20 000 ran 1.1-2.3x
# slower on each of four arrays and query counts tried, so no one omega
# serves both.
OMEGA = 3.0

# Online-eq's block length is EQ_BLOCK_SCALE * n**(1 - beta): the paper's
# balance weighs one tail step like one table cell, but a tail step is a
# Python list read and often a bisect (~0.5 us) while a cell of the product
# and the cumsums is nanoseconds of numpy.  Swept over 0.1 .. 1 on a 2-vCPU
# VM (medians of 7 interleaved runs, ms; every answer equal): perfbench's
# two OnlineEqSolver streams at n = 1024 (16 values to q = 4n, near-distinct
# to q = n, seed 1), range_solver("req", "online-eq") at n = q = 20 000
# with values 0..n-1 and 0..15, and reduce_etc_to_2req through online-eq on
# powerlaw(1000, 0.01, seed 102):
#   c     streams  req 0..n-1  req 0..15  etc
#   1.0    35.9      286        1029      316
#   0.5    25.1      173         542      180
#   0.25   20.1      122         323      117
#   0.18   19.4      115         260      114
#   0.15   19.5      106         236       98
#   0.12   21.3      102         205       94
#   0.1    22.2      102         200       96
# (streams: medians of 40 runs).  Below 0.15 the streams lose up to 14 %;
# above it every other shape does.  Scaling tau by 0.5 .. 4 moved nothing
# beyond noise, so gamma stays 1 + beta - alpha.
EQ_BLOCK_SCALE = 0.15


def _block_parameters(n: int, q_hint: int) -> tuple[float, float]:
    """The block exponent beta and frequency exponent gamma for q_hint
    queries, alpha = log q_hint / log n: beta = 2 alpha / (omega + 1) up
    to q = n and (3 - alpha + omega (alpha - 1)) / (omega + 1) above,
    which meet at q = n and reach 1 at q = n**2; gamma = 1 + beta - alpha.
    Both are clipped to [0.01, 0.99]."""
    if n < 2:
        return 0.5, 0.5
    alpha = math.log(max(q_hint, 1)) / math.log(n)
    if q_hint <= n:
        beta = 2.0 * alpha / (OMEGA + 1.0)
    else:
        beta = (3.0 - alpha + OMEGA * (alpha - 1.0)) / (OMEGA + 1.0)
    beta = min(max(beta, 0.01), 0.99)
    gamma = min(max(1.0 + beta - alpha, 0.01), 0.99)
    return beta, gamma


def online_eq_build(
    a: IntArray,
    q_hint: int,
    shared: Optional[EqValues] = None,
) -> OnlineEqStructure:
    """Build the block/matrix structure for equal-pairs range queries.

    Blocks are b_len = max(1, ceil(EQ_BLOCK_SCALE * n**(1 - beta)))
    positions long, with beta from ``_block_parameters``.  Frequent values
    (appearing at least tau = n**(1-gamma) times) are counted per block
    into a matrix M and contribute M @ M.T; rare values are enumerated
    directly.  Both land in the interior of one prefix table, which two
    in-place cumulative sums finish; it answers any block-aligned query
    with four lookups.  ``shared`` is ``eq_values(a)``, passed by callers
    that build over one array more than once.
    """
    if a.n < 1:
        raise InputError("empty array")
    if q_hint < 1:
        raise InputError("query hint must be at least 1")
    n = a.n
    shared = shared if shared is not None else eq_values(a)
    value = shared.ranks
    beta, gamma = _block_parameters(n, q_hint)
    b_len = max(1, math.ceil(EQ_BLOCK_SCALE * n ** (1.0 - beta)))
    b_cnt = (n + b_len - 1) // b_len
    tau = n ** (1.0 - gamma)

    # values are ranks 0..d-1, so a value indexes arrays over the domain
    block = np.arange(n) // b_len
    is_frequent = np.bincount(value) >= tau
    freq = is_frequent[value]  # positions holding a frequent value

    n_freq = int(is_frequent.sum())
    if n_freq:
        # block i's counts are row i + 1 of m, below a zero row, so the
        # product is the table with its zero first row and column in place
        column = np.cumsum(is_frequent) - 1
        m = np.bincount(
            (block[freq] + 1) * n_freq + column[value[freq]], minlength=(b_cnt + 1) * n_freq
        ).reshape(b_cnt + 1, n_freq)
        product = matmul(DenseMatrix(m), DenseMatrix(m.T))
        prefix = np.ascontiguousarray(product.array)
    else:
        prefix = np.zeros((b_cnt + 1, b_cnt + 1), dtype=np.int64)

    # rare values: one (value, block, count) entry per block a value
    # occurs in, paired with every entry of the same value
    rare = ~freq
    keys, per_block = np.unique(value[rare] * b_cnt + block[rare], return_counts=True)
    rare_value, rare_block = np.divmod(keys, b_cnt)
    first = np.searchsorted(rare_value, rare_value)
    size = np.searchsorted(rare_value, rare_value, side="right") - first
    left = np.repeat(np.arange(len(keys)), size)
    right = first[left] + np.arange(len(left)) - (np.cumsum(size) - size)[left]
    # one flat index per pair: numpy's 1-D add.at path is several times
    # faster than the 2-D one and, unlike a float64 bincount, stays exact
    np.add.at(
        prefix.reshape(-1),  # a view: prefix is C-contiguous
        (rare_block[left] + 1) * (b_cnt + 1) + rare_block[right] + 1,
        per_block[left] * per_block[right],
    )
    np.cumsum(prefix, axis=1, out=prefix)
    np.cumsum(prefix, axis=0, out=prefix)

    return OnlineEqStructure(
        n=n,
        values=shared.values,
        b_len=b_len,
        b_cnt=b_cnt,
        tau=tau,
        prefix=prefix,
        index_lists=shared.index_lists,
        occ=shared.occ,
        nxt=shared.nxt,
        prv=shared.prv,
    )


def _eq_answer(s: OnlineEqStructure, l: int, r: int) -> int:
    """Equal pairs in [l, r] (1-based, already checked against s.n).

    The whole blocks [big_l, big_r] inside the range are four table
    entries.  A front position p < big_l pairs with the later positions
    of its value up to r; a back-tail position p > big_r with the earlier
    ones from big_l.  ``nxt``/``prv`` skip a position whose value does
    not recur there with one list read; otherwise one ``bisect_right``
    on its value's index list, offset by its rank ``occ[p]``, counts it.
    """
    b_len = s.b_len
    bs = (l - 1 + b_len - 1) // b_len  # first block starting at or after l
    if r == s.n:
        be = s.b_cnt - 1
    else:
        be = r // b_len - 1
    if bs > be:  # no whole block: the front is the whole range
        ans, big_l, big_r = 0, r + 1, r
    else:
        big_l = bs * b_len + 1
        big_r = min((be + 1) * b_len, s.n)
        prefix = s.prefix
        ordered = (
            prefix.item(be + 1, be + 1)
            - prefix.item(bs, be + 1)
            - prefix.item(be + 1, bs)
            + prefix.item(bs, bs)
        )
        ans = (ordered - (big_r - big_l + 1)) // 2
    vals, lists, occ, nxt, prv = s.values, s.index_lists, s.occ, s.nxt, s.prv
    for p in range(l, big_l):
        if nxt[p] <= r:
            ans += bisect_right(lists[vals[p - 1]], r) - occ[p]
    for p in range(big_r + 1, r + 1):
        if prv[p] >= big_l:
            ans += occ[p] - 1 - bisect_right(lists[vals[p - 1]], big_l - 1)
    return ans


class OnlineEqSolver(OnlineIndex):
    """Online equal pairs from ``online_eq_build``'s structure, built for
    the current query-count guess.

    The ranks, value list, index lists and position links do not depend
    on the guess; they are computed once and shared by every rebuild."""

    def __init__(self, a: IntArray, counters: Optional[OpCounters] = None, q_guess: int = 1):
        super().__init__(a.n, counters, q_guess)
        self.array = a
        self.shared = eq_values(a)
        self._prepare()

    def _prepare(self) -> None:
        self.structure = None  # free the old table before building the next
        self.structure = online_eq_build(self.array, self.q_guess, shared=self.shared)

    def _answer(self, l: int, r: int) -> int:
        return _eq_answer(self.structure, l, r)
