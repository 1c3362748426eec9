"""Direct solvers for range-pair query problems.

Three families live here:

* the offline square-root-decomposition solver (``mo_offline``), which
  sorts queries into blocks and walks a stateful extender across them;
* its online variant (``MoOnline``), which precomputes an int64 row of
  answers for every block start and answers an arbitrary query by
  extending a row entry at the front, counting each front step in one
  prefix-persistent count tree built once per array;
* the online block/matrix equal-pairs structure (``online_eq_build`` /
  ``online_eq_query``), which splits the array into blocks, counts equal
  pairs between blocks with a matrix product for frequent values and
  direct enumeration for rare ones, and answers queries from a 2-D prefix
  table plus per-value index lists for the range tails.

``matmul``, the exact int64 matrix product, is also defined here since
the block structure is its one consumer.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    CapabilityError,
    DenseMatrix,
    InputError,
    IntArray,
    PairFunction,
    Range,
    ShapeError,
    normalize,
)
from .instrument import OpCounters


# ---------------------------------------------------------------------------
# Mutable extenders (offline Mo)


class Fenwick:
    """Binary indexed tree over value counts, 0-based value domain."""

    __slots__ = ("n", "tree", "total")

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)
        self.total = 0

    def add(self, v: int, delta: int) -> None:
        self.total += delta
        i = v + 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, v: int) -> int:
        """Count of stored values <= v."""
        i = v + 1
        res = 0
        while i > 0:
            res += self.tree[i]
            i -= i & (-i)
        return res


class Extender:
    """Stateful accumulator over a current range.

    After any sequence of extend/shrink calls producing range [l, r], the
    ``answer`` equals the brute-force pair sum for [l, r].  Values passed
    in must come from the normalized domain the extender was built for.
    """

    def add_left(self, v: int) -> None:
        raise NotImplementedError

    def add_right(self, v: int) -> None:
        raise NotImplementedError

    def remove_left(self, v: int) -> None:
        raise NotImplementedError

    def remove_right(self, v: int) -> None:
        raise NotImplementedError

    @property
    def answer(self) -> int:
        raise NotImplementedError


class EqExtender(Extender):
    """Equal-pairs extender: a value-count table, O(1) per step."""

    def __init__(self, domain: int):
        self.count = [0] * domain
        self._answer = 0

    def _add(self, v: int) -> None:
        self._answer += self.count[v]
        self.count[v] += 1

    def _remove(self, v: int) -> None:
        self.count[v] -= 1
        self._answer -= self.count[v]

    add_left = _add
    add_right = _add
    remove_left = _remove
    remove_right = _remove

    @property
    def answer(self) -> int:
        return self._answer


class InvExtender(Extender):
    """Inversion extender backed by an order-statistic count structure."""

    def __init__(self, domain: int):
        self.fen = Fenwick(domain)
        self._answer = 0

    def add_left(self, v: int) -> None:
        # new pairs (v, existing): inversion iff existing < v
        self._answer += self.fen.prefix(v - 1) if v > 0 else 0
        self.fen.add(v, 1)

    def add_right(self, v: int) -> None:
        # new pairs (existing, v): inversion iff existing > v
        self._answer += self.fen.total - self.fen.prefix(v)
        self.fen.add(v, 1)

    def remove_left(self, v: int) -> None:
        self.fen.add(v, -1)
        self._answer -= self.fen.prefix(v - 1) if v > 0 else 0

    def remove_right(self, v: int) -> None:
        self.fen.add(v, -1)
        self._answer -= self.fen.total - self.fen.prefix(v)

    @property
    def answer(self) -> int:
        return self._answer


def make_extender(f: PairFunction, domain: int) -> Extender:
    if f.kind == "eqp":
        return EqExtender(domain)
    if f.kind == "inv":
        return InvExtender(domain)
    raise CapabilityError(f"no incremental extender for pair function {f.kind!r}")


# ---------------------------------------------------------------------------
# Offline Mo


def mo_block_size(n: int, q: int) -> int:
    return max(1, int(n / math.sqrt(q)))


def mo_offline(
    f: PairFunction,
    a: IntArray,
    queries: Sequence[Range],
    counters: Optional[OpCounters] = None,
) -> list[int]:
    """Answer offline single-range queries by the block-sorted extender walk.

    Queries are sorted by (l // B, r) with B = max(1, n / sqrt(q)); the
    extender is dragged from one query range to the next.  When q > n**2
    every possible range is cheaper to precompute, so we do that instead.
    """
    n = a.n
    q = len(queries)
    if q == 0:
        return []
    for rng in queries:
        rng.check(n)
    vals = normalize(a.values)
    domain = n

    if q > n * n:
        return _mo_precompute_all(f, vals, queries, counters)

    block = mo_block_size(n, q)
    order = sorted(range(q), key=lambda i: ((queries[i].l - 1) // block, queries[i].r))
    ext = make_extender(f, domain)
    answers = [0] * q
    cur_l, cur_r = 1, 0
    steps = 0
    for i in order:
        l, r = queries[i].l, queries[i].r
        while cur_r < r:
            ext.add_right(vals[cur_r])
            cur_r += 1
            steps += 1
        while cur_l > l:
            cur_l -= 1
            ext.add_left(vals[cur_l - 1])
            steps += 1
        while cur_r > r:
            cur_r -= 1
            ext.remove_right(vals[cur_r])
            steps += 1
        while cur_l < l:
            ext.remove_left(vals[cur_l - 1])
            cur_l += 1
            steps += 1
        answers[i] = ext.answer
    if counters is not None:
        counters.extender_steps += steps
    return answers


def _mo_precompute_all(f, vals, queries, counters) -> list[int]:
    n = len(vals)
    table = [[0] * (n + 1) for _ in range(n + 2)]  # table[l][r], 1-based
    steps = 0
    for l in range(1, n + 1):
        ext = make_extender(f, n)
        for r in range(l, n + 1):
            ext.add_right(vals[r - 1])
            steps += 1
            table[l][r] = ext.answer
    if counters is not None:
        counters.extender_steps += steps
    return [table[q.l][q.r] for q in queries]


# ---------------------------------------------------------------------------
# Online Mo


class MoOnline:
    """Online variant of the block walk: answer rows plus one persistent tree.

    For every block start s, ``rows`` holds the int64 answers for the
    ranges [s, k], k = s..n.  An arriving query [l, r] reads the row of the
    first block start inside the range and extends it at the front; each
    front step counts, in the range already covered, the values equal to
    (EQP) or less than (INV) the prepended one.

    Those counts come from one prefix-persistent ("chairman") count tree
    over the value domain (Driscoll, Sarnak, Sleator and Tarjan, 1989),
    built once per array: version i holds vals[0:i], so a count over
    positions [a, b) is version b minus version a, read in one O(log d)
    walk.  The tree is flat node lists (``_left``, ``_right``, ``_count``);
    node 0 is the empty tree and is its own child.

    The number-of-queries guess doubles whenever exceeded and only the
    rows are rebuilt, in O(n * n / B) numpy work; rebuilds never change
    any answer.
    """

    def __init__(
        self,
        f: PairFunction,
        a: IntArray,
        counters: Optional[OpCounters] = None,
        q_guess: int = 1,
    ):
        if f.kind not in ("inv", "eqp"):
            raise CapabilityError(f"no persistent extender for pair function {f.kind!r}")
        self.kind = f.kind
        self.vals = normalize(a.values)
        self.n = a.n
        self.domain = max(self.vals) + 1
        self.counters = counters
        self.q_guess = max(1, q_guess)
        self.q_seen = 0
        self._build_tree()
        self._prepare()

    def _build_tree(self) -> None:
        """Insert vals[0], vals[1], ... by path copying, one version each.

        On the way down each insertion also reads, from the version it
        copies, how many earlier values pair with the inserted one:
        ``_before[j]`` = #{i < j : pair(vals[i], vals[j])}."""
        left, right, count = [0], [0], [0]
        roots = [0]
        before = []
        top = self.domain - 1
        for x in self.vals:
            old = roots[-1]
            roots.append(len(count))
            lo, hi = 0, top
            greater = 0
            while lo < hi:
                mid = (lo + hi) // 2
                count.append(count[old] + 1)
                if x <= mid:
                    greater += count[right[old]]
                    left.append(len(count))
                    right.append(right[old])
                    old, hi = left[old], mid
                else:
                    left.append(left[old])
                    right.append(len(count))
                    old, lo = right[old], mid + 1
            before.append(count[old] if self.kind == "eqp" else greater)
            count.append(count[old] + 1)
            left.append(0)
            right.append(0)
        self._left, self._right, self._count = left, right, count
        self._roots = roots
        self._before = np.asarray(before, dtype=np.int64)

    def _front_count(self, a: int, b: int, x: int) -> int:
        """Pairs gained by prepending x to vals[a:b]: the values there equal
        to x (EQP) or less than x (INV)."""
        left, right, count = self._left, self._right, self._count
        na, nb = self._roots[a], self._roots[b]
        lo, hi = 0, self.domain - 1
        less = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if x <= mid:
                na, nb, hi = left[na], left[nb], mid
            else:
                less += count[left[nb]] - count[left[na]]
                na, nb, lo = right[na], right[nb], mid + 1
        return count[nb] - count[na] if self.kind == "eqp" else less

    def _prepare(self) -> None:
        """Build the answer row of every block start for the current guess.

        Appending vals[j] to [s, j) gains before[j] - C_s[vals[j]] pairs,
        where C_s counts the values in vals[0:s] that pair with it: those
        equal (EQP) or greater (INV)."""
        n, domain = self.n, self.domain
        self.block = block = mo_block_size(n, self.q_guess)
        vals = np.asarray(self.vals, dtype=np.int64)
        seen = np.zeros(domain, dtype=np.int64)  # value counts of vals[0:s]
        self.rows: list[np.ndarray] = []
        for s in range(0, n, block):
            paired = seen if self.kind == "eqp" else s - np.cumsum(seen)
            self.rows.append(np.cumsum(self._before[s:] - paired[vals[s:]]))
            seen += np.bincount(vals[s : s + block], minlength=domain)
        if self.counters is not None:
            self.counters.extender_steps += sum(n - s for s in range(0, n, block))

    def query(self, rng: Range) -> int:
        rng.check(self.n)
        self.q_seen += 1
        if self.q_seen > self.q_guess:
            while self.q_seen > self.q_guess:
                self.q_guess *= 2
            self._prepare()
        l, r = rng.l, rng.r
        j = (l - 1 + self.block - 1) // self.block  # first block start >= l
        start = j * self.block + 1
        if start > r:  # no block start inside: extend over the whole range
            start, ans = r + 1, 0
        else:
            ans = int(self.rows[j][r - start])
        for p in range(start - 1, l - 1, -1):
            ans += self._front_count(p, r, self.vals[p - 1])
        if self.counters is not None:
            self.counters.extender_steps += start - l
        return ans


# ---------------------------------------------------------------------------
# Matrix multiplication


def _peak(m: DenseMatrix) -> int:
    return max(int(m.array.max()), -int(m.array.min()))


def matmul(
    a: DenseMatrix,
    b: DenseMatrix,
    counters: Optional[OpCounters] = None,
) -> DenseMatrix:
    """Exact integer matrix product in int64.

    Operands whose product could leave int64 (max|a| * max|b| * inner
    dimension >= 2**63) are refused, so the result never wraps.
    """
    if a.cols != b.rows:
        raise ShapeError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    if _peak(a) * _peak(b) * a.cols >= 2**63:
        raise InputError("matrix product may overflow int64")
    if counters is not None:
        counters.matmul_calls += 1
    return DenseMatrix(a.rows, b.cols, a.array @ b.array)


# ---------------------------------------------------------------------------
# Online equal-pairs block/matrix structure


@dataclass
class OnlineEqStructure:
    """Preprocessed block structure for online equal-pairs queries.

    ``mat_b[i][j]`` counts ordered position pairs (p, p') with p in block
    i, p' in block j and equal values; the diagonal includes the trivial
    p = p' pairs, which query time corrects for.  ``prefix`` is the 2-D
    prefix-sum table over ``mat_b``.
    """

    n: int
    values: list[int]
    beta: float
    gamma: float
    omega_eff: float
    b_len: int
    b_cnt: int
    tau: float
    mat_bf: DenseMatrix
    mat_br: DenseMatrix
    mat_b: DenseMatrix
    prefix: DenseMatrix
    index_lists: dict[int, list[int]]


def _block_parameters(n: int, q_hint: int, omega_eff: float) -> tuple[float, float]:
    if n < 2:
        return 0.5, 0.5
    alpha = math.log(max(q_hint, 1)) / math.log(n)
    if q_hint <= n:
        beta = 2.0 * alpha / (omega_eff + 1.0)
    else:
        beta = (3.0 - alpha + omega_eff * (alpha + 1.0)) / (omega_eff + 1.0)
    beta = min(max(beta, 0.01), 0.99)
    gamma = min(max(1.0 + beta - alpha, 0.01), 0.99)
    return beta, gamma


def online_eq_build(
    a: IntArray,
    q_hint: int,
    omega_eff: float = 3.0,
    counters: Optional[OpCounters] = None,
) -> OnlineEqStructure:
    """Build the block/matrix structure for equal-pairs range queries.

    Frequent values (appearing at least tau = n**(1-gamma) times) are
    counted per block into a matrix M and contribute M @ M.T; rare values
    are enumerated directly.  The prefix table over the summed block
    matrix answers any block-aligned query with four lookups.
    """
    if a.n < 1:
        raise InputError("empty array")
    if not (2.0 <= omega_eff <= 3.0):
        raise InputError("effective exponent must lie in [2, 3]")
    if q_hint < 1:
        raise InputError("query hint must be at least 1")
    n = a.n
    vals = normalize(a.values)
    beta, gamma = _block_parameters(n, q_hint, omega_eff)
    b_len = max(1, math.ceil(n ** (1.0 - beta)))
    b_cnt = (n + b_len - 1) // b_len
    tau = n ** (1.0 - gamma)

    index_lists: dict[int, list[int]] = {}
    for pos, v in enumerate(vals, start=1):
        index_lists.setdefault(v, []).append(pos)

    # values are ranks 0..d-1, so a value indexes arrays over the domain
    value = np.asarray(vals, dtype=np.int64)
    block = np.arange(n) // b_len
    is_frequent = np.bincount(value) >= tau
    freq = is_frequent[value]  # positions holding a frequent value

    n_freq = int(is_frequent.sum())
    if n_freq:
        column = np.cumsum(is_frequent) - 1
        m = np.bincount(
            block[freq] * n_freq + column[value[freq]], minlength=b_cnt * n_freq
        ).reshape(b_cnt, n_freq)
        mat_bf = matmul(
            DenseMatrix(b_cnt, n_freq, m), DenseMatrix(n_freq, b_cnt, m.T), counters=counters
        )
    else:
        mat_bf = DenseMatrix.zeros(b_cnt, b_cnt)

    # rare values: one (value, block, count) entry per block a value
    # occurs in, paired with every entry of the same value
    rare = ~freq
    keys, per_block = np.unique(value[rare] * b_cnt + block[rare], return_counts=True)
    rare_value, rare_block = np.divmod(keys, b_cnt)
    first = np.searchsorted(rare_value, rare_value)
    size = np.searchsorted(rare_value, rare_value, side="right") - first
    left = np.repeat(np.arange(len(keys)), size)
    right = first[left] + np.arange(len(left)) - (np.cumsum(size) - size)[left]
    mat_br = np.zeros((b_cnt, b_cnt), dtype=np.int64)
    np.add.at(
        mat_br,
        (rare_block[left], rare_block[right]),
        per_block[left] * per_block[right],
    )

    mat_b = mat_bf.array + mat_br
    prefix = np.zeros((b_cnt + 1, b_cnt + 1), dtype=np.int64)
    prefix[1:, 1:] = mat_b.cumsum(axis=0).cumsum(axis=1)

    return OnlineEqStructure(
        n=n,
        values=vals,
        beta=beta,
        gamma=gamma,
        omega_eff=omega_eff,
        b_len=b_len,
        b_cnt=b_cnt,
        tau=tau,
        mat_bf=mat_bf,
        mat_br=DenseMatrix(b_cnt, b_cnt, mat_br),
        mat_b=DenseMatrix(b_cnt, b_cnt, mat_b),
        prefix=DenseMatrix(b_cnt + 1, b_cnt + 1, prefix),
        index_lists=index_lists,
    )


def _count_in(lst: list[int], lo: int, hi: int) -> int:
    if lo > hi:
        return 0
    return bisect_right(lst, hi) - bisect_left(lst, lo)


def online_eq_query(s: OnlineEqStructure, rng: Range) -> int:
    """Answer one equal-pairs range query from the built structure."""
    rng.check(s.n)
    l, r = rng.l, rng.r
    b_len = s.b_len
    bs = (l - 1 + b_len - 1) // b_len  # first block starting at or after l
    if r == s.n:
        be = s.b_cnt - 1
    else:
        be = r // b_len - 1
    vals = s.values
    if bs > be:
        ans = 0
        for p in range(l, r + 1):
            ans += _count_in(s.index_lists[vals[p - 1]], p + 1, r)
        return ans
    big_l = bs * b_len + 1
    big_r = min((be + 1) * b_len, s.n)
    ordered = (
        s.prefix[be + 1, be + 1]
        - s.prefix[bs, be + 1]
        - s.prefix[be + 1, bs]
        + s.prefix[bs, bs]
    )
    ans = (ordered - (big_r - big_l + 1)) // 2
    for p in range(l, big_l):
        ans += _count_in(s.index_lists[vals[p - 1]], p + 1, r)
    for p in range(big_r + 1, r + 1):
        ans += _count_in(s.index_lists[vals[p - 1]], big_l, p - 1)
    return ans


class OnlineEqSolver:
    """Adaptive wrapper: doubles the query-count guess and rebuilds."""

    def __init__(self, a: IntArray, counters: Optional[OpCounters] = None):
        self.array = a
        self.counters = counters
        self.q_guess = 1
        self.q_seen = 0
        self.structure = online_eq_build(a, self.q_guess, counters=counters)

    def query(self, rng: Range) -> int:
        self.q_seen += 1
        if self.q_seen > self.q_guess:
            while self.q_seen > self.q_guess:
                self.q_guess *= 2
            self.structure = online_eq_build(self.array, self.q_guess, counters=self.counters)
        return online_eq_query(self.structure, rng)
