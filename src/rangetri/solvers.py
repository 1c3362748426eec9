"""The name -> solver registry: range-query solvers composed from
algorithms and reductions, and the per-edge triangle solvers they use.

``range_solver(problem, algo)`` returns a batch solver callable as
``solver(array, queries)``; problems riq/req take single ranges, the
2-prefixed problems take range pairs, and 2rdq returns booleans.  A
batch is a list of ``Range`` / ``RangePair`` objects or its (q, 2) /
(q, 4) bounds array (``core.bounds``).
``EDGE_COUNTERS`` and ``EDGE_DETECTORS`` map a name to a per-edge
triangle counter or detector, ``solver(graph)``, whose answers form an
int64 (counts) or bool (detection) array aligned with
``graph.sorted_edges()``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    EQP,
    INV,
    CapabilityError,
    IntArray,
    PairFunction,
    as_queries,
    bounds,
    oracle_disjoint_query,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_pairs_query,
)
from .instrument import OpCounters
from .rangequery import MoOnline, _eq_answer, mo_offline, online_eq_build
from .reductions_range import (
    reduce_1r_to_2r,
    reduce_2r_to_1r,
    reduce_inv_to_eqp,
)
from .reductions_triangle import reduce_2rdq_to_etd, reduce_2req_to_etc
from .triangle import ayz_counts

PROBLEMS = ("riq", "req", "2riq", "2req", "2rdq")
ALGOS = ("oracle", "mo", "mo-online", "online-eq", "via-triangle")

_PROBLEM_FN = {"riq": INV, "req": EQP, "2riq": INV, "2req": EQP}


def problem_is_pair(problem: str) -> bool:
    return problem in ("2riq", "2req", "2rdq")


def _oracle(problem: str):
    width = 4 if problem_is_pair(problem) else 2
    if problem == "2rdq":
        answer = oracle_disjoint_query
    else:
        answer = partial(oracle_pairs_query, _PROBLEM_FN[problem])
    return lambda a, qs: [answer(a, q) for q in as_queries(bounds(qs, a.n, width))]


def _mo_single(f: PairFunction, counters: Optional[OpCounters]):
    def solver(a: IntArray, queries) -> list[int]:
        return mo_offline(f, a, queries, counters=counters)

    return solver


def _mo_online_single(f: PairFunction, counters: Optional[OpCounters]):
    def solver(a: IntArray, queries) -> list[int]:
        # batch interface: the query count is known, so start with the
        # exact hint instead of paying the adaptive doubling rebuilds
        queries = as_queries(bounds(queries, a.n, 2))
        structure = MoOnline(f, a, counters=counters, q_guess=max(1, len(queries)))
        return [structure.query(q) for q in queries]

    return solver


def _online_eq_single(counters: Optional[OpCounters]):
    def solver(a: IntArray, queries) -> list[int]:
        # batch interface: the query count is known, so build once with
        # the exact hint instead of paying the adaptive doubling rebuilds
        rows = bounds(queries, a.n, 2).tolist()
        structure = online_eq_build(a, max(1, len(rows)), counters=counters)
        return [_eq_answer(structure, l, r) for l, r in rows]

    return solver


def _aligned(oracle: Callable, dtype) -> Callable:
    """An edge solver from one of ``core``'s dict oracles: its answers
    in ``g.sorted_edges()`` order, as a ``dtype`` array."""

    def solver(g):
        answers = oracle(g)
        return np.array([answers[e] for e in g.sorted_edges()], dtype=dtype)

    return solver


# The ayz entries look up ``ayz_counts`` when called, not when this table
# is built, so rebinding it (a tracing wrapper, say) reaches every solver
# composed from them.
EDGE_COUNTERS = {
    "oracle": _aligned(oracle_edge_triangle_counts, np.int64),
    "ayz": lambda g: ayz_counts(g),
}
EDGE_DETECTORS = {
    "oracle": _aligned(oracle_edge_triangle_detect, bool),
    "ayz": lambda g: ayz_counts(g) > 0,
}


def range_solver(
    problem: str,
    algo: str,
    inner: str = "ayz",
    counters: Optional[OpCounters] = None,
) -> Callable[[IntArray, Sequence], list]:
    """Batch solver for a range problem, built from the chosen algorithm
    plus whatever reductions are needed to reach it; via-triangle hands
    its graphs to the ``inner`` edge-triangle solver, AYZ by default."""
    if problem not in PROBLEMS:
        raise CapabilityError(f"unknown problem {problem!r}")
    if algo not in ALGOS:
        raise CapabilityError(f"unknown algo {algo!r}")
    if inner not in EDGE_COUNTERS:
        raise CapabilityError(f"unknown inner triangle solver {inner!r}")

    if algo == "oracle":
        return _oracle(problem)

    if algo in ("mo", "mo-online"):
        make = _mo_single if algo == "mo" else _mo_online_single
        if problem == "2rdq":
            pair_eqp = reduce_2r_to_1r(EQP, make(EQP, counters))
            return lambda a, qs: [ans == 0 for ans in pair_eqp(a, qs)]
        f = _PROBLEM_FN[problem]
        single = make(f, counters)
        if problem_is_pair(problem):
            return reduce_2r_to_1r(f, single)
        return single

    if algo == "online-eq":
        single_eqp = _online_eq_single(counters)
        pair_eqp = reduce_2r_to_1r(EQP, single_eqp)
        if problem == "req":
            return single_eqp
        if problem == "2req":
            return pair_eqp
        if problem == "2rdq":
            return lambda a, qs: [ans == 0 for ans in pair_eqp(a, qs)]
        pair_inv = reduce_inv_to_eqp(pair_eqp)
        if problem == "2riq":
            return pair_inv
        return reduce_1r_to_2r(INV, pair_inv)

    # via-triangle
    if problem == "2rdq":
        detector = EDGE_DETECTORS[inner]
        return lambda a, qs: reduce_2rdq_to_etd(a, qs, detector)
    counter = EDGE_COUNTERS[inner]
    pair_eqp = lambda a, qs: reduce_2req_to_etc(a, qs, counter)
    if problem == "2req":
        return pair_eqp
    if problem == "req":
        return reduce_1r_to_2r(EQP, pair_eqp)
    pair_inv = reduce_inv_to_eqp(pair_eqp)
    if problem == "2riq":
        return pair_inv
    return reduce_1r_to_2r(INV, pair_inv)
