"""The name -> solver registry: range-query solvers composed from
algorithms and reductions, and the per-edge triangle solvers they use.

``range_solver(problem, algo)`` returns a batch solver callable as
``solver(array, queries)``; problems riq/req take single ranges, the
2-prefixed problems take range pairs, and 2rdq returns booleans.  A
batch is a list of ``Range`` / ``RangePair`` objects or its (q, 2) /
(q, 4) bounds array (``core.bounds``).  Each algorithm solves some
problems natively: mo and mo-online riq and req, online-eq req, and
via-triangle 2req and 2rdq.  Every other problem is derived from those
through ``REDUCTIONS``, the one table of reduction arrows, which the
CLI's ``reduce`` command reads too.
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
    as_queries,
    bounds,
    oracle_disjoint_query,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_pairs_query,
)
from .instrument import OpCounters
from .rangequery import MoOnline, OnlineEqSolver, mo_offline
from .reductions_range import (
    reduce_1r_to_2r,
    reduce_2r_to_1r,
    reduce_eqp_to_inv,
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


def _online_batch(make: Callable, counters: Optional[OpCounters]):
    """A batch solver from an online index: the batch size is known, so
    the index is built once for it and never rebuilds."""

    def solver(a: IntArray, queries) -> list[int]:
        return make(a, counters=counters, q_guess=max(1, len(queries))).batch(queries)

    return solver


def _disjoint(pair_eqp: Callable) -> Callable:
    """2rdq from 2req: two ranges are disjoint in values when they share
    no equal pair."""
    return lambda a, qs: [ans == 0 for ans in pair_eqp(a, qs)]


# Every reduction arrow as (target, source, wrap): wrap turns a solver
# for source into one for target.  ``range_solver`` tries them in this
# order.  Each wrap looks its reduction up when called, so rebinding one
# (a tracing wrapper, say) reaches every solver composed from it.
REDUCTIONS = (
    ("2req", "req", lambda s: reduce_2r_to_1r(EQP, s)),
    ("2riq", "riq", lambda s: reduce_2r_to_1r(INV, s)),
    ("2rdq", "2req", _disjoint),
    ("2riq", "2req", lambda s: reduce_inv_to_eqp(s)),
    ("req", "2req", lambda s: reduce_1r_to_2r(EQP, s)),
    ("riq", "2riq", lambda s: reduce_1r_to_2r(INV, s)),
    ("2req", "2riq", lambda s: reduce_eqp_to_inv(s)),
)


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

    if algo == "mo":
        solved = {
            "riq": partial(mo_offline, INV, counters=counters),
            "req": partial(mo_offline, EQP, counters=counters),
        }
    elif algo == "mo-online":
        solved = {
            "riq": _online_batch(partial(MoOnline, INV), counters),
            "req": _online_batch(partial(MoOnline, EQP), counters),
        }
    elif algo == "online-eq":
        solved = {"req": _online_batch(OnlineEqSolver, counters)}
    else:  # via-triangle
        counter, detector = EDGE_COUNTERS[inner], EDGE_DETECTORS[inner]
        solved = {
            "2req": lambda a, qs: reduce_2req_to_etc(a, qs, counter),
            "2rdq": lambda a, qs: reduce_2rdq_to_etd(a, qs, detector),
        }
    # every other problem by one pass over the arrows: an arrow derives
    # its target from its source when the source is solved and the target not
    for target, source, wrap in REDUCTIONS:
        if target not in solved and source in solved:
            solved[target] = wrap(solved[source])
    return solved[problem]
