"""Benchmark harness: timed solver runs with operation counters, CSV out.

Cells are (problem, algo, n, q) combinations; each repetition generates
a fresh seeded instance, times the solve call only, and yields one
BenchRecord.  Cells run one after another in sorted cell order, and the
first cell of each (problem, algo) solves its instance once untimed
before its first timed rep, so no rep pays a code path's one-time cost.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, fields
from typing import Optional, Sequence

from . import gen
from .instrument import OpCounters
from .solvers import problem_is_pair, range_solver

# cells above this many array cells are skipped with a diagnostic row
CELL_BUDGET = 1 << 22

# the algorithms that walk Mo blocks, the only ones that count extender
# steps; other rows leave the column empty
MO_WALKS = ("mo", "mo-online")


@dataclass
class BenchRecord:
    problem: str
    algorithm: str
    n: int
    q: int
    seed: int
    wall_ns: int
    extender_steps: Optional[int]
    status: str = "ok"


def run_cell(
    problem: str, algo: str, n: int, q: int, seed: int, warm_up: bool = False
) -> BenchRecord:
    if n * max(1, q) > CELL_BUDGET:
        return BenchRecord(problem, algo, n, q, seed, 0, None, "skipped")
    array = gen.gen_array(n, 0, n - 1, seed=seed)
    kind = "pair" if problem_is_pair(problem) else "single"
    queries = gen.gen_queries(n, q, kind=kind, seed=seed + 1)
    if warm_up:
        range_solver(problem, algo)(array, queries)
    counters = OpCounters()
    solver = range_solver(problem, algo, counters=counters)
    start = time.perf_counter_ns()
    solver(array, queries)
    wall = time.perf_counter_ns() - start
    steps = counters.extender_steps if algo in MO_WALKS else None
    return BenchRecord(problem, algo, n, q, seed, wall, steps)


def run_matrix(
    problems: Sequence[str],
    algos: Sequence[str],
    sizes: Sequence[int],
    reps: int = 1,
    seed: int = 0,
    q: Optional[int] = None,
) -> list[BenchRecord]:
    records = []
    for problem in sorted(problems):
        for algo in sorted(algos):
            # n * q grows with n, so if the first cell is skipped, all are
            warm_up = True
            for n in sorted(sizes):
                for rep in range(reps):
                    cell_q = q if q is not None else n
                    records.append(run_cell(problem, algo, n, cell_q, seed + rep, warm_up))
                    warm_up = False
    return records


def write_csv(records: Sequence[BenchRecord], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(field.name for field in fields(BenchRecord))
    writer.writerows(astuple(record) for record in records)
