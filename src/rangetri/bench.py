"""Benchmark harness: timed solver runs with operation counters, CSV out.

Cells are (problem, algo, n, q) combinations; each repetition generates
a fresh seeded instance, times the solve call only, and yields one
BenchRecord.  Cells run one after another in sorted cell order.
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


@dataclass
class BenchRecord:
    problem: str
    algorithm: str
    n: int
    q: int
    seed: int
    wall_ns: int
    extender_steps: int
    status: str = "ok"


def run_cell(problem: str, algo: str, n: int, q: int, seed: int) -> BenchRecord:
    if n * max(1, q) > CELL_BUDGET:
        return BenchRecord(problem, algo, n, q, seed, 0, 0, "skipped")
    array = gen.gen_array(n, 0, n - 1, seed=seed)
    kind = "pair" if problem_is_pair(problem) else "single"
    queries = gen.gen_queries(n, q, kind=kind, seed=seed + 1)
    counters = OpCounters()
    solver = range_solver(problem, algo, counters=counters)
    start = time.perf_counter_ns()
    solver(array, queries)
    wall = time.perf_counter_ns() - start
    return BenchRecord(problem, algo, n, q, seed, wall, counters.extender_steps)


def run_matrix(
    problems: Sequence[str],
    algos: Sequence[str],
    sizes: Sequence[int],
    reps: int = 1,
    seed: int = 0,
    q: Optional[int] = None,
) -> list[BenchRecord]:
    cells = []
    for problem in sorted(problems):
        for algo in sorted(algos):
            for n in sorted(sizes):
                for rep in range(reps):
                    cells.append((problem, algo, n, q if q is not None else n, rep))

    return [
        run_cell(problem, algo, n, cell_q, seed + rep)
        for problem, algo, n, cell_q, rep in cells
    ]


def write_csv(records: Sequence[BenchRecord], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(field.name for field in fields(BenchRecord))
    writer.writerows(astuple(record) for record in records)
