"""Plain-text instance file formats.

Array file:  line 1 = n, line 2 = n space-separated integers.
Query file:  one query per line, "l r" (single range) or "l1 r1 l2 r2".
Graph file:  line 1 = "n m", then m lines "u v", 1-based.
Matrix file: line 1 = "rows cols", then one line per row.

All indices are 1-based, matching the query notation used everywhere in
the CLI output.  Each ``format_*`` returns the text its ``read_*``
parses back.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Union

from .core import DenseMatrix, Graph, InputError, IntArray, Range, RangePair

Query = Union[Range, RangePair]


def _lines(path: str | Path) -> list[str]:
    text = Path(path).read_text()
    return [ln.strip() for ln in text.splitlines()]


def _ints(line: str, path, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise InputError(f"{path}:{lineno}: expected integers, got {line!r}") from exc


def read_array(path: str | Path) -> IntArray:
    lines = _lines(path)
    if len(lines) < 2:
        raise InputError(f"{path}: array file needs two lines")
    header = _ints(lines[0], path, 1)
    if len(header) != 1:
        raise InputError(f"{path}:1: expected 'n'")
    (n,) = header
    values = _ints(lines[1], path, 2)
    if len(values) != n:
        raise InputError(f"{path}:2: expected {n} values, got {len(values)}")
    try:
        return IntArray(values)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def format_array(a: IntArray) -> str:
    return f"{a.n}\n{' '.join(map(str, a.values.tolist()))}\n"



def read_queries(path: str | Path) -> list[Query]:
    queries: list[Query] = []
    for lineno, line in enumerate(_lines(path), start=1):
        if not line:
            continue
        nums = _ints(line, path, lineno)
        try:
            if len(nums) == 2:
                queries.append(Range(nums[0], nums[1]))
            elif len(nums) == 4:
                queries.append(RangePair(Range(nums[0], nums[1]), Range(nums[2], nums[3])))
            else:
                raise InputError(f"{path}:{lineno}: expected 2 or 4 integers")
        except InputError:
            raise
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return queries


def format_queries(queries: Sequence[Query]) -> str:
    lines = []
    for q in queries:
        if isinstance(q, RangePair):
            lines.append(f"{q.first.l} {q.first.r} {q.second.l} {q.second.r}\n")
        else:
            lines.append(f"{q.l} {q.r}\n")
    return "".join(lines)



def read_graph(path: str | Path) -> Graph:
    lines = [ln for ln in _lines(path) if ln]
    if not lines:
        raise InputError(f"{path}: empty graph file")
    header = _ints(lines[0], path, 1)
    if len(header) != 2:
        raise InputError(f"{path}:1: expected 'n m'")
    n, m = header
    if len(lines) - 1 != m:
        raise InputError(f"{path}: expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        nums = _ints(line, path, lineno)
        if len(nums) != 2:
            raise InputError(f"{path}:{lineno}: expected 'u v'")
        edges.append((nums[0], nums[1]))
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"



def read_matrix(path: str | Path) -> DenseMatrix:
    lines = [ln for ln in _lines(path) if ln]
    if not lines:
        raise InputError(f"{path}: empty matrix file")
    header = _ints(lines[0], path, 1)
    if len(header) != 2:
        raise InputError(f"{path}:1: expected 'rows cols'")
    rows, cols = header
    if len(lines) - 1 != rows:
        raise InputError(f"{path}: expected {rows} row lines, got {len(lines) - 1}")
    entries: list[list[int]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        nums = _ints(line, path, lineno)
        if len(nums) != cols:
            raise InputError(f"{path}:{lineno}: expected {cols} entries")
        entries.append(nums)
    try:
        return DenseMatrix(entries)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def format_matrix(m: DenseMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(" ".join(map(str, row)) for row in m.array.tolist())
    return "\n".join(lines) + "\n"
