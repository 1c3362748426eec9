"""Operation counters shared by solvers and the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounters:
    """Nonnegative counters incremented by instrumented solvers."""

    extender_steps: int = 0
