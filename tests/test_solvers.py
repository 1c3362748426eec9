"""The per-edge triangle entries of the solver registry."""

import numpy as np
import pytest

from conftest import complete_graph
from rangetri import gen
from rangetri.core import Graph, oracle_edge_triangle_counts, oracle_edge_triangle_detect
from rangetri.solvers import EDGE_COUNTERS, EDGE_DETECTORS

SHAPES = {
    "single edge": Graph(2, [(1, 2)]),
    "star": Graph(9, [(1, v) for v in range(2, 10)]),
    "K8": complete_graph(8),
    "powerlaw": gen.gen_graph("powerlaw", 60, 0.1, seed=3),
    "gnp": gen.gen_graph("gnp", 40, 0.3, seed=4),
}


def in_edge_order(answers: dict, g: Graph) -> list:
    return [answers[e] for e in g.sorted_edges()]


@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("algo", EDGE_COUNTERS)
def test_counters_return_aligned_int64(name, algo):
    g = SHAPES[name]
    counts = EDGE_COUNTERS[algo](g)
    assert counts.dtype == np.int64 and counts.shape == (g.m,)
    assert counts.tolist() == in_edge_order(oracle_edge_triangle_counts(g), g)


@pytest.mark.parametrize("name", SHAPES)
@pytest.mark.parametrize("algo", EDGE_DETECTORS)
def test_detectors_return_aligned_bool(name, algo):
    g = SHAPES[name]
    detected = EDGE_DETECTORS[algo](g)
    assert detected.dtype == bool and detected.shape == (g.m,)
    assert detected.tolist() == in_edge_order(oracle_edge_triangle_detect(g), g)


@pytest.mark.parametrize("algo", EDGE_COUNTERS)
def test_empty_graph(algo):
    g = Graph(0, [])
    counts, detected = EDGE_COUNTERS[algo](g), EDGE_DETECTORS[algo](g)
    assert counts.dtype == np.int64 and counts.shape == (0,)
    assert detected.dtype == bool and detected.shape == (0,)
