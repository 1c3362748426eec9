"""The solver registry: the per-edge triangle entries, and the chain of
reductions that ``range_solver`` builds for every problem and algorithm."""

import sys

import numpy as np
import pytest

from conftest import complete_graph
from rangetri import gen, rangequery, reductions_range, reductions_triangle
from rangetri.core import (
    EQP,
    INV,
    Graph,
    IntArray,
    PairFunction,
    Range,
    oracle_disjoint_query,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_pairs_query,
    pair,
)
from rangetri.solvers import ALGOS, EDGE_COUNTERS, EDGE_DETECTORS, PROBLEMS, range_solver

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


# ---------------------------------------------------------------------------
# range_solver's reduction chains

# Factories: each returns a solver, recorded when that solver runs.
FACTORIES = dict.fromkeys(
    ("reduce_2r_to_1r", "reduce_1r_to_2r", "reduce_inv_to_eqp"), reductions_range
)
# Called once per batch they answer (MoOnline: constructed).
CALLS = {
    "reduce_2req_to_etc": reductions_triangle,
    "reduce_2rdq_to_etd": reductions_triangle,
    "mo_offline": rangequery,
    "MoOnline": rangequery,
    "online_eq_build": rangequery,
}

M = "reduce_2r_to_1r({0}, {1}({0}))"
INV_SPLIT = "reduce_1r_to_2r(inv, reduce_inv_to_eqp({}))"
ONLINE_EQ_PAIRS = "reduce_2r_to_1r(eqp, online_eq_build)"
CHAINS = {
    **{(problem, "oracle"): "" for problem in PROBLEMS},
    **{
        (problem, algo): chain
        for algo, native in (("mo", "mo_offline"), ("mo-online", "MoOnline"))
        for problem, chain in (
            ("riq", f"{native}(inv)"),
            ("req", f"{native}(eqp)"),
            ("2riq", M.format("inv", native)),
            ("2req", M.format("eqp", native)),
            ("2rdq", M.format("eqp", native)),
        )
    },
    ("req", "online-eq"): "online_eq_build",
    ("2req", "online-eq"): ONLINE_EQ_PAIRS,
    ("2rdq", "online-eq"): ONLINE_EQ_PAIRS,
    ("2riq", "online-eq"): f"reduce_inv_to_eqp({ONLINE_EQ_PAIRS})",
    ("riq", "online-eq"): INV_SPLIT.format(ONLINE_EQ_PAIRS),
    ("2req", "via-triangle"): "reduce_2req_to_etc",
    ("2rdq", "via-triangle"): "reduce_2rdq_to_etd",
    ("req", "via-triangle"): "reduce_1r_to_2r(eqp, reduce_2req_to_etc)",
    ("2riq", "via-triangle"): "reduce_inv_to_eqp(reduce_2req_to_etc)",
    ("riq", "via-triangle"): INV_SPLIT.format("reduce_2req_to_etc"),
}

CHAIN_ARRAY = IntArray([3, 1, 3, 2, 1, 3, 2, 2])
CHAIN_SINGLES = [Range(1, 8), Range(2, 5), Range(4, 4)]
CHAIN_PAIRS = [pair(1, 2, 3, 8), pair(2, 4, 6, 7), pair(1, 1, 2, 2)]


@pytest.fixture
def call_tree(monkeypatch):
    """Rebind the traced names wherever a ``rangetri`` module holds them,
    and return a function that answers one batch through
    ``range_solver(problem, algo)`` and renders what it called.

    A call renders as ``name(kinds..., children...)``: the pair function
    it was given, then the traced calls made inside it, a run of equal
    children shown once."""
    stack = [[]]

    def enter(name, args, run):
        stack.append([])
        try:
            return run()
        finally:
            children = stack.pop()
            parts = [x.kind for x in args if isinstance(x, PairFunction)]
            parts += [c for i, c in enumerate(children) if i == 0 or c != children[i - 1]]
            stack[-1].append(f"{name}({', '.join(parts)})" if parts else name)

    def factory(name, original):
        def build(*args, **kwargs):
            solver = original(*args, **kwargs)
            return lambda a, queries: enter(name, args, lambda: solver(a, queries))

        return build

    def call(name, original):
        return lambda *args, **kwargs: enter(name, args, lambda: original(*args, **kwargs))

    replace = {}
    for table, wrap in ((FACTORIES, factory), (CALLS, call)):
        for name, module in table.items():
            original = getattr(module, name)
            replace[id(original)] = wrap(name, original)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "rangetri" or mod_name.startswith("rangetri."):
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    monkeypatch.setattr(module, attr, replace[id(value)])

    def run(problem, algo):
        stack[:] = [[]]
        solve = range_solver(problem, algo)
        queries = CHAIN_PAIRS if problem.startswith("2") else CHAIN_SINGLES
        answers = solve(CHAIN_ARRAY, queries)
        return answers, ", ".join(stack[0])

    return run


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("problem", PROBLEMS)
def test_range_solver_chain(call_tree, problem, algo):
    answers, calls = call_tree(problem, algo)
    assert calls == CHAINS[problem, algo]
    if problem == "2rdq":
        expected = [oracle_disjoint_query(CHAIN_ARRAY, q) for q in CHAIN_PAIRS]
    else:
        f = INV if problem.endswith("riq") else EQP
        queries = CHAIN_PAIRS if problem.startswith("2") else CHAIN_SINGLES
        expected = [oracle_pairs_query(f, CHAIN_ARRAY, q) for q in queries]
    assert answers == expected
