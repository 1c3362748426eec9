"""Generator outputs pinned bit for bit under a seed.

Each generator is a pure function of its parameters and seed.  The
SHA-256 digests below were computed before power-law draws read one
cumulative-weight list, from the generators of that time; a change to
any generator's random stream or output fails here, on every Python
version the tests run on.
"""

import hashlib
import random
from types import SimpleNamespace

import pytest

from rangetri import gen
from rangetri.core import RangePair

GRAPHS = {
    "gnp": [(n, p) for n in (2, 3, 10, 40) for p in (0, 0.3, 1)],
    "bipartite": [(n, p) for n in (2, 3, 10, 40) for p in (0, 0.3, 1)],
    "powerlaw": [
        *((n, p) for n in (2, 3, 10, 40) for p in (0, 0.15, 1)),
        (300, 0.007),
        (1000, 0.01),
    ],
    "complete": [(n, 0.2) for n in (2, 3, 10, 40)],
    "cycle": [(n, 0.2) for n in (3, 4, 10, 40)],
}
SEEDS = (0, 1, 102)

PINNED = {
    "array": "46803ffa2ed7176e298a5ac9bbb61e83909cfe463a68d257b7c253dc130d6d3c",
    "graph-bipartite": "e2cbcfb8da345eeb8509d0d3cffab932bdab5eaa48fb6c7b4fc3a76e0ff037a5",
    "graph-complete": "f0e70cd1a025e2f78e505d2ad3e1fc25b0040ef0b0ad8f653ef0c597e15ced9b",
    "graph-cycle": "c08c72a2856f54b425ec937fc376ba7f1d4ba8663d9b9ad5aba32c4f11e173a2",
    "graph-gnp": "613f17e022fce135a7367cf36af96b7bf5f9c149c8a7478c1fd8d9acca15f90a",
    "graph-powerlaw": "105e122021f604c5cd82e4ed6f72aef23733c6d6b2ee4d307752a51e08de09b1",
    "matrix-boolean": "18c0e7f5d5335fc596340802a4b2e33a87ec49dccb834de55f742458c0c92d0f",
    "matrix-int": "8ff4f2b6967ad2ce3455e0abef583796ba95aa5e92d24aa30083a60244bda3c0",
    "queries-pair": "e7b5c3e578f7a99b0db4e31226942ba3a32134ecd1ad5f20162fc6d16cc3865a",
    "queries-single": "e5a132fc83cd2d7ec0b1f263044cb0e9927607d018592915f03c6b72df50006e",
}


def sha256(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def query_tuple(q) -> tuple:
    if isinstance(q, RangePair):
        return (q.first.l, q.first.r, q.second.l, q.second.r)
    return (q.l, q.r)


def outputs(name: str) -> list:
    """Every output of one generator mode over its grid, as plain ints."""
    what, _, mode = name.partition("-")
    if what == "graph":
        out = []
        for n, p in GRAPHS[mode]:
            for seed in SEEDS:
                g = gen.gen_graph(mode, n, p, seed=seed)
                out.append((n, p, seed, g.n, g.sorted_edges()))
        return out
    if what == "array":
        return [
            gen.gen_array(n, lo, hi, seed=seed).values.tolist()
            for n in (1, 7, 64)
            for lo, hi in ((0, 0), (-5, 5), (1, 10**9))
            for seed in SEEDS
        ]
    if what == "queries":
        return [
            [query_tuple(q) for q in gen.gen_queries(n, q, kind=mode, seed=seed)]
            for n in ((2, 3, 50) if mode != "single" else (1, 3, 50))
            for q in (0, 1, 40)
            for seed in SEEDS
        ]
    lo, hi = (0, 1) if mode == "boolean" else (-20, 20)
    return [
        (m.rows, m.cols, m.entries)
        for rows, cols in ((1, 1), (3, 5), (8, 8))
        for seed in SEEDS
        for m in [gen.gen_matrix(rows, cols, lo, hi, seed=seed)]
    ]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_are_pinned(name):
    assert sha256(outputs(name)) == PINNED[name]


class CountingRandom(random.Random):
    """A ``random.Random`` that records the keywords of every ``choices``
    call."""

    calls: list = []

    def choices(self, population, weights=None, *, cum_weights=None, k=1):
        self.calls.append((weights is not None, cum_weights is not None, k))
        return super().choices(population, weights, cum_weights=cum_weights, k=k)


def test_powerlaw_draws_from_cumulative_weights(monkeypatch):
    want = gen.gen_graph("powerlaw", 300, 0.007, seed=102)
    monkeypatch.setattr(CountingRandom, "calls", [])
    monkeypatch.setattr(gen, "random", SimpleNamespace(Random=CountingRandom))
    got = gen.gen_graph("powerlaw", 300, 0.007, seed=102)
    assert got.sorted_edges() == want.sorted_edges()
    # one call per attempt, each drawing both endpoints; never weights=,
    # which would rebuild the n cumulative weights on every call.  The
    # attempts reach at least the target, max(n, p·n(n-1)/2) = 313 edges
    assert len(CountingRandom.calls) >= 313
    assert set(CountingRandom.calls) == {(False, True, 2)}

