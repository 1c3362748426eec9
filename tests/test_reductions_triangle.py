"""Reductions between two-range queries and edge triangle problems."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, cycle_graph, query_objects, rand_array, rand_graph, rand_pair
from rangetri.core import (
    EQP,
    INV,
    Graph,
    InputError,
    IntArray,
    Range,
    RangeError,
    RangePair,
    TripartiteMultigraph,
    bounds,
    compact,
    oracle_disjoint_query,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_pairs_query,
    pair,
)
from rangetri import reductions_triangle
from rangetri.reductions_triangle import (
    base_decompose,
    build_query_multigraph,
    multigraph_edge_counts,
    multigraph_edge_detect,
    neighbor_list_array,
    padded_length,
    reduce_2rdq_to_etd,
    reduce_2req_to_etc,
    reduce_etc_to_2req,
    reduce_etd_to_2rdq,
)
from rangetri.solvers import (
    EDGE_COUNTERS,
    EDGE_DETECTORS,
    PROBLEMS,
    problem_is_pair,
    range_solver,
)


def pair_oracle(a, queries):
    return [oracle_pairs_query(EQP, a, q) for q in query_objects(queries)]


def disjoint_oracle(a, queries):
    return [oracle_disjoint_query(a, q) for q in query_objects(queries)]


class TestGraphToArray:
    def test_neighbor_array_shape(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        arr, ptr = neighbor_list_array(g)
        assert arr.n == 2 * g.m
        assert arr.values.tolist() == [2, 3, 1, 3, 1, 2]
        seg = {v: Range(ptr[v] + 1, ptr[v + 1]) for v in range(1, 4)}
        assert seg[1] == Range(1, 2) and seg[2] == Range(3, 4) and seg[3] == Range(5, 6)

    def test_counts_match_oracle(self):
        rng = random.Random(0)
        for _ in range(60):
            g = rand_graph(rng, rng.randint(3, 20), 0.4)
            assert reduce_etc_to_2req(g, pair_oracle) == oracle_edge_triangle_counts(g)

    def test_detection_matches_oracle(self):
        rng = random.Random(1)
        for _ in range(60):
            g = rand_graph(rng, rng.randint(3, 20), 0.3)
            assert reduce_etd_to_2rdq(g, disjoint_oracle) == oracle_edge_triangle_detect(g)

    def test_star_graph_all_false(self):
        g = Graph(5, [(1, v) for v in range(2, 6)])
        assert set(reduce_etd_to_2rdq(g, disjoint_oracle).values()) == {False}

    @pytest.mark.parametrize(
        "reduce, solver",
        [(reduce_etc_to_2req, pair_oracle), (reduce_etd_to_2rdq, disjoint_oracle)],
        ids=["etc", "etd"],
    )
    def test_empty_graph(self, reduce, solver):
        assert reduce(Graph(0, []), solver) == {}


def node_positions(h: int, n_pad: int) -> range:
    """Positions covered by segment-tree node h in a tree of width n_pad."""
    depth = h.bit_length() - 1
    shift = n_pad.bit_length() - 1 - depth
    lo = (h - (1 << depth)) << shift
    return range(lo, lo + (1 << shift))


class TestBaseDecompose:
    def test_examples(self):
        query, node = base_decompose([0, 3, 1], [7, 3, 6], 8)
        again = base_decompose([0, 3, 1], [7, 3, 6], 8)
        assert np.array_equal(query, again[0]) and np.array_equal(node, again[1])
        assert query.tolist() == [0, 1, 2, 2, 2, 2]
        # root; leaf of position 3; [1, 6] = {1} + [2, 3] + [4, 5] + {6}
        assert node[:2].tolist() == [1, 8 + 3]
        assert sorted(node[2:].tolist()) == [5, 6, 8 + 1, 8 + 6]
        assert base_decompose([0], [0], 1)[1].tolist() == [1]

    def test_empty_batch(self):
        query, node = base_decompose([], [], 8)
        assert query.dtype == node.dtype == np.int64
        assert query.shape == node.shape == (0,)

    def test_wide_tree(self):
        n_pad = 1 << 20
        lo, hi = 3, n_pad - 2
        query, node = base_decompose([lo], [hi], n_pad)
        assert query.tolist() == [0] * node.size
        assert node.size <= 2 * 20
        spans = sorted((p.start, p.stop) for p in (node_positions(h, n_pad) for h in node.tolist()))
        # consecutive, disjoint, and exactly [lo, hi]
        assert spans[0][0] == lo and spans[-1][1] == hi + 1
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            base_decompose([0], [8], 8)
        with pytest.raises(ValueError):
            base_decompose([2], [1], 8)
        with pytest.raises(ValueError):
            base_decompose([0], [2], 6)
        with pytest.raises(ValueError):
            base_decompose([-1], [2], 8)
        with pytest.raises(ValueError):
            base_decompose([0, 1, 0], [3, 4, 8], 8)

    def test_node_positions(self):
        for n_pad in (1, 2, 4, 8, 16, 32):
            levels = n_pad.bit_length() - 1
            for h in range(1, 2 * n_pad):
                pos = node_positions(h, n_pad)
                assert len(pos) == n_pad >> (h.bit_length() - 1)
                # h is the ancestor, k = L - depth levels up, of each
                # position it covers, and of no other
                k = levels - (h.bit_length() - 1)
                assert [p for p in range(n_pad) if (p + n_pad) >> k == h] == list(pos)

    def test_cover_disjoint_and_bounded(self):
        for n_pad in (1, 2, 4, 8, 16, 32):
            spans = [(lo, hi) for lo in range(n_pad) for hi in range(lo, n_pad)]
            lo, hi = np.array(spans).T
            query, node = base_decompose(lo, hi, n_pad)
            assert np.all(np.diff(query) >= 0)
            starts = np.searchsorted(query, np.arange(len(spans) + 1))
            for k, (l, h) in enumerate(spans):
                nodes = node[starts[k] : starts[k + 1]].tolist()
                covered = sorted(p for x in nodes for p in node_positions(x, n_pad))
                assert covered == list(range(l, h + 1))
                if n_pad > 1:
                    assert len(nodes) <= 2 * int(math.log2(n_pad))

    def test_padded_length(self):
        assert [padded_length(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 4, 4, 8, 8, 16]


def per_query_vw(build) -> list[list[tuple[int, int]]]:
    """The VW edges of each query, read from the build's CSR."""
    ptr, rows = build.query_ptr.tolist(), build.mg.vw[build.query_vw].tolist()
    return [[tuple(e) for e in rows[ptr[k] : ptr[k + 1]]] for k in range(len(ptr) - 1)]


def two_cover_reference(a: IntArray, b: np.ndarray):
    """What ``build_query_multigraph`` must build, with dicts and loops
    over one cover of the first ranges and one of the second: the parts
    (V, W, U), then uv, uv_mult, uw, uw_mult, vw, query_ptr and query_vw
    as lists.  V numbers its nodes in node order from 1, W goes on from
    there, and U numbers the values inside some range in value order."""
    n_pad = padded_length(a.n)
    covers = [base_decompose(b[:, c] - 1, b[:, c + 1] - 1, n_pad) for c in (0, 2)]
    ids = {}
    for side, (_, nodes) in enumerate(covers):
        for h in sorted(set(nodes.tolist())):
            ids[side, h] = len(ids) + 1
    count = {}  # (side, node id, value) -> occurrences of the value in the node
    for (side, h), vid in ids.items():
        for p in node_positions(h, n_pad):
            key = side, vid, int(a.values[p])
            count[key] = count.get(key, 0) + 1
    values = sorted({x for _, _, x in count})
    u_start = len(ids) + 1
    u_of = {x: u_start + k for k, x in enumerate(values)}
    edges = [[], []]  # per side: ((u, node id), occurrences) in (node id, value) order
    for (side, vid, x), c in sorted(count.items()):
        edges[side].append(([u_of[x], vid], c))
    pairs = []  # per query: its (V id, W id) pairs, V cover order then W cover order
    (vq, vn), (wq, wn) = covers
    for k in range(len(b)):
        vs = [ids[0, h] for h in vn[vq == k].tolist()]
        ws = [ids[1, h] for h in wn[wq == k].tolist()]
        pairs.append([(v, w) for v in vs for w in ws])
    vw = sorted({p for ps in pairs for p in ps})
    row = {p: k for k, p in enumerate(vw)}
    n_v = sum(side == 0 for side, _ in ids)
    parts = range(1, n_v + 1), range(n_v + 1, u_start), range(u_start, u_start + len(values))
    ptr = np.cumsum([0] + [len(ps) for ps in pairs]).tolist()
    return (
        parts,
        [e for e, _ in edges[0]],
        [c for _, c in edges[0]],
        [e for e, _ in edges[1]],
        [c for _, c in edges[1]],
        [list(p) for p in vw],
        ptr,
        [row[p] for ps in pairs for p in ps],
    )


@st.composite
def multigraphs(draw) -> TripartiteMultigraph:
    """A random tripartite multigraph with multiplicities up to 2^5.  Its
    last V and last W vertex have no U neighbor, and its last two U
    vertices have only V or only W neighbors."""
    nu, nv, nw = (draw(st.integers(1, 3)) for _ in range(3))
    part_v = range(1, nv + 2)
    part_w = range(part_v.stop, part_v.stop + nw + 1)
    part_u = range(part_w.stop, part_w.stop + nu + 2)

    def u_edges(part: range, only: int) -> tuple[np.ndarray, np.ndarray]:
        rows = [(u, x, draw(st.integers(0, 32))) for u in part_u[:-2] for x in part[:-1]]
        rows += [(only, x, draw(st.integers(1, 32))) for x in part[:-1]]
        rows = np.array([r for r in rows if r[2]], dtype=np.int64).reshape(-1, 3)
        return rows[:, :2], rows[:, 2]

    uv, uv_mult = u_edges(part_v, part_u[-2])
    uw, uw_mult = u_edges(part_w, part_u[-1])
    vw = [
        (v, w) for v in part_v for w in part_w
        if v == part_v[-1] or w == part_w[-1] or draw(st.booleans())
    ]
    mg = TripartiteMultigraph(part_u, part_v, part_w, uv, uv_mult, uw, uw_mult, np.array(vw))
    mg.validate()
    return mg


def pruned_size(mg: TripartiteMultigraph) -> int:
    """Edges over all (i, j) bit-pair pieces of ``mg`` that can lie on a
    triangle through a VW edge, counted with sets."""
    def bits(rows, mult) -> list[set]:
        pieces = [
            {(x, y) for (x, y), k in zip(rows.tolist(), mult.tolist()) if k >> i & 1}
            for i in range(max(mult.tolist(), default=0).bit_length())
        ]
        return [p for p in pieces if p]

    vw = set(map(tuple, mg.vw.tolist()))
    total = 0
    for uv in bits(mg.uv, mg.uv_mult):
        for uw in bits(mg.uw, mg.uw_mult):
            both = {u for u, _ in uv} & {u for u, _ in uw}
            uv_kept = {(u, v) for u, v in uv if u in both}
            uw_kept = {(u, w) for u, w in uw if u in both}
            vs, ws = {v for _, v in uv_kept}, {w for _, w in uw_kept}
            total += len(uv_kept) + len(uw_kept) + len({(v, w) for v, w in vw if v in vs and w in ws})
    return total


class TestQueryMultigraph:
    def test_invariants_and_size_bounds(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 64)
            a = rand_array(rng, n, 0, n - 1)
            q = rng.randint(1, 10)
            queries = [rand_pair(rng, n) for _ in range(q)]
            build = build_query_multigraph(a, queries)
            mg = build.mg
            n_pad = build.n_pad
            log = int(math.log2(n_pad)) if n_pad > 1 else 1
            # each array position contributes once per tree level at most
            level_bound = 2 * n_pad * (log + 1)
            assert mg.uv_mult.sum() + mg.uw_mult.sum() <= level_bound
            assert len(mg.vw) <= q * (2 * log) ** 2
            assert len(build.query_ptr) == q + 1
            assert np.all(np.diff(build.query_ptr) > 0)
            assert len(set(map(tuple, mg.vw.tolist()))) == len(mg.vw)
            assert mg.vw.tolist() == sorted(mg.vw.tolist())
            # the parts number the vertices 1..N consecutively
            parts = sorted((mg.part_u, mg.part_v, mg.part_w), key=lambda p: p.start)
            assert [p.start for p in parts] == [1, parts[0].stop, parts[1].stop]

    def test_matches_two_cover_reference(self):
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randint(2, 70)
            # values dense in 0..n-1, few, or spread over +-10^9
            lo, hi = [(0, n - 1), (-2, 2), (-(10**9), 10**9)][trial % 3]
            a = rand_array(rng, n, lo, hi)
            queries = [rand_pair(rng, n) for _ in range(rng.randint(1, 12))]
            build = build_query_multigraph(a, queries)
            mg = build.mg
            parts, *arrays = two_cover_reference(a, bounds(queries, n, 4))
            assert (mg.part_v, mg.part_w, mg.part_u) == parts
            got = (mg.uv, mg.uv_mult, mg.uw, mg.uw_mult, mg.vw, build.query_ptr, build.query_vw)
            for have, want in zip(got, arrays):
                assert have.dtype == np.int64 and have.tolist() == want

    def test_per_query_sum_equals_answer(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 40)
            a = rand_array(rng, n, 0, 6)
            queries = [rand_pair(rng, n) for _ in range(5)]
            build = build_query_multigraph(a, queries)
            for keys, q in zip(per_query_vw(build), queries):
                total = sum(build.mg.triangle_count_through(v, w) for v, w in keys)
                assert total == oracle_pairs_query(EQP, a, q)

    def test_binary_splitting_exact(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(2, 32)
            a = rand_array(rng, n, 0, 3)  # few distinct values -> big multiplicities
            queries = [rand_pair(rng, n) for _ in range(4)]
            build = build_query_multigraph(a, queries)
            want = [build.mg.triangle_count_through(v, w) for v, w in build.mg.vw.tolist()]
            for inner in ("oracle", "ayz"):
                counts = multigraph_edge_counts(build.mg, EDGE_COUNTERS[inner])
                assert counts.shape == (len(build.mg.vw),)
                assert counts.tolist() == want

    @pytest.mark.parametrize("inner", ["oracle", "ayz"])
    def test_pieces_go_to_one_solver_call(self, inner):
        # V = {1, 2}, W = {3, 4}, U = {5, 6, 7}; multiplicities 1, 2 and 7
        # set bits 0-2 on both sides, so there are 9 pieces, i + j = 0..4
        uv = np.array([[5, 1], [5, 2], [6, 1], [7, 2]])
        uw = np.array([[5, 3], [6, 3], [6, 4], [7, 4]])
        vw = np.array([[1, 3], [1, 4], [2, 3], [2, 4]])
        mg = TripartiteMultigraph(
            range(5, 8), range(1, 3), range(3, 5),
            uv, np.array([1, 7, 2, 7]), uw, np.array([7, 2, 1, 7]), vw,
        )
        mg.validate()
        graphs = []

        def solver(g):
            graphs.append(g)
            return EDGE_COUNTERS[inner](g)

        counts = multigraph_edge_counts(mg, solver)
        want = [mg.triangle_count_through(v, w) for v, w in vw.tolist()]
        assert counts.tolist() == want == [1 * 7 + 2 * 2, 2 * 1, 7 * 7, 7 * 7]
        # piece (i, j) keeps its bit's UV and UW edges at the U vertices
        # that have both, then the VW edges whose ends kept one:
        #   UV bit 0: 5-1 5-2 7-2   bit 1: 5-2 6-1 7-2   bit 2: 5-2 7-2
        #   UW bit 0: 5-3 6-4 7-4   bit 1: 5-3 6-3 7-4   bit 2: 5-3 7-4
        # i = 0, j = 0..2: U {5, 7}, 3 UV + 2 UW + 4 VW = 9 edges each
        # i = 1, j = 0..1: U {5, 6, 7}, 3 UV + 3 UW + 4 VW = 10 each
        # i = 1, j = 2 and i = 2, j = 0..2: U {5, 7}, 2 UV + 2 UW, V {2},
        #   so only 2-3 and 2-4 of the VW edges: 6 each
        assert len(graphs) == 1
        assert graphs[0].m == 3 * 9 + 2 * 10 + 4 * 6
        detected = multigraph_edge_detect(mg, EDGE_DETECTORS[inner])
        assert detected.tolist() == [c > 0 for c in want]

    def test_detection_matches_vw_triangle_counts(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 32)
            a = rand_array(rng, n, 0, 4)
            queries = [rand_pair(rng, n) for _ in range(4)]
            build = build_query_multigraph(a, queries)
            detected = multigraph_edge_detect(build.mg, EDGE_DETECTORS["oracle"])
            assert detected.shape == (len(build.mg.vw),)
            for (v, w), d in zip(build.mg.vw.tolist(), detected.tolist()):
                assert d == (build.mg.triangle_count_through(v, w) > 0)

    @settings(max_examples=25)
    @given(multigraphs())
    def test_property_pruned_pieces_match_multigraph(self, mg):
        want = [mg.triangle_count_through(v, w) for v, w in mg.vw.tolist()]
        for inner in ("oracle", "ayz"):
            assert multigraph_edge_counts(mg, EDGE_COUNTERS[inner]).tolist() == want
            detected = multigraph_edge_detect(mg, EDGE_DETECTORS[inner])
            assert detected.tolist() == [c > 0 for c in want]

    @pytest.mark.parametrize("inner", ["oracle", "ayz"])
    def test_every_vw_copy_pruned(self, inner):
        # U 5 has only V neighbors and U 6 only W neighbors, so no piece
        # keeps an edge; multiplicities 5 and 3 still make 2 x 2 pieces
        mg = TripartiteMultigraph(
            range(5, 7), range(1, 3), range(3, 5),
            np.array([[5, 1], [5, 2]]), np.array([5, 5]),
            np.array([[6, 3], [6, 4]]), np.array([3, 3]),
            np.array([[1, 3], [1, 4], [2, 3], [2, 4]]),
        )
        mg.validate()
        for run, table, zero in (
            (multigraph_edge_counts, EDGE_COUNTERS, 0),
            (multigraph_edge_detect, EDGE_DETECTORS, False),
        ):
            graphs = []
            assert run(mg, lambda g: graphs.append(g) or table[inner](g)).tolist() == [zero] * 4
            assert [g.m for g in graphs] == [0]

    def test_solver_sees_only_edges_on_vw_triangles(self, monkeypatch):
        # record ``back`` to name each solver vertex's piece and part
        backs = []

        def recording_compact(edges):
            g, back = compact(edges)
            backs.append(back)
            return g, back

        monkeypatch.setattr(reductions_triangle, "compact", recording_compact)
        rng = random.Random(6)
        for _ in range(12):
            n = rng.randint(2, 32)
            a = rand_array(rng, n, 0, 3)
            queries = [rand_pair(rng, n) for _ in range(4)]
            mg = build_query_multigraph(a, queries).mg
            graphs = []
            multigraph_edge_counts(mg, lambda g: graphs.append(g) or EDGE_COUNTERS["ayz"](g))
            (g,) = graphs
            width = max(mg.part_u.stop, mg.part_v.stop, mg.part_w.stop)
            piece, local = np.divmod(backs[-1], width)
            part = np.select(
                [np.isin(local, mg.part_u), np.isin(local, mg.part_v)], ["U", "V"], "W"
            )
            nbr_parts = [{part[y - 1] for y in g.neighbors(x)} for x in range(1, g.n + 1)]
            assert np.all(piece[g.eu - 1] == piece[g.ev - 1])
            for x in range(1, g.n + 1):
                if part[x - 1] == "U":
                    assert nbr_parts[x - 1] == {"V", "W"}
            for u, v in g.sorted_edges():
                if {part[u - 1], part[v - 1]} == {"V", "W"}:
                    assert "U" in nbr_parts[u - 1] and "U" in nbr_parts[v - 1]
            assert g.m == pruned_size(mg)

    def test_validate_rejects_bad_multigraph(self):
        def mg(**change):
            edge = np.array([[1, 2]])
            parts = dict(part_u=range(1, 2), part_v=range(2, 3), part_w=range(3, 4))
            fields = dict(
                parts, uv=edge, uv_mult=np.array([2]),
                uw=np.array([[1, 3]]), uw_mult=np.array([1]), vw=np.array([[2, 3]]),
            )
            return TripartiteMultigraph(**{**fields, **change})

        mg().validate()
        assert mg().triangle_count_through(2, 3) == 2
        bad = [
            dict(part_v=range(1, 3)),
            dict(uv_mult=np.array([0])),
            dict(uv_mult=np.array([1, 1])),
            dict(uv=np.array([[2, 2]])),
            dict(uw=np.array([[1, 2]])),
            dict(vw=np.array([[2, 1]])),
        ]
        for change in bad:
            with pytest.raises(InputError):
                mg(**change).validate()


class TestArraySideSolvers:
    def test_2req_matches_oracle(self):
        rng = random.Random(6)
        for _ in range(60):
            n = rng.randint(2, 48)
            a = rand_array(rng, n, -5, 5)
            queries = [rand_pair(rng, n) for _ in range(rng.randint(0, 6))]
            got = reduce_2req_to_etc(a, queries, EDGE_COUNTERS["oracle"])
            assert got == [oracle_pairs_query(EQP, a, q) for q in queries]

    def test_2rdq_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 48)
            a = rand_array(rng, n, 0, 5)
            queries = [rand_pair(rng, n) for _ in range(rng.randint(0, 6))]
            got = reduce_2rdq_to_etd(a, queries, EDGE_DETECTORS["oracle"])
            assert got == [oracle_disjoint_query(a, q) for q in queries]

    def test_examples(self):
        a = IntArray([1, 2, 1, 2, 3])
        assert reduce_2req_to_etc(a, [pair(1, 2, 3, 5)], EDGE_COUNTERS["oracle"]) == [2]
        assert reduce_2rdq_to_etd(a, [pair(1, 2, 5, 5)], EDGE_DETECTORS["oracle"]) == [True]
        assert reduce_2rdq_to_etd(a, [pair(1, 1, 3, 3)], EDGE_DETECTORS["oracle"]) == [False]

    @pytest.mark.parametrize("inner", ["oracle", "ayz"])
    def test_ranges_sharing_no_value(self, inner, monkeypatch):
        # no value of a first range is in any second range, so every piece
        # prunes to no edges and the solver gets the empty ``compact``
        graphs = []

        def recording_compact(edges):
            g, back = compact(edges)
            graphs.append((g.n, g.m, back.tolist()))
            return g, back

        monkeypatch.setattr(reductions_triangle, "compact", recording_compact)
        a = IntArray([1, 2, 1, 3, 4, 3])
        queries = [pair(1, 2, 4, 5), pair(2, 3, 5, 6), pair(1, 3, 4, 6)]
        assert reduce_2req_to_etc(a, queries, EDGE_COUNTERS[inner]) == [0] * 3
        assert reduce_2rdq_to_etd(a, queries, EDGE_DETECTORS[inner]) == [True] * 3
        assert graphs == [(0, 0, [])] * 2

    def test_rejects_range_outside_array(self):
        # r = 6 lies inside the padded width 8, so only the array length catches it
        a = IntArray([1, 2, 1, 2, 3])
        queries = [pair(1, 2, 3, 5), pair(1, 2, 3, 6)]
        with pytest.raises(RangeError):
            reduce_2req_to_etc(a, queries, EDGE_COUNTERS["oracle"])
        with pytest.raises(RangeError):
            reduce_2rdq_to_etd(a, queries, EDGE_DETECTORS["oracle"])


ADVERSARIAL_ARRAYS = {
    "n=2": [5, 5],
    "all-equal": [7] * 16,
    "increasing": list(range(16)),
    "decreasing": list(range(16, 0, -1)),
    "two-valued": [0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0],
    "huge": [10**12, -(10**12), 10**12, 3, -(10**12), 10**12 - 1, 3, -(10**12), 10**12, 0, 10**12, -3],
}


def shared_pairs(n: int) -> list[RangePair]:
    """Pairs that repeat, or share a first or second range, so that their
    base intervals are shared in the multigraph."""
    half = n // 2
    out = [pair(1, half, half + 1, n)] * 3
    out += [pair(1, k, k + 1, n) for k in range(1, n)]
    out += [pair(1, 1, k, n) for k in range(2, n + 1)]
    return out


def shared_ranges(n: int) -> list[Range]:
    out = [Range(1, n)] * 3 + [Range(k, n) for k in range(1, n + 1)]
    return out + [Range(1, k) for k in range(1, n + 1)]


class TestViaTriangleAdversarial:
    """Every problem via the triangle reductions on degenerate shapes:
    the shortest array, maximal multiplicities (all-equal, the most
    bit-split pieces), monotone and two-valued arrays, values near 1e12,
    no queries, and queries sharing base intervals."""

    @pytest.mark.parametrize("inner", ["oracle", "ayz"])
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_matches_oracle(self, problem, inner):
        solver = range_solver(problem, "via-triangle", inner=inner)
        for name, values in ADVERSARIAL_ARRAYS.items():
            a = IntArray(values)
            queries = shared_pairs(a.n) if problem_is_pair(problem) else shared_ranges(a.n)
            if problem == "2rdq":
                want = [oracle_disjoint_query(a, q) for q in queries]
            else:
                f = INV if problem.endswith("riq") else EQP
                want = [oracle_pairs_query(f, a, q) for q in queries]
            got = solver(a, queries)
            assert got == want, name
            answer_type = bool if problem == "2rdq" else int
            assert all(type(x) is answer_type for x in got), name
            assert solver(a, []) == [], name
