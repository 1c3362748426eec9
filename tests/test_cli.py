"""Command-line interface end to end."""

import random

import pytest

from conftest import rand_array, rand_pair, rand_range
from rangetri import bench, files, gen
from rangetri.cli import main
from rangetri.core import (
    EQP,
    INV,
    IntArray,
    Range,
    oracle_disjoint_query,
    oracle_edge_triangle_counts,
    oracle_edge_triangle_detect,
    oracle_minmax,
    oracle_pairs_query,
    oracle_triangle_list,
    pair,
)
from rangetri.solvers import ALGOS, PROBLEMS, problem_is_pair, range_solver
from rangetri.triangle import list_via_detection


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def instance(tmp_path):
    """A small array plus single-range and pair query files."""
    rng = random.Random(99)
    a = rand_array(rng, 20, 0, 6)
    (tmp_path / "a.txt").write_text(files.format_array(a))
    singles = [rand_range(rng, 20) for _ in range(8)]
    pairs = [rand_pair(rng, 20) for _ in range(8)]
    (tmp_path / "singles.txt").write_text(files.format_queries(singles))
    (tmp_path / "pairs.txt").write_text(files.format_queries(pairs))
    return tmp_path, a, singles, pairs


class TestGen:
    def test_deterministic(self, capsys):
        code1, out1 = run(capsys, "gen", "array", "--n", "12", "--seed", "5")
        code2, out2 = run(capsys, "gen", "array", "--n", "12", "--seed", "5")
        assert code1 == code2 == 0 and out1 == out2
        _, other = run(capsys, "gen", "array", "--n", "12", "--seed", "6")
        assert other != out1

    def test_graph_file_loads(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        code, _ = run(capsys, "gen", "graph", "--kind", "complete", "--n", "4", "--out", str(path))
        assert code == 0
        g = files.read_graph(path)
        assert g.n == 4 and g.m == 6

    @pytest.mark.parametrize("kind", ["gnp", "bipartite", "powerlaw"])
    @pytest.mark.parametrize("p", ["nan", "inf", "-inf", "1e300", "-0.1", "1.5"])
    def test_edge_probability_outside_unit_interval_is_usage_error(self, capsys, kind, p):
        code = main(["gen", "graph", "--kind", kind, "--n", "10", f"--p={p}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "edge probability" in captured.err and "not in [0, 1]" in captured.err

    @pytest.mark.parametrize("q", ["0", "4"])
    def test_unknown_query_kind_is_usage_error(self, capsys, q):
        # no command reads a file mixing single ranges and range pairs
        code = main(["gen", "queries", "--n", "8", "--q", q, "--kind", "mixed"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "unknown query kind" in captured.err

    def test_zero_queries(self, capsys):
        code, out = run(capsys, "gen", "queries", "--n", "8", "--q", "0")
        assert code == 0 and out == ""

    def test_matrix(self, capsys):
        code, out = run(capsys, "gen", "matrix", "--rows", "2", "--cols", "3")
        assert code == 0
        assert out.splitlines()[0] == "2 3"

    @pytest.mark.parametrize(
        "argv,made,fmt,read",
        [
            (
                ["array", "--n", "9", "--vmin", "-3", "--vmax", "4", "--seed", "2"],
                lambda: gen.gen_array(9, -3, 4, seed=2),
                files.format_array,
                files.read_array,
            ),
            (
                ["queries", "--n", "12", "--q", "7", "--kind", "pair", "--seed", "3"],
                lambda: gen.gen_queries(12, 7, kind="pair", seed=3),
                files.format_queries,
                files.read_queries,
            ),
            (
                ["graph", "--kind", "powerlaw", "--n", "15", "--p", "0.3", "--seed", "4"],
                lambda: gen.gen_graph("powerlaw", 15, p=0.3, seed=4),
                files.format_graph,
                files.read_graph,
            ),
            (
                ["matrix", "--rows", "3", "--cols", "5", "--vmin", "0", "--vmax", "1", "--seed", "5"],
                lambda: gen.gen_matrix(3, 5, 0, 1, seed=5),
                files.format_matrix,
                files.read_matrix,
            ),
        ],
        ids=["array", "queries", "graph", "matrix"],
    )
    def test_round_trip(self, capsys, tmp_path, argv, made, fmt, read):
        code, out = run(capsys, "gen", *argv)
        assert code == 0
        want = made()
        assert out == fmt(want)
        path = tmp_path / "instance.txt"
        path.write_text(out)
        back = read(path)
        if argv[0] == "graph":
            assert (back.n, back.sorted_edges()) == (want.n, want.sorted_edges())
        else:
            assert back == want


class TestSolve:
    @pytest.mark.parametrize("algo", ["oracle", "mo", "mo-online", "online-eq", "via-triangle"])
    def test_all_algorithms_match_oracle(self, capsys, instance, algo):
        tmp, a, singles, pairs = instance
        for problem, qfile, queries in (
            ("riq", "singles.txt", singles),
            ("req", "singles.txt", singles),
            ("2riq", "pairs.txt", pairs),
            ("2req", "pairs.txt", pairs),
        ):
            code, out = run(
                capsys,
                "solve", "--problem", problem, "--algo", algo,
                "--array", str(tmp / "a.txt"), "--queries", str(tmp / qfile),
            )
            assert code == 0
            f = INV if problem in ("riq", "2riq") else EQP
            expected = [oracle_pairs_query(f, a, q) for q in queries]
            assert [int(x) for x in out.split()] == expected

    @pytest.mark.parametrize("algo", ["oracle", "mo", "mo-online", "online-eq", "via-triangle"])
    def test_values_beyond_n_cubed(self, capsys, tmp_path, algo):
        # solvers rank-normalise, so |value| > n**3 is valid input
        (tmp_path / "a.txt").write_text("2\n1 100\n")
        (tmp_path / "q.txt").write_text("1 2\n2 2\n")
        for problem in ("riq", "req"):
            code, out = run(
                capsys,
                "solve", "--problem", problem, "--algo", algo,
                "--array", str(tmp_path / "a.txt"), "--queries", str(tmp_path / "q.txt"),
            )
            assert code == 0
            assert out.split() == ["0", "0"]

    def test_disjointness(self, capsys, instance):
        tmp, a, _, pairs = instance
        code, out = run(
            capsys,
            "solve", "--problem", "2rdq", "--algo", "oracle",
            "--array", str(tmp / "a.txt"), "--queries", str(tmp / "pairs.txt"),
        )
        assert code == 0
        expected = [int(oracle_disjoint_query(a, q)) for q in pairs]
        assert [int(x) for x in out.split()] == expected

    def test_arity_mismatch_is_usage_error(self, capsys, instance):
        tmp, _, _, _ = instance
        code, _ = run(
            capsys,
            "solve", "--problem", "riq", "--algo", "oracle",
            "--array", str(tmp / "a.txt"), "--queries", str(tmp / "pairs.txt"),
        )
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys, instance):
        tmp, _, _, _ = instance
        code, _ = run(
            capsys,
            "solve", "--problem", "riq", "--algo", "oracle",
            "--array", str(tmp / "nope.txt"), "--queries", str(tmp / "singles.txt"),
        )
        assert code == 2


class TestReduce:
    @pytest.mark.parametrize(
        "src,dst,qfile",
        [
            ("2riq", "riq", "pairs.txt"),
            ("2req", "req", "pairs.txt"),
            ("riq", "2riq", "singles.txt"),
            ("req", "2req", "singles.txt"),
            ("2req", "2riq", "pairs.txt"),
            ("2riq", "2req", "pairs.txt"),
            ("2rdq", "2req", "pairs.txt"),
        ],
    )
    def test_verify_passes(self, capsys, instance, src, dst, qfile):
        tmp, _, _, _ = instance
        code, out = run(
            capsys,
            "reduce", "--from", src, "--to", dst,
            "--array", str(tmp / "a.txt"), "--queries", str(tmp / qfile), "--verify",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "PASS"

    def test_unsupported_arrow(self, capsys, instance):
        tmp, _, _, _ = instance
        code, _ = run(
            capsys,
            "reduce", "--from", "riq", "--to", "req",
            "--array", str(tmp / "a.txt"), "--queries", str(tmp / "singles.txt"),
        )
        assert code == 2


class TestGraphCommands:
    @pytest.fixture
    def graph_file(self, tmp_path):
        rng = random.Random(7)
        from conftest import rand_graph

        g = rand_graph(rng, 10, 0.4)
        (tmp_path / "g.txt").write_text(files.format_graph(g))
        return tmp_path / "g.txt", g

    @pytest.mark.parametrize("algo", ["oracle", "ayz", "via-2req"])
    def test_count(self, capsys, graph_file, algo):
        path, g = graph_file
        code, out = run(capsys, "count", "--graph", str(path), "--algo", algo)
        assert code == 0
        counts = oracle_edge_triangle_counts(g)
        got = {}
        for line in out.splitlines():
            u, v, c = map(int, line.split())
            got[(u, v)] = c
        assert got == counts

    @pytest.mark.parametrize("algo", ["oracle", "ayz", "via-listing"])
    def test_detect(self, capsys, graph_file, algo):
        path, g = graph_file
        code, out = run(capsys, "detect", "--graph", str(path), "--algo", algo)
        assert code == 0
        counts = oracle_edge_triangle_counts(g)
        for line in out.splitlines():
            u, v, b = map(int, line.split())
            assert b == int(counts[(u, v)] > 0)

    @pytest.mark.parametrize("algo", ["baseline", "via-detection", "main"])
    def test_list(self, capsys, graph_file, algo):
        path, g = graph_file
        truth = oracle_triangle_list(g)
        code, out = run(
            capsys, "list", "--graph", str(path), "--algo", algo, "--t", str(10 * g.m)
        )
        assert code == 0
        got = {tuple(map(int, line.split())) for line in out.splitlines()}
        if algo == "via-detection":
            assert got <= truth and len(got) == min(g.m, len(truth))
        else:
            assert got == truth


class TestGraphOutput:
    """The exact text of count, detect and list --algo via-detection, on a
    generated gnp graph and on the empty graph ``0 0``."""

    @pytest.fixture(params=["gnp", "empty"])
    def graph_file(self, request, capsys, tmp_path):
        path = tmp_path / "g.txt"
        if request.param == "empty":
            path.write_text("0 0\n")
        else:
            argv = ["gen", "graph", "--n", "24", "--p", "0.3", "--seed", "5", "--out", str(path)]
            assert run(capsys, *argv)[0] == 0
        return path, files.read_graph(path)

    @staticmethod
    def edge_lines(g, answers) -> str:
        return "".join(f"{u} {v} {int(answers[(u, v)])}\n" for u, v in g.sorted_edges())

    @pytest.mark.parametrize("algo", ["oracle", "ayz", "via-2req"])
    def test_count(self, capsys, graph_file, algo):
        path, g = graph_file
        code, out = run(capsys, "count", "--graph", str(path), "--algo", algo)
        assert code == 0
        assert out == self.edge_lines(g, oracle_edge_triangle_counts(g))

    @pytest.mark.parametrize("algo", ["oracle", "ayz", "via-listing"])
    def test_detect(self, capsys, graph_file, algo):
        path, g = graph_file
        code, out = run(capsys, "detect", "--graph", str(path), "--algo", algo)
        assert code == 0
        assert out == self.edge_lines(g, oracle_edge_triangle_detect(g))

    def test_list_via_detection(self, capsys, graph_file):
        path, g = graph_file
        code, out = run(capsys, "list", "--graph", str(path), "--algo", "via-detection")
        assert code == 0
        # the ayz detector answers as the oracle does, so the halving
        # takes the same path and keeps the same triangles
        result = list_via_detection(g, oracle_edge_triangle_detect)
        assert out == "".join(f"{a} {b} {c}\n" for a, b, c in sorted(result.triangles))

    @pytest.mark.parametrize("algo", ["baseline", "main"])
    def test_list_empty(self, capsys, tmp_path, algo):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n")
        assert run(capsys, "list", "--graph", str(path), "--algo", algo) == (0, "")

    @pytest.fixture
    def repro_file(self, capsys, tmp_path):
        # 996 edges and 1277 triangles
        path = tmp_path / "pl.txt"
        argv = ["gen", "graph", "--kind", "powerlaw", "--n", "200", "--p", "0.05"]
        assert run(capsys, *argv, "--seed", "0", "--out", str(path))[0] == 0
        return path

    def test_failed_listing_exits_1(self, capsys, repro_file):
        argv = ["list", "--graph", str(repro_file), "--algo", "main", "--zeta", "8", "--t", "2559"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert len(captured.out.splitlines()) == 1276
        assert captured.err == "failed: listed 1276 of 1277 triangles\n"

    def test_exact_main_listing_prints_the_baseline(self, capsys, repro_file):
        # 32t <= zeta * m: the baseline lister at capacity 32t, complete
        outputs = []
        for algo in ("main", "baseline"):
            code = main(["list", "--graph", str(repro_file), "--algo", algo, "--t", "2559"])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 1277

    def test_truncated_listing_says_so(self, capsys, repro_file):
        # every lister prints at most t rows: via-detection takes no
        # capacity and lists all 1277 triangles, and main's exact case
        # lists up to 32t
        truth = oracle_triangle_list(files.read_graph(repro_file))
        for algo in ("baseline", "via-detection", "main"):
            code = main(["list", "--graph", str(repro_file), "--algo", algo, "--t", "5"])
            captured = capsys.readouterr()
            got = [tuple(map(int, line.split())) for line in captured.out.splitlines()]
            assert code == 0 and len(got) == 5 and set(got) <= truth
            assert captured.err == "truncated-at-t: listed 5 triangles\n"

    def test_zero_capacity_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n1 2\n1 3\n2 3\n")
        for algo in ("baseline", "via-detection", "main"):
            for t in ("0", "-1"):
                code = main(["list", "--graph", str(path), "--algo", algo, "--t", t])
                captured = capsys.readouterr()
                assert (code, captured.out) == (2, "")
                assert "--t" in captured.err


class TestMinmax:
    @pytest.mark.parametrize("solver", ["oracle", "via-2rdq", "via-etd"])
    def test_matches_oracle(self, capsys, tmp_path, solver):
        rng = random.Random(3)
        from rangetri.core import DenseMatrix

        a = DenseMatrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        b = DenseMatrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        (tmp_path / "a.txt").write_text(files.format_matrix(a))
        (tmp_path / "b.txt").write_text(files.format_matrix(b))
        code, out = run(
            capsys,
            "minmax", "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "b.txt"),
            "--solver", solver,
        )
        assert code == 0
        rows = [list(map(int, line.split())) for line in out.splitlines()[1:] if line.strip()]
        assert rows == oracle_minmax(a, b).array.tolist()

    def test_entry_outside_int64_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "a.txt").write_text(f"1 1\n{2**63}\n")
        (tmp_path / "b.txt").write_text("1 1\n1\n")
        code = main(["minmax", "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "b.txt")])
        assert code == 2
        assert "int64" in capsys.readouterr().err


class TestVerify:
    def test_algorithm_pass(self, capsys, instance):
        tmp, _, _, _ = instance
        code, out = run(
            capsys,
            "verify", "--problem", "req", "--algo", "mo",
            "--array", str(tmp / "a.txt"), "--queries", str(tmp / "singles.txt"),
        )
        assert code == 0 and out.strip() == "PASS"

    def test_answer_file_negative_control(self, capsys, instance):
        tmp, a, singles, _ = instance
        good = [oracle_pairs_query(EQP, a, q) for q in singles]
        bad = list(good)
        bad[3] += 1
        (tmp / "good.txt").write_text("".join(f"{x}\n" for x in good))
        (tmp / "bad.txt").write_text("".join(f"{x}\n" for x in bad))
        code, out = run(
            capsys,
            "verify", "--problem", "req",
            "--array", str(tmp / "a.txt"), "--queries", str(tmp / "singles.txt"),
            "--answers", str(tmp / "good.txt"),
        )
        assert code == 0 and out.strip() == "PASS"
        code, out = run(
            capsys,
            "verify", "--problem", "req",
            "--array", str(tmp / "a.txt"), "--queries", str(tmp / "singles.txt"),
            "--answers", str(tmp / "bad.txt"),
        )
        assert code == 1 and out.strip() == "FAIL at query 4"

    def test_answer_file_non_integer_is_usage_error(self, capsys, instance):
        tmp, a, singles, _ = instance
        lines = [str(oracle_pairs_query(EQP, a, q)) for q in singles]
        lines[2] = "three"
        (tmp / "answers.txt").write_text("\n" + "\n".join(lines) + "\n")
        code = main([
            "verify", "--problem", "req",
            "--array", str(tmp / "a.txt"), "--queries", str(tmp / "singles.txt"),
            "--answers", str(tmp / "answers.txt"),
        ])
        assert code == 2
        assert f"{tmp / 'answers.txt'}:4: expected an integer" in capsys.readouterr().err


class TestBench:
    def test_csv_shape(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, _ = run(
            capsys,
            "bench", "--problems", "req", "--algos", "mo", "--sizes", "64",
            "--reps", "3", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["problem", "algorithm", "n", "q", "seed", "wall_ns", "extender_steps", "status"]
        assert len(lines) == 1 + 3
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["problem"] == "req" and row["algorithm"] == "mo"
            assert int(row["wall_ns"]) > 0
            assert int(row["extender_steps"]) > 0

    def test_extender_steps_blank_where_no_mo_walk(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        algos = "mo,mo-online,online-eq,via-triangle,oracle"
        argv = ["bench", "--problems", "req,2req", "--algos", algos, "--sizes", "16"]
        assert run(capsys, *argv, "--out", str(out_path))[0] == 0
        lines = out_path.read_text().strip().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == 10
        for row in rows:
            if row["algorithm"] in ("mo", "mo-online"):
                assert int(row["extender_steps"]) > 0
            else:
                assert row["extender_steps"] == ""

    def test_one_untimed_warm_up_per_problem_and_algorithm(self, monkeypatch):
        calls = []

        def counting(problem, algo, **kwargs):
            solver = range_solver(problem, algo, **kwargs)

            def solve(array, queries):
                calls.append((problem, algo, array.n))
                return solver(array, queries)

            return solve

        monkeypatch.setattr(bench, "range_solver", counting)
        bench.run_matrix(["req", "riq"], ["mo", "oracle"], [8, 16], reps=2)
        for problem in ("req", "riq"):
            for algo in ("mo", "oracle"):
                # the warm-up solves the first cell's instance
                runs = [n for p, a, n in calls if (p, a) == (problem, algo)]
                assert runs == [8, 8, 8, 16, 16]


class TestExitCodes:
    def test_bad_flag(self, capsys):
        assert main(["solve", "--nope"]) == 2

    def test_bad_sizes_is_usage_error(self, capsys):
        assert main(["bench", "--sizes", "abc"]) == 2
        assert "--sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["0", "8,-1"])
    def test_nonpositive_sizes_is_usage_error(self, capsys, sizes):
        assert main(["bench", "--sizes", sizes]) == 2
        assert "--sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_nonpositive_reps_is_usage_error(self, capsys, reps):
        assert main(["bench", "--sizes", "8", "--reps", reps]) == 2
        assert "--reps" in capsys.readouterr().err

    def test_negative_q_is_usage_error(self, capsys):
        assert main(["bench", "--sizes", "8", "--q", "-1"]) == 2
        assert "--q" in capsys.readouterr().err

    @pytest.mark.parametrize("zeta", ["0", "-5"])
    def test_nonpositive_zeta_is_usage_error(self, capsys, tmp_path, zeta):
        path = tmp_path / "g.txt"
        run(capsys, "gen", "graph", "--kind", "complete", "--n", "3", "--out", str(path))
        code = main(["list", "--graph", str(path), "--algo", "main", "--zeta", zeta])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "zeta must be >= 1" in err

    def test_zeta_below_one_is_usage_error_on_empty_graph(self, capsys, tmp_path):
        # rejected before any phase runs, so also where nothing is listed
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        code = main(["list", "--graph", str(path), "--algo", "main", "--zeta", "0"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "zeta must be >= 1" in err

    def test_directory_input_is_usage_error(self, capsys, instance):
        tmp, _, _, _ = instance
        code = main([
            "solve", "--problem", "riq", "--algo", "oracle",
            "--array", str(tmp), "--queries", str(tmp / "singles.txt"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "array,queries,problem,message",
        [
            ("3 4\n1 2 3\n", "1 2\n", "req", "a.txt:1: expected 'n'"),
            ("\n1 2 3\n", "1 2\n", "req", "a.txt:1: expected 'n'"),
            ("3\n1 2 3\n", f"1 2 3 {10**23}\n", "2req",
             f"range [3, {10**23}] outside array of length 3"),
        ],
        ids=["header-two-ints", "header-blank", "bound-past-int64"],
    )
    def test_bad_input_is_one_line_usage_error(self, capsys, tmp_path, array, queries, problem, message):
        (tmp_path / "a.txt").write_text(array)
        (tmp_path / "q.txt").write_text(queries)
        code = main([
            "solve", "--problem", problem, "--algo", "mo",
            "--array", str(tmp_path / "a.txt"), "--queries", str(tmp_path / "q.txt"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.endswith(message + "\n") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_array_value_outside_int64_is_usage_error(self, capsys, tmp_path, command):
        (tmp_path / "a.txt").write_text(f"3\n{2**63} 1 {2**63}\n")
        (tmp_path / "q.txt").write_text("1 3\n")
        code = main([
            command, "--problem", "req", "--algo", "mo",
            "--array", str(tmp_path / "a.txt"), "--queries", str(tmp_path / "q.txt"),
        ])
        assert code == 2
        assert "int64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,text,argv",
        [
            ("a.txt", "3\n1 2.5 3\n", ["solve", "--problem", "req", "--algo", "mo",
                                         "--array", "a.txt", "--queries", "q.txt"]),
            ("g.txt", "3 2\n1 2\n2 3.0\n", ["detect", "--graph", "g.txt", "--algo", "ayz"]),
            ("m.txt", "1 2\n1 0x2\n", ["minmax", "--a", "m.txt", "--b", "m.txt"]),
        ],
        ids=["array", "graph", "matrix"],
    )
    def test_non_integer_input_is_usage_error(self, capsys, tmp_path, name, text, argv):
        (tmp_path / name).write_text(text)
        (tmp_path / "q.txt").write_text("1 3\n")
        code = main([str(tmp_path / x) if x.endswith(".txt") else x for x in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "expected integers" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "riq", "--algo", "oracle", "--zeta", "4"],
            ["solve", "--problem", "riq", "--algo", "oracle", "--omega", "2.5"],
            ["verify", "--problem", "riq", "--seed", "1"],
            ["minmax", "--format", "csv"],
            ["gen", "array", "--omega", "2.5"],
        ],
        ids=["solve-zeta", "solve-omega", "verify-seed", "minmax-format", "gen-omega"],
    )
    def test_unread_flag_is_usage_error(self, capsys, instance, argv):
        # every command line here is valid without its last flag pair
        tmp, _, _, _ = instance
        if argv[0] in ("solve", "verify"):
            argv = argv + ["--array", str(tmp / "a.txt"), "--queries", str(tmp / "singles.txt")]
        elif argv[0] == "minmax":
            (tmp / "m.txt").write_text("2 2\n1 2\n3 4\n")
            argv = argv + ["--a", str(tmp / "m.txt"), "--b", str(tmp / "m.txt")]
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_read_flags_accepted(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        run(capsys, "gen", "graph", "--kind", "complete", "--n", "5", "--out", str(path))
        code, out = run(
            capsys,
            "list", "--graph", str(path), "--algo", "main",
            "--zeta", "4", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        got = {tuple(map(int, line.split(","))) for line in out.splitlines()}
        assert got == oracle_triangle_list(files.read_graph(path))

    def test_reproducible_stdout(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        run(capsys, "gen", "graph", "--n", "12", "--p", "0.4", "--seed", "3", "--out", str(path))
        _, out1 = run(capsys, "list", "--graph", str(path), "--algo", "main", "--seed", "4")
        _, out2 = run(capsys, "list", "--graph", str(path), "--algo", "main", "--seed", "4")
        assert out1 == out2


class TestInt64Extremes:
    """Arrays holding -2**63 and 2**63 - 1 solve through every algo and
    through the reduction that negates the array."""

    VALUES = [2**63 - 1, -(2**63), 0, 2**63 - 1, -(2**63), -1, 2**63 - 1]

    @pytest.fixture
    def extremes(self, tmp_path):
        n = len(self.VALUES)
        (tmp_path / "a.txt").write_text(files.format_array(IntArray(self.VALUES)))
        singles = [Range(l, n) for l in range(1, n + 1)]
        (tmp_path / "singles.txt").write_text(files.format_queries(singles))
        pairs = [pair(1, k, k + 1, n) for k in range(1, n)] + [pair(1, 2, 5, 6)]
        (tmp_path / "pairs.txt").write_text(files.format_queries(pairs))
        return tmp_path

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_verify_every_algo(self, capsys, extremes, problem, algo):
        queries = "pairs.txt" if problem_is_pair(problem) else "singles.txt"
        code, out = run(
            capsys, "verify", "--problem", problem, "--algo", algo,
            "--array", str(extremes / "a.txt"), "--queries", str(extremes / queries),
        )
        assert code == 0 and out.strip() == "PASS"

    def test_reduce_eqp_to_inv(self, capsys, extremes):
        code, out = run(
            capsys, "reduce", "--from", "2req", "--to", "2riq", "--verify",
            "--array", str(extremes / "a.txt"), "--queries", str(extremes / "pairs.txt"),
        )
        a = IntArray(self.VALUES)
        expected = [oracle_pairs_query(EQP, a, q) for q in files.read_queries(extremes / "pairs.txt")]
        assert code == 0
        assert out.split() == [*map(str, expected), "PASS"]
