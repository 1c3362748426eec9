"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from rangetri import rangequery, triangle  # noqa: E402


def invoke(capsys, workload: str, seed: int, trace: int):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload):
    for trace, units in ((0, run.END_TO_END), (1, run.per_layer_units())):
        code, lines, result = invoke(capsys, workload, 3, trace)
        assert code == 0
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == set(units)
        for name, unit in units.items():
            assert result["metrics"][name]["unit"] == unit
            printed = [line.split() for line in lines if line.startswith(f"{name} = ")]
            assert printed and printed[0][3] == unit, name
        assert any(line.startswith("failed_frac = ") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(capsys, workload):
    units = run.per_layer_units()
    counts = []
    for _ in range(2):
        _, _, result = invoke(capsys, workload, 4, 1)
        counts.append({name: result["metrics"][name]["value"]
                       for name, unit in units.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_answers_agree(workload):
    originals = (triangle.ayz_edge_counts, rangequery.matmul, triangle.baseline_list)
    cells = workloads.make(workload, 5, tiny=True)
    _, plain = run.run_pass(cells, traced=False)
    _, traced = run.run_pass(cells, traced=True)
    assert plain == traced
    assert (triangle.ayz_edge_counts, rangequery.matmul, triangle.baseline_list) == originals


def test_one_wrong_answer_fails_the_run(capsys, monkeypatch):
    original = rangequery.MoOnline.query
    calls = []

    def off_by_one_once(self, rng):
        calls.append(rng)
        answer = original(self, rng)
        return answer + 1 if len(calls) == 3 else answer

    monkeypatch.setattr(rangequery.MoOnline, "query", off_by_one_once)
    code, lines, result = invoke(capsys, "range_direct", 1, 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    frac = next(line for line in lines if line.startswith("failed_frac = "))
    assert float(frac.split()[2]) > 0


def test_listing_check_charges_each_broken_contract():
    true = {(1, 2, 3), (1, 2, 4), (2, 3, 4)}
    ok = triangle.ListingResult(set(true), triangle.COMPLETE)
    assert workloads.listing_check(ok, true, 10) == (3, 0)
    non_triangle = triangle.ListingResult({(1, 2, 3), (5, 6, 7)}, triangle.TRUNCATED)
    assert workloads.listing_check(non_triangle, true, 1) == (2, 1)
    complete_but_short = triangle.ListingResult({(1, 2, 3)}, triangle.COMPLETE)
    assert workloads.listing_check(complete_but_short, true, 10) == (3, 2)
    below_t = triangle.ListingResult({(1, 2, 3)}, triangle.TRUNCATED)
    assert workloads.listing_check(below_t, true, 2) == (2, 1)


def test_all_ranges_table_matches_the_oracle():
    from rangetri.core import EQP, INV, oracle_pairs_query
    from rangetri.gen import gen_array, gen_queries

    a = gen_array(40, 0, 9, seed=2)
    queries = gen_queries(40, 60, "single", seed=3)
    for f in (EQP, INV):
        expected = [oracle_pairs_query(f, a, q) for q in queries]
        assert workloads.table_reference(a, queries, f) == expected


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "range_direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
