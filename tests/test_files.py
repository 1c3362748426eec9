"""File format round trips and parse errors."""

import pytest

from rangetri import files
from rangetri.core import DenseMatrix, Graph, InputError, IntArray, Range, RangePair


def test_array_roundtrip(tmp_path):
    path = tmp_path / "a.txt"
    a = IntArray([3, -1, 2])
    path.write_text(files.format_array(a))
    assert files.read_array(path).values.tolist() == a.values.tolist()


def test_array_errors(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("3\n1 2\n")
    with pytest.raises(InputError):
        files.read_array(path)
    path.write_text("2\n1 x\n")
    with pytest.raises(InputError, match="2"):
        files.read_array(path)


@pytest.mark.parametrize("header", ["3 4", ""])
def test_array_header_is_one_integer(tmp_path, header):
    path = tmp_path / "a.txt"
    path.write_text(f"{header}\n1 2 3\n")
    with pytest.raises(InputError, match=r"a\.txt:1: expected"):
        files.read_array(path)


def test_array_value_outside_int64(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text(f"3\n{2**63} 1 {2**63}\n")
    with pytest.raises(InputError, match="int64"):
        files.read_array(path)
    path.write_text(f"2\n{2**63 - 1} {-(2**63)}\n")
    assert files.read_array(path).values.tolist() == [2**63 - 1, -(2**63)]


def test_queries_roundtrip(tmp_path):
    path = tmp_path / "q.txt"
    queries = [Range(1, 3), RangePair(Range(1, 2), Range(4, 5)), Range(2, 2)]
    path.write_text(files.format_queries(queries))
    assert files.read_queries(path) == queries


def test_queries_bad_arity(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(InputError, match="1"):
        files.read_queries(path)


def test_empty_query_file(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text(files.format_queries([]))
    assert files.read_queries(path) == []


def test_graph_roundtrip(tmp_path):
    path = tmp_path / "g.txt"
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    path.write_text(files.format_graph(g))
    back = files.read_graph(path)
    assert back.n == g.n and back.sorted_edges() == g.sorted_edges()


def test_graph_edge_count_mismatch(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n1 2\n")
    with pytest.raises(InputError):
        files.read_graph(path)


def test_matrix_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    m = DenseMatrix([[1, 2, 3], [4, 5, 6]])
    path.write_text(files.format_matrix(m))
    assert files.read_matrix(path) == m


def test_matrix_ragged(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 3\n1 2 3\n4 5\n")
    with pytest.raises(InputError, match="3"):
        files.read_matrix(path)


def test_matrix_entry_outside_int64(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(f"1 2\n1 {2**63}\n")
    with pytest.raises(InputError, match="int64"):
        files.read_matrix(path)
