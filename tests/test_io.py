"""Tests for edge-list I/O."""

from __future__ import annotations

import pytest

from repro.graphs import GraphError, read_edge_list, write_edge_list
from repro.graphs.generators import erdos_renyi
from repro.graphs.io import graph_from_pairs

from reference import iter_edge_list


class TestRoundTrip:
    def test_write_read_roundtrip(self, tmp_path):
        g = erdos_renyi(40, 0.15, seed=1)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        loaded, mapping = read_edge_list(path)
        assert loaded.num_edges == g.num_edges
        assert sorted(loaded.degrees()) == sorted(g.degrees())

    def test_gzip_roundtrip(self, tmp_path):
        g = erdos_renyi(20, 0.2, seed=2)
        path = tmp_path / "graph.txt.gz"
        write_edge_list(g, path)
        loaded, _ = read_edge_list(path)
        assert loaded.num_edges == g.num_edges


class TestParsing:
    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n% percent comment\n1 2\n2 3\n")
        g, mapping = read_edge_list(path)
        assert g.num_edges == 2
        assert set(mapping) == {1, 2, 3}

    def test_noncontiguous_ids_relabled(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("100 200\n200 5000\n")
        g, mapping = read_edge_list(path)
        assert g.num_nodes == 3
        assert sorted(mapping.values()) == [0, 1, 2]

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1\n1 2\n")
        g, _ = read_edge_list(path)
        assert g.num_edges == 1

    def test_duplicate_edges_collapsed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 1\n1 2\n")
        g, _ = read_edge_list(path)
        assert g.num_edges == 1

    def test_extra_columns_tolerated(self, tmp_path):
        # KONECT dumps often carry weights/timestamps in columns 3+.
        path = tmp_path / "g.txt"
        path.write_text("1 2 1.5 1234567\n")
        g, _ = read_edge_list(path)
        assert g.num_edges == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("42\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_iter_edge_list_raw_pairs(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("7 9\n9 11\n")
        assert list(iter_edge_list(path)) == [(7, 9), (9, 11)]


class TestGraphFromPairs:
    def test_relabels(self):
        g = graph_from_pairs([(10, 20), (20, 30)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_drops_self_loops(self):
        g = graph_from_pairs([(1, 1), (1, 2)])
        assert g.num_edges == 1
