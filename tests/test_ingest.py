"""Streaming ingest tests (ISSUE 10 tentpole, layer 2).

The ingester must produce exactly the graph the legacy loader + LCC
pipeline produces — just without ever holding the edge list in Python
objects, under any memory budget, with any spill/merge schedule.  Node
labels differ by design (ingest relabels by sorted original id, the
legacy loader by first-seen order), so comparisons normalize through
original ids.
"""

from __future__ import annotations

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.graphs import (
    CSRGraph,
    Graph,
    GraphError,
    MmapCSRGraph,
    ingest_edge_list,
    largest_connected_component,
    read_edge_list,
)
from repro.graphs.ingest import iter_edge_blocks
from reference import read_edge_list_per_line


def _write(path, text, compress=False):
    if compress:
        with gzip.open(path, "wt") as handle:
            handle.write(text)
    else:
        path.write_text(text)
    return path


def _expected_csr(pairs) -> CSRGraph:
    """CSR the ingester should produce for ``pairs`` (lcc=False):
    dedupe + drop self-loops + relabel by sorted original id."""
    canon = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    ids = np.unique(np.array(canon, dtype=np.int64).reshape(-1, 2))
    edges = [
        (int(np.searchsorted(ids, u)), int(np.searchsorted(ids, v)))
        for u, v in canon
    ]
    return CSRGraph.from_graph(Graph(int(ids.size), edges))


def _ingest(tmp_path, text, name="edges.txt", **kwargs) -> MmapCSRGraph:
    source = _write(tmp_path / name, text, compress=name.endswith(".gz"))
    report = ingest_edge_list(source, tmp_path / (name + ".mmap"), **kwargs)
    return MmapCSRGraph.load(report.out_dir), report


class TestIngestSmall:
    MESSY = (
        "# comment\n"
        "% konect-style comment\n"
        "\n"
        "1 2\n"
        "2\t1\n"          # duplicate, reversed, tab-separated
        "2 3 1.5 99\n"    # extra columns ignored
        "3 3\n"           # self-loop dropped
        "9 7\n"
        "7 9\n"           # duplicate
    )

    def test_counts_and_structure(self, tmp_path):
        graph, report = _ingest(tmp_path, self.MESSY, lcc=False)
        assert report.parsed_edges == 6
        assert report.self_loops == 1
        assert report.duplicate_edges == 2
        assert report.nodes == 5 and report.edges == 3
        assert graph == _expected_csr([(1, 2), (2, 3), (7, 9)])
        assert "5 nodes / 3 edges" in report.summary()

    def test_lcc_keeps_largest_component(self, tmp_path):
        graph, report = _ingest(tmp_path, self.MESSY, lcc=True)
        # Components: {1,2,3} and {7,9} -> keep the triangle-free path.
        assert report.components == 2
        assert report.dropped_nodes == 2 and report.dropped_edges == 1
        assert graph == _expected_csr([(0, 1), (1, 2)])

    def test_gzip_matches_plain(self, tmp_path):
        plain, _ = _ingest(tmp_path, self.MESSY, name="a.txt", lcc=False)
        gz, _ = _ingest(tmp_path, self.MESSY, name="b.txt.gz", lcc=False)
        assert np.array_equal(plain.indptr, gz.indptr)
        assert np.array_equal(plain.indices, gz.indices)

    def test_malformed_line_raises(self, tmp_path):
        source = _write(tmp_path / "bad.txt", "1 2\nnot numbers\n")
        with pytest.raises(GraphError, match="not numbers"):
            ingest_edge_list(source, tmp_path / "bad.mmap")

    def test_out_of_range_id_raises(self, tmp_path):
        source = _write(tmp_path / "big.txt", f"1 {2**32}\n")
        with pytest.raises(GraphError, match="2\\*\\*32"):
            ingest_edge_list(source, tmp_path / "big.mmap")

    def test_empty_input(self, tmp_path):
        graph, report = _ingest(tmp_path, "# nothing here\n", lcc=False)
        assert graph.num_nodes == 0 and graph.num_edges == 0
        assert report.edges == 0


class TestLegacyEquivalence:
    """ingest == read_edge_list (+ LCC) modulo the documented labeling."""

    def _legacy_original_edges(self, path, lcc: bool):
        graph, mapping = read_edge_list(path)
        inverse = {new: old for old, new in mapping.items()}
        if lcc:
            graph, lcc_map = largest_connected_component(graph)
            kept = {new: inverse[old] for old, new in lcc_map.items()}
            inverse = kept
        return {
            (min(inverse[u], inverse[v]), max(inverse[u], inverse[v]))
            for u, v in graph.edges()
        }

    @pytest.mark.parametrize("lcc", [False, True])
    def test_random_file_matches_legacy(self, tmp_path, lcc):
        rng = np.random.default_rng(42)
        pairs = rng.integers(0, 300, size=(2000, 2))
        text = "".join(f"{u} {v}\n" for u, v in pairs.tolist())
        graph, _ = _ingest(tmp_path, text, lcc=lcc)
        expected = self._legacy_original_edges(tmp_path / "edges.txt", lcc)
        assert graph == _expected_csr(expected)

    def test_sparse_ids_match_legacy(self, tmp_path):
        rng = np.random.default_rng(7)
        pairs = (rng.integers(0, 500, size=(800, 2)) * 7919 + 13).tolist()
        text = "".join(f"{u} {v}\n" for u, v in pairs)
        graph, _ = _ingest(tmp_path, text, lcc=True)
        expected = self._legacy_original_edges(tmp_path / "edges.txt", True)
        assert graph == _expected_csr(expected)

    @settings(max_examples=25, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 25), st.integers(0, 25)), min_size=1, max_size=60
        )
    )
    def test_roundtrip_property(self, pairs, tmp_path_factory):
        """Hypothesis round-trip: edge list -> ingest -> MmapCSRGraph is
        bitwise the CSR built from the same (normalized) edges."""
        if all(u == v for u, v in pairs):
            return
        tmp_path = tmp_path_factory.mktemp("ingest-prop")
        text = "".join(f"{u} {v}\n" for u, v in pairs)
        graph, _ = _ingest(tmp_path, text, lcc=False)
        expected = _expected_csr(pairs)
        assert np.array_equal(graph.indptr, expected.indptr)
        assert np.array_equal(graph.indices, expected.indices)
        assert np.array_equal(graph.degrees_array, expected.degrees_array)


class TestMemoryBudgets:
    def test_spilled_runs_bitwise_identical(self, tmp_path):
        """A starved budget (many spilled runs, k-way merge) produces the
        same bytes as an ample one (single in-RAM run)."""
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 20_000, size=(300_000, 2)).tolist()
        text = "".join(f"{u} {v}\n" for u, v in pairs)
        starved, _ = _ingest(tmp_path, text, name="starved.txt", max_memory_mb=0)
        ample, _ = _ingest(tmp_path, text, name="ample.txt", max_memory_mb=1024)
        assert np.array_equal(starved.indptr, ample.indptr)
        assert np.array_equal(starved.indices, ample.indices)

    def test_spill_scratch_removed(self, tmp_path):
        graph, report = _ingest(tmp_path, "1 2\n2 3\n")
        assert not (tmp_path / "edges.txt.mmap" / "_spill").exists()


class TestIterEdgeBlocks:
    def test_blocks_concatenate_to_file_pairs(self, tmp_path):
        text = "# c\n5 6\n6 7\n\n% c\n8 9\n"
        source = _write(tmp_path / "e.txt", text)
        us, vs = [], []
        for u, v in iter_edge_blocks(source, chunk_bytes=4):
            us.append(u)
            vs.append(v)
        assert np.concatenate(us).tolist() == [5, 6, 8]
        assert np.concatenate(vs).tolist() == [6, 7, 9]


class TestReadEdgeListRouting:
    """The chunked numpy parser behind read_edge_list is byte-identical
    to the per-line loader oracle — same Graph, same first-seen mapping."""

    VARIANTS = [
        "3 1\n1 2\n2 3\n",
        "% percent comment\n3 1\r\n1 2\r\n2 3\n",          # CRLF + % comments
        "# c\n\n  3   1  \n\t1\t2\t\n2 3",                 # whitespace, no EOL
        "3 1 0.5\n1 2 7 8\n2 3\n3 3\n1 2\n",               # extras, loop, dup
        "103 101\n101 102\n102 103\n",                     # non-contiguous ids
        "1 2\n3 4 7\n5 6 8\n",                             # widths 2,3,3: 8 tokens
        "1 2 3\n4 5\n6 7 8 9\n",                           # widths 3,2,4: 9 tokens
        "1 2\n3 4 5 6\n7 8\n",                             # widths 2,4,2: 8 tokens
        "1 2\r3 4\r5 6\n",                                 # bare CR line breaks
        "# c\r1 2\r2 3\r",                                 # bare CR after a comment
    ]

    @pytest.mark.parametrize("text", VARIANTS)
    def test_routes_identical(self, tmp_path, text):
        source = _write(tmp_path / "v.txt", text)
        legacy_graph, legacy_map = read_edge_list_per_line(source)
        chunk_graph, chunk_map = read_edge_list(source)
        assert chunk_graph == legacy_graph
        assert chunk_map == legacy_map
        assert chunk_graph._adj == legacy_graph._adj  # byte-identical order

    def test_malformed_raises_both_routes(self, tmp_path):
        source = _write(tmp_path / "m.txt", "1 2\n42\n")
        with pytest.raises(GraphError) as oracle:
            read_edge_list_per_line(source)
        with pytest.raises(GraphError) as excinfo:
            read_edge_list(source)
        # The error quotes the file, the line number and the line.
        assert f"{source}:2:" in str(excinfo.value)
        assert "'42'" in str(excinfo.value)
        assert str(excinfo.value) == str(oracle.value)

    def test_id_beyond_int64_raises(self, tmp_path):
        source = _write(tmp_path / "o.txt", "1 2\n99999999999999999999 3\n")
        with pytest.raises(GraphError, match=r":2: invalid node id"):
            read_edge_list(source)

    @pytest.mark.parametrize("chunk_bytes", [1, 5, 16, 1 << 20])
    def test_malformed_line_number_across_chunks(self, tmp_path, chunk_bytes):
        lines = ["# head", "1 2", "", "3 4\r", "% c", "5 6 7", "8 9"] * 4
        source = _write(tmp_path / "n.txt", "\n".join(lines + ["42", "1 2"]) + "\n")
        with pytest.raises(GraphError, match=rf":{len(lines) + 1}: expected 'u v'"):
            list(iter_edge_blocks(source, chunk_bytes=chunk_bytes))


class TestIngestCLI:
    def test_ingest_smoke(self, tmp_path, capsys):
        source = _write(tmp_path / "cli.txt", "1 2\n2 3\n3 1\n9 8\n")
        out_dir = tmp_path / "cli.mmap"
        code = main(
            ["ingest", str(source), "--out", str(out_dir), "--max-memory", "64"]
        )
        assert code == 0
        assert "3 nodes / 3 edges" in capsys.readouterr().out
        graph = MmapCSRGraph.load(out_dir)
        assert graph.num_nodes == 3 and graph.num_edges == 3

    def test_ingest_no_lcc(self, tmp_path, capsys):
        source = _write(tmp_path / "cli2.txt", "1 2\n2 3\n3 1\n9 8\n")
        out_dir = tmp_path / "cli2.mmap"
        assert main(["ingest", str(source), "--out", str(out_dir), "--no-lcc"]) == 0
        assert MmapCSRGraph.load(out_dir).num_nodes == 5
