"""Edge-list I/O.

Supports the plain whitespace-separated edge-list format used by SNAP /
KONECT dumps (the paper's data sources): one ``u v`` pair per line, ``#``
comments, arbitrary (possibly non-contiguous) integer node ids.  Loading
relabels node ids to ``0 .. n-1`` and returns the mapping.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Dict, IO, Iterable, Tuple, Union

import numpy as np

from .graph import Graph

PathLike = Union[str, Path]


def _open_text(path: PathLike, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")  # type: ignore[return-value]
    return open(path, mode)


def read_edge_list(path: PathLike) -> Tuple[Graph, Dict[int, int]]:
    """Load an edge-list file into a :class:`Graph`.

    Node ids are relabeled to contiguous ``0 .. n-1`` in first-seen
    order, scanning ``u`` then ``v`` per line; self-loops are dropped
    (SNAP dumps occasionally contain them) and duplicate edges
    collapsed.  The file parses through the chunked numpy front end of
    :mod:`repro.graphs.ingest` (plain or ``.gz``); a malformed line
    raises :class:`GraphError` quoting the file, its line number and the
    line.

    Returns
    -------
    (graph, mapping):
        ``mapping`` maps original id -> new id.
    """
    from .ingest import iter_edge_blocks

    u_blocks, v_blocks = [], []
    for u, v in iter_edge_blocks(path):
        keep = u != v
        if not keep.all():
            u, v = u[keep], v[keep]
        if u.size:
            u_blocks.append(u)
            v_blocks.append(v)
    if not u_blocks:
        return Graph(0), {}
    u = np.concatenate(u_blocks)
    v = np.concatenate(v_blocks)
    # Interleaving both columns makes first-seen order recoverable from
    # np.unique's first-occurrence indices.
    flat = np.empty(u.size * 2, dtype=np.int64)
    flat[0::2] = u
    flat[1::2] = v
    uniq, first_pos = np.unique(flat, return_index=True)
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size, dtype=np.int64)
    mapping = {int(old): new for new, old in enumerate(uniq[order].tolist())}
    pairs = rank[np.searchsorted(uniq, flat)].reshape(-1, 2)
    return Graph(uniq.size, pairs), mapping


def write_edge_list(graph: Graph, path: PathLike, header: bool = True) -> None:
    """Write a graph in edge-list format (one ``u v`` per line)."""
    with _open_text(path, "w") as handle:
        if header:
            handle.write(f"# nodes {graph.num_nodes} edges {graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def graph_from_pairs(pairs: Iterable[Tuple[int, int]]) -> Graph:
    """Relabeling constructor for in-memory pairs with arbitrary ids."""
    mapping: Dict[int, int] = {}
    edges = []
    for u, v in pairs:
        if u == v:
            continue
        for x in (u, v):
            if x not in mapping:
                mapping[x] = len(mapping)
        edges.append((mapping[u], mapping[v]))
    return Graph(len(mapping), edges)
