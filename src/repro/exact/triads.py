"""Exact 3-node statistics via closed-form combinatorics.

Independent of the ESU enumerator (and much faster): triangles by
vectorized sorted-adjacency intersection over CSR arrays, wedges from
degrees.  These cross-validate :mod:`.enumerate` and power the
clustering-coefficient application from §2.1.

The census kernel (:func:`edge_triangle_counts`) orients every
undirected edge toward its smaller-degree endpoint, so the total probe
work is ``sum(min(d_u, d_v))`` instead of ``sum(d^2)`` — a decade less
on hub-heavy graphs — and batches the membership probes through one
``searchsorted`` per chunk.  The same kernel feeds two consumers: the
exact-truth functions here and the graph-owned triangle table the fused
G(3) walk kernel reads (:mod:`repro.graphs.tables`), one census for
both.

:func:`triad_census` additionally fans the canonical-edge range over a
process pool in work-balanced blocks (``jobs=N``), with deterministic
merging — exact k=3 ground truth on ``medium``/``large`` dataset tiers.
Workers receive the graph itself as :func:`repro.graphs.shared.published`
yields it, so arrays never cross by pickle: shared and memory-mapped
graphs pickle by reference, any other CSR graph is copied into a POSIX
shared-memory segment for the pool's lifetime.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graphs.csr import CSRGraph, sorted_unique
from ..graphs.shared import published

#: Probe budget per vectorized intersection chunk; bounds the scratch
#: arrays (candidate gather, composite keys, positions) to ~20 MB.
TRI_CHUNK = 500_000

#: Canonical-edge blocks handed out per worker: several small blocks
#: beat one big one because probe work is skewed toward hub edges.
_BLOCKS_PER_JOB = 4


# ----------------------------------------------------------------------
# Core kernel: per-directed-edge triangle counts on CSR arrays
# ----------------------------------------------------------------------
def _canonical_edges(
    rows: np.ndarray, indices: np.ndarray, degs: np.ndarray
) -> np.ndarray:
    """Positions of the canonical copy of each undirected edge: the
    directed edge leaving the smaller-degree endpoint (ties by id)."""
    du = degs[rows]
    dv = degs[indices]
    return np.flatnonzero((du < dv) | ((du == dv) & (rows < indices)))


def _probe_counts(
    indptr: np.ndarray,
    indices: np.ndarray,
    keys: np.ndarray,
    stride: np.int64,
    cu: np.ndarray,
    cv: np.ndarray,
    sizes_all: np.ndarray,
    chunk: int,
) -> np.ndarray:
    """``|N(u) ∩ N(v)|`` for each canonical edge ``(cu[i], cv[i])``.

    Probes every neighbor of the smaller-degree endpoint ``u`` against
    the sorted composite-key table (``row * stride + col``) of the whole
    graph, chunked so no scratch array exceeds ~``chunk`` probes.
    """
    counts = np.empty(cu.size, dtype=np.int64)
    csum = np.cumsum(sizes_all)
    start = 0
    while start < cu.size:
        base = int(csum[start - 1]) if start else 0
        stop = int(np.searchsorted(csum, base + chunk)) + 1
        stop = min(max(stop, start + 1), cu.size)
        u = cu[start:stop]
        v = cv[start:stop]
        sizes = sizes_all[start:stop]
        total = int(sizes.sum())
        first = np.repeat(np.cumsum(sizes) - sizes, sizes)
        offs = np.repeat(indptr[u], sizes) + np.arange(total, dtype=np.int64) - first
        cand = indices[offs]
        probe = np.repeat(v, sizes) * stride + cand
        pos = np.searchsorted(keys, probe)
        np.minimum(pos, keys.size - 1, out=pos)
        hits = keys[pos] == probe
        edge_of = np.repeat(np.arange(stop - start, dtype=np.int64), sizes)
        counts[start:stop] = np.bincount(edge_of[hits], minlength=stop - start)
        start = stop
    return counts


def edge_triangle_counts(
    indptr: np.ndarray,
    indices: np.ndarray,
    *,
    degs: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
    keys: Optional[np.ndarray] = None,
    chunk: int = TRI_CHUNK,
) -> np.ndarray:
    """Number of triangles through each *directed* CSR edge.

    Returns an ``int64`` array aligned with ``indices``: entry ``i`` is
    ``|N(u) ∩ N(v)|`` for the directed edge ``u -> indices[i]`` (with
    ``u`` the row containing slot ``i``).  Each undirected edge appears
    twice, so ``result.sum() == 6 * triangles``.

    ``degs``/``rows``/``keys`` accept precomputed tables (``keys`` must
    be the sorted composite keys ``rows * (n + 1) + indices`` *without*
    any sentinel padding) so callers that already hold them — a graph's
    lookup tables — skip the rebuild.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = indptr.size - 1
    tri = np.zeros(indices.size, dtype=np.int64)
    if indices.size == 0:
        return tri
    if degs is None:
        degs = np.diff(indptr)
    if rows is None:
        rows = np.repeat(np.arange(n, dtype=np.int64), degs)
    stride = np.int64(n + 1)
    if keys is None:
        keys = rows * stride + indices
    canon = _canonical_edges(rows, indices, degs)
    if canon.size == 0:
        return tri
    cu = rows[canon]
    cv = indices[canon]
    counts = _probe_counts(indptr, indices, keys, stride, cu, cv, degs[cu], chunk)
    tri[canon] = counts
    # Mirror onto the reverse directed edges (rank of u in row v).
    tri[np.searchsorted(keys, cv * stride + cu)] = counts
    return tri


# ----------------------------------------------------------------------
# Parallel blocked census
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TriadCensus:
    """Exact triangle/wedge totals — everything k=3 truth derives from."""

    triangles: int
    wedges: int

    def counts(self) -> Dict[int, int]:
        """Induced 3-node graphlet counts in catalog order (0 = open
        wedge, 1 = triangle); each triangle closes three wedges."""
        return {0: self.wedges - 3 * self.triangles, 1: self.triangles}

    def concentrations(self) -> Dict[int, float]:
        counts = self.counts()
        total = counts[0] + counts[1]
        if total == 0:
            raise ValueError("graph has no connected 3-node subgraphs")
        return {0: counts[0] / total, 1: counts[1] / total}

    @property
    def clustering_coefficient(self) -> float:
        if self.wedges == 0:
            raise ValueError("graph has no wedges")
        return 3 * self.triangles / self.wedges


def _work_blocks(work: np.ndarray, num_blocks: int) -> List[Tuple[int, int]]:
    """Split canonical-edge index space into ranges of ~equal probe work."""
    if work.size == 0:
        return []
    csum = np.cumsum(work)
    total = int(csum[-1])
    targets = (np.arange(1, num_blocks, dtype=np.int64) * total) // num_blocks
    cuts = np.searchsorted(csum, targets, side="left")
    bounds = sorted_unique(np.concatenate([[0], cuts, [work.size]]))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


#: Per-worker census tables, built once by the pool initializer.
_WORKER_TABLES = None


def _census_init(graph: CSRGraph, chunk: int) -> None:
    """Pool initializer: build the probe tables once.  Every worker
    derives the identical canonical-edge order from the same arrays, so
    block indices shipped from the parent address the same edges."""
    global _WORKER_TABLES
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    indices = np.asarray(graph.indices, dtype=np.int64)
    n = indptr.size - 1
    degs = np.diff(indptr)
    rows = np.repeat(np.arange(n, dtype=np.int64), degs)
    stride = np.int64(n + 1)
    keys = rows * stride + indices
    canon = _canonical_edges(rows, indices, degs)
    cu = rows[canon]
    cv = indices[canon]
    # ``graph`` rides along to pin the shared segment / mmap open: the
    # array views above do not keep a SharedMemory mapping alive on
    # their own, and a GC'd attacher unmaps the pages under them.
    _WORKER_TABLES = (indptr, indices, keys, stride, cu, cv, degs[cu], chunk, graph)


def _census_block(block: Tuple[int, int]) -> Tuple[int, int]:
    """Sum of per-edge triangle counts over one canonical-edge range."""
    start, stop = block
    indptr, indices, keys, stride, cu, cv, sizes, chunk, _graph = _WORKER_TABLES
    counts = _probe_counts(
        indptr,
        indices,
        keys,
        stride,
        cu[start:stop],
        cv[start:stop],
        sizes[start:stop],
        chunk,
    )
    return start, int(counts.sum())


def triad_census(graph, *, jobs: int = 1, chunk: int = TRI_CHUNK) -> TriadCensus:
    """Exact triangle and wedge totals via the blocked CSR census.

    ``jobs > 1`` fans work-balanced canonical-edge blocks over a process
    pool; results are integers summed in deterministic block order, so
    ``jobs=N`` is exactly ``jobs=1`` — verified in the test suite
    together with a pure-Python reference count.
    """
    csr = _as_csr(graph)
    degs = csr.degrees_array
    wedges = int((degs * (degs - 1) // 2).sum())
    indptr = np.asarray(csr.indptr, dtype=np.int64)
    indices = np.asarray(csr.indices, dtype=np.int64)
    if indices.size == 0:
        return TriadCensus(triangles=0, wedges=wedges)
    n = indptr.size - 1
    degs = np.asarray(degs, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), degs)
    canon = _canonical_edges(rows, indices, degs)
    if canon.size == 0:
        return TriadCensus(triangles=0, wedges=wedges)
    cu = rows[canon]
    work = degs[cu]
    if jobs <= 1:
        stride = np.int64(n + 1)
        keys = rows * stride + indices
        counts = _probe_counts(
            indptr, indices, keys, stride, cu, indices[canon], work, chunk
        )
        return TriadCensus(triangles=int(counts.sum()) // 3, wedges=wedges)

    blocks = _work_blocks(work, num_blocks=_BLOCKS_PER_JOB * jobs)
    ctx = multiprocessing.get_context()
    with published(csr) as shipped, ctx.Pool(
        processes=jobs, initializer=_census_init, initargs=(shipped, chunk)
    ) as pool:
        partials = sorted(pool.imap_unordered(_census_block, blocks))
    total = sum(subtotal for _, subtotal in partials)
    return TriadCensus(triangles=total // 3, wedges=wedges)


# ----------------------------------------------------------------------
# Public per-statistic API (CSR fast paths)
# ----------------------------------------------------------------------
def _as_csr(graph) -> CSRGraph:
    return graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)


def triangle_count(graph, *, jobs: int = 1) -> int:
    """Number of triangles (blocked CSR census; see :func:`triad_census`)."""
    return triad_census(graph, jobs=jobs).triangles


def triangles_per_edge(graph) -> np.ndarray:
    """Triangles through each *directed* CSR edge of ``graph``.

    Entry ``i`` pairs with slot ``i`` of ``CSRGraph.from_graph(graph)``'s
    ``indices`` array (for a CSR input, its own ``indices``) — the same
    directed-edge order as the fused walk kernel's triangle table.  Each
    undirected edge appears twice, so the array sums to ``6 * triangles``.
    """
    csr = _as_csr(graph)
    return edge_triangle_counts(csr.indptr, csr.indices)


def triangles_per_node(graph) -> List[int]:
    """Number of triangles incident to each node."""
    csr = _as_csr(graph)
    tri = edge_triangle_counts(csr.indptr, csr.indices)
    n = csr.num_nodes
    if tri.size == 0:
        return [0] * n
    rows = np.repeat(np.arange(n, dtype=np.int64), csr.degrees_array)
    # Each triangle at u covers two of u's incident edges, hence // 2.
    # (bincount weights go through float64: exact below 2**53 counts.)
    per = np.bincount(rows, weights=tri, minlength=n).astype(np.int64) // 2
    return per.tolist()


def wedge_count(graph) -> int:
    """Total number of wedges (paths of length 2, closed or open):
    ``sum_v C(d_v, 2)``."""
    degs = getattr(graph, "degrees_array", None)
    if degs is not None:
        degs = np.asarray(degs, dtype=np.int64)
        return int((degs * (degs - 1) // 2).sum())
    return sum(d * (d - 1) // 2 for d in graph.degrees())


def exact_triad_counts(graph, *, jobs: int = 1) -> Dict[int, int]:
    """Exact induced 3-node graphlet counts in catalog order.

    Index 0 = wedge (open), index 1 = triangle.  Each triangle closes three
    wedges, so induced wedges = total wedges - 3 * triangles.
    """
    return triad_census(graph, jobs=jobs).counts()


def global_clustering_coefficient(graph, *, jobs: int = 1) -> float:
    """Global clustering coefficient 3T / W = 3*c32 / (2*c32 + 1) (§2.1)."""
    return triad_census(graph, jobs=jobs).clustering_coefficient
