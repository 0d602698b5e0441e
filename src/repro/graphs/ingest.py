"""Streaming SNAP/KONECT edge-list ingestion with bounded memory.

:func:`ingest_edge_list` turns a raw edge-list dump (plain or ``.gz``)
into the memory-mapped CSR layout of :mod:`repro.graphs.mmap` without
ever holding the edge list in Python objects — the working set is a
handful of numpy blocks whose sizes derive from ``max_memory_mb``, so a
1e8-edge snapshot ingests in the same footprint as a 1e6-edge one
(log-structured spill-and-merge in the LogBase spirit: sequential
appends, sequential merges, no in-place anything).

Pipeline (each phase streams; ``O(n)`` node-indexed arrays are the only
RAM proportional to the graph, never ``O(m)``):

1. **Parse** — chunked binary reads split at newline boundaries;
   comment filtering only when a ``#``/``%`` byte is present; a block
   whose lines all have the file's column count converts per-block via
   ``np.array(tokens, dtype=np.int64)``, any other block line by line.  Each
   undirected edge becomes one canonical ``uint64`` key
   ``min(u,v) << 32 | max(u,v)`` (node ids must fit 32 bits — SNAP ids
   do).  Keys accumulate into a bounded run buffer; full buffers are
   sorted, deduplicated and spilled to disk as sorted *runs*.
2. **Merge** — a k-way vectorized merge over the runs emits the
   globally sorted, duplicate-free edge stream.  Correctness of
   block-local dedupe: every emitted block is bounded by the minimum
   over still-unread runs of their last buffered key, and any unread
   key exceeds that bound, so all copies of a key land in one block.
   The pass also collects the sorted unique node-id array (periodically
   compacted so the scratch stays bounded).
3. **Relabel** — ids map to their rank via ``np.searchsorted`` on the
   node array; the map is monotone, so the stream *stays sorted*.
4. **LCC** (optional) — minimum-label propagation with pointer-jumping
   compression: repeated streaming passes over the edge file until a
   fixpoint, standard array-based union-find without per-edge Python.
5. **CSR write** — surviving edges are compacted to final contiguous
   ids; both directed orientations are packed as ``row << 32 | col``
   keys and external-sorted exactly like phase 1-2 (no dedupe needed —
   directed keys are unique); the merged stream *is* the CSR ``indices``
   array in row order, written sequentially with a running CRC32.
   Degrees come from per-block ``bincount``; ``indptr`` is their
   cumsum.  The header is written last.

Throughput on this container: ~2-3e6 edges/s parse-to-CSR for 2-column
files (see ``benchmarks/bench_outofcore.py``), comfortably above the
1e6 edges/s target; peak RSS tracks ``max_memory_mb`` plus the ``O(n)``
arrays.
"""

from __future__ import annotations

import gzip
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .csr import GraphError, sorted_unique
from .mmap import write_array, write_header

PathLike = Union[str, Path]

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(32)
_MAX_ID = 1 << 32
_INT64 = range(-(1 << 63), 1 << 63)

#: Default ingest memory budget (MB) for spill buffers and merge windows.
DEFAULT_MAX_MEMORY_MB = 1024.0


# ----------------------------------------------------------------------
# Phase 1: chunked parsing
# ----------------------------------------------------------------------
def _open_binary(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _strip_comments(block: bytes) -> bytes:
    """Drop ``#``/``%`` comment lines; cheap no-op when neither byte occurs."""
    if b"#" not in block and b"%" not in block:
        return block
    kept = []
    for line in block.splitlines():
        stripped = line.strip()
        if not stripped or stripped[:1] in (b"#", b"%"):
            continue
        kept.append(line)
    return b"\n".join(kept)


def _line_count(block: bytes) -> int:
    """Lines in a block that stops short of its last line break (a
    trailing ``\r`` is the first half of that break)."""
    breaks = block.count(b"\n")
    if b"\r" in block:
        breaks += block.count(b"\r") - block.count(b"\r\n") - block.endswith(b"\r")
    return breaks + 1


def _line_widths(block: bytes) -> np.ndarray:
    """Token count of every line of ``block`` (0 for a blank line), with
    the whitespace and line breaks of ``bytes.split``/``splitlines``; a
    CRLF only adds a blank line."""
    raw = np.frombuffer(block, dtype=np.uint8)
    space = (raw == 32) | ((raw - np.uint8(9)) < 5)  # space, \t \n \v \f \r
    starts = ~space
    starts[1:] &= space[:-1]
    breaks = np.flatnonzero((raw == 10) | (raw == 13))
    return np.add.reduceat(starts, np.concatenate(([0], breaks)), dtype=np.intp)


def _parse_lines(
    block: bytes, path: PathLike, first_line: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-line fallback for ragged or non-integer-extra-column blocks.

    ``block`` still holds its comment lines and starts at line
    ``first_line`` of the file.  A line with fewer than two tokens or an
    endpoint that is not an int64 integer raises :class:`GraphError`
    quoting the file, the line number and the line.
    """
    us: List[int] = []
    vs: List[int] = []
    for line_no, line in enumerate(block.splitlines(), start=first_line):
        tokens = line.split()
        if not tokens or tokens[0][:1] in (b"#", b"%"):
            continue
        if len(tokens) < 2:
            text = line.strip().decode("ascii", errors="replace")
            raise GraphError(f"{path}:{line_no}: expected 'u v', got {text!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
            if u not in _INT64 or v not in _INT64:
                raise ValueError
            us.append(u)
            vs.append(v)
        except ValueError:
            text = line.strip().decode("ascii", errors="replace")
            raise GraphError(f"{path}:{line_no}: invalid node id in line {text!r}") from None
    return np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)


class _BlockParser:
    """Stateful block-to-arrays parser: remembers the column count of the
    first edge line and how many lines of the file it has consumed."""

    def __init__(self, path: PathLike) -> None:
        self.path = path
        self.ncols: Optional[int] = None
        self.lines = 0

    def parse(self, block: bytes) -> Tuple[np.ndarray, np.ndarray]:
        first_line = self.lines + 1
        self.lines += _line_count(block)
        body = _strip_comments(block)
        tokens = body.split()
        if not tokens:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        widths = _line_widths(body)
        if self.ncols is None:
            self.ncols = int(widths[widths > 0][0])
        ncols = self.ncols
        if ncols < 2 or not ((widths == 0) | (widths == ncols)).all():
            # A line of another width (or a one-column file): the slow
            # path raises the precise per-line error or handles it.
            return _parse_lines(block, self.path, first_line)
        try:
            if ncols == 2:
                flat = np.array(tokens, dtype=np.int64)
                return flat[0::2], flat[1::2]
            return (
                np.array(tokens[0::ncols], dtype=np.int64),
                np.array(tokens[1::ncols], dtype=np.int64),
            )
        except (ValueError, OverflowError):
            # Non-integer token somewhere (float weights in the id
            # columns, stray text): re-parse line by line for the exact
            # diagnostic.
            return _parse_lines(block, self.path, first_line)


def iter_edge_blocks(
    path: PathLike, chunk_bytes: int = 1 << 20
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(u, v)`` int64 array blocks from an edge-list file.

    Raw file order, self-loops included — callers filter.  This is the
    shared chunked front-end of :func:`ingest_edge_list` and of
    :func:`repro.graphs.io.read_edge_list`.
    """
    path = Path(path)
    parser = _BlockParser(path)
    carry = b""
    with _open_binary(path) as handle:
        while True:
            data = handle.read(chunk_bytes)
            if not data:
                break
            data = carry + data
            cut = data.rfind(b"\n")
            if cut < 0:
                carry = data
                continue
            carry = data[cut + 1 :]
            block = data[:cut]
            u, v = parser.parse(block)
            if u.size:
                yield u, v
    if carry.strip():
        u, v = parser.parse(carry)
        if u.size:
            yield u, v


# ----------------------------------------------------------------------
# Phases 1-2 support: sorted-run spilling and k-way merge
# ----------------------------------------------------------------------
class _RunWriter:
    """Accumulate uint64 keys; spill sorted (optionally deduped) runs."""

    def __init__(self, directory: Path, run_words: int, prefix: str, dedupe: bool) -> None:
        self.directory = directory
        self.run_words = run_words
        self.prefix = prefix
        self.dedupe = dedupe
        self.paths: List[Path] = []
        self._pending: List[np.ndarray] = []
        self._pending_words = 0

    def add(self, keys: np.ndarray) -> None:
        if not keys.size:
            return
        self._pending.append(keys)
        self._pending_words += keys.size
        if self._pending_words >= self.run_words:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        run = np.sort(np.concatenate(self._pending))
        self._pending = []
        self._pending_words = 0
        if self.dedupe and run.size:
            keep = np.empty(run.size, dtype=bool)
            keep[0] = True
            np.not_equal(run[1:], run[:-1], out=keep[1:])
            run = run[keep]
        out = self.directory / f"{self.prefix}-{len(self.paths):05d}.u64"
        run.tofile(out)
        self.paths.append(out)


def _merge_sorted_runs(
    paths: List[Path], budget_bytes: int, dedupe: bool
) -> Iterator[np.ndarray]:
    """K-way merge of sorted uint64 run files into sorted output blocks.

    With ``dedupe`` every key appears once globally.  The block bound is
    the min over *still-unread* runs of their last buffered key; any key
    not yet read exceeds its run's buffered maximum, hence the bound, so
    no key (or duplicate of one) can straddle two emitted blocks.
    """
    k = len(paths)
    if not k:
        return
    # Upper cap: read() preallocates its full request, so GB-sized asks
    # from a generous budget would thrash the allocator for no benefit.
    per_words = min(max(1 << 16, budget_bytes // (16 * k)), 8 << 20)
    handles = [open(p, "rb") for p in paths]
    try:
        bufs = [np.empty(0, dtype=np.uint64) for _ in range(k)]
        done = [False] * k
        while True:
            for i in range(k):
                if not bufs[i].size and not done[i]:
                    data = handles[i].read(per_words * 8)
                    if data:
                        bufs[i] = np.frombuffer(data, dtype=np.uint64)
                    else:
                        done[i] = True
            active = [i for i in range(k) if bufs[i].size]
            if not active:
                return
            pending = [i for i in active if not done[i]]
            take: List[np.ndarray] = []
            if pending:
                bound = min(bufs[i][-1] for i in pending)
                for i in active:
                    cut = int(np.searchsorted(bufs[i], bound, side="right"))
                    if cut:
                        take.append(bufs[i][:cut])
                        bufs[i] = bufs[i][cut:]
            else:
                for i in active:
                    take.append(bufs[i])
                    bufs[i] = np.empty(0, dtype=np.uint64)
            if len(take) == 1:
                merged = take[0]
            else:
                merged = np.sort(np.concatenate(take))
            if dedupe and merged.size:
                keep = np.empty(merged.size, dtype=bool)
                keep[0] = True
                np.not_equal(merged[1:], merged[:-1], out=keep[1:])
                merged = merged[keep]
            if merged.size:
                yield merged
    finally:
        for handle in handles:
            handle.close()


def _iter_u64_file(path: Path, words: int) -> Iterator[np.ndarray]:
    with open(path, "rb") as handle:
        while True:
            data = handle.read(words * 8)
            if not data:
                return
            yield np.frombuffer(data, dtype=np.uint64)


def _pack(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u.astype(np.uint64) << _SHIFT) | v.astype(np.uint64)


def _unpack(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return (keys >> _SHIFT).astype(np.int64), (keys & _MASK32).astype(np.int64)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class IngestReport:
    """What one :func:`ingest_edge_list` run did (all counts exact)."""

    source: str
    out_dir: str
    nodes: int = 0
    edges: int = 0
    parsed_edges: int = 0
    self_loops: int = 0
    duplicate_edges: int = 0
    components: int = 0
    lcc: bool = True
    dropped_nodes: int = 0
    dropped_edges: int = 0
    elapsed_seconds: float = 0.0
    edges_per_second: float = field(default=0.0)

    def summary(self) -> str:
        line = (
            f"{self.source}: {self.parsed_edges} lines -> "
            f"{self.nodes} nodes / {self.edges} edges "
            f"({self.self_loops} self-loops, {self.duplicate_edges} dups dropped"
        )
        if self.lcc:
            line += (
                f"; LCC kept of {self.components} components, "
                f"-{self.dropped_nodes} nodes/-{self.dropped_edges} edges"
            )
        line += (
            f") in {self.elapsed_seconds:.1f}s "
            f"({self.edges_per_second:,.0f} edges/s)"
        )
        return line


def ingest_edge_list(
    path: PathLike,
    out_dir: PathLike,
    *,
    lcc: bool = True,
    max_memory_mb: float = DEFAULT_MAX_MEMORY_MB,
    progress: Optional[Callable[[str], None]] = None,
) -> IngestReport:
    """Stream an edge-list file into the memory-mapped CSR layout.

    Parameters
    ----------
    path:
        Plain or gzipped whitespace-separated edge list (``#``/``%``
        comments allowed; extra columns ignored).  Node ids must be in
        ``[0, 2**32)``.
    out_dir:
        Destination directory for the
        :class:`~repro.graphs.mmap.MmapCSRGraph` layout (created if
        missing; spill scratch lives in a ``_spill`` subdirectory that
        is removed on exit).
    lcc:
        Restrict to the largest connected component (the paper's Table 5
        preprocessing) and relabel to contiguous ids.
    max_memory_mb:
        Budget for parse/spill/merge buffers.  ``O(n)`` node-indexed
        arrays (node ids, union-find labels, degrees) sit on top of it.
    progress:
        Optional callable receiving one line per phase.

    Returns the :class:`IngestReport`; open the result with
    ``CSRGraph.load(out_dir)``.
    """
    t0 = time.perf_counter()
    path = Path(path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spill = out_dir / "_spill"
    if spill.exists():
        shutil.rmtree(spill)
    spill.mkdir()
    say = progress or (lambda message: None)
    budget = max(int(max_memory_mb * 1024 * 1024), 8 << 20)
    # ~1MB parse chunks: bytes.split and token->int64 conversion are
    # measurably (~2x) faster when the chunk and its token list stay
    # cache-resident; bigger chunks only add allocator churn.
    chunk_bytes = min(1 << 20, max(1 << 18, budget // 16))
    run_words = min(max(1 << 16, budget // 32), 32 << 20)
    stream_words = min(max(1 << 16, budget // 64), 8 << 20)
    report = IngestReport(source=str(path), out_dir=str(out_dir), lcc=lcc)

    try:
        # -------------------------------------------------- parse + spill
        runs = _RunWriter(spill, run_words, "edge", dedupe=True)
        max_id = -1
        for u, v in iter_edge_blocks(path, chunk_bytes):
            report.parsed_edges += u.size
            lo = int(min(u.min(), v.min()))
            hi = int(max(u.max(), v.max()))
            if lo < 0 or hi >= _MAX_ID:
                raise GraphError(
                    f"{path}: node id {lo if lo < 0 else hi} outside "
                    f"[0, 2**32) — the packed-key ingest layout needs "
                    "32-bit ids; relabel the file first"
                )
            max_id = max(max_id, hi)
            loops = u == v
            n_loops = int(loops.sum())
            if n_loops:
                report.self_loops += n_loops
                keep = ~loops
                u, v = u[keep], v[keep]
            runs.add(_pack(np.minimum(u, v), np.maximum(u, v)))
        runs.flush()
        say(
            f"parsed {report.parsed_edges} lines into {len(runs.paths)} "
            f"sorted runs ({report.self_loops} self-loops dropped)"
        )

        # ------------------------------------------- merge + collect nodes
        # Node collection: a boolean bitmap over the id range when it is
        # small enough (one scatter per block, no hashing); otherwise
        # per-block unique chunks with periodic compaction so scratch
        # stays bounded even for sparse 32-bit id spaces.
        edges_raw = spill / "edges-raw.u64"
        unique_edges = 0
        # Gate so the bitmap and its derived rank table stay within the
        # budget: the int64 rank table is 8 bytes per id-space slot.
        bitmap = (
            np.zeros(max_id + 2, dtype=bool)
            if 0 <= max_id + 2 <= max(budget // 8, 8 << 20)
            else None
        )
        node_chunks: List[np.ndarray] = []
        node_words = 0
        compact_cap = max(1 << 20, budget // 64)
        with open(edges_raw, "wb") as out:
            for block in _merge_sorted_runs(runs.paths, budget, dedupe=True):
                unique_edges += block.size
                block.tofile(out)
                u, v = _unpack(block)
                if bitmap is not None:
                    bitmap[u] = True
                    bitmap[v] = True
                else:
                    node_chunks.append(sorted_unique(np.concatenate([u, v])))
                    node_words += node_chunks[-1].size
                    if node_words > compact_cap and len(node_chunks) > 1:
                        node_chunks = [sorted_unique(np.concatenate(node_chunks))]
                        node_words = node_chunks[0].size
        for run_path in runs.paths:
            run_path.unlink()
        if bitmap is not None:
            # Rank table: rank[x] = contiguous id of original id x — an
            # O(1) gather per endpoint instead of a binary search.
            rank = np.cumsum(bitmap, dtype=np.int64) - 1
            n = int(rank[-1]) + 1
            contiguous = n > 0 and bitmap[n - 1] and n == max_id + 1
            bitmap = None

            def relabel(ids: np.ndarray) -> np.ndarray:
                return rank[ids]

        else:
            if node_chunks:
                nodes = sorted_unique(np.concatenate(node_chunks))
            else:
                nodes = np.empty(0, dtype=np.int64)
            n = int(nodes.size)
            contiguous = n > 0 and int(nodes[-1]) == n - 1

            def relabel(ids: np.ndarray) -> np.ndarray:
                return np.searchsorted(nodes, ids)

        report.duplicate_edges = (
            report.parsed_edges - report.self_loops - unique_edges
        )
        say(f"merged to {unique_edges} unique edges over {n} nodes")

        # ------------------------------------------------------- relabel
        # The rank map is monotone, so the sorted edge stream stays
        # sorted after relabeling.  Already-contiguous files (ids
        # exactly 0..n-1, common for pre-cleaned dumps and generated
        # benchmarks) skip the rewrite pass.
        if contiguous:
            edges_rel = edges_raw
        else:
            edges_rel = spill / "edges.u64"
            with open(edges_rel, "wb") as out:
                for block in _iter_u64_file(edges_raw, stream_words):
                    u, v = _unpack(block)
                    _pack(relabel(u), relabel(v)).tofile(out)
            edges_raw.unlink()

        # ----------------------------------------------------------- LCC
        if lcc and n:
            parent = np.arange(n, dtype=np.int64)
            passes = 0
            while True:
                before = parent.copy()
                for block in _iter_u64_file(edges_rel, stream_words):
                    u, v = _unpack(block)
                    low = np.minimum(parent[u], parent[v])
                    np.minimum.at(parent, u, low)
                    np.minimum.at(parent, v, low)
                while True:
                    jumped = parent[parent]
                    if np.array_equal(jumped, parent):
                        break
                    parent = jumped
                passes += 1
                if np.array_equal(parent, before):
                    break
            roots, sizes = np.unique(parent, return_counts=True)
            report.components = int(roots.size)
            keep = parent == roots[int(np.argmax(sizes))]
            say(
                f"union-find converged in {passes} passes: "
                f"{roots.size} components, keeping {int(keep.sum())} nodes"
            )
        else:
            keep = np.ones(n, dtype=bool)
            report.components = 1 if n else 0

        kept_nodes = int(keep.sum())
        identity = kept_nodes == n
        newid = np.cumsum(keep, dtype=np.int64) - 1
        report.dropped_nodes = n - kept_nodes

        # ------------------------------- final ids, degrees, directed sort
        degrees = np.zeros(kept_nodes, dtype=np.int64)
        directed = _RunWriter(spill, run_words // 2 or 1, "dir", dedupe=False)
        final_edges = 0
        for block in _iter_u64_file(edges_rel, stream_words // 2 or 1):
            u, v = _unpack(block)
            if not identity:
                mask = keep[u]
                if not mask.all():
                    u, v = u[mask], v[mask]
                if not u.size:
                    continue
                u, v = newid[u], newid[v]
            final_edges += u.size
            degrees += np.bincount(u, minlength=kept_nodes)
            degrees += np.bincount(v, minlength=kept_nodes)
            directed.add(_pack(u, v))
            directed.add(_pack(v, u))
        directed.flush()
        edges_rel.unlink()
        report.nodes = kept_nodes
        report.edges = final_edges
        report.dropped_edges = unique_edges - final_edges

        # ------------------------------------------------------ CSR write
        # The merged directed-key stream IS `indices` in CSR row order.
        crc = 0
        written = 0
        with open(out_dir / "indices.bin", "wb") as out:
            for block in _merge_sorted_runs(directed.paths, budget, dedupe=False):
                data = (block & _MASK32).astype("<i8").tobytes()
                out.write(data)
                crc = zlib.crc32(data, crc)
                written += block.size
        if written != 2 * final_edges:
            raise GraphError(
                f"{path}: CSR write produced {written} directed edges, "
                f"expected {2 * final_edges} (ingest invariant violated)"
            )
        indptr = np.zeros(kept_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        checksums = {
            "indices.bin": crc,
            "indptr.bin": write_array(out_dir / "indptr.bin", indptr),
            "degrees.bin": write_array(out_dir / "degrees.bin", degrees),
        }
        write_header(
            out_dir,
            num_nodes=kept_nodes,
            num_indices=written,
            num_edges=final_edges,
            checksums=checksums,
        )
    finally:
        shutil.rmtree(spill, ignore_errors=True)

    report.elapsed_seconds = time.perf_counter() - t0
    report.edges_per_second = (
        report.parsed_edges / report.elapsed_seconds
        if report.elapsed_seconds > 0
        else 0.0
    )
    say(report.summary())
    return report
