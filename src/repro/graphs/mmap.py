"""Memory-mapped CSR graphs: paper-scale adjacency served from disk.

A :class:`~repro.graphs.csr.CSRGraph` is three contiguous ``int64``
arrays.  This module persists them to a directory::

    <dir>/header.json     versioned metadata + dtype + per-file CRC32
    <dir>/indptr.bin      raw little-endian int64, ``n + 1`` words
    <dir>/indices.bin     raw little-endian int64, ``2m`` words
    <dir>/degrees.bin     raw little-endian int64, ``n`` words

and serves them back through :class:`MmapCSRGraph`, whose arrays are
``np.memmap`` views over those files — the OS page cache decides what is
resident, so a 1e8-edge graph opens in milliseconds and walks touch only
the pages the chains actually visit.  Because :class:`MmapCSRGraph` *is*
a ``CSRGraph``, every consumer — the batched walk engine, the fused
G(3) kernel, :class:`~repro.graphs.delta.DeltaCSRGraph` overlays, the
service daemon — runs unchanged on the disk-backed arrays (tiered
storage in the LSST-design spirit: hot pages in RAM, the full structure
on disk).

Validation discipline
---------------------
``save`` records the byte length and CRC32 of every array in the
header; ``load`` always checks the format marker, layout version, dtype
and file sizes (a truncated array is an immediate
:class:`~repro.graphs.graph.GraphError`, not a silent short graph), and
verifies checksums when asked (``verify=True``) or — the default — when
the files are small enough that the full read is cheap.  Pass
``verify=False`` to skip checksums on re-attach hot paths (worker
processes re-opening a directory the parent just validated).

RAM footprint caveats
---------------------
The graph *structure* stays on disk, but its derived lookup tables
(:mod:`repro.graphs.tables`) materialize in RAM on first use: the
``has_edges`` probe-key table (8 bytes per directed edge, built lazily
by batched window classification) and its probe filter (2.5–5 bytes
per directed edge) and, once a fused G(3) walk runs,
the triangle table plus a memory-gated adjacency bitmap.  They are
documented working sets of the vectorized fast paths, not leaks.
"""

from __future__ import annotations

import atexit
import json
import shutil
import tempfile
import zlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .csr import CSRGraph, GraphError

PathLike = Union[str, Path]

#: ``header.json`` format marker and current layout version.
FORMAT = "repro-mmap-csr"
VERSION = 1

HEADER_NAME = "header.json"
ARRAY_FILES = ("indptr.bin", "indices.bin", "degrees.bin")

_DTYPE = np.dtype("<i8")

#: ``verify="auto"`` reads arrays back for checksumming only below this
#: many total bytes; larger graphs get size/dtype validation only (a
#: full-checksum pass over 1e8 edges would dwarf the open itself).
AUTO_VERIFY_CAP = 256 * 1024 * 1024

_CRC_CHUNK = 8 * 1024 * 1024


def _crc32_file(path: Path) -> int:
    crc = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_CRC_CHUNK)
            if not block:
                break
            crc = zlib.crc32(block, crc)
    return crc


def write_array(path: Path, array: np.ndarray) -> int:
    """Stream ``array`` to ``path`` as little-endian int64; return CRC32.

    Chunked so a memmap (or shared-memory) source never materializes in
    RAM: each block is converted and written independently.
    """
    crc = 0
    step = _CRC_CHUNK // _DTYPE.itemsize
    with open(path, "wb") as handle:
        for start in range(0, array.size, step) or (0,):
            block = np.ascontiguousarray(array[start : start + step], dtype=_DTYPE)
            data = block.tobytes()
            handle.write(data)
            crc = zlib.crc32(data, crc)
    return crc


def write_header(
    directory: Path,
    *,
    num_nodes: int,
    num_indices: int,
    num_edges: int,
    checksums: dict,
) -> None:
    """Write ``header.json`` — always the LAST step of producing a layout,
    so its presence certifies the array files are complete."""
    header = {
        "format": FORMAT,
        "version": VERSION,
        "dtype": _DTYPE.str,
        "num_nodes": int(num_nodes),
        "num_indices": int(num_indices),
        "num_edges": int(num_edges),
        "checksums": checksums,
    }
    with open(Path(directory) / HEADER_NAME, "w") as handle:
        json.dump(header, handle, indent=2, sort_keys=True)
        handle.write("\n")


def save_csr(graph: CSRGraph, directory: PathLike) -> Path:
    """Persist a CSR graph's arrays into ``directory`` (created if
    missing); returns the directory path.

    The header is written *last*, so a crash mid-save leaves a directory
    :meth:`MmapCSRGraph.load` rejects outright rather than a plausible
    but corrupt graph.
    """
    if not isinstance(graph, CSRGraph):
        raise GraphError(
            f"save_csr needs a CSRGraph, got {type(graph).__name__}; "
            "convert with CSRGraph.from_graph first"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {
        "indptr.bin": np.asarray(graph.indptr),
        "indices.bin": np.asarray(graph.indices),
        "degrees.bin": np.asarray(graph.degrees_array),
    }
    checksums = {}
    for name, array in arrays.items():
        checksums[name] = write_array(directory / name, array)
    write_header(
        directory,
        num_nodes=graph.num_nodes,
        num_indices=int(graph.indices.size),
        num_edges=graph.num_edges,
        checksums=checksums,
    )
    return directory


def is_mmap_dir(directory: PathLike) -> bool:
    """Whether ``directory`` looks like a saved CSR layout (has a header)."""
    return (Path(directory) / HEADER_NAME).is_file()


def _load_header(directory: Path) -> dict:
    path = directory / HEADER_NAME
    if not path.is_file():
        raise GraphError(
            f"{directory} is not a saved CSR graph: missing {HEADER_NAME} "
            "(was the save interrupted?)"
        )
    try:
        with open(path) as handle:
            header = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphError(f"{path}: unreadable header: {exc}") from None
    if header.get("format") != FORMAT:
        raise GraphError(
            f"{path}: format marker {header.get('format')!r} is not {FORMAT!r}"
        )
    if header.get("version") != VERSION:
        raise GraphError(
            f"{path}: layout version {header.get('version')!r} is not "
            f"supported (this build reads version {VERSION}); re-ingest "
            "the source edge list"
        )
    if header.get("dtype") != _DTYPE.str:
        raise GraphError(
            f"{path}: dtype {header.get('dtype')!r} is not {_DTYPE.str!r}"
        )
    return header


class MmapCSRGraph(CSRGraph):
    """A read-only :class:`CSRGraph` whose arrays are ``np.memmap`` views.

    Build with :meth:`load` (the only supported constructor).  Pickling
    serializes just the directory path and re-opens on unpickle, so a
    memory-mapped graph crosses process boundaries for free — worker
    pools share the page cache instead of copying arrays.
    """

    __slots__ = ("directory",)

    def __init__(
        self,
        directory: Path,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
    ) -> None:
        # Bypass CSRGraph.__init__: it would re-derive degrees (an O(n)
        # RAM allocation) and run full-array validation; the header's
        # size/checksum checks already vouch for the files.  Only the
        # two O(1) structural probes stay.
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphError(
                f"{directory}: indptr does not describe indices "
                f"(ends at {int(indptr[-1]) if indptr.size else 'nothing'}, "
                f"indices holds {indices.size})"
            )
        self.indptr = indptr
        self.indices = indices
        self._degrees = degrees
        self._num_edges = indices.size // 2
        self._nset_cache = {}
        self._tables = None
        self.directory = directory

    @classmethod
    def load(
        cls, directory: PathLike, verify: Union[bool, str] = "auto"
    ) -> "MmapCSRGraph":
        """Open a directory written by :func:`save_csr` / ``CSRGraph.save``.

        ``verify`` — ``True`` always checksums every array, ``False``
        never does, ``"auto"`` (default) checksums when the total size
        is under :data:`AUTO_VERIFY_CAP`.  Size, dtype and version are
        validated unconditionally; any mismatch raises
        :class:`GraphError` naming the offending file.
        """
        directory = Path(directory)
        header = _load_header(directory)
        n = int(header["num_nodes"])
        nnz = int(header["num_indices"])
        lengths = {"indptr.bin": n + 1, "indices.bin": nnz, "degrees.bin": n}
        total_bytes = sum(lengths.values()) * _DTYPE.itemsize
        if verify == "auto":
            verify = total_bytes <= AUTO_VERIFY_CAP
        checksums = header.get("checksums", {})
        views = {}
        for name, words in lengths.items():
            path = directory / name
            expected = words * _DTYPE.itemsize
            actual = path.stat().st_size if path.is_file() else -1
            if actual != expected:
                raise GraphError(
                    f"{path}: expected {expected} bytes "
                    f"({words} int64 words) but found "
                    f"{'no file' if actual < 0 else actual}; the array is "
                    "truncated or the header is stale — re-ingest"
                )
            if verify:
                found = _crc32_file(path)
                want = checksums.get(name)
                if want is not None and found != want:
                    raise GraphError(
                        f"{path}: checksum mismatch (header records "
                        f"{want}, file hashes to {found}); the array is "
                        "corrupted — re-ingest"
                    )
            views[name] = (
                np.memmap(path, dtype=_DTYPE, mode="r", shape=(words,))
                if words
                else np.empty(0, dtype=np.int64)
            )
        return cls(
            directory,
            views["indptr.bin"],
            views["indices.bin"],
            views["degrees.bin"],
        )

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def copy(self) -> CSRGraph:
        """Private in-RAM deep copy of the adjacency arrays."""
        return CSRGraph(np.array(self.indptr), np.array(self.indices))

    def __reduce__(self):
        # Re-open from the directory on unpickle: the parent validated
        # the files already, so attachers skip the checksum pass.
        return (_reattach, (str(self.directory),))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MmapCSRGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, directory={str(self.directory)!r})"
        )


def _reattach(directory: str) -> MmapCSRGraph:
    return MmapCSRGraph.load(directory, verify=False)


# ----------------------------------------------------------------------
# as_backend(graph, "mmap") support: spill an in-RAM graph to a
# process-lifetime temp directory.  The directories are torn down at
# interpreter exit; long-lived layouts belong in an explicit save dir.
# ----------------------------------------------------------------------
_TEMP_DIRS = []


def _cleanup_temp_dirs() -> None:  # pragma: no cover - exit hook
    while _TEMP_DIRS:
        shutil.rmtree(_TEMP_DIRS.pop(), ignore_errors=True)


atexit.register(_cleanup_temp_dirs)


def to_mmap(graph, directory: Optional[PathLike] = None) -> MmapCSRGraph:
    """Materialize ``graph`` as a :class:`MmapCSRGraph`.

    Already-mmap graphs are returned unchanged.  With ``directory`` the
    layout lands there (and persists); without, it goes to a temp
    directory that lives until process exit — the ``as_backend(g,
    "mmap")`` conversion path, useful for tests and for forcing the
    disk-backed code path on a graph built in RAM.
    """
    if isinstance(graph, MmapCSRGraph) and directory is None:
        return graph
    csr = CSRGraph.from_graph(graph)
    if directory is None:
        directory = tempfile.mkdtemp(prefix="repro-mmap-")
        _TEMP_DIRS.append(directory)
    save_csr(csr, directory)
    return MmapCSRGraph.load(directory, verify=False)
