"""Shared-memory CSR graphs: publish once, attach zero-copy everywhere.

A :class:`~repro.graphs.csr.CSRGraph` is three contiguous ``int64``
arrays — ``indptr``, ``indices`` and the derived degree vector.  For a
multi-process serving layer (``repro.service``) or a worker pool
(``repro.experiments.engine``, ``repro.exact.triads``) that is the
*entire* state worth sharing, so instead of pickling the graph into
every worker this module copies the three arrays into one POSIX
shared-memory segment::

    [ indptr (n + 1) | indices (2m) | degrees (n) ]      all int64

and lets any process rebuild a read-only :class:`SharedCSRGraph` view
over the same physical pages from a tiny picklable
:class:`SharedGraphHandle` (segment name + two lengths).  Attaching is
O(1) — two ``mmap`` calls and three ``np.ndarray`` views — regardless of
graph size, and every attached view rides the vectorized walk kernels
unchanged because :class:`SharedCSRGraph` *is* a ``CSRGraph``.

Lifecycle discipline
--------------------
Shared segments outlive processes, so ownership is explicit:

* ``SharedCSRGraph.create(csr)`` (or ``csr.to_shared()``) makes the
  **owner**: it allocates the segment, copies the arrays in, and is
  responsible for :meth:`SharedCSRGraph.unlink` once every attacher is
  done.
* ``SharedCSRGraph.attach(handle)`` (or ``CSRGraph.from_shared(handle)``)
  makes an **attacher**: it maps the existing segment zero-copy.
* :meth:`SharedCSRGraph.close` drops this process's mapping (idempotent;
  double-close is a no-op); :meth:`SharedCSRGraph.unlink` removes the
  segment name system-wide (also idempotent — a second unlink, or an
  unlink racing the resource tracker, is swallowed).

Crash cleanup rides CPython's ``resource_tracker``: one tracker process
serves the whole ``multiprocessing`` tree (fork *and* spawn children
share the parent's tracker fd), its registry is a plain *set* of
segment names, and it unlinks leftovers only when the entire tree has
exited.  Owner and attachers all register the same name (set semantics
make the re-registration a no-op), a SIGKILL'd worker therefore
disturbs nothing, and a crashed owner still leaks nothing — the tracker
sweeps the segment on tree exit.  An orderly :meth:`unlink` removes the
one registration, so clean runs exit silently.  The one layout this
does *not* cover is an attacher in a foreign process tree (its tracker
would unlink the owner's segment when the foreign tree exits) — the
service keeps every attacher inside the daemon's own tree precisely so
the stdlib discipline stays sound.

Pickling a :class:`SharedCSRGraph` serializes only its handle and
unpickles as a fresh attach, so shared graphs can be passed directly
through ``multiprocessing`` plumbing without copying the arrays.

Worker pools
------------
Pools receive the graph itself: :func:`published` yields the object to
hand to the pool initializer.
Shared and memory-mapped graphs pickle by reference (a segment handle,
a directory path), so they cross as they are; any other CSR graph is
copied into a segment for the pool's lifetime; a list :class:`Graph`
is inherited by fork workers and unpickled once per spawn worker.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from multiprocessing import shared_memory
from typing import Iterator, Optional

import numpy as np

from .csr import CSRGraph
from .graph import GraphError
from .mmap import MmapCSRGraph

#: Prefix of every segment this module creates; the test suite (and the
#: CI leak check) sweep ``/dev/shm`` for it to assert nothing leaked.
SEGMENT_PREFIX = "repro-"

_ITEMSIZE = np.dtype(np.int64).itemsize


@dataclass(frozen=True)
class SharedGraphHandle:
    """Everything needed to attach to a published CSR graph.

    Tiny and picklable: send it over queues/pipes/sockets instead of the
    graph.  ``num_nodes`` / ``num_indices`` carry the array lengths
    because the kernel may round the segment up to a page multiple, so
    the mapped size alone cannot recover the layout.
    """

    name: str
    num_nodes: int
    num_indices: int

    @property
    def total_words(self) -> int:
        """Total ``int64`` slots in the segment layout."""
        return (self.num_nodes + 1) + self.num_indices + self.num_nodes

    def to_dict(self) -> dict:
        """JSON-safe representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SharedGraphHandle":
        return cls(
            name=data["name"],
            num_nodes=int(data["num_nodes"]),
            num_indices=int(data["num_indices"]),
        )


class SharedCSRGraph(CSRGraph):
    """A ``CSRGraph`` whose arrays live in a shared-memory segment.

    Construct through :meth:`create` (owner) or :meth:`attach`
    (worker) — never directly.  Behaves exactly like the CSR it mirrors
    (walks, estimators and the batched engine cannot tell the
    difference); the arrays are read-only views over the segment.
    """

    __slots__ = ("_shm", "_handle", "_owner", "_closed")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: SharedGraphHandle,
        owner: bool,
    ) -> None:
        n, nnz = handle.num_nodes, handle.num_indices
        total = handle.total_words
        if shm.size < total * _ITEMSIZE:
            raise GraphError(
                f"shared segment {handle.name!r} holds {shm.size} bytes but "
                f"the handle describes {total * _ITEMSIZE}; stale handle?"
            )
        base = np.ndarray((total,), dtype=np.int64, buffer=shm.buf)
        indptr = base[: n + 1]
        indices = base[n + 1 : n + 1 + nnz]
        degrees = base[n + 1 + nnz :]
        for view in (indptr, indices, degrees):
            view.flags.writeable = False
        # Bypass CSRGraph.__init__: the arrays were validated when the
        # source CSR was built, and re-deriving degrees would allocate.
        self.indptr = indptr
        self.indices = indices
        self._degrees = degrees
        self._num_edges = nnz // 2
        self._nset_cache = {}
        self._tables = None
        self._shm = shm
        self._handle = handle
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, csr: CSRGraph, name: Optional[str] = None
    ) -> "SharedCSRGraph":
        """Publish ``csr`` into a fresh segment; returns the owner view."""
        if not isinstance(csr, CSRGraph):
            raise GraphError(
                f"SharedCSRGraph.create needs a CSRGraph, got "
                f"{type(csr).__name__}; convert with CSRGraph.from_graph first"
            )
        n = csr.num_nodes
        nnz = csr.indices.size
        total = (n + 1) + nnz + n
        if name is None:
            name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(total * _ITEMSIZE, 1)
        )
        base = np.ndarray((total,), dtype=np.int64, buffer=shm.buf)
        base[: n + 1] = csr.indptr
        base[n + 1 : n + 1 + nnz] = csr.indices
        base[n + 1 + nnz :] = csr.degrees_array
        handle = SharedGraphHandle(
            name=shm.name, num_nodes=n, num_indices=nnz
        )
        return cls(shm, handle, owner=True)

    @classmethod
    def attach(cls, handle: SharedGraphHandle) -> "SharedCSRGraph":
        """Map an existing segment published by another process."""
        if isinstance(handle, dict):
            handle = SharedGraphHandle.from_dict(handle)
        shm = shared_memory.SharedMemory(name=handle.name, create=False)
        return cls(shm, handle, owner=False)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def handle(self) -> SharedGraphHandle:
        """The picklable attach token for this segment."""
        return self._handle

    @property
    def is_owner(self) -> bool:
        """Whether this view created (and should unlink) the segment."""
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        The graph becomes unusable afterwards; other processes attached
        to the same segment are unaffected.  Array views handed out
        earlier (``neighbors``, ``degrees_array``) must be dropped
        before closing — live exports keep the mapping pinned and raise
        ``BufferError`` here.
        """
        if self._closed:
            return
        self._closed = True
        empty = np.empty(0, dtype=np.int64)
        self.indptr = empty
        self.indices = empty
        self._degrees = empty
        self._tables = None
        self._nset_cache = {}
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment system-wide (idempotent).

        Call once, from the owner, after every attacher has closed.  A
        repeated unlink — or one racing the resource tracker's exit
        cleanup — is a no-op rather than an error.
        """
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedCSRGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self._owner:
            self.unlink()

    def __reduce__(self):
        if self._closed:
            raise GraphError("cannot pickle a closed SharedCSRGraph")
        return (SharedCSRGraph.attach, (self._handle,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("owner" if self._owner else "attached")
        return (
            f"SharedCSRGraph(num_nodes={self._handle.num_nodes}, "
            f"segment={self._handle.name!r}, {state})"
        )

    def copy(self) -> CSRGraph:
        """Private (non-shared) deep copy of the adjacency arrays."""
        return CSRGraph(self.indptr.copy(), self.indices.copy())


@contextmanager
def published(graph) -> Iterator:
    """Yield what pool workers should receive for ``graph``.

    A :class:`SharedCSRGraph` or :class:`~repro.graphs.mmap.MmapCSRGraph`
    is yielded unchanged: its pickle re-attaches by reference, and the
    caller keeps ownership.  Any other CSR graph is copied into a fresh
    segment that is closed and unlinked on exit.  Anything else (a list
    :class:`~repro.graphs.graph.Graph`) is yielded unchanged.
    """
    if not isinstance(graph, CSRGraph) or isinstance(
        graph, (SharedCSRGraph, MmapCSRGraph)
    ):
        yield graph
        return
    with SharedCSRGraph.create(graph) as owner:
        yield owner
