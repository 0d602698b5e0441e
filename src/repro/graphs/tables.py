"""Derived lookup tables of one CSR graph version.

A :class:`~repro.graphs.csr.CSRGraph` keeps one :class:`EdgeTables` in
its ``_tables`` slot, built lazily and dropped when the adjacency
changes (:class:`~repro.graphs.delta.DeltaCSRGraph` clears the slot on
every ``apply`` and ``compact``).  No pickle carries it.

* **Probe keys** — the sorted directed edge keys ``u * (n + 1) + v`` in
  CSR order plus an ``int64`` max sentinel, so a ``searchsorted``
  position is always a valid index.  The first ``has_edges`` builds them.
  :meth:`EdgeTables.search` answers the probes that pass the filter in
  ascending key order (one argsort, one ``searchsorted``, one scatter
  back): sorted probes walk the 8-byte-per-edge table front to back, so
  neighbouring probes share cache lines instead of each missing alone.
* **Probe filter** — each key sets one hashed bit in a table of about
  :data:`FILTER_BITS_PER_KEY` bits per key, built in chunks by the first
  ``has_edges`` the bitmap does not answer.  A clear bit settles a probe
  as a non-edge; the filter fits in cache where the keys do not.
* **G(3) tables** (:meth:`EdgeTables.build_g3`) — per-directed-edge
  triangle counts, the adjacency bitmap and int32 candidate ids.  Only
  the fused G(3) walk kernel asks for them, once per graph version.
  ``has_edges`` reads the bitmap once it exists but never builds it:
  at 10⁴ nodes it is already 12.5 MB.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Triangle-table builds beyond this many adjacency probes
#: (``sum(min(deg u, deg v))`` over undirected edges) are skipped: the
#: walk engine steps G(3) through the generic swap frontier (one sort of
#: the state rows per transition) rather than stalling start-up.
MAX_TRI_PROBES = 50_000_000

#: Largest adjacency bitmap worth carrying: 2**23 uint32 words = 32 MiB,
#: i.e. graphs up to ~16k nodes get O(1) membership probes.
MAX_BITMAP_WORDS = 1 << 23

#: Probe batches smaller than this are searched as they come.  Best-of-50
#: timings against a 2M-key table (10⁴-node Barabási–Albert graph, m = 10)
#: put the crossover between 320 probes (unordered 12 µs, ordered 16 µs)
#: and 384 (21 µs against 18 µs); at 42.7k probes ordered takes 2.5 ms
#: against 7.0 ms.
ORDERED_MIN_PROBES = 384

#: Probe-filter bits per key, rounded up to a power of two.  On a walk-k3
#: batch (43.6k probes, 2% edges, 200k keys; 2-vCPU Xeon) the bare key
#: search takes 2.36 ms; 2**21 bits pass 10.4% in 0.54 ms, 2**22 (512 KB)
#: 6.2% in 0.51 ms, 2**23 4.0% in 0.40 ms, 2**22 with two hashes 2.8% in 0.55.
FILTER_BITS_PER_KEY = 20

_FILTER_CHUNK = 1 << 15  # keys hashed per build step: small temporaries
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)  # odd; 2**64 / golden ratio

_SENTINEL = np.iinfo(np.int64).max


def _filter_slots(keys: np.ndarray, filt: np.ndarray):
    """Word and bit mask of each key's bit: the top bits of ``key * _HASH_MUL``."""
    slot = keys.view(np.uint64) * _HASH_MUL >> np.uint64(60 - filt.size.bit_length())
    slot = slot.view(np.int64)
    return slot >> 5, np.uint32(1) << (slot & 31).astype(np.uint32)


class EdgeTables:
    """Lookup tables over one version of a graph's CSR arrays.

    Holds the arrays it was built from (``indptr``, ``indices``,
    ``degs``) but never the graph itself, so a graph and its tables
    form no reference cycle and are freed together.
    """

    __slots__ = (
        "indptr",
        "indices",
        "degs",
        "stride",
        "keys",
        "filter",
        "g3",
        "tri",
        "bits",
        "words",
        "cand",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, degs: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.degs = np.asarray(degs, dtype=np.int64)
        self.stride = np.int64(self.indptr.size)
        rows = self._rows()
        keys = np.empty(self.indices.size + 1, dtype=np.int64)
        np.multiply(rows, self.stride, out=keys[:-1])
        keys[:-1] += self.indices
        keys[-1] = _SENTINEL
        self.keys = keys
        #: uint32 probe-filter words; ``None`` until a keyed ``has_edges``.
        self.filter: Optional[np.ndarray] = None
        #: ``None`` until :meth:`build_g3` runs, then whether it built.
        self.g3: Optional[bool] = None
        self.tri: Optional[np.ndarray] = None
        self.bits: Optional[np.ndarray] = None
        self.words = 0
        self.cand: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    def _rows(self) -> np.ndarray:
        """Source row of every directed edge slot."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degs)

    def search(self, probes: np.ndarray) -> np.ndarray:
        """Left ``searchsorted`` position of every probe key in the padded
        keys, in the shape of ``probes``.

        Batches of at least :data:`ORDERED_MIN_PROBES` are searched in
        ascending probe order and scattered back.
        """
        if probes.size < ORDERED_MIN_PROBES:
            return np.searchsorted(self.keys, probes)
        flat = probes.reshape(-1)
        order = np.argsort(flat)
        pos = np.empty(flat.size, dtype=np.intp)
        pos[order] = np.searchsorted(self.keys, flat[order])
        return pos.reshape(probes.shape)

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Adjacency of each ``(us[i], vs[i])`` (1-D ids, in range): a bit
        test in the bitmap when it exists, else in the probe filter and a
        :meth:`search` of the padded keys for the probes that pass it."""
        if self.bits is not None:
            word = self.bits[us * self.words + (vs >> 5)]
            return ((word >> (vs & 31).astype(np.uint32)) & np.uint32(1)) != 0
        probes = us * self.stride + vs
        filt = self.filter if self.filter is not None else self._build_filter()
        word, bit = _filter_slots(probes, filt)
        passed = np.flatnonzero(filt[word] & bit)
        probes = probes[passed]
        out = np.zeros(us.size, dtype=bool)
        out[passed] = self.keys[self.search(probes)] == probes
        return out

    def _build_filter(self) -> np.ndarray:
        keys = self.keys[:-1]
        bits = max(int(FILTER_BITS_PER_KEY * keys.size - 1).bit_length(), 5)
        filt = np.zeros(1 << (bits - 5), dtype=np.uint32)
        for lo in range(0, keys.size, _FILTER_CHUNK):
            np.bitwise_or.at(filt, *_filter_slots(keys[lo : lo + _FILTER_CHUNK], filt))
        self.filter = filt  # only once complete: a partial one would miss edges
        return filt

    def build_g3(self) -> bool:
        """Build the fused G(3) kernel's tables once; returns whether
        they exist."""
        if self.g3 is not None:
            return self.g3
        self.g3 = False
        indptr, indices, degs = self.indptr, self.indices, self.degs
        n = self.num_nodes
        if indices.size == 0:
            return False
        rows = self._rows()
        probes = int(np.minimum(degs[rows], degs[indices]).sum()) // 2
        if probes > MAX_TRI_PROBES:
            return False  # unfused fallback beats a minutes-long build
        # One census, two consumers: the exact-triads module owns the
        # blocked intersection kernel.
        from ..exact.triads import edge_triangle_counts

        tri = edge_triangle_counts(
            indptr, indices, degs=degs, rows=rows, keys=self.keys[:-1]
        )
        # The sentinel slot pairs with the keys' one: a probe that lands
        # on it reads a zero count.
        self.tri = np.concatenate([tri, [0]])
        # Slim dtype on the candidate-gather hot path: node ids fit int32
        # on every real graph.
        self.cand = indices.astype(np.int32) if n < 2**31 else indices
        # Adjacency bitmap (memory-gated): one row-major uint32 word block
        # per node, so a probe is a single gather and a bit test.
        words = (n + 31) >> 5
        if n * words <= MAX_BITMAP_WORDS:
            sel = np.uint32(1) << (indices & 31).astype(np.uint32)
            word = rows * words + (indices >> 5)
            bits = np.zeros(n * words, dtype=np.uint32)
            starts = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])
            bits[word[starts]] = np.bitwise_or.reduceat(sel, starts)
            self.bits = bits
            self.words = words
        self.g3 = True
        return True
