"""Corresponding state sampling (CSS, §4.1, Algorithm 3).

For a sampled window ``X`` inducing subgraph ``s``, CSS replaces the basic
inclusion probability ``alpha_i^k * pi_e(X)`` by the *total* stationary
mass of every window corresponding to ``s``:

    p(X) = sum_{X' in C(s)} pi_e(X')

which uses the degree information of all of s's nodes and is provably
variance-reducing (Lemma 5).  As with ``pi_e`` we work with the rescaled
``p~ = 2|R(d)| * p``, since |R(d)| cancels in concentrations.

Template cache
--------------
Enumerating C(s) per sample would repeat the same combinatorial search; but
the *structure* of C(s) depends only on the labeled shape of ``s`` over its
sorted node list.  :func:`css_templates` therefore maps a labeled bitmask to
the list of corresponding sequences expressed in label positions — the
runtime cost per sample is then just evaluating products of middle-state
degrees.  At most 728 labeled patterns exist for k = 5, so the cache
saturates quickly (the cache ablation benchmark quantifies the win).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Dict, FrozenSet, Sequence, Tuple

import numpy as np

from ..graphlets.isomorphism import bitmask_to_edges, connected_subsets

# A template is the tuple of *middle* states of one corresponding sequence,
# each middle state a sorted tuple of label positions (0 .. k-1).
Template = Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=None)
def css_templates(mask: int, k: int, d: int) -> Tuple[Template, ...]:
    """All corresponding sequences of a labeled connected k-node pattern.

    Returns one entry per window in C(s) (so ``len(result) == alpha_i^k``
    for the pattern's type), each entry carrying only the sequence's middle
    states — the only part of a window that enters ``pi~_e`` for l > 2.
    For l = 2 the entries are empty tuples and ``p~ = alpha``.
    """
    if not 1 <= d < k:
        raise ValueError(f"CSS requires 1 <= d < k, got d={d}, k={k}")
    l = k - d + 1
    edges = tuple(bitmask_to_edges(mask, k))
    edge_set = frozenset(edges)
    states = connected_subsets(edges, k, d)
    all_nodes = frozenset(range(k))

    def adjacent(a: FrozenSet[int], b: FrozenSet[int]) -> bool:
        if d == 1:
            (u,) = a
            (v,) = b
            return (u, v) in edge_set or (v, u) in edge_set
        return len(a & b) == d - 1

    templates = []
    for combo in combinations(states, l):
        union: FrozenSet[int] = frozenset().union(*combo)
        if union != all_nodes:
            continue
        for order in permutations(combo):
            if all(adjacent(order[i], order[i + 1]) for i in range(l - 1)):
                templates.append(
                    tuple(tuple(sorted(middle)) for middle in order[1:-1])
                )
    return tuple(templates)


def sampling_weight(
    mask: int,
    nodes: Sequence[int],
    k: int,
    d: int,
    degree_of_state,
) -> float:
    """``p~(X) = 2|R(d)| * p(X)`` for the sample with labeled shape ``mask``
    over sorted node list ``nodes``.

    ``degree_of_state`` maps a tuple of actual node ids (a d-node state) to
    its degree in G(d) — :meth:`~repro.relgraph.spaces.WalkSpace.degree`
    (wrapped with the nominal degree for NB-SRW) or, given an explicit
    G(d), :func:`~repro.relgraph.construct.state_degree_fn`.
    """
    total = 0.0
    for template in css_templates(mask, k, d):
        weight = 1.0
        for middle in template:
            weight /= degree_of_state(tuple(nodes[i] for i in middle))
        total += weight
    return total


#: Gathered middle-state node ids (windows x templates x (l - 2) x d)
#: per evaluation chunk: bounds the scratch arrays and sets how often
#: ``degree_fn`` runs.  A window group of one template count splits into
#: chunks of ``_GATHER_CHUNK // (templates * (l - 2) * d)`` windows (at
#: least one).
_GATHER_CHUNK = 1 << 16


class CSSWeightTable:
    """Compiled CSS weights for whole blocks of windows at once.

    The table turns :func:`css_templates` into NumPy index arrays, one
    per template count: a labeled k-node pattern (bitmask over the
    window's sorted node list) with ``t`` templates owns one column of
    the ``t``-template table, a contiguous ``(t * (l - 2) * d, patterns)``
    array listing every corresponding sequence's middle states as label
    positions.  Evaluating ``p~(X)`` for a block of windows groups the
    windows by template count; each group is a column gather, one flat
    take of middle-state node ids from ``nodes``, a vectorized degree
    lookup, and a product/sum over its own ``t`` templates — no padded
    template slots and no Python work per window.  Positions run down
    the table so that the per-window offset into ``nodes`` adds along
    the contiguous window axis.

    Patterns compile lazily, the first time one is seen (connected
    k-node patterns number at most 728 for k = 5, so the table saturates
    as quickly as the template cache it compiles from).  The table is
    agnostic to how ``degree_fn`` computes state degrees, so it serves
    every walk dimension: closed forms for d <= 2, the deduplicated
    swap-frontier kernel of :mod:`repro.relgraph.vectorized` for d >= 3
    (e.g. SRW3CSS windows on G(3)).

    Bit-compatibility contract
    --------------------------
    :meth:`weights` reproduces :func:`sampling_weight` *bit for bit*, not
    just to rounding: per template the middle degrees divide in sequence
    (``1/d_1 / d_2 …``, the serial loop's order, not a ``prod`` of
    reciprocals) and templates sum in cache order, starting from
    template 0's weight.  The batched estimator's equality guarantees
    against the serial path rest on this.
    """

    def __init__(self, k: int, d: int) -> None:
        if not 1 <= d < k:
            raise ValueError(f"CSS requires 1 <= d < k, got d={d}, k={k}")
        l = k - d + 1
        if l < 3:
            raise ValueError(
                f"CSS weight table needs l = k - d + 1 >= 3 (got l={l}); "
                "for l = 2 CSS coincides with the basic estimator"
            )
        self.k = k
        self.d = d
        self.n_middle = l - 2
        n_patterns = 1 << (k * (k - 1) // 2)
        # -1 marks an uncompiled pattern; disconnected ones never appear
        # (windows are walk-generated), so they are never compiled.
        self._counts = np.full(n_patterns, -1, dtype=np.int64)
        # Template count -> position table; each compiled pattern's
        # column in its count's table.
        self._positions: Dict[int, np.ndarray] = {}
        self._columns = np.zeros(n_patterns, dtype=np.int64)

    @property
    def max_templates(self) -> int:
        """Largest template count compiled so far."""
        return max(self._positions, default=0)

    def _compile(self, mask: int) -> None:
        templates = css_templates(mask, self.k, self.d)
        count = len(templates)
        column = np.asarray(templates, dtype=np.int64).reshape(-1, 1)
        table = self._positions.get(count)
        self._columns[mask] = 0 if table is None else table.shape[1]
        self._positions[count] = (
            column if table is None else np.concatenate([table, column], axis=1)
        )
        self._counts[mask] = count

    def ensure(self, masks: np.ndarray) -> None:
        """Compile every pattern appearing in ``masks`` (idempotent)."""
        for mask in np.unique(masks[self._counts[masks] < 0]).tolist():
            self._compile(mask)

    def weights(
        self,
        masks: np.ndarray,
        nodes: np.ndarray,
        degree_fn: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """``p~(X)`` for a block of windows.

        Parameters
        ----------
        masks:
            ``(W,)`` labeled bitmasks, one per window.
        nodes:
            ``(W, k)`` sorted distinct node ids per window (the list the
            bitmask is labeled over).
        degree_fn:
            Vectorized G(d) state degree: maps an ``(..., d)`` int array
            of node ids to the (possibly NB-nominal) degrees — see
            :func:`repro.walks.windows.state_degrees`.
        """
        self.ensure(masks)
        counts = self._counts[masks]
        columns = self._columns[masks]
        out = np.zeros(masks.shape[0], dtype=np.float64)
        flat_nodes = nodes.reshape(-1)
        present = np.flatnonzero(np.bincount(counts))
        for count in present[present > 0].tolist():  # count 0 keeps weight 0
            group = np.flatnonzero(counts == count)
            table = self._positions[count]
            step = max(1, _GATHER_CHUNK // table.shape[0])
            for start in range(0, group.size, step):
                rows = group[start : start + step]
                # (count * (l-2) * d, n) flat indices into ``nodes``.
                pos = table.take(columns.take(rows), axis=1)
                pos += rows * self.k
                ids = flat_nodes.take(pos).reshape(count, self.n_middle, self.d, rows.size)
                degrees = degree_fn(ids.transpose(0, 1, 3, 2))  # (count, l-2, n)
                weight = 1.0 / degrees[:, 0]
                for j in range(1, self.n_middle):
                    weight = weight / degrees[:, j]
                total = weight[0].copy()
                for t in range(1, count):  # serial summation order: bit-exact
                    total += weight[t]
                out[rows] = total
        return out


@lru_cache(maxsize=None)
def css_weight_table(k: int, d: int) -> CSSWeightTable:
    """The process-wide compiled weight table for ``(k, d)``."""
    return CSSWeightTable(k, d)
