"""The slow reference oracle for SRW window accumulation.

Per-chain Python accumulators, fed one state at a time from a serial
walker (:func:`serial_python`) or a batched engine
(:func:`_batched_python`): Algorithm 1's per-window loop, the
straightforward reading that the production
:class:`~repro.core.estimator._VectorizedAccumulator` must reproduce
bit for bit (same windows, same weights, same per-(chain, type) addition
order, and for a serial walker the same draws and API calls).
:func:`full_probe_bitmasks` is the same kind of oracle for
window classification: every label pair probed, nothing taken as proven.
:func:`row_sort_dedup` is the row-wise sort dedup of window node rows,
and :func:`rejection_propose` / :func:`rejection_propose_nb` are the
original d <= 2 proposal loops, redrawing lane subsets round by round.
:func:`padded_css_weights` is the CSS weight evaluation over templates
padded to each chunk's largest count, the oracle for
:meth:`repro.core.css.CSSWeightTable.weights`.
:func:`iter_edge_list` / :func:`read_edge_list_per_line` are the
per-line edge-list loader, the oracle for the chunked numpy parser of
:func:`repro.graphs.read_edge_list`.
:func:`barabasi_albert_edges` is the per-draw ``rng.choice`` loop of
Barabási–Albert growth, the oracle for
:func:`repro.graphs.barabasi_albert`; :func:`adjacency_lists` is the
per-edge set build of sorted neighbor lists, the oracle for the NumPy
build behind :class:`~repro.graphs.Graph`.
:func:`csr_edges_per_edge` is the per-edge walk over CSR rows, the oracle
for the row-block :meth:`repro.graphs.CSRGraph.edges`, and
:func:`triangle_count_python` the ordered neighbor-intersection triangle
count, the oracle for :func:`repro.exact.triad_census`.
Test code only; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.alpha import alpha_table
from repro.core.css import css_templates, sampling_weight
from repro.core.estimator import MethodSpec, _VectorizedAccumulator, pool_chains
from repro.core.expanded_chain import nominal_degree
from repro.graphlets.catalog import classify_bitmask
from repro.graphs import Graph, GraphError
from repro.graphs.io import _open_text
from repro.relgraph.spaces import walk_space
from repro.walks import make_walk
from repro.walks.windows import label_pairs


def full_probe_bitmasks(graph, uniq: np.ndarray, k: int) -> np.ndarray:
    """Labeled induced-subgraph bitmask of every sorted k-node row, with
    every label pair probed: the oracle for the proven-pair shortcut of
    :func:`repro.walks.windows.induced_bitmasks`."""
    bits = np.zeros(uniq.shape[0], dtype=np.int64)
    for bit, (i, j) in enumerate(label_pairs(k)):
        bits |= graph.has_edges(uniq[:, i], uniq[:, j]).astype(np.int64) << bit
    return bits


def padded_css_weights(
    masks: np.ndarray,
    nodes: np.ndarray,
    degree_fn: Callable[[np.ndarray], np.ndarray],
    k: int,
    d: int,
    chunk: int = 2048,
) -> np.ndarray:
    """``p~(X)`` of a block of windows through a padded
    ``(patterns, templates, l - 2, d)`` position tensor, ``chunk``
    windows at a time: every window of a chunk evaluates as many
    template slots as the chunk's largest count, and the padded slots
    add an exact ``0.0``."""
    n_middle = k - d - 1
    n_patterns = 1 << (k * (k - 1) // 2)
    counts = np.zeros(n_patterns, dtype=np.int64)
    compiled = {int(m): css_templates(int(m), k, d) for m in np.unique(masks)}
    width = max((len(t) for t in compiled.values()), default=0)
    middles = np.zeros((n_patterns, width, n_middle, d), dtype=np.int64)
    for mask, templates in compiled.items():
        counts[mask] = len(templates)
        if templates:
            middles[mask, : len(templates)] = np.asarray(templates, dtype=np.int64)
    out = np.empty(masks.shape[0], dtype=np.float64)
    for start in range(0, masks.shape[0], chunk):
        sel = slice(start, start + chunk)
        block_masks, block_nodes = masks[sel], nodes[sel]
        block_counts = counts[block_masks]
        t_max = int(block_counts.max(initial=0))
        total = np.zeros(block_masks.shape[0], dtype=np.float64)
        if t_max:
            mids = middles[block_masks, :t_max]
            ids = block_nodes[np.arange(block_masks.shape[0])[:, None, None, None], mids]
            live = np.arange(t_max)[None, :] < block_counts[:, None]
            degrees = np.where(live[:, :, None], degree_fn(ids), 1)
            weight = 1.0 / degrees[..., 0]
            for j in range(1, n_middle):
                weight = weight / degrees[..., j]
            weight = np.where(live, weight, 0.0)
            for t in range(t_max):
                total += weight[:, t]
        out[sel] = total
    return out


def row_sort_dedup(node_rows: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(valid, uniq)`` of window node rows by a row-wise sort and
    run-length dedup: the oracle for
    :func:`repro.walks.windows.distinct_window_nodes`."""
    srt = np.sort(node_rows, axis=1)
    fresh = np.ones(srt.shape, dtype=bool)
    fresh[:, 1:] = srt[:, 1:] != srt[:, :-1]
    valid = fresh.sum(axis=1) == k
    uniq = srt[valid][fresh[valid]].reshape(-1, k)
    return valid, uniq


def _uniform_neighbor(csr, nodes: np.ndarray, rng) -> np.ndarray:
    """One uniform neighbor per entry of ``nodes`` (all non-isolated)."""
    degs = csr.degrees_array[nodes]
    offsets = (rng.random(nodes.size) * degs).astype(np.int64)
    np.minimum(offsets, degs - 1, out=offsets)
    return csr.indices[csr.indptr[nodes] + offsets]


def rejection_propose(csr, d: int, states: np.ndarray, rng) -> np.ndarray:
    """One uniform G(d) neighbor per state, d <= 2.  For d = 2 the §5
    endpoint trick re-proposes the lanes whose draw was the state
    itself, round by round."""
    if d == 1:
        return _uniform_neighbor(csr, states, rng)
    degs = csr.degrees_array
    out = np.empty_like(states)
    pending = np.arange(states.shape[0])
    while pending.size:
        u = states[pending, 0]
        v = states[pending, 1]
        du = degs[u]
        dv = degs[v]
        pick_u = rng.random(pending.size) * (du + dv) < du
        anchor = np.where(pick_u, u, v)
        other = np.where(pick_u, v, u)
        w = _uniform_neighbor(csr, anchor, rng)
        ok = w != other
        done = pending[ok]
        a, b = anchor[ok], w[ok]
        out[done, 0] = np.minimum(a, b)
        out[done, 1] = np.maximum(a, b)
        pending = pending[~ok]
    return out


def rejection_propose_nb(
    csr, d: int, states: np.ndarray, prev: np.ndarray, rng, stats: Dict[str, int]
) -> np.ndarray:
    """One NB-SRW proposal per state, d <= 2: draw every lane, then
    redraw the lanes that proposed ``prev`` until none does; degree-1
    lanes take the forced backtrack.  ``stats`` accumulates the redraw
    rounds (``"rounds"``, most in one call ``"max_rounds"``) and the
    forced lanes (``"forced"``)."""

    def same(a, b):
        return a == b if a.ndim == 1 else (a == b).all(axis=1)

    degs = csr.degrees_array
    degree = degs[states] if d == 1 else degs[states[:, 0]] + degs[states[:, 1]] - 2
    nxt = rejection_propose(csr, d, states, rng)
    free = degree > 1  # lanes with an alternative
    retry = free & same(nxt, prev)
    rounds = 0
    while np.any(retry):
        rounds += 1
        lanes = np.nonzero(retry)[0]
        nxt[lanes] = rejection_propose(csr, d, states[lanes], rng)
        retry[lanes] = same(nxt[lanes], prev[lanes])
    forced = ~free
    nxt[forced] = prev[forced]
    stats["rounds"] = stats.get("rounds", 0) + rounds
    stats["max_rounds"] = max(stats.get("max_rounds", 0), rounds)
    stats["forced"] = stats.get("forced", 0) + int(forced.sum())
    return nxt


def _effective_degree_fn(graph, spec: MethodSpec) -> Callable[[Tuple[int, ...]], int]:
    """The (possibly NB-nominal) G(d)-degree of a state:
    :meth:`~repro.relgraph.spaces.WalkSpace.degree`."""
    space_degree = walk_space(spec.d).degree
    if spec.nb:
        def effective_degree(state: Tuple[int, ...]) -> int:
            return nominal_degree(space_degree(graph, state))
        return effective_degree
    return functools.partial(space_degree, graph)


class _ChainAccumulator:
    """Algorithm 1's window/classification pipeline for one chain.

    It is *fed* states one at a time (``push``), so :func:`serial_python`
    can drive it from a serial walker and :func:`_batched_python` can
    interleave B accumulators over the state blocks of a
    :class:`~repro.walks.batched.BatchedWalkEngine`.

    Feeding protocol: ``push(initial_state)`` once, then one ``push`` per
    walk transition.  The first ``burn_in`` transitions are discarded,
    the next ``l - 1`` fill the window (uncounted: Algorithm 1's initial
    window), and every following transition processes the current
    window *before* sliding — Algorithm 1's order — until
    ``budget`` counted transitions are consumed.
    """

    __slots__ = (
        "graph",
        "spec",
        "alphas",
        "effective_degree",
        "sums",
        "sample_counts",
        "budget",
        "burn_left",
        "window",
        "node_multiplicity",
        "window_degrees",
        "need_degrees",
        "valid_samples",
        "steps_done",
        "_started",
    )

    def __init__(
        self,
        graph,
        spec: MethodSpec,
        alphas: Sequence[float],
        effective_degree: Callable[[Tuple[int, ...]], int],
        budget: int,
        burn_in: int = 0,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.alphas = alphas
        self.effective_degree = effective_degree
        self.sums = np.zeros(len(alphas))
        self.sample_counts = np.zeros(len(alphas), dtype=np.int64)
        self.budget = budget
        self.burn_left = burn_in
        self.window: List[Tuple[int, ...]] = []
        self.node_multiplicity: Dict[int, int] = {}
        self.window_degrees: List[int] = []
        self.need_degrees = spec.l > 2
        self.valid_samples = 0
        self.steps_done = 0
        self._started = False

    @property
    def done(self) -> bool:
        return self.steps_done >= self.budget

    def _admit(self, state: Tuple[int, ...]) -> None:
        """Add a state to the window and its nodes to the multiset."""
        self.window.append(state)
        for v in state:
            self.node_multiplicity[v] = self.node_multiplicity.get(v, 0) + 1
        if self.need_degrees:
            self.window_degrees.append(self.effective_degree(state))

    def push(self, state: Tuple[int, ...]) -> None:
        if self.done:
            return
        if not self._started:  # the chain's initial state, not a transition
            self._started = True
            self._admit(state)
            return
        if self.burn_left > 0:
            # Discarded transition: restart the window from this state.
            self.burn_left -= 1
            self.window.clear()
            self.node_multiplicity.clear()
            self.window_degrees.clear()
            self._admit(state)
            return
        if len(self.window) < self.spec.l:
            self._admit(state)
            return
        self._process_window()
        # Slide: drop the oldest state, admit the new one.
        old_state = self.window.pop(0)
        for v in old_state:
            remaining = self.node_multiplicity[v] - 1
            if remaining:
                self.node_multiplicity[v] = remaining
            else:
                del self.node_multiplicity[v]
        if self.need_degrees:
            self.window_degrees.pop(0)
        self._admit(state)
        self.steps_done += 1

    def _process_window(self) -> None:
        """Classify and re-weight the current window (one Algorithm 1
        iteration); windows covering != k distinct nodes are invalid."""
        spec = self.spec
        k, d = spec.k, spec.d
        if len(self.node_multiplicity) != k:
            return
        nodes = sorted(self.node_multiplicity)
        neighbor_set = self.graph.neighbor_set
        mask = 0
        bit = 0
        for i in range(k):
            u_adj = neighbor_set(nodes[i])
            for j in range(i + 1, k):
                if nodes[j] in u_adj:
                    mask |= 1 << bit
                bit += 1
        type_index = classify_bitmask(mask, k)
        if spec.css:
            p_tilde = sampling_weight(mask, nodes, k, d, self.effective_degree)
            weight = 1.0 / p_tilde
        else:
            weight = 1.0 / self.alphas[type_index]
            for degree in self.window_degrees[1:-1]:
                weight *= degree
        self.sums[type_index] += weight
        self.sample_counts[type_index] += 1
        self.valid_samples += 1


def serial_python(
    graph, spec: MethodSpec, budget: int, rng, seed_node: int = 0, burn_in: int = 0
):
    """Algorithm 1 as one serial loop: a :func:`~repro.walks.make_walk`
    walker feeding one :class:`_ChainAccumulator` until ``budget``
    windows are counted.  Each window is counted when the state after it
    arrives, so the walker draws — and on a crawl wrapper fetches —
    exactly what the per-window loop does.  Returns ``(sums,
    sample_counts, valid_samples)``."""
    walker = make_walk(
        graph, walk_space(spec.d), non_backtracking=spec.nb, rng=rng,
        seed_node=seed_node,
    )
    acc = _ChainAccumulator(
        graph, spec, alpha_table(spec.k, spec.d), _effective_degree_fn(graph, spec),
        budget, burn_in,
    )
    acc.push(walker.state)
    while not acc.done:
        acc.push(walker.step())
    return acc.sums, acc.sample_counts, acc.valid_samples


def _batched_python(
    graph, spec: MethodSpec, alphas, budgets: List[int], engine, burn_in: int
):
    """Drain a batched engine through one Python accumulator per chain.

    The reference accumulation: the production
    :class:`~repro.core.estimator._VectorizedAccumulator` (driven by
    :func:`_batched_vectorized`) must process exactly these windows and
    reproduce these sums bit for bit — the parity suites drive both off
    identically seeded engines.
    """
    effective_degree = _effective_degree_fn(graph, spec)
    accumulators = [
        _ChainAccumulator(graph, spec, alphas, effective_degree, budget, burn_in)
        for budget in budgets
    ]
    d = spec.d
    initial = engine.states()
    for b, acc in enumerate(accumulators):
        state = (int(initial[b]),) if d == 1 else tuple(int(x) for x in initial[b])
        acc.push(state)
    # Each chain consumes burn_in discarded transitions, l - 1 window
    # fills, then its counted budget — same accounting as serial_python.
    remaining = max(budgets) + burn_in + spec.l - 1
    block_size = 1024
    while remaining > 0 and not all(acc.done for acc in accumulators):
        block = engine.step_block(min(block_size, remaining))
        remaining -= block.shape[0]
        if d == 1:
            for b, acc in enumerate(accumulators):
                if acc.done:
                    continue
                for value in block[:, b].tolist():
                    acc.push((value,))
        else:
            for b, acc in enumerate(accumulators):
                if acc.done:
                    continue
                for row in block[:, b].tolist():
                    acc.push(tuple(row))
    sums = np.zeros(len(alphas))
    sample_counts = np.zeros(len(alphas), dtype=np.int64)
    valid_samples = 0
    for acc in accumulators:
        if not acc.done:  # pragma: no cover - budget math guarantees done
            raise RuntimeError("batched run ended before a chain's budget")
        sums += acc.sums
        sample_counts += acc.sample_counts
        valid_samples += acc.valid_samples
    return sums, sample_counts, valid_samples


def _batched_vectorized(
    graph, spec: MethodSpec, alphas, budgets: List[int], engine, burn_in: int
):
    """Drive the production vectorized accumulator through the whole
    budget; returns pooled ``(sums, sample_counts, valid_samples)`` in
    the shape :func:`_batched_python` does."""
    acc = _VectorizedAccumulator(graph, spec, alphas, budgets, engine, burn_in)
    acc.advance(acc.total)
    return pool_chains(acc.chain_sums)[0], acc.sample_counts, acc.valid_samples


def iter_edge_list(path) -> Iterator[Tuple[int, int]]:
    """Yield raw ``(u, v)`` integer pairs from an edge-list file, one
    line at a time."""
    with _open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", "%")):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphError(f"{path}:{line_no}: expected 'u v', got {stripped!r}")
            yield int(parts[0]), int(parts[1])


def read_edge_list_per_line(path) -> Tuple[Graph, Dict[int, int]]:
    """The per-line edge-list loader: new ids in first-seen order
    scanning ``u`` then ``v`` per line, self-loops dropped, duplicate
    edges collapsed by the :class:`Graph` constructor."""
    mapping: Dict[int, int] = {}
    edges = []
    for u, v in iter_edge_list(path):
        if u == v:
            continue
        for x in (u, v):
            if x not in mapping:
                mapping[x] = len(mapping)
        edges.append((mapping[u], mapping[v]))
    return Graph(len(mapping), edges), mapping


def barabasi_albert_edges(n: int, m: int, seed) -> List[Tuple[int, int]]:
    """Barabási–Albert edges in generation order: a star on ``m + 1``
    nodes, then ``m`` distinct ``rng.choice`` draws from the
    repeated-endpoint list per new node."""
    rng = random.Random(seed)
    edges = [(i, m) for i in range(m)]
    repeated: List[int] = []
    for u, v in edges:
        repeated.append(u)
        repeated.append(v)
    for new_node in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for t in targets:
            edges.append((t, new_node))
            repeated.append(t)
            repeated.append(new_node)
    return edges


def adjacency_lists(num_nodes: int, edges) -> List[List[int]]:
    """Sorted, deduplicated neighbor lists, one set insert per edge."""
    sets = [set() for _ in range(num_nodes)]
    for u, v in edges:
        sets[u].add(v)
        sets[v].add(u)
    return [sorted(s) for s in sets]


def csr_edges_per_edge(graph) -> Iterator[Tuple[int, int]]:
    """Every edge once as ``(u, v)`` with ``u < v``, sorted, one CSR
    entry at a time."""
    indptr, indices = graph.indptr, graph.indices
    for u in range(graph.num_nodes):
        for v in indices[indptr[u] : indptr[u + 1]]:
            if u < v:
                yield (u, int(v))


def triangle_count_python(graph) -> int:
    """Triangles by ordered neighbor intersection (compact node-iterator):
    each triangle counted once, at its smallest node."""
    count = 0
    for u in graph.nodes():
        higher = [v for v in graph.neighbors(u) if v > u]
        for i, v in enumerate(higher):
            v_set = graph.neighbor_set(v)
            count += sum(1 for w in higher[i + 1 :] if w in v_set)
    return count
