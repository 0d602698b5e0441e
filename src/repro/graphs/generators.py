"""Synthetic graph generators.

These stand in for the paper's OSN datasets (see DESIGN.md §3): power-law
cluster graphs mimic high-clustering social graphs (Facebook/Flickr-like),
Barabási–Albert and sparse Erdős–Rényi graphs mimic low-clustering graphs
(Gowalla/Wikipedia-like).  All generators are seeded and deterministic given
the seed.  Deterministic classics (complete, cycle, path, star, lollipop,
grid) support tests and examples.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .csr import GraphError
from .graph import Graph


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


# ----------------------------------------------------------------------
# Deterministic classics
# ----------------------------------------------------------------------
def complete_graph(n: int) -> Graph:
    """K_n."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    """C_n (requires n >= 3)."""
    if n < 3:
        raise GraphError("cycle graph needs at least 3 nodes")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """P_n."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n_leaves: int) -> Graph:
    """Star with one hub (node 0) and ``n_leaves`` leaves."""
    return Graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def lollipop_graph(clique_size: int, path_len: int) -> Graph:
    """A clique K_m with a path of ``path_len`` nodes attached.

    Classic slow-mixing example; useful for mixing-time tests.
    """
    edges = [(i, j) for i in range(clique_size) for j in range(i + 1, clique_size)]
    prev = clique_size - 1
    for i in range(path_len):
        node = clique_size + i
        edges.append((prev, node))
        prev = node
    return Graph(clique_size + path_len, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """2-D grid graph (rows x cols)."""
    def node(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
    return Graph(rows * cols, edges)


# ----------------------------------------------------------------------
# Random models
# ----------------------------------------------------------------------
def erdos_renyi(n: int, p: float, seed: Optional[int] = None) -> Graph:
    """G(n, p) via geometric edge skipping (O(n + m) expected time)."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"probability p must be in [0, 1], got {p}")
    rng = _rng(seed)
    edges: List[Tuple[int, int]] = []
    if p == 0.0 or n < 2:
        return Graph(n, edges)
    if p == 1.0:
        return complete_graph(n)
    # Iterate candidate pairs in lexicographic order, jumping geometrically.
    import math

    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return Graph(n, edges)


def erdos_renyi_gnm(n: int, m: int, seed: Optional[int] = None) -> Graph:
    """G(n, m): exactly ``m`` distinct uniform edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise GraphError(f"m={m} exceeds max possible edges {max_edges}")
    rng = _rng(seed)
    chosen: Set[Tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    return Graph(n, chosen)


def barabasi_albert(n: int, m: int, seed: Optional[int] = None) -> Graph:
    """Barabási–Albert preferential attachment with ``m`` edges per new node.

    Starts from a star on ``m + 1`` nodes.  Attachment targets are drawn by
    sampling from the repeated-node list (each node appears once per incident
    edge endpoint), the standard O(m) trick.
    """
    if m < 1 or n <= m:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={n}")
    getrandbits = _rng(seed).getrandbits
    # The flat edge list: entries 2i and 2i + 1 are edge i's endpoints,
    # so a uniform entry is a degree-proportional node.
    repeated: List[int] = []
    for i in range(m):
        repeated += (i, m)
    for new_node in range(m + 1, n):
        # rng.choice(repeated), inlined: draw bit_length bits until the
        # index is in range.
        size = len(repeated)
        bits = size.bit_length()
        targets: Set[int] = set()
        while len(targets) < m:
            r = getrandbits(bits)
            if r < size:
                targets.add(repeated[r])
        for t in targets:
            repeated += (t, new_node)
    return Graph(n, np.array(repeated, dtype=np.int64).reshape(-1, 2))


def watts_strogatz(n: int, k: int, p: float, seed: Optional[int] = None) -> Graph:
    """Watts–Strogatz small-world graph (ring of ``k`` nearest neighbors,
    each edge rewired with probability ``p``)."""
    if k % 2 != 0 or k >= n:
        raise GraphError(f"k must be even and < n, got k={k}, n={n}")
    rng = _rng(seed)
    edge_set: Set[Tuple[int, int]] = set()
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            edge_set.add((min(u, v), max(u, v)))
    edges = sorted(edge_set)
    result: Set[Tuple[int, int]] = set(edges)
    for u, v in edges:
        if rng.random() < p:
            # Rewire (u, v) -> (u, w) keeping the graph simple.
            for _ in range(n):
                w = rng.randrange(n)
                if w == u:
                    continue
                cand = (min(u, w), max(u, w))
                if cand not in result:
                    result.discard((u, v))
                    result.add(cand)
                    break
    return Graph(n, result)


def powerlaw_cluster(n: int, m: int, p: float, seed: Optional[int] = None) -> Graph:
    """Holme–Kim powerlaw cluster graph: BA growth plus triangle closure.

    With probability ``p`` each preferential attachment step is followed by a
    triad-formation step (connect to a random neighbor of the last target),
    producing the high clustering coefficient typical of social graphs.
    """
    if m < 1 or n <= m:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = _rng(seed)
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    repeated: List[int] = []

    def add_edge(u: int, v: int) -> bool:
        if u == v or v in adjacency[u]:
            return False
        adjacency[u].add(v)
        adjacency[v].add(u)
        repeated.append(u)
        repeated.append(v)
        return True

    for i in range(m):
        add_edge(i, m)
    for new_node in range(m + 1, n):
        added = 0
        last_target = None
        while added < m:
            target = rng.choice(repeated)
            if last_target is not None and rng.random() < p:
                # Triad formation: close a triangle through the last target.
                candidates = [w for w in adjacency[last_target] if w != new_node]
                if candidates:
                    target = rng.choice(candidates)
            if add_edge(new_node, target):
                added += 1
                last_target = target
    return Graph.from_adjacency([sorted(s) for s in adjacency])


def powerlaw_configuration(
    n: int, exponent: float = 2.5, min_degree: int = 1, seed: Optional[int] = None
) -> Graph:
    """Erased configuration model with a power-law degree sequence.

    Degrees are drawn from ``P(d) ~ d^-exponent`` for ``d >= min_degree``
    (capped at ``n - 1``); stubs are matched uniformly and self-loops /
    multi-edges are erased, the standard "erased configuration model".
    """
    if exponent <= 1.0:
        raise GraphError("power-law exponent must exceed 1")
    rng = _rng(seed)
    max_degree = n - 1
    # Inverse-CDF sampling on the (finite) discrete power law.
    weights = [d ** (-exponent) for d in range(min_degree, max_degree + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    degrees = []
    for _ in range(n):
        r = rng.random()
        lo, hi = 0, len(cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < r:
                lo = mid + 1
            else:
                hi = mid
        degrees.append(min_degree + lo)
    if sum(degrees) % 2 == 1:
        degrees[0] += 1
    stubs: List[int] = []
    for node, d in enumerate(degrees):
        stubs.extend([node] * d)
    rng.shuffle(stubs)
    edges: Set[Tuple[int, int]] = set()
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def stochastic_block_model(
    sizes: Sequence[int],
    p_in: float,
    p_out: float,
    seed: Optional[int] = None,
) -> Graph:
    """Planted-partition stochastic block model.

    Nodes are split into blocks of the given sizes; within-block pairs are
    joined with probability ``p_in``, across-block pairs with ``p_out``.
    Community structure concentrates triangles and cliques inside blocks —
    useful for studying graphlet concentration under controlled modularity
    (the paper's Friendster anecdote: community collapse shows up as a
    deficit of clique-like graphlets).
    """
    for p in (p_in, p_out):
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"probabilities must be in [0, 1], got {p}")
    rng = _rng(seed)
    boundaries = []
    start = 0
    for size in sizes:
        if size <= 0:
            raise GraphError("block sizes must be positive")
        boundaries.append((start, start + size))
        start += size
    n = start
    block_of = [0] * n
    for index, (lo, hi) in enumerate(boundaries):
        for v in range(lo, hi):
            block_of[v] = index
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if block_of[u] == block_of[v] else p_out
            if p > 0 and rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def random_regular(n: int, d: int, seed: Optional[int] = None, max_tries: int = 100) -> Graph:
    """Random d-regular graph via repeated pairing (rejecting bad matchings)."""
    if (n * d) % 2 != 0:
        raise GraphError("n * d must be even")
    if d >= n:
        raise GraphError("d must be < n")
    rng = _rng(seed)
    for _ in range(max_tries):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges: Set[Tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return Graph(n, edges)
    raise GraphError(f"failed to build a simple {d}-regular graph in {max_tries} tries")


def graph_union(graphs: Sequence[Graph], bridge: bool = True) -> Graph:
    """Disjoint union of graphs, optionally bridged into one component.

    If ``bridge`` is true, consecutive blocks are connected by a single edge
    (node 0 of each block), keeping the result connected.
    """
    offset = 0
    edges: List[Tuple[int, int]] = []
    anchors: List[int] = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        anchors.append(offset)
        offset += g.num_nodes
    if bridge:
        edges.extend(zip(anchors, anchors[1:]))
    return Graph(offset, edges)
