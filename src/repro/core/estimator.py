"""The estimation loop: Algorithm 1 with the CSS and NB-SRW options.

One run performs ``steps`` transitions of a (possibly non-backtracking)
random walk on G(d), turns every window of ``l = k - d + 1`` consecutive
states covering k distinct nodes into a graphlet sample, and accumulates
the re-weighted indicator sums

    S_i = sum over samples of type i of  1 / (alpha_i * pi~_e(X))   (basic)
    S_i = sum over samples of type i of  1 / p~(X)                  (CSS)

from which both concentrations (S_i / sum_j S_j, Eq. 5/8) and counts
(2|R(d)| * S_i / n, Eq. 4/7) follow.

One run path
------------
:func:`run_estimation` is ``SRWSession(...).result()``: every SRW run —
one-shot, streamed, served by the daemon — goes through
:class:`SRWSession`, which has exactly two modes:

* **vectorized** (``chains > 1`` on a batch-capable backend, i.e. CSR,
  any d): the B chains advance in lockstep through the
  :class:`~repro.walks.batched.BatchedWalkEngine`, and window
  classification plus re-weighting — basic *and* CSS — run
  block-at-a-time through :class:`_VectorizedAccumulator`;
* **serial** (``chains == 1``, or a backend without vectorized kernels):
  one walker-driven :class:`_SerialChain` per chain, whose
  :meth:`~_SerialChain.advance` is Algorithm 1's tight per-transition
  loop.  Multi-chain serial runs warn once
  (:class:`~repro.walks.batched.BatchFallbackWarning`).

With ``chains=B`` the step budget is split across B independent chains
(:func:`split_budget`) and their sums pooled — the independent-chain
aggregation the paper uses for its empirical-variance experiments.
Since every S_i is a sum over samples, pooling is exact: the merged
result is distributed like one run whose samples came from B chains.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphlets.catalog import classify_bitmask
from ..graphlets.signatures import classification_table
from ..relgraph.spaces import walk_space
from ..walks import windows as windows_mod
from ..walks.batched import batch_capable, warn_serial_fallback
from ..walks.walkers import make_engine, make_walk
from .alpha import alpha_table
from .css import css_weight_table, sampling_weight
from .expanded_chain import nominal_degree
from .result import Estimate
from .session import Session


@dataclass(frozen=True)
class MethodSpec:
    """A fully specified method: graphlet size k, walk substrate d, flags.

    The paper's method names read ``SRW{d}[CSS][NB]``; :meth:`parse` accepts
    exactly that grammar (e.g. ``"SRW1CSSNB"``, ``"SRW2CSS"``, ``"SRW3"``).
    """

    k: int
    d: int
    css: bool = False
    nb: bool = False

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"graphlet size k must be >= 3, got {self.k}")
        if not 1 <= self.d <= self.k:
            raise ValueError(f"need 1 <= d <= k, got d={self.d}, k={self.k}")
        if self.css and self.l < 3:
            raise ValueError(
                "CSS requires l = k - d + 1 > 2 (for l <= 2 it coincides "
                "with the basic estimator); use css=False"
            )

    @property
    def l(self) -> int:
        """Window length l = k - d + 1."""
        return self.k - self.d + 1

    @property
    def name(self) -> str:
        """Paper-style method name."""
        return f"SRW{self.d}" + ("CSS" if self.css else "") + ("NB" if self.nb else "")

    @classmethod
    def parse(cls, name: str, k: int) -> "MethodSpec":
        """Parse a paper-style method string for graphlet size ``k``."""
        text = name.strip().upper()
        if not text.startswith("SRW"):
            raise ValueError(f"method must start with 'SRW', got {name!r}")
        rest = text[3:]
        digits = ""
        while rest and rest[0].isdigit():
            digits += rest[0]
            rest = rest[1:]
        if not digits:
            raise ValueError(f"method {name!r} missing the d digit (e.g. SRW2CSS)")
        css = nb = False
        while rest:
            if rest.startswith("CSS"):
                css, rest = True, rest[3:]
            elif rest.startswith("NB"):
                nb, rest = True, rest[2:]
            else:
                raise ValueError(f"unrecognized suffix {rest!r} in method {name!r}")
        return cls(k=k, d=int(digits), css=css, nb=nb)


def recommended_method(k: int) -> str:
    """The paper's §6.2 recommendation: SRW1CSSNB for 3-node graphlets,
    SRW2CSS for 4- and 5-node graphlets."""
    return "SRW1CSSNB" if k == 3 else "SRW2CSS"


def split_budget(steps: int, chains: int) -> List[int]:
    """The multichain budget split: as even as possible, the first
    ``steps % chains`` chains taking one extra transition.

    The one definition every multi-chain path shares, because two
    invariants hang off it: the split is non-increasing (what lets
    :class:`_VectorizedAccumulator` treat in-budget chains as a column
    prefix), and ``split_budget(c, B)[b]`` is also where serial chain
    ``b`` stands after ``c`` consumed units of a streamed
    :class:`SRWSession` (what makes any streaming of the budget end on
    the one-shot split).
    """
    return [steps // chains + (1 if b < steps % chains else 0) for b in range(chains)]


def pool_chains(
    chain_sums: Sequence[np.ndarray],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Pooled per-type sums and their between-chain standard error.

    The one pooling every multi-chain answer goes through: both
    :class:`SRWSession` modes, continuous sessions and the daemon's
    fanout parts.  Sums add in chain order with an explicit loop — the
    addition sequence the bit-identity contracts pin, which
    ``np.sum(axis=0)`` does not promise (over a single type column it
    reduces pairwise).  The standard error is that of the mean across
    chain concentrations; it needs at least two chains with positive
    total sums and is None otherwise.
    """
    sums = np.zeros(len(chain_sums[0]))
    per_chain = []
    for cells in chain_sums:
        sums += cells
        total = float(cells.sum())
        if total > 0:
            per_chain.append(cells / total)
    if len(per_chain) < 2:
        return sums, None
    stacked = np.vstack(per_chain)
    return sums, stacked.std(axis=0, ddof=1) / math.sqrt(stacked.shape[0])


def _srw_meta(spec: MethodSpec, alphas, graph, chains: int = 1) -> Dict:
    """Method metadata shared by every SRW-family estimate."""
    return {
        "d": spec.d,
        "css": spec.css,
        "nb": spec.nb,
        "chains": chains,
        "unreachable": tuple(i for i, a in enumerate(alphas) if a == 0),
        "api_calls": getattr(graph, "api_calls", None),
    }


def run_estimation(
    graph,
    spec: MethodSpec,
    steps: int,
    rng: Optional[random.Random] = None,
    seed_node: int = 0,
    burn_in: int = 0,
    chains: int = 1,
) -> Estimate:
    """Algorithm 1: estimate k-node graphlet statistics with ``steps``
    random-walk transitions.

    Exactly ``SRWSession(graph, spec, steps, ...).result()``.

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.Graph`, :class:`~repro.graphs.CSRGraph`
        or :class:`~repro.graphs.RestrictedGraph` (API calls are then
        counted into the result).
    spec:
        Method specification (k, d, CSS/NB flags).
    steps:
        Total number of walk transitions n across all chains; every
        transition contributes one window, valid or not, exactly as in
        Algorithm 1.
    burn_in:
        Optional transitions discarded before sampling starts, per chain
        (the paper relies on SLLN asymptotics and uses none).
    chains:
        Number of independent chains the budget is split over.  With
        ``chains=B`` the pooled sums estimate the same quantities
        (vectorized on the CSR backend, any d).
    """
    return SRWSession(
        graph, spec, steps, rng=rng, seed_node=seed_node, burn_in=burn_in,
        chains=chains,
    ).result()


def _effective_degree_fn(graph, spec: MethodSpec) -> Callable[[Tuple[int, ...]], int]:
    """The (possibly NB-nominal) G(d)-degree of a state:
    :meth:`~repro.relgraph.spaces.WalkSpace.degree`."""
    space_degree = walk_space(spec.d).degree
    if spec.nb:
        def effective_degree(state: Tuple[int, ...]) -> int:
            return nominal_degree(space_degree(graph, state))
        return effective_degree
    return functools.partial(space_degree, graph)


class _SerialChain:
    """One walker-driven chain of Algorithm 1, resumable.

    The caller hands over the walker: anything with a ``state`` and a
    ``step()`` that returns the next state of a walk on G(d).
    :class:`SRWSession` gives each chain its own walker;
    :func:`~repro.core.joint.run_joint_estimation` gives each graphlet
    size a replay of one shared walk.
    Construction walks ``burn_in`` discarded transitions and builds the
    initial window of l states (Algorithm 1 line 3); each
    :meth:`advance` then runs the loop body — classify and re-weight the
    current window, then slide it by one transition — for ``n`` more
    counted transitions, keeping window and sums between calls.
    """

    def __init__(self, graph, spec: MethodSpec, alphas, walker, burn_in: int = 0) -> None:
        self.graph = graph
        self.spec = spec
        self.alphas = alphas
        self.walker = walker
        self.effective_degree = _effective_degree_fn(graph, spec)
        self.sums = np.zeros(len(alphas))
        self.sample_counts = np.zeros(len(alphas), dtype=np.int64)
        self.valid_samples = 0
        self.steps = 0  # counted transitions done

        for _ in range(burn_in):
            walker.step()
        # The initial window of l states and the multiset of covered nodes.
        self.window: List[Tuple[int, ...]] = [walker.state]
        for _ in range(spec.l - 1):
            self.window.append(walker.step())
        self.node_multiplicity: Dict[int, int] = {}
        for state in self.window:
            for v in state:
                self.node_multiplicity[v] = self.node_multiplicity.get(v, 0) + 1
        # Degrees of window states, computed once per state on entry
        # (reused as the state slides through the middle positions).  Not
        # needed when the window has no middle (l <= 2) and the basic
        # estimator is in use.
        self.need_degrees = spec.l > 2
        self.window_degrees: List[int] = (
            [self.effective_degree(s) for s in self.window]
            if self.need_degrees
            else [0] * spec.l
        )

    def advance(self, n: int) -> None:
        """Run ``n`` more counted transitions."""
        spec, alphas, walker = self.spec, self.alphas, self.walker
        k, d = spec.k, spec.d
        sums, sample_counts = self.sums, self.sample_counts
        window, node_multiplicity = self.window, self.node_multiplicity
        window_degrees, need_degrees = self.window_degrees, self.need_degrees
        effective_degree = self.effective_degree
        valid_samples = self.valid_samples
        neighbor_set = self.graph.neighbor_set
        for _ in range(n):
            if len(node_multiplicity) == k:
                nodes = sorted(node_multiplicity)
                # Labeled bitmask of the induced subgraph over the sorted nodes.
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
                    p_tilde = sampling_weight(mask, nodes, k, d, effective_degree)
                    weight = 1.0 / p_tilde
                else:
                    # 1 / (alpha_i * pi~_e) with pi~_e = prod of inverse
                    # middle degrees (Theorem 2); for l = 2 it is empty.
                    weight = 1.0 / alphas[type_index]
                    for degree in window_degrees[1:-1]:
                        weight *= degree
                sums[type_index] += weight
                sample_counts[type_index] += 1
                valid_samples += 1

            new_state = walker.step()
            old_state = window.pop(0)
            window.append(new_state)
            for v in old_state:
                remaining = node_multiplicity[v] - 1
                if remaining:
                    node_multiplicity[v] = remaining
                else:
                    del node_multiplicity[v]
            for v in new_state:
                node_multiplicity[v] = node_multiplicity.get(v, 0) + 1
            if need_degrees:
                window_degrees.pop(0)
                window_degrees.append(effective_degree(new_state))
        self.valid_samples = valid_samples
        self.steps += n


#: Lockstep transitions per engine call in the vectorized accumulator.
#: Purely a throughput constant: the per-(chain, type) cells are
#: blocking-independent, so any value yields bit-identical sums.
DEFAULT_ACC_BLOCK = 512


class _VectorizedAccumulator:
    """One-pass vectorized window accumulation for batched chains.

    Turns blocks of engine transitions into ``t x B`` sliding windows at
    once (:mod:`repro.walks.windows`): node multisets sort row-wise to
    count distinct nodes, valid windows classify through batched
    ``has_edges`` probes plus the dense
    :func:`~repro.graphlets.signatures.classification_table`.  Only the
    pairs the window's states leave unproven are probed
    (:func:`~repro.walks.windows.walk_edge_columns`): for d <= 2 the
    k - 1 walk edges span the window, leaving C(k, 2) - (k - 1) probes;
    for d >= 3 all C(k, 2).  Each accumulator serves one graph version
    (:class:`~repro.streaming.continuous.ContinuousSession` builds one
    per epoch), so every walk edge is an edge of the graph it probes.
    The re-weighting is

    * **basic** — Theorem 2's ``1 / alpha_i`` times the middle-state
      degrees, multiplied in the serial loop's exact order
      (``(1/alpha) * d_1 * d_2 …``);
    * **CSS** — Algorithm 3's ``1 / p~(X)`` through the compiled
      :func:`~repro.core.css.css_weight_table` (d >= 3 degrees via the
      deduplicated swap-frontier kernel).

    Both paths scatter-add into per-(chain, type) cells with
    ``np.add.at`` — which applies duplicate indices *sequentially in
    order of appearance*, so every cell accumulates its windows in time
    order exactly like a per-chain Python accumulator, and the
    chain-ordered :func:`pool_chains` of the cells is **bit-identical**
    to the per-chain reference (the test suite's oracle) and independent
    of how the stream was blocked.  The cells also yield the between-chain
    standard error.

    ``budgets`` must be non-increasing (:func:`split_budget` always
    is): chain ``b``'s counted windows are then exactly the first
    ``budgets[b]`` rows, and the chains still in budget at any row form
    a column prefix.

    Driving protocol: construct (consumes ``burn_in`` discarded
    transitions plus the ``l - 2`` window prefill per chain), then call
    :meth:`advance` until :attr:`counted` reaches :attr:`total`.
    ``advance`` consumes any number of counted windows — whole blocks of
    rows (at most :data:`DEFAULT_ACC_BLOCK` per engine call), or part of
    one row (windows within a row count in chain order).
    """

    def __init__(
        self, graph, spec: MethodSpec, alphas, budgets: List[int], engine, burn_in: int
    ) -> None:
        budgets_arr = np.asarray(budgets, dtype=np.int64)
        if np.any(budgets_arr[1:] > budgets_arr[:-1]):
            raise ValueError("budgets must be non-increasing")
        self.graph = graph
        self.spec = spec
        self.chains = len(budgets)
        self.budgets = budgets_arr
        self.alpha_arr = np.asarray(alphas, dtype=np.float64)
        self.num_types = len(alphas)
        self.engine = engine
        self.classify = classification_table(spec.k)
        self.need_degrees = spec.l > 2
        self.weight_table = css_weight_table(spec.k, spec.d) if spec.css else None
        self.chain_sums = np.zeros((self.chains, self.num_types))
        self.sample_counts = np.zeros(self.num_types, dtype=np.int64)
        self.valid_samples = 0
        self.total = int(budgets_arr.sum())
        self._counted = 0
        self._row = 0  # fully consumed window rows (lockstep time steps)
        self._col = 0  # chains consumed of the currently open partial row
        self._pending: Optional[np.ndarray] = None  # open row's l stream rows

        discarded = burn_in
        while discarded > 0:  # chunked so huge burn-ins don't allocate at once
            engine.step_block(min(discarded, 4096))
            discarded -= min(discarded, 4096)
        # Tail = the max(l - 1, 1) stream rows preceding the next window
        # row: window-start states plus l - 2 prefill transitions, so
        # each further transition completes exactly one window row.  (For
        # l = 1 — plain SRW on G(k) — the tail is the *current* state:
        # the serial loop counts a window before each transition, so the
        # window of transition t is the state t starts from.)
        tail = windows_mod.as_stream(engine.states().copy(), self.chains, spec.d)
        if spec.l > 2:
            tail = np.concatenate(
                [
                    tail,
                    windows_mod.as_stream(
                        engine.step_block(spec.l - 2), self.chains, spec.d
                    ),
                ]
            )
        self._tail = tail

    @property
    def counted(self) -> int:
        """Counted windows consumed so far (== budget units)."""
        return self._counted

    def _row_width(self, row: int) -> int:
        """Chains still in budget at window row ``row`` (a column prefix)."""
        return int(np.count_nonzero(self.budgets > row))

    def advance(self, n: int) -> None:
        """Consume exactly ``n`` more counted windows."""
        if n < 0 or self._counted + n > self.total:
            raise ValueError(
                f"cannot consume {n} windows at {self._counted}/{self.total}"
            )
        l = self.spec.l
        if self._pending is not None and n > 0:
            # Resume the open row where the last advance stopped.
            width = self._row_width(self._row)
            take = min(n, width - self._col)
            self._process(self._pending, 1, slice(self._col, self._col + take))
            self._col += take
            self._counted += take
            n -= take
            if self._col == width:
                self._tail = self._pending[1:]
                self._pending = None
                self._col = 0
                self._row += 1
        while n > 0:
            width = self._row_width(self._row)
            if n < width:
                # Open a partial row: one lockstep transition, first n chains.
                self._pending = np.concatenate(
                    [
                        self._tail,
                        windows_mod.as_stream(
                            self.engine.step_block(1), self.chains, self.spec.d
                        ),
                    ]
                )
                self._process(self._pending, 1, slice(0, n))
                self._col = n
                self._counted += n
                return
            # Rows keep one width until the next budget boundary.
            boundary = int(self.budgets[self.budgets > self._row].min())
            t = min(boundary - self._row, n // width, DEFAULT_ACC_BLOCK)
            stream = np.concatenate(
                [
                    self._tail,
                    windows_mod.as_stream(
                        self.engine.step_block(t), self.chains, self.spec.d
                    ),
                ]
            )
            self._process(stream, t, slice(0, width))
            self._tail = stream[-max(l - 1, 1) :].copy()
            self._row += t
            self._counted += t * width
            n -= t * width

    def _process(self, stream: np.ndarray, t: int, cols: slice) -> None:
        """Accumulate the ``t`` window rows of ``stream`` over ``cols``."""
        spec = self.spec
        k, d, l = spec.k, spec.d, spec.l
        sub = stream[:, cols]
        width = sub.shape[1]
        # The first t window rows are the counted ones (for l = 1 the
        # sliding view yields one extra row — the post-transition state,
        # whose window belongs to the *next* counted step).
        windows = windows_mod.sliding_windows(sub, l)[:t]  # (t, width, d, l)
        node_rows = windows.reshape(t * width, d * l)
        valid, uniq = windows_mod.distinct_window_nodes(node_rows, k)
        if not np.any(valid):
            return
        masks = windows_mod.induced_bitmasks(
            self.graph, uniq, k, d, node_rows, valid
        )
        types = self.classify[masks]
        if np.any(types < 0):  # pragma: no cover - windows are connected
            raise RuntimeError("sampled window classified as disconnected")
        if spec.css:
            p_tilde = self.weight_table.weights(
                masks,
                uniq,
                lambda ids: windows_mod.state_degrees(self.graph, ids, d, spec.nb),
            )
            if np.any(p_tilde <= 0):  # pragma: no cover - walk can't reach
                raise RuntimeError("sampled window has zero CSS weight")
            weights = 1.0 / p_tilde
        else:
            weights = 1.0 / self.alpha_arr[types]
            if self.need_degrees:
                middles = windows_mod.sliding_windows(
                    windows_mod.state_degrees(self.graph, sub, d, spec.nb), l
                )[:t].reshape(t * width, l)[valid][:, 1:-1]
                # Multiply one middle degree at a time, in window order —
                # the serial loop's exact sequence, so basic sums stay
                # bit-identical to the reference accumulators.
                for j in range(middles.shape[1]):
                    weights = weights * middles[:, j]
        chain_ids = np.tile(np.arange(self.chains)[cols], t)[valid]
        # Flat cell ids on a view of the cells: same per-cell order.
        np.add.at(self.chain_sums.reshape(-1), chain_ids * self.num_types + types, weights)
        self.sample_counts += np.bincount(types, minlength=self.num_types)
        self.valid_samples += int(valid.sum())


class SRWSession(Session):
    """One run of an ``SRW{d}[CSS][NB]`` method — streamed or one-shot.

    :func:`run_estimation` is this session's :meth:`result`, so every SRW
    run goes through one of its two modes, fixed at construction:

    * **vectorized** (``chains > 1`` on a batch-capable backend — CSR,
      basic and CSS, any d): ``step(n)`` drives the lockstep
      :class:`_VectorizedAccumulator`, whose partial lockstep rows count
      chains in order.  Its per-(chain, type) cells are
      blocking-independent, so however the budget is streamed the final
      sums are the same bits.
    * **serial** (``chains == 1``, or a backend without vectorized
      kernels): one :class:`_SerialChain` per chain.  After ``c``
      consumed units chain ``b`` has run ``split_budget(c, B)[b]``
      transitions (where a round-robin over the chains would stand), so
      however the budget is streamed it ends on the one-shot split.
      Chains are independent, so the order in which one ``step`` feeds
      them cannot change their sums.  ``chains == 1`` keeps
      the caller's rng; more chains each seed their own rng from it and
      warn once (:class:`~repro.walks.batched.BatchFallbackWarning`).

    A mid-run ``snapshot()`` after ``t`` counted transitions of a
    single-chain session equals a fresh ``budget=t`` run of the same
    seed (streaming/batch parity); multi-chain snapshots additionally
    carry the between-chain standard error.  Construction — engine or
    walkers, burn-in, initial windows — is timed into
    ``elapsed_seconds`` like the steps that follow.
    """

    def __init__(
        self,
        graph,
        spec: MethodSpec,
        budget: int,
        rng: Optional[random.Random] = None,
        seed_node: int = 0,
        burn_in: int = 0,
        chains: int = 1,
    ) -> None:
        super().__init__(budget)
        if chains < 1:
            raise ValueError(f"chains must be >= 1, got {chains}")
        if budget < chains:
            raise ValueError(
                f"need at least one transition per chain: budget={budget} < chains={chains}"
            )
        start = time.perf_counter()
        self.graph = graph
        self.spec = spec
        self._chains = chains
        self._alphas = alpha_table(spec.k, spec.d)
        rng = rng if rng is not None else random.Random()
        self._vectorized: Optional[_VectorizedAccumulator] = None
        self._serial: List[_SerialChain] = []
        if chains > 1 and batch_capable(graph, spec.d):
            engine = make_engine(
                graph,
                walk_space(spec.d),
                chains,
                non_backtracking=spec.nb,
                rng=rng,
                seed_node=seed_node,
            )
            self._vectorized = _VectorizedAccumulator(
                graph, spec, self._alphas, split_budget(budget, chains), engine,
                burn_in,
            )
        else:
            if chains > 1:
                warn_serial_fallback(graph, spec.d, stacklevel=2)
                chain_rngs = [random.Random(rng.randrange(2**63)) for _ in range(chains)]
            else:
                chain_rngs = [rng]
            space = walk_space(spec.d)
            self._serial = [
                _SerialChain(
                    graph, spec, self._alphas,
                    make_walk(
                        graph, space, non_backtracking=spec.nb, rng=chain_rng,
                        seed_node=seed_node,
                    ),
                    burn_in,
                )
                for chain_rng in chain_rngs
            ]
        self._elapsed = time.perf_counter() - start

    def _advance(self, n: int) -> None:
        if self._vectorized is not None:
            self._vectorized.advance(n)
            return
        targets = split_budget(self._consumed + n, self._chains)
        for chain, target in zip(self._serial, targets):
            chain.advance(target - chain.steps)

    def snapshot(self) -> Estimate:
        if self._vectorized is not None:
            acc = self._vectorized
            chain_sums = acc.chain_sums
            sample_counts = acc.sample_counts.copy()
            samples = acc.valid_samples
        else:
            chain_sums = [chain.sums for chain in self._serial]
            sample_counts = np.sum([c.sample_counts for c in self._serial], axis=0)
            samples = sum(chain.valid_samples for chain in self._serial)
        sums, stderr = pool_chains(chain_sums)
        return Estimate(
            method=self.spec.name,
            k=self.spec.k,
            steps=self.consumed,
            samples=samples,
            sums=sums,
            sample_counts=sample_counts,
            stderr=stderr,
            elapsed_seconds=self._elapsed,
            meta=_srw_meta(self.spec, self._alphas, self.graph, chains=self._chains),
        )
