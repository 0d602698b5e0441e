"""In-memory span tracing for the benchmark harness.

The harness measures every layer from outside: :class:`Tracer` replaces
public entry points of the library (functions, methods, property
getters) with thin wrappers that record one span per call — name,
start, end, parent span and request id — and restores the originals on
:meth:`Tracer.restore`.  No file under ``src/`` is touched.

Spans stay in memory as tuples until the run ends.  :func:`self_times`
turns them into per-span self time (duration minus the part of the
interval its children cover) and :func:`summarize` into the per-layer
numbers the benchmark reports: calls, self seconds and each span's
share of the total root time.  Because every second of a root span is
either its own self time or some descendant's, the shares of one run
add up to 100%.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: Index of each field in a recorded span tuple.
ID, NAME, START, END, PARENT, RID = range(6)

_MISSING = object()


class Tracer:
    """Records spans and counters; installs and removes wrappers.

    Wrappers use a per-thread stack, so spans opened by concurrent
    client threads nest correctly.  A wrapped call made while the
    innermost open span already has the same name (an overlay method
    delegating to its base, an NB proposal re-drawing through the plain
    one) is not recorded again: it is one call of that layer.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self.missing: List[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}:"
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counters (a forked worker starts clean)."""
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._prefix = f"{os.getpid()}:"

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        """Record the ``with`` block as one span; yields a dict whose
        ``"rid"`` entry may be set inside the block."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        sid = self._prefix + str(next(self._ids))
        info = {"rid": rid}
        stack.append((sid, name))
        start = perf_counter()
        try:
            yield info
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, info["rid"]))

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(
        self,
        fn: Callable,
        name: str,
        counter: Optional[Callable] = None,
        rid: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            sid = tracer._prefix + str(next(tracer._ids))
            stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, None if rid is None else rid(args))
                )
            if counter is not None:
                for key, amount in counter(args, result).items():
                    tracer.count(key, amount)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target whose module and attribute exist.

        A target that cannot be resolved (renamed or removed in the
        library) is listed in :attr:`missing` instead of failing the run;
        its span then simply never fires.
        """
        for target in targets:
            owner = _resolve(target.owner)
            if owner is None or not hasattr(owner, target.attr):
                self.missing.append(f"{target.owner}.{target.attr}")
                continue
            original = vars(owner).get(target.attr, _MISSING)
            current = getattr(owner, target.attr) if original is _MISSING else original
            if isinstance(current, property):
                wrapped = property(
                    self._wrap(current.fget, target.span), current.fset, current.fdel
                )
            else:
                wrapped = self._wrap(current, target.span, target.counter, target.rid)
            setattr(owner, target.attr, wrapped)
            self._undo.append((owner, target.attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counters": dict(self.counters)}


class NullTracer:
    """Stand-in for untraced runs: spans cost one generator frame."""

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        yield {"rid": rid}

    def count(self, name: str, amount: float) -> None:
        pass


class Target(NamedTuple):
    """One wrapped entry point: ``owner`` is ``"module"`` or
    ``"module:Class"``; ``counter(args, result)`` returns counter
    increments; ``rid(args)`` extracts a request id."""

    owner: str
    attr: str
    span: str
    counter: Optional[Callable] = None
    rid: Optional[Callable] = None


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, cls, None) if cls else module


def _step_count(args, result):
    return {"walks.transitions": int(result.shape[0]) * int(result.shape[1])}


def _probe_count(args, result):
    return {"graphs.probes": int(len(result))}


def _dedup_count(args, result):
    valid = result[0]
    return {"windows.rows": int(valid.shape[0]), "windows.valid": int(valid.sum())}


def _reprojected_count(args, result):
    return {"streaming.reprojected": len(result.touched)}


#: Every layer boundary the harness times, in the order of
#: ``BENCHMARK.json``'s per-layer list.
TARGETS: Tuple[Target, ...] = (
    Target("repro.service.worker", "_run_task", "service.task", rid=lambda a: a[1][0]),
    Target("repro.core.estimator:_VectorizedAccumulator", "advance", "estimator.accumulate"),
    Target("repro.walks.batched:BatchedWalkEngine", "step_block", "walks.step_block", _step_count),
    Target("repro.relgraph.vectorized:VectorNodeSpace", "propose", "relgraph.propose.d1"),
    Target("repro.relgraph.vectorized:VectorNodeSpace", "propose_nb", "relgraph.propose.d1"),
    Target("repro.relgraph.vectorized:VectorEdgeSpace", "propose", "relgraph.propose.d2"),
    Target("repro.relgraph.vectorized:VectorEdgeSpace", "propose_nb", "relgraph.propose.d2"),
    Target("repro.relgraph.vectorized:VectorSubgraphSpace", "propose", "relgraph.propose.frontier"),
    Target("repro.relgraph.vectorized:VectorSubgraphSpace", "propose_nb", "relgraph.propose.frontier"),
    Target("repro.relgraph.fused:FusedD3Kernel", "propose", "relgraph.fused.propose"),
    Target("repro.relgraph.fused:FusedD3Kernel", "propose_nb", "relgraph.fused.propose"),
    Target("repro.relgraph.fused:FusedD3Kernel", "ready", "relgraph.fused.ready"),
    Target("repro.walks.windows", "distinct_window_nodes", "windows.dedup", _dedup_count),
    Target("repro.walks.windows", "induced_bitmasks", "windows.bitmasks"),
    Target("repro.walks.windows", "state_degrees", "windows.state_degrees"),
    Target("repro.core.css:CSSWeightTable", "weights", "css.weights"),
    Target("repro.graphs.csr:CSRGraph", "has_edges", "graphs.has_edges", _probe_count),
    Target("repro.graphs.delta:DeltaCSRGraph", "has_edges", "graphs.has_edges", _probe_count),
    Target("repro.graphs.delta:DeltaCSRGraph", "apply", "graphs.delta.apply"),
    Target("repro.graphs.delta:DeltaCSRGraph", "indptr", "graphs.delta.view"),
    Target("repro.graphs.delta:DeltaCSRGraph", "indices", "graphs.delta.view"),
    Target(
        "repro.streaming.continuous:ContinuousSession", "apply_updates",
        "streaming.apply_updates", _reprojected_count,
    ),
    Target("repro.streaming.continuous:ContinuousSession", "refresh", "streaming.refresh"),
)

#: Spans the harness opens itself around its own calls (roots and set-up).
HARNESS_SPANS = (
    "setup",
    "graphs.build",
    "exact.truth",
    "estimators.estimate",
    "service.request",
    "stream.batch",
)

#: Every span name, in report order.
SPAN_NAMES: Tuple[str, ...] = HARNESS_SPANS + tuple(
    dict.fromkeys(t.span for t in TARGETS)
)

# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def _covered(lo: float, hi: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time of every span, keyed by span id: its duration minus
    the part of its interval that its children's intervals cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - _covered(s[START], s[END], children.get(s[ID], ()))
        for s in spans
    }


def summarize(spans: Sequence[Sequence]) -> Dict[str, dict]:
    """Per span name: ``calls``, ``self_s`` and ``share`` (percent of
    the summed duration of root spans, i.e. spans without a parent)."""
    selfs = self_times(spans)
    root_total = sum(s[END] - s[START] for s in spans if s[PARENT] is None)
    out: Dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s[ID]]
    for row in out.values():
        row["share"] = 100.0 * row["self_s"] / root_total if root_total > 0 else 0.0
    return out


def link_requests(spans: List[list], parents: Dict[str, str]) -> None:
    """Attach parentless spans carrying a request id (a worker's task)
    to the client span of that request; ``parents`` maps rid -> span id."""
    for s in spans:
        if s[PARENT] is None and s[RID] in parents:
            s[PARENT] = parents[s[RID]]


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def supported_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """Highest of :data:`PERCENTILES` with at least ``beyond`` samples
    above it in a sample of ``n`` (None when not even the median is)."""
    best = None
    for q in PERCENTILES:
        if n - -(-q * n // 100) >= beyond:
            best = q
    return best
