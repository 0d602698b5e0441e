"""The estimation daemon: one shared graph, a persistent worker pool,
any-time answers.

A :class:`Daemon` publishes its graph into shared memory once
(:class:`~repro.graphs.shared.SharedCSRGraph`), spawns a fixed pool of
worker processes that each attach zero-copy, and then serves
:class:`~repro.service.messages.EstimateRequest`\\ s for as long as it
lives — the NeedleTail contract: a coarse answer immediately, a
tightening confidence interval over time, the exact fixed-seed result at
the end.

Execution model
---------------
A request becomes one or more **parts**:

* ``fanout=False`` (default): the whole request is a single part — one
  worker streams one estimator session in ``snapshot_steps`` chunks.
  Because a chunked session's final result is pinned bit-identical to
  the one-shot run, the daemon's answer equals in-process
  ``repro.estimate(...)`` exactly (same method/seed/graph), snapshots
  included for free.
* ``fanout=True``: ``chains`` single-chain parts with per-chain seeds
  drawn the way the serial multi-chain runner draws them
  (``random.Random(seed).randrange(2**63)``, in chain order) and pooled
  by the same :func:`~repro.core.estimator.pool_chains` — the
  answer is bit-identical to the *serial* multi-chain reference while
  the chains actually run in parallel across workers.

Each worker talks to the daemon over one private duplex connection:
tasks, cancels and pills go in on it, frames come out on it, and no lock
or queue is shared between workers.  Dispatch is pull-based: the
collector thread hands exactly one part to an idle worker at a time, so
a dead worker can forfeit at most one part.  A worker's death reads as
end-of-file on its connection, after every frame it sent has been
routed; the collector then requeues the in-flight part with a bumped
``attempt`` counter (stale frames from the dead incarnation are dropped
— execution stays at-most-once per chain seed, so results remain
deterministic) and spawns a replacement worker.  Requests carry
optional deadlines (the final snapshot is the last progressive answer,
flagged ``timed_out``) and an optional declarative stopping ``target``
(:mod:`repro.core.stopping`), evaluated on every progressive snapshot;
``method="auto"`` resolves through :mod:`repro.estimators.selector`
before parts are built.  A request that early-stops or is cancelled
*releases* its unused budget into a pool — exactly once per request,
with steps walked by SIGKILLed incarnations counted as spent so a
requeue can never double-release; a request that finishes its budget
with its dynamic target still unmet draws replacement budget from that
pool as extra single-chain parts (scheduler-side reallocation — the
freed steps go to whoever is still converging).  Admission is bounded: at most
``max_pending`` requests are in the system, further ``submit`` calls
block (or raise :class:`ServiceOverloaded`).

Shutdown unlinks the shared segment; an ``atexit`` hook (plus the
resource tracker's owner registration) keeps even a crashed daemon from
leaking ``/dev/shm`` segments.

Dynamic graphs
--------------
:meth:`Daemon.apply_updates` accepts an edge-update batch: the served
graph is wrapped in a :class:`~repro.graphs.delta.DeltaCSRGraph` overlay
on first use and the batch goes through its validated ``apply``.  With
``compact=True`` (the default) the overlay is immediately compacted and
the fresh CSR **republished**: a new shared segment is created, a new
worker pool attaches it, and the old workers are retired with a poison
pill — each finishes its in-flight part on the old snapshot first, so
running requests keep snapshot isolation (a part started before the
republish answers from the graph version it started on; fanout requests
spanning a republish may mix versions across parts).  The old segment is
unlinked once the swap is done — POSIX keeps its pages alive for the
draining workers still attached.  With ``compact=False`` updates only
accumulate in the overlay (served to *new* local reads through
``daemon.graph``); workers keep the published snapshot until the next
compacting update.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import queue as queue_module
import random
import threading
import time
from collections import deque
from dataclasses import replace
from multiprocessing.connection import Connection, wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.estimator import pool_chains, split_budget
from ..core.result import Estimate
from ..core.session import EstimationConfig
from ..core.stopping import StopProbe, stopping_record
from ..estimators import get as get_estimator, normalize, select
from ..estimators.adapters import CHAINLESS_METHODS
from ..experiments.spec import resolve_graph
from ..graphs.csr import CSRGraph
from ..graphs.shared import SharedCSRGraph
from .messages import (
    EstimateRequest,
    ServiceClosed,
    ServiceOverloaded,
    Snapshot,
)
from .worker import worker_main

#: How long the collector waits for worker frames before doing its
#: deadline sweep and stop check (seconds).
_POLL_SECONDS = 0.02

#: Grace period for workers to drain their shutdown pill before being
#: terminated outright.
_SHUTDOWN_GRACE = 2.0


def _default_workers() -> int:
    return max(1, min(4, os.cpu_count() or 1))


class _Worker:
    """Daemon-side bookkeeping for one worker process."""

    __slots__ = ("process", "conn", "idle", "inflight", "retired")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn            # the daemon's end of the worker's pipe
        self.idle = True            # tasks wait in the pipe until it attaches
        self.inflight: Optional[Tuple[str, int, int]] = None  # (rid, part, attempt)
        self.retired = False        # pilled by a republish: no new tasks


class _Part:
    """One schedulable unit of a request."""

    __slots__ = ("config", "attempt", "latest", "steps", "final", "dead_steps")

    def __init__(self, config: EstimationConfig):
        self.config = config        # the part's run, as the worker prepares it
        self.attempt = 0
        self.latest: Optional[Estimate] = None   # newest partial frame
        self.steps = 0
        self.final: Optional[Estimate] = None
        self.dead_steps = 0         # steps walked by dead incarnations


class _RequestState:
    """Daemon-side lifecycle of one request."""

    __slots__ = (
        "id", "request", "config", "parts", "snapshots", "done", "final_snapshot",
        "seq", "deadline", "finished", "requeues",
        "selection", "fired", "extra_parts", "extra_steps", "started",
        "budget_returned",
    )

    def __init__(
        self, request_id: str, request: EstimateRequest, config: EstimationConfig
    ):
        self.id = request_id
        self.request = request
        self.config = config       # request.config with "auto" resolved
        self.parts: List[_Part] = []
        self.snapshots: queue_module.Queue = queue_module.Queue()
        self.done = threading.Event()
        self.final_snapshot: Optional[Snapshot] = None
        self.seq = 0
        self.deadline = (
            time.monotonic() + request.timeout_seconds
            if request.timeout_seconds is not None
            else None
        )
        self.finished = False
        self.requeues = 0
        self.selection = None      # SelectionReport when method was "auto"
        self.fired = None          # the stopping rule that ended the run
        self.extra_parts = 0       # reallocation extensions appended
        self.extra_steps = 0       # budget granted beyond request.budget
        self.started = time.monotonic()
        self.budget_returned = False  # unused budget banked into the pool


class RequestHandle:
    """Caller-side view of a submitted request."""

    def __init__(self, daemon: "Daemon", state: _RequestState):
        self._daemon = daemon
        self._state = state

    @property
    def request_id(self) -> str:
        return self._state.id

    def snapshots(self, timeout: Optional[float] = None):
        """Yield progressive :class:`Snapshot` frames, ending with (and
        including) the final one.  Single-consumer: frames are handed
        out once.  ``timeout`` bounds the wait for *each* frame."""
        while True:
            try:
                snapshot = self._state.snapshots.get(timeout=timeout)
            except queue_module.Empty:
                raise TimeoutError(
                    f"no snapshot within {timeout}s for request {self._state.id}"
                ) from None
            yield snapshot
            if snapshot.final:
                return

    def result(self, timeout: Optional[float] = None) -> Estimate:
        """Block until the final answer; raise on timeout/error outcomes.

        A deadline-hit request raises :class:`RequestTimeout` carrying
        the last progressive snapshot; a worker-side failure raises
        :class:`RequestFailed`.  Safe to call whether or not
        :meth:`snapshots` was consumed.
        """
        if not self._state.done.wait(timeout):
            raise TimeoutError(
                f"request {self._state.id} still running after {timeout}s "
                "(its own deadline, if any, has not expired)"
            )
        return self._state.final_snapshot.outcome()

    def cancel(self) -> None:
        """Abandon the request (its final snapshot reports an error)."""
        self._daemon._cancel(self._state)


class Daemon:
    """Persistent estimation service over one shared-memory graph.

    Parameters
    ----------
    graph:
        A ``Graph``/``CSRGraph`` instance or a spec source string
        (``"dataset:karate"``, ``"ba:2000:6:3"``, …).  Whatever comes
        in is converted to CSR once and published to shared memory.
    workers:
        Worker processes (default: ``min(4, cpu_count)``).
    max_pending:
        Bound on requests admitted and not yet finalized; further
        ``submit`` calls block or raise :class:`ServiceOverloaded`.
    start_method:
        ``multiprocessing`` start method (default: the platform's).
    """

    def __init__(
        self,
        graph,
        *,
        workers: Optional[int] = None,
        max_pending: int = 32,
        start_method: Optional[str] = None,
    ) -> None:
        if isinstance(graph, str):
            graph = resolve_graph(graph)
        self._csr = CSRGraph.from_graph(graph)
        # A caller-provided SharedCSRGraph keeps its own lifecycle; the
        # daemon only unlinks segments it published itself.
        self._owns_segment = not isinstance(self._csr, SharedCSRGraph)
        if workers is not None and workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._num_workers = workers or _default_workers()
        self._max_pending = max_pending
        self._ctx = multiprocessing.get_context(start_method)
        self._shared: Optional[SharedCSRGraph] = None
        self._workers: Dict[Connection, _Worker] = {}
        self._worker_ids = itertools.count()
        self._request_ids = itertools.count(1)
        self._requests: Dict[str, _RequestState] = {}
        self._pending: deque = deque()   # (request_id, part_index)
        self._slots = threading.BoundedSemaphore(max_pending)
        self._lock = threading.Lock()
        self._collector: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False
        self._closed = False
        # Budget reallocation pool: steps released by early-stopping
        # requests, granted to still-converging ones (collector thread).
        self._released_budget = 0
        self._reallocated_budget = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def graph(self) -> CSRGraph:
        return self._csr

    def start(self) -> "Daemon":
        """Publish the graph and boot the pool (idempotent)."""
        if self._closed:
            raise ServiceClosed("daemon already closed")
        if self._started:
            return self
        self._shared = self._csr.to_shared()
        atexit.register(self._atexit_cleanup)
        for _ in range(self._num_workers):
            self._spawn_worker()
        self._collector = threading.Thread(
            target=self._collect, name="repro-service-collector", daemon=True
        )
        self._collector.start()
        self._started = True
        return self

    def _spawn_worker(self) -> None:
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(self._shared.handle, child_conn),
            name=f"repro-service-worker-{next(self._worker_ids)}",
            daemon=True,
        )
        process.start()
        # The worker holds the only other end now, so its death (or a
        # frame it was killed halfway through) reads as end-of-file.
        child_conn.close()
        self._workers[conn] = _Worker(process, conn)

    def worker_pids(self) -> List[int]:
        """PIDs of the serving pool (fault-injection tests kill these)."""
        with self._lock:
            return [w.process.pid for w in self._workers.values() if not w.retired]

    def stats(self) -> dict:
        """Small introspection dict (also served over ``ping``)."""
        with self._lock:
            active = [s for s in self._requests.values() if not s.finished]
            return {
                "workers": len([w for w in self._workers.values() if not w.retired]),
                "active_requests": len(active),
                "queued_parts": len(self._pending),
                "requeues": sum(s.requeues for s in self._requests.values()),
                "released_budget": self._released_budget,
                "reallocated_budget": self._reallocated_budget,
                "num_nodes": self._csr.num_nodes,
                "num_edges": self._csr.num_edges,
                "graph_version": int(getattr(self._csr, "version", 0)),
            }

    # ------------------------------------------------------------------
    # Dynamic graph updates
    # ------------------------------------------------------------------
    def apply_updates(
        self, inserts=(), deletes=(), *, compact: bool = True
    ) -> dict:
        """Apply one edge-update batch to the served graph.

        The graph is wrapped in a
        :class:`~repro.graphs.delta.DeltaCSRGraph` overlay on first use
        (``daemon.graph`` is the overlay from then on); the batch is
        validated and atomic, bumping the overlay's ``version``.  With
        ``compact=True`` the overlay is compacted and — if the pool is
        running — the fresh CSR is republished: new segment, new
        workers, old workers retired after draining their in-flight
        parts, old segment unlinked.  Returns a small stats dict
        (``version``, ``num_edges``, ``republished``).
        """
        from ..graphs.delta import DeltaCSRGraph

        if self._closed:
            raise ServiceClosed("daemon is closed")
        with self._lock:
            if not isinstance(self._csr, DeltaCSRGraph):
                self._csr = DeltaCSRGraph(self._csr)
                # Any future publication is a fresh segment the daemon owns
                # (a caller-provided shared segment stays with the caller).
                self._owns_segment = True
            delta = self._csr
            delta.apply(inserts=inserts, deletes=deletes)
            republished = False
            if compact:
                fresh = delta.compact()
                if self._started:
                    self._republish(fresh)
                    republished = True
            return {
                "version": delta.version,
                "num_edges": delta.num_edges,
                "republished": republished,
            }

    def _republish(self, csr: CSRGraph) -> None:
        """Swap the published segment and worker pool (lock held).

        Old workers get a poison pill after their current part: a busy
        worker finishes the part it holds against the old (unlinked but
        still mapped) segment, then exits.  A retired worker that dies
        mid-part is caught by :meth:`_reap`, which requeues the part for
        the new pool without respawning the old one.
        """
        old_shared, old_owned = self._shared, self._owns_segment
        self._shared = csr.to_shared()
        self._owns_segment = True
        for worker in list(self._workers.values()):
            if worker.retired:
                continue
            worker.retired = True
            worker.idle = False
            self._send(worker, None)
        for _ in range(self._num_workers):
            self._spawn_worker()
        if old_shared is not None and old_owned:
            old_shared.close()
            old_shared.unlink()

    def close(self) -> None:
        """Graceful shutdown: stop workers, unlink the shared segment."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        with self._lock:
            for state in self._requests.values():
                if not state.finished:
                    self._finalize(state, error="daemon shutting down")
            self._pending.clear()
        self._stop.set()
        if self._collector is not None:
            self._collector.join(timeout=_SHUTDOWN_GRACE + 3)
        for worker in self._workers.values():
            if not worker.retired:
                self._send(worker, None)
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in self._workers.values():
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.conn.close()
        if self._owns_segment:
            self._shared.close()
            self._shared.unlink()
        atexit.unregister(self._atexit_cleanup)

    def _atexit_cleanup(self) -> None:  # pragma: no cover - exit path
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "Daemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        request: EstimateRequest,
        *,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> RequestHandle:
        """Admit a request; returns a :class:`RequestHandle`.

        Blocks while the daemon already holds ``max_pending`` unfinished
        requests (``block=False`` raises :class:`ServiceOverloaded`
        immediately instead).
        """
        if self._closed:
            raise ServiceClosed("daemon is closed")
        if not self._started:
            self.start()
        config, selection = request.config, None
        if normalize(config.method) == "auto":
            selection = select(self._csr, config)
            # Workers already hold the CSR substrate: no backend switch.
            config = replace(selection.apply(config), backend=None)
        get_estimator(config.method)  # unknown methods fail fast, pre-queue
        if (
            request.fanout
            and config.chains > 1
            and normalize(config.method) in CHAINLESS_METHODS
        ):
            raise ValueError(
                f"method {config.method!r} has no independent-chain "
                "decomposition; submit it with fanout=False"
            )
        if not self._slots.acquire(blocking=block, timeout=timeout):
            raise ServiceOverloaded(
                f"daemon already holds {self._max_pending} unfinished "
                "requests (bounded admission); retry later or submit with "
                "block=True"
            )
        request_id = f"r{next(self._request_ids)}"
        state = _RequestState(request_id, request, config)
        state.selection = selection
        self._build_parts(state)
        with self._lock:
            self._requests[request_id] = state
            for index in range(len(state.parts)):
                self._pending.append((request_id, index))
            self._dispatch()
        return RequestHandle(self, state)

    def estimate(self, method: str, **kwargs) -> Estimate:
        """Convenience: submit + block for the final answer.

        ``timeout`` (if any) is carried by the request itself via
        ``timeout_seconds``; keyword arguments mirror
        :class:`EstimateRequest`.
        """
        handle = self.submit(EstimateRequest(method=method, **kwargs))
        return handle.result()

    @staticmethod
    def _add_part(
        state: _RequestState, budget: int, seed: Optional[int], chains: int
    ) -> None:
        """Append a part running ``state.config`` with its own fixed step
        budget, seed and chain count.  The part's target is that plain
        budget (``budget=None`` lets it set the cap): the daemon, not the
        worker, evaluates the request's stopping rule on pooled frames."""
        config = replace(
            state.config, target=int(budget), budget=None, seed=seed, chains=chains
        )
        state.parts.append(_Part(config))

    def _build_parts(self, state: _RequestState) -> None:
        config = state.config
        if not state.request.fanout or config.chains == 1:
            self._add_part(state, config.budget, config.seed, config.chains)
            return
        # Serial multi-chain seed derivation, chain order == part order.
        rng = random.Random(config.seed)
        for budget in split_budget(config.budget, config.chains):
            self._add_part(state, budget, rng.randrange(2**63), 1)

    def _cancel(self, state: _RequestState) -> None:
        with self._lock:
            if not state.finished:
                self._finalize(
                    state, error="cancelled by caller", cancelled=True
                )

    # ------------------------------------------------------------------
    # Collector: routing, worker deaths, deadlines (single thread)
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                conns = list(self._workers)
            readable = wait(conns, timeout=_POLL_SECONDS)
            with self._lock:
                for conn in readable:
                    worker = self._workers[conn]
                    try:
                        while conn.poll():
                            self._route(worker, conn.recv())
                    except (EOFError, OSError):
                        self._reap(worker)
                self._enforce_deadlines()
                self._dispatch()

    def _send(self, worker: _Worker, message) -> None:
        """Send on a worker's pipe (lock held); a dead worker's broken
        pipe is left for the collector, which reads its end-of-file."""
        try:
            worker.conn.send(message)
        except OSError:
            pass

    def _route(self, worker: _Worker, frame) -> None:
        kind, request_id, attempt, part_index = frame[:4]
        if kind != "partial":
            worker.idle = not worker.retired
            worker.inflight = None
        state = self._requests.get(request_id)
        if state is None or state.finished:
            return
        part = state.parts[part_index]
        if attempt != part.attempt:
            return  # stale frame from a pre-requeue incarnation
        if kind == "partial":
            part.latest = frame[4]
            part.steps = frame[4].steps
            self._emit_progress(state)
        elif kind == "done":
            part.final = frame[4]
            part.latest = frame[4]
            part.steps = frame[4].steps
            if all(p.final is not None for p in state.parts):
                if self._maybe_extend(state):
                    self._emit_progress(state)
                else:
                    self._finalize(state)
            else:
                self._emit_progress(state)
        elif kind == "error":
            self._finalize(state, error=frame[4])

    def _reap(self, worker: _Worker) -> None:
        """Forget a worker whose pipe hit end-of-file (lock held).

        Every frame it sent has been routed by now.  A part it still
        held is requeued; a retired worker (pilled by a republish) is not
        respawned, since its pool has been replaced.
        """
        worker.conn.close()
        del self._workers[worker.conn]
        if worker.inflight is not None:
            request_id, part_index, attempt = worker.inflight
            state = self._requests.get(request_id)
            if state is not None and not state.finished:
                part = state.parts[part_index]
                if part.attempt == attempt and part.final is None:
                    # Forget the dead incarnation's partial progress so
                    # the retry replays the identical chain from step 0
                    # (at-most-once per chain seed).  Its walked steps
                    # stay on the books as spent compute, so a later
                    # release cannot bank them as unused budget.
                    part.dead_steps += part.steps
                    part.attempt += 1
                    part.latest = None
                    part.steps = 0
                    state.requeues += 1
                    self._pending.appendleft((request_id, part_index))
        if not worker.retired and not self._stop.is_set() and not self._closed:
            self._spawn_worker()

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for state in list(self._requests.values()):
            if (
                not state.finished
                and state.deadline is not None
                and now >= state.deadline
            ):
                self._finalize(state, timed_out=True)

    def _dispatch(self) -> None:
        idle = [w for w in self._workers.values() if w.idle]
        while idle and self._pending:
            request_id, part_index = self._pending.popleft()
            state = self._requests.get(request_id)
            if state is None or state.finished:
                continue
            part = state.parts[part_index]
            worker = idle.pop()
            worker.idle = False
            worker.inflight = (request_id, part_index, part.attempt)
            self._send(
                worker,
                (
                    request_id,
                    part.attempt,
                    part_index,
                    part.config,
                    state.request.effective_snapshot_steps(),
                ),
            )

    # ------------------------------------------------------------------
    # Pooling + snapshot emission (collector thread, lock held)
    # ------------------------------------------------------------------
    def _pool(self, state: _RequestState) -> Optional[Estimate]:
        """Pooled estimate over the parts' freshest frames.

        With every part final and parts in chain order this is the
        serial multi-chain session's pooling, so the final fanout answer
        is bit-identical to the serial reference.
        """
        frames = [p.final if p.final is not None else p.latest for p in state.parts]
        frames = [f for f in frames if f is not None]
        if not frames:
            return None
        if len(state.parts) == 1:
            return frames[0]
        chains_done = len(frames)
        first = frames[0]
        meta = dict(first.meta)
        if state.extra_parts:
            # Reallocation extensions are extra single-chain parts; the
            # pooled chain count is simply how many frames contributed.
            meta["chains"] = chains_done
        else:
            meta["chains"] = state.config.chains if chains_done == len(
                state.parts
            ) else chains_done
        sums, stderr = pool_chains([f.sums for f in frames])
        return Estimate(
            method=first.method,
            k=first.k,
            steps=int(sum(f.steps for f in frames)),
            samples=int(sum(f.samples for f in frames)),
            sums=sums,
            sample_counts=np.sum([f.sample_counts for f in frames], axis=0),
            stderr=stderr,
            elapsed_seconds=sum(f.elapsed_seconds for f in frames),
            meta=meta,
        )

    def _make_snapshot(self, state: _RequestState, **flags) -> Snapshot:
        estimate = self._pool(state)
        if estimate is not None and state.selection is not None:
            estimate.meta["selection"] = state.selection.to_dict()
        state.seq += 1
        snapshot = Snapshot(
            request_id=state.id,
            seq=state.seq,
            steps=0 if estimate is None else int(estimate.steps),
            budget=state.config.budget + state.extra_steps,
            estimate=estimate,
            parts=len(state.parts),
            parts_done=sum(1 for p in state.parts if p.final is not None),
            **flags,
        )
        spec = state.request.target
        if spec is not None:
            # Live observability: repro query --watch prints the active
            # rule (and the stderr it is chasing) per snapshot line.
            snapshot.meta["stopping"] = {
                "target": spec.describe(),
                "dynamic": spec.dynamic,
            }
        return snapshot

    def _probe(self, state: _RequestState, estimate: Estimate) -> StopProbe:
        """The stopping check of a pooled ``estimate`` of ``state``."""
        return StopProbe(
            estimate=estimate,
            steps=int(estimate.steps),
            budget=state.config.budget + state.extra_steps,
            elapsed=time.monotonic() - state.started,
        )

    def _emit_progress(self, state: _RequestState) -> None:
        snapshot = self._make_snapshot(state)
        spec = state.request.target
        if (
            spec is not None
            and spec.dynamic
            and snapshot.estimate is not None
        ):
            fired = spec.firing(self._probe(state, snapshot.estimate))
            if fired is not None and fired.dynamic:
                state.fired = fired
                self._finalize(state, early=True, progress_snapshot=snapshot)
                return
        state.snapshots.put(snapshot)

    def _maybe_extend(self, state: _RequestState) -> bool:
        """Grant released budget to a still-converging request.

        Called when every part is final but before finalization: if the
        request carries an *unsatisfied* dynamic target and the pool
        holds budget released by early-stopped peers, append one more
        single-chain part funded from the pool (capped at 3x the
        original budget in extra steps).  Only layouts whose parts pool as
        equal chains are eligible — fanout requests, or single-chain
        requests (where the extension also buys the between-chain
        stderr the target needs).
        """
        request, config = state.request, state.config
        spec = request.target
        if spec is None or not spec.dynamic:
            return False
        if self._released_budget <= 0:
            return False
        if state.extra_steps >= 3 * config.budget:
            return False
        if normalize(config.method) in CHAINLESS_METHODS:
            return False
        if not request.fanout and config.chains != 1:
            return False
        pooled = self._pool(state)
        if pooled is None or spec.satisfied(self._probe(state, pooled)):
            return False
        grant = min(self._released_budget, config.budget)
        if grant < 1:
            return False
        self._released_budget -= grant
        self._reallocated_budget += grant
        state.extra_steps += grant
        index = len(state.parts)
        # Extension seeds are a pure function of (request seed, part
        # index), so a rerun of the same traffic extends identically.
        seed = random.Random(f"extend:{config.seed}:{index}").randrange(2**63)
        self._add_part(state, grant, seed, 1)
        state.extra_parts += 1
        self._pending.append((state.id, index))
        return True

    def _finalize(
        self,
        state: _RequestState,
        *,
        timed_out: bool = False,
        error: Optional[str] = None,
        early: bool = False,
        progress_snapshot: Optional[Snapshot] = None,
        cancelled: bool = False,
    ) -> None:
        if state.finished:
            return
        state.finished = True
        if progress_snapshot is not None:
            snapshot = progress_snapshot
            snapshot.final = True
            snapshot.early_stopped = True
        else:
            snapshot = self._make_snapshot(
                state, final=True, timed_out=timed_out, early_stopped=early
            )
            snapshot.error = error
        spec = state.request.target
        if (snapshot.early_stopped or cancelled) and not state.budget_returned:
            # An early stop or a caller cancel abandons the rest of its
            # budget; bank it for still-converging requests (see
            # _maybe_extend).  The walked steps of a part whose worker
            # died count as spent even though a requeue reset its frames
            # — otherwise a cancel after a SIGKILL would bank the same
            # share twice (once as "unused", once via the replay that
            # never runs).  ``budget_returned`` makes the release
            # exactly-once under any finalize/requeue interleaving.
            state.budget_returned = True
            dead_steps = sum(
                p.dead_steps for p in state.parts if p.final is None
            )
            released = max(0, snapshot.budget - snapshot.steps - dead_steps)
            self._released_budget += released
        if (
            spec is not None
            and spec.dynamic
            and snapshot.estimate is not None
            and error is None
        ):
            if state.fired is None:
                state.fired = spec.firing(self._probe(state, snapshot.estimate))
            snapshot.estimate.meta["stopping"] = stopping_record(
                spec,
                state.fired,
                early=snapshot.early_stopped,
                steps=snapshot.steps,
                extra_steps=int(state.extra_steps),
            )
        state.final_snapshot = snapshot
        state.snapshots.put(snapshot)
        state.done.set()
        # Stop the workers still running a part of this request; its
        # queued parts are skipped at dispatch.
        for worker in self._workers.values():
            if worker.inflight is not None and worker.inflight[0] == state.id:
                self._send(worker, state.id)
        try:
            self._slots.release()
        except ValueError:  # pragma: no cover - defensive double-release
            pass
