"""The benchmark's five workloads, and the child process that runs one.

``run.py`` starts this file once per workload, in a fresh process with
``OMP_NUM_THREADS=1`` and ``PYTHONPATH`` pointing at ``src``::

    python benchmarks/perf/workloads.py --workload walk-k3 --seed 0 \\
        --seconds 10 --trace 0 --result out/walk-k3.json --workdir out/walk-k3

Every workload follows one shape:

1. **Set-up**, repeated :attr:`Scale.setup_reps` times (``setup_s`` is
   the median): build the graph, load its exact truth, one warm-up
   operation.  The serve workload instead times a daemon from spawn to
   its first answered ping; the stream workload times session
   construction plus its first refresh.
2. **Timed loop**: operations until ``--seconds`` have passed and at
   least :attr:`Scale.min_ops` have run.  Inputs (call seeds, request
   seeds, edge batches) derive from ``--seed`` by operation index, so a
   seed fixes every input and the first operations of two runs agree.
3. **Checks** on the outputs; see each ``run_*`` function.

The result is one JSON document: the end-to-end metrics, the checks,
extra numbers (tail latencies with their sample counts, NRMSE, the
output digest) and, for a traced run, the per-layer metrics and spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.graphlets import graphlets
from repro.service import Client
from repro.streaming import ContinuousSession, EdgeStreamSpec

import spans
import truth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Operations whose outputs feed the ``digest`` (bit-identity across commits).
DIGEST_OPS = 8
#: Serve answers compared bit for bit with in-process ``repro.estimate``.
IDENTITY_OPS = 8
#: Tolerance of the statistical checks, in standard errors.  See README.md
#: for why it is 5 and not 4.
CHECK_SEM = 5.0


@dataclass(frozen=True)
class Walk:
    """``repro.estimate(graph, method, k, chains, budget)`` per operation."""

    graph: str
    method: str
    k: int
    chains: int
    budget: int
    target: str


@dataclass(frozen=True)
class Serve:
    """A ``repro serve`` daemon under a closed loop of ``clients`` threads,
    requests cycling through ``requests`` (method, k) by index."""

    graph: str
    requests: Tuple[Tuple[str, int], ...]
    budget: int
    chains: int
    workers: int = 2
    clients: int = 2
    warmup: int = 4


@dataclass(frozen=True)
class Stream:
    """A :class:`ContinuousSession` fed ``leg`` seeded +churn/-churn edge
    batches forward, then the same batches undone in reverse, repeatedly."""

    graph: str
    method: str
    k: int
    chains: int
    refresh_budget: int
    churn: int
    leg: int


@dataclass(frozen=True)
class Scale:
    workloads: Dict[str, object]
    min_ops: int
    setup_reps: int


FULL = Scale(
    workloads={
        "walk-k3": Walk("ba:10000:10:0", "srw1cssnb", 3, 256, 512_000, "triangle"),
        "walk-k4": Walk("ba:10000:10:0", "srw3", 4, 256, 64_000, "clique"),
        "walk-k5": Walk("plc:400:3:0.5:0", "srw4", 5, 256, 24_000, "g5_14"),
        "serve": Serve(
            "ba:10000:10:0", (("srw2css", 4), ("srw1cssnb", 3)), budget=2048, chains=8
        ),
        "stream": Stream(
            "ba:10000:10:0", "SRW1CSSNB", 3, chains=16, refresh_budget=4096,
            churn=20, leg=25,
        ),
    },
    min_ops=20,
    setup_reps=3,
)

#: The same workloads on graphs small enough for the test suite.
TINY = Scale(
    workloads={
        "walk-k3": Walk("ba:300:4:1", "srw1cssnb", 3, 16, 4_000, "triangle"),
        "walk-k4": Walk("ba:300:4:1", "srw3", 4, 16, 1_600, "tailed-triangle"),
        "walk-k5": Walk("plc:60:3:0.5:1", "srw4", 5, 16, 800, "bull"),
        "serve": Serve(
            "ba:300:4:1", (("srw2css", 4), ("srw1cssnb", 3)), budget=512, chains=4,
            warmup=2,
        ),
        "stream": Stream(
            "ba:300:4:1", "SRW1CSSNB", 3, chains=4, refresh_budget=256, churn=3, leg=3
        ),
    },
    min_ops=4,
    setup_reps=1,
)

WORKLOADS = tuple(FULL.workloads)

#: End-to-end metrics (name -> unit), reported by every workload.
E2E_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def derive(seed: int, *labels) -> int:
    """A 63-bit seed from the run seed and labels (sha512 string seeding,
    so stable across processes and platforms)."""
    return random.Random(":".join(["perf", str(seed), *map(str, labels)])).randrange(2**63)


def build_graph(source: str):
    """The CSR graph named by ``ba:<n>:<m>:<seed>`` or
    ``plc:<n>:<m>:<p>:<seed>`` (the library's own generators)."""
    kind, *rest = source.split(":")
    if kind == "ba":
        n, m, seed = (int(x) for x in rest)
        graph = repro.barabasi_albert(n, m, seed=seed)
    elif kind == "plc":
        graph = repro.powerlaw_cluster(int(rest[0]), int(rest[1]), float(rest[2]), seed=int(rest[3]))
    else:
        raise ValueError(f"unknown graph source {source!r}")
    return repro.CSRGraph.from_graph(graph)


def truth_needs(scale: Scale) -> List[Tuple[str, int]]:
    """Every (graph, k) whose exact truth a scale's workloads read."""
    needs = []
    for cfg in scale.workloads.values():
        if isinstance(cfg, Walk):
            needs.append((cfg.graph, cfg.k))
        elif isinstance(cfg, Serve):
            needs.append((cfg.graph, 3))
    return list(dict.fromkeys(needs))


def type_index(k: int, name: str) -> int:
    for g in graphlets(k):
        if g.name == name:
            return g.index
    raise ValueError(f"no {k}-node graphlet named {name!r}")


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
#: Seconds :func:`calibration_kernel` takes on the reference host (the
#: 2-core Xeon VM the baseline was recorded on, when quiet).
CALIB_REF_S = 0.030


@lru_cache(maxsize=1)
def _calibration_data() -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(12345)
    return np.sort(rng.integers(0, 1 << 40, 100_000)), rng.integers(0, 100_000, (16, 4096))


def calibration_kernel() -> None:
    """Fixed work, independent of the library: a Python loop plus the
    NumPy gathers, binary searches and sorts the walk kernels are made
    of.  Its time tracks the host's current speed."""
    total = 0
    for i in range(100_000):
        total += i * i
    keys, rows = _calibration_data()
    for row in rows:
        probe = keys[row]
        np.searchsorted(keys, probe)
        np.argsort(probe, kind="stable")
        np.unique(probe)


class Calibration:
    """Timings paired with samples of :func:`calibration_kernel`.

    The host this benchmark runs on is shared: its speed drifts by tens
    of percent over minutes, and the library's code slows down with the
    kernel.  Every timing is therefore paired with the calibration
    sample taken right after it, while the measured code is idle, and
    reported at the reference speed: ``seconds * CALIB_REF_S / sample``.
    Over 200 s of walk-k3 calls on this VM, pairing each call with a
    kernel of this kind cut the spread of the per-window median call
    time from 19% raw to 2%.
    """

    def __init__(self) -> None:
        _calibration_data()  # built before the first sample, not inside it
        self.samples: List[float] = []
        self._timings: Dict[str, List[list]] = {}
        self._waiting: List[list] = []
        self._last = perf_counter()

    def add(self, kind: str, seconds: float) -> None:
        """Record a timing; it pairs with the next sample."""
        row = [seconds, -1]
        self._timings.setdefault(kind, []).append(row)
        self._waiting.append(row)

    def pair(self, every: float = 0.0, runs: int = 1) -> None:
        """Sample now if timings wait for one and the last sample is at
        least ``every`` seconds old (cheap operations share a sample);
        the sample is the median of ``runs`` kernel runs."""
        if not self._waiting or perf_counter() - self._last < every:
            return
        times = []
        for _ in range(runs):
            start = perf_counter()
            calibration_kernel()
            times.append(perf_counter() - start)
        self.samples.append(statistics.median(times))
        for row in self._waiting:
            row[1] = len(self.samples) - 1
        self._waiting = []
        self._last = perf_counter()

    def raw(self, kind: str) -> List[float]:
        return [seconds for seconds, _ in self._timings.get(kind, ())]

    def scaled(self, kind: str) -> List[float]:
        """The ``kind`` timings at the reference host speed."""
        return [
            seconds * CALIB_REF_S / self.samples[i]
            for seconds, i in self._timings.get(kind, ())
        ]

    def speed(self) -> float:
        """Host speed over the run relative to the reference (>1: faster)."""
        return CALIB_REF_S / statistics.median(self.samples)


# ----------------------------------------------------------------------
# Shared measurement helpers
# ----------------------------------------------------------------------
class Run:
    """Everything one workload run records."""

    def __init__(self) -> None:
        self.clock = Calibration()  # "setup" and "op" timings, paired
        self.steps_per_s = 0.0
        self.peak_rss_mb: Optional[float] = None
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.checks: List[Tuple[str, bool, str]] = []
        self.extra: Dict[str, object] = {}

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def valid_estimate(est, steps: Optional[int] = None) -> bool:
    """Finite concentrations summing to 1 (and the expected step count)."""
    conc = est.concentrations
    ok = bool(np.all(np.isfinite(conc))) and abs(float(conc.sum()) - 1.0) < 1e-9
    return ok and (steps is None or est.steps == steps)


def digest(estimates) -> str:
    """sha256 over the re-weighted sums of the first :data:`DIGEST_OPS`
    estimates, in operation order."""
    h = hashlib.sha256()
    for est in estimates[:DIGEST_OPS]:
        h.update(np.ascontiguousarray(est.sums, dtype="<f8").tobytes())
    return h.hexdigest()


def sem_check(run: Run, name: str, mean: float, truth_value: float, sem: float) -> None:
    z = (mean - truth_value) / sem if sem > 0 else (0.0 if mean == truth_value else math.inf)
    run.check(
        name, abs(z) <= CHECK_SEM,
        f"estimate {mean:.6g} vs truth {truth_value:.6g}, {z:+.2f} standard errors",
    )


def accuracy(run: Run, estimates, index: int, truth_value: float, op_s: float) -> None:
    """NRMSE and between-chain relative stderr of one graphlet type, and
    the projected seconds for one operation to reach 5% NRMSE (the
    paper's accuracy-per-cost figure of merit)."""
    values = np.array([e.concentrations[index] for e in estimates])
    stderrs = np.array([e.stderr[index] for e in estimates])
    nrmse = float(np.sqrt(np.mean((values - truth_value) ** 2)) / truth_value)
    run.extra.update(
        nrmse=nrmse,
        rse=float(np.sqrt(np.mean(stderrs**2)) / truth_value),
        time_to_nrmse_s=op_s * (nrmse / 0.05) ** 2,
    )


def tail(values_ms: List[float]) -> Dict[str, object]:
    """Median and the highest percentile with >= 10 samples beyond it."""
    out: Dict[str, object] = {"samples": len(values_ms)}
    if not values_ms:
        return out
    out["p50"] = spans.percentile(values_ms, 50)
    q = spans.supported_percentile(len(values_ms))
    if q is not None and q > 50:
        out[f"p{q:g}"] = spans.percentile(values_ms, q)
    return out


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mb(pid: int) -> float:
    """Peak RSS of a process plus its direct children (daemon + workers)."""
    total = _hwm_mb(pid)
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            total += sum(_hwm_mb(int(child)) for child in handle.read().split())
    except OSError:
        pass
    return total


# ----------------------------------------------------------------------
# walk-k3 / walk-k4 / walk-k5
# ----------------------------------------------------------------------
def _walk_call(graph, cfg: Walk, seed: int):
    return repro.estimate(
        graph, cfg.method, k=cfg.k, budget=cfg.budget, chains=cfg.chains,
        seed=seed, backend="csr",
    )


def run_walk(cfg: Walk, seed: int, seconds: float, tracer, scale: Scale, run: Run) -> None:
    """Back-to-back ``repro.estimate`` calls on one graph.

    Checks: every estimate is valid, and the target type's mean over the
    calls lies within :data:`CHECK_SEM` pooled between-chain standard
    errors of exact truth.
    """
    for rep in range(scale.setup_reps):
        with tracer.span("setup"):
            start = perf_counter()
            with tracer.span("graphs.build"):
                graph = build_graph(cfg.graph)
            with tracer.span("exact.truth"):
                counts, recomputed = truth.exact_counts(graph, cfg.k)
            _walk_call(graph, cfg, derive(seed, "warmup", rep))
            run.clock.add("setup", perf_counter() - start)
        run.clock.pair()
    target = type_index(cfg.k, cfg.target)
    truth_value = counts[target] / sum(counts)

    estimates = []
    start = perf_counter()
    while run.attempted < scale.min_ops or perf_counter() - start < seconds:
        call_seed = derive(seed, "call", run.attempted)
        run.attempted += 1
        t0 = perf_counter()
        try:
            with tracer.span("estimators.estimate"):
                est = _walk_call(graph, cfg, call_seed)
        except Exception as exc:  # a failed operation is counted, not fatal
            run.fail(exc)
            continue
        elapsed = perf_counter() - t0
        if not valid_estimate(est, cfg.budget):
            run.fail(ValueError(f"invalid estimate from call {run.attempted - 1}"))
            continue
        run.clock.add("op", elapsed)
        estimates.append(est)
        run.clock.pair()

    run.steps_per_s = statistics.median(cfg.budget / t for t in run.clock.scaled("op"))
    run.extra.update(truth_recomputed=recomputed, target=cfg.target, truth=truth_value)
    run.check("estimates valid", run.failed == 0, f"{run.failed} of {run.attempted} failed")
    if estimates:
        values = [e.concentrations[target] for e in estimates]
        sem = math.sqrt(sum(e.stderr[target] ** 2 for e in estimates)) / len(estimates)
        sem_check(run, f"{cfg.target} vs exact truth", statistics.fmean(values), truth_value, sem)
        accuracy(run, estimates[: scale.min_ops], target, truth_value,
                 statistics.median(run.clock.scaled("op")))
        run.extra["digest"] = digest(estimates)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
#: Seconds of closed-loop load between two calibration samples.
SERVE_CHUNK_S = 0.5


def _spawn_daemon(cfg: Serve, socket: str, workdir: Path, span_dir: Optional[Path]):
    args = ["--source", cfg.graph, "--socket", socket, "--workers", str(cfg.workers)]
    env = dict(os.environ)
    if span_dir is None:
        cmd = [sys.executable, "-m", "repro", "serve", *args]
    else:
        cmd = [sys.executable, str(HERE / "serve_traced.py"), *args]
        env["PERF_SPAN_DIR"] = str(span_dir)
    with open(workdir / "daemon.log", "ab") as log:
        return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)


def _wait_ready(proc, client: Client, timeout: float = 120.0) -> dict:
    deadline = perf_counter() + timeout
    while True:
        try:
            return client.ping()
        except (OSError, EOFError):
            if proc.poll() is not None:
                raise RuntimeError(f"daemon exited with code {proc.returncode}") from None
            if perf_counter() > deadline:
                raise TimeoutError("daemon did not answer a ping") from None
            threading.Event().wait(0.02)


def _stop_daemon(proc, client: Client) -> None:
    try:
        client.shutdown()
    except (OSError, EOFError):
        pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class _Load:
    """Hands out request indices to the client threads of a closed loop,
    one chunk of at most ``chunk`` seconds at a time, until ``seconds``
    of load have run and ``min_ops`` requests were issued."""

    def __init__(self, min_ops: int, seconds: float, chunk: float) -> None:
        self.min_ops = min_ops
        self.seconds = seconds
        self.chunk = chunk
        self.issued = 0
        self.elapsed = 0.0
        self.chunk_start = perf_counter()
        self.lock = threading.Lock()

    @property
    def done(self) -> bool:
        return self.issued >= self.min_ops and self.elapsed >= self.seconds

    def take(self) -> Optional[int]:
        with self.lock:
            running = perf_counter() - self.chunk_start
            if running >= self.chunk or (
                self.issued >= self.min_ops and self.elapsed + running >= self.seconds
            ):
                return None
            self.issued += 1
            return self.issued - 1


def _client_loop(cfg: Serve, socket: str, seed: int, phase: str, load: _Load, records, tracer):
    client = Client(socket)
    while True:
        i = load.take()
        if i is None:
            return
        method, k = cfg.requests[i % len(cfg.requests)]
        with tracer.span("service.request") as info:
            t0 = perf_counter()
            first = final = None
            error = None
            try:
                for snap in client.stream(
                    method, k=k, budget=cfg.budget, chains=cfg.chains,
                    seed=derive(seed, phase, i),
                ):
                    if first is None:
                        first = perf_counter()
                    final = snap
            except Exception as exc:  # counted as a failed request
                error = exc
            t1 = perf_counter()
            info["rid"] = None if final is None else final.request_id
        if error is None and (final is None or final.error or final.timed_out):
            error = RuntimeError(f"request {i} ended without an answer")
        if error is None and not valid_estimate(final.estimate, cfg.budget):
            error = ValueError(f"invalid answer to request {i}")
        records[i] = (t1 - t0, None if first is None else first - t0, final, error)


def _load_chunk(cfg: Serve, socket: str, seed: int, phase: str, load: _Load, tracer):
    """One chunk of closed-loop load; returns its records and wall time."""
    records: Dict[int, tuple] = {}
    load.chunk_start = perf_counter()
    threads = [
        threading.Thread(
            target=_client_loop, args=(cfg, socket, seed, phase, load, records, tracer)
        )
        for _ in range(cfg.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = perf_counter() - load.chunk_start
    load.elapsed += wall
    return records, wall


def run_serve(cfg: Serve, seed: int, seconds: float, tracer, scale: Scale, run: Run,
              workdir: Path) -> Tuple[List[list], Dict[str, float]]:
    """A closed loop of ``cfg.clients`` threads against ``repro serve``.

    The load runs in chunks of :data:`SERVE_CHUNK_S`; between chunks the
    daemon is idle and the host is calibrated.  Checks: every final
    answer is valid, and the first :data:`IDENTITY_OPS` answers are
    bit-identical to in-process ``repro.estimate(..., backend="csr")``
    with the same arguments (the daemon's ``fanout=False`` contract).
    Returns the workers' spans and counters when traced.
    """
    socket = os.path.relpath(workdir / "serve.sock", ROOT)
    span_dir = None
    if isinstance(tracer, spans.Tracer):
        span_dir = workdir / "worker-spans"
        span_dir.mkdir(exist_ok=True)
    client = Client(socket)
    with tracer.span("graphs.build"):
        graph = build_graph(cfg.graph)
    with tracer.span("exact.truth"):
        tri_counts, recomputed = truth.exact_counts(graph, 3)
    finals: Dict[int, object] = {}
    first_ms, worker_ms, overhead_ms = [], [], []
    proc = None
    try:
        for _ in range(scale.setup_reps):
            with tracer.span("setup"):
                start = perf_counter()
                proc = _spawn_daemon(cfg, socket, workdir, span_dir)
                _wait_ready(proc, client)
                run.clock.add("setup", perf_counter() - start)
            _stop_daemon(proc, client)
            run.clock.pair()  # once the daemon is gone: a booting one competes
        proc = _spawn_daemon(cfg, socket, workdir, span_dir)
        _wait_ready(proc, client)
        warm, _ = _load_chunk(
            cfg, socket, seed, "warmup", _Load(cfg.warmup, 0.0, math.inf), tracer
        )
        if any(rec[3] is not None for rec in warm.values()):
            raise RuntimeError(f"warm-up failed: {[rec[3] for rec in warm.values()]}")

        load = _Load(scale.min_ops, seconds, SERVE_CHUNK_S)
        while not load.done:
            records, wall = _load_chunk(cfg, socket, seed, "request", load, tracer)
            run.clock.add("load", wall)
            for i in sorted(records):
                latency, first, final, error = records[i]
                run.attempted += 1
                if error is not None:
                    run.fail(error)
                    continue
                finals[i] = final.estimate
                run.clock.add("op", latency)
                first_ms.append(first * 1e3)
                worker_ms.append(final.estimate.elapsed_seconds * 1e3)
                overhead_ms.append(latency * 1e3 - worker_ms[-1])
            run.clock.pair(runs=2)
        stats = client.ping()
        run.peak_rss_mb = own_peak_rss_mb() + tree_peak_rss_mb(proc.pid)
    finally:
        if proc is not None:
            _stop_daemon(proc, client)

    run.steps_per_s = sum(e.steps for e in finals.values()) / sum(run.clock.scaled("load"))
    run.extra.update(
        requests_per_s=len(finals) / sum(run.clock.raw("load")),
        service_first_snapshot_ms=tail(first_ms),
        service_worker_ms=tail(worker_ms),
        service_overhead_ms=tail(overhead_ms),
        service_requeues=int(stats.get("requeues", 0)),
        truth_recomputed=recomputed,
    )
    tracer.count("service.requeues", int(stats.get("requeues", 0)))
    run.check("answers valid", run.failed == 0, f"{run.failed} of {run.attempted} failed")

    mismatched = []
    for i in range(min(IDENTITY_OPS, run.attempted)):
        method, k = cfg.requests[i % len(cfg.requests)]
        want = repro.estimate(
            graph, method, k=k, budget=cfg.budget, chains=cfg.chains,
            seed=derive(seed, "request", i), backend="csr",
        )
        if i not in finals or not _same_estimate(finals[i], want):
            mismatched.append(i)
    run.check(
        "first answers bit-identical to in-process estimate", not mismatched,
        f"mismatched requests {mismatched}" if mismatched else f"{IDENTITY_OPS} compared",
    )
    run.extra["digest"] = digest([finals[i] for i in sorted(finals)])
    tri = type_index(3, "triangle")
    k3 = [finals[i] for i in range(scale.min_ops) if i in finals and finals[i].k == 3]
    if k3:
        accuracy(run, k3, tri, tri_counts[tri] / sum(tri_counts),
                 statistics.median(run.clock.scaled("op")))

    worker_spans: List[list] = []
    worker_counters: Dict[str, float] = {}
    if span_dir is not None:
        for path in sorted(span_dir.glob("worker-*.json")):
            with open(path) as handle:
                dump = json.load(handle)
            worker_spans.extend(dump["spans"])
            for key, amount in dump["counters"].items():
                worker_counters[key] = worker_counters.get(key, 0) + amount
    return worker_spans, worker_counters


def _same_estimate(a, b) -> bool:
    return (
        a.steps == b.steps
        and a.samples == b.samples
        and np.array_equal(a.sums, b.sums)
        and np.array_equal(a.sample_counts, b.sample_counts)
        and (a.stderr is None) == (b.stderr is None)
        and (a.stderr is None or np.array_equal(a.stderr, b.stderr))
    )


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
#: Operations this cheap share one calibration sample per this many seconds.
STREAM_PAIR_EVERY_S = 0.25


def run_stream(cfg: Stream, seed: int, seconds: float, tracer, scale: Scale, run: Run) -> None:
    """Edge-update batches beside reads: ``apply_updates`` + ``refresh``.

    The batches come from one seeded :class:`EdgeStreamSpec`; after
    ``cfg.leg`` batches the loop undoes them in reverse order, so the
    graph never drifts more than one leg from its base and every
    operation costs the same however long the run is.

    Checks: every refresh is valid, and the final refresh lies within
    :data:`CHECK_SEM` between-chain standard errors of ``triad_census``
    on the compacted final graph.
    """
    spec = EdgeStreamSpec(
        graph=cfg.graph,
        batches=cfg.leg,
        inserts_per_batch=cfg.churn,
        deletes_per_batch=cfg.churn,
        seed=derive(seed, "stream"),
    )
    batches = spec.edge_batches()
    cycle = [(b.inserts, b.deletes) for b in batches]
    cycle += [(b.deletes, b.inserts) for b in reversed(batches)]
    session_seed = derive(seed, "session")
    for _ in range(scale.setup_reps):
        with tracer.span("setup"):
            start = perf_counter()
            with tracer.span("graphs.build"):
                base = spec.base_graph()
            session = ContinuousSession(
                base, cfg.method, k=cfg.k, chains=cfg.chains,
                refresh_budget=cfg.refresh_budget, seed=session_seed,
            )
            session.refresh()
            run.clock.add("setup", perf_counter() - start)
        run.clock.pair()

    estimates = []
    fixed = None  # (refresh, graph) after operation min_ops: same for every run of a seed
    start = perf_counter()
    while run.attempted < scale.min_ops or perf_counter() - start < seconds:
        inserts, deletes = cycle[run.attempted % len(cycle)]
        run.attempted += 1
        t0 = perf_counter()
        try:
            with tracer.span("stream.batch"):
                session.apply_updates(inserts=inserts, deletes=deletes)
                est = session.refresh()
        except Exception as exc:  # a failed operation is counted, not fatal
            run.fail(exc)
            continue
        elapsed = perf_counter() - t0
        if not valid_estimate(est):
            run.fail(ValueError(f"invalid refresh after batch {run.attempted - 1}"))
            continue
        run.clock.add("op", elapsed)
        estimates.append(est)
        if run.attempted == scale.min_ops:
            fixed = (est, session.graph.copy())
        run.clock.pair(STREAM_PAIR_EVERY_S)
    run.clock.pair()

    ops = run.clock.scaled("op")
    run.steps_per_s = cfg.refresh_budget * len(ops) / sum(ops)
    run.check("refreshes valid", run.failed == 0, f"{run.failed} of {run.attempted} failed")
    tri = type_index(3, "triangle")
    if estimates:
        final = estimates[-1]
        census = repro.triad_census(session.graph.compact()).concentrations()
        sem_check(run, "final refresh vs triad census", final.concentrations[tri],
                  census[tri], final.stderr[tri])
        run.extra.update(
            reprojected_chains=final.meta.get("reprojected_chains"),
            digest=digest(estimates),
        )
    if fixed is not None:
        est, graph = fixed
        truth_value = repro.triad_census(graph).concentrations()[tri]
        run.extra.update(
            nrmse=float(abs(est.concentrations[tri] - truth_value) / truth_value),
            rse=float(est.stderr[tri] / truth_value),
        )


# ----------------------------------------------------------------------
# One run, start to finish
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path,
                 scale: Scale = FULL) -> dict:
    """Run one workload; returns the result document (see module doc)."""
    cfg = scale.workloads[name]
    tracer = spans.Tracer() if traced else spans.NullTracer()
    run = Run()
    worker_spans: List[list] = []
    worker_counters: Dict[str, float] = {}
    if traced:
        tracer.install(spans.TARGETS)
    try:
        if isinstance(cfg, Walk):
            run_walk(cfg, seed, seconds, tracer, scale, run)
        elif isinstance(cfg, Serve):
            worker_spans, worker_counters = run_serve(
                cfg, seed, seconds, tracer, scale, run, workdir
            )
        else:
            run_stream(cfg, seed, seconds, tracer, scale, run)
    finally:
        if traced:
            tracer.restore()

    clock = run.clock
    ops = clock.scaled("op")
    e2e = {
        "setup_s": statistics.median(clock.scaled("setup")),
        "steps_per_s": run.steps_per_s,
        "latency_p50_ms": statistics.median(ops) * 1e3 if ops else 0.0,
        "peak_rss_mb": run.peak_rss_mb or own_peak_rss_mb(),
    }
    run.extra.update(
        host_speed=clock.speed(),
        raw_setup_s=clock.raw("setup"),
        raw_latency_ms=tail([t * 1e3 for t in clock.raw("op")]),
        latency_ms=tail([t * 1e3 for t in ops]),
        calibration_s=clock.samples,
        missing_targets=getattr(tracer, "missing", []),
    )
    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "correct": run.failed == 0 and all(ok for _, ok, _ in run.checks),
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "checks": run.checks,
        "e2e": e2e,
        "extra": run.extra,
    }
    if traced:
        all_spans = [list(s) for s in tracer.spans]
        requests = {
            s[spans.RID]: s[spans.ID] for s in all_spans
            if s[spans.NAME] == "service.request" and s[spans.RID]
        }
        spans.link_requests(worker_spans, requests)
        all_spans += worker_spans
        counters = dict(tracer.counters)
        for key, amount in worker_counters.items():
            counters[key] = counters.get(key, 0) + amount
        doc["layers"] = layer_metrics(all_spans, counters, run.extra)
        doc["span_summary"] = spans.summarize(all_spans)
        doc["trace"] = {"spans": all_spans, "counters": counters}
    return doc


def layer_metrics(all_spans, counters, extra) -> Dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json``, from one traced run."""
    summary = spans.summarize(all_spans)
    out: Dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        row = summary.get(name, {"calls": 0, "share": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.share"] = row["share"]
    rows = counters.get("windows.rows", 0)
    out["walks.transitions"] = counters.get("walks.transitions", 0)
    out["windows.valid_ratio"] = counters.get("windows.valid", 0) / rows if rows else 0.0
    out["graphs.probes_per_window"] = counters.get("graphs.probes", 0) / rows if rows else 0.0
    out["streaming.reprojected"] = counters.get("streaming.reprojected", 0)
    out["service.requeues"] = counters.get("service.requeues", 0)
    out["estimator.nrmse"] = extra.get("nrmse", 0.0)
    out["estimator.rse"] = extra.get("rse", 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    with open(args.result, "w") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
