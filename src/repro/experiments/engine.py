"""The parallel, resumable, artifact-producing experiment engine.

The paper's headline claims are statistical — NRMSE over hundreds of
independent simulations — so reproducing them is embarrassingly
parallel: every trial is a pure function of ``(graph, task)`` where the
task carries its own pre-derived seed.  :func:`run_tasks` fans tasks out
over a ``multiprocessing`` pool; because seeds come from the spec's
seed stream (:func:`repro.experiments.seed_stream`) and never depend on
worker identity or completion order, ``jobs=N`` is bit-identical to
``jobs=1`` (asserted in ``tests/test_experiments.py``).

:func:`run_experiment` adds the persistence layer around that:

* every finished trial is appended to ``<name>.trials.jsonl`` the
  moment it arrives (flushed, so a killed sweep loses at most the
  trials in flight);
* ``resume=True`` reads the JSONL back, validates each row's
  ``config_hash`` against the spec, and re-runs only missing trials;
* the final summary — NRMSE table, wall-clock, steps/sec, git SHA,
  config hash — lands in ``BENCH_<name>.json``, the unit of the repo's
  perf trajectory (see ``benchmarks/trajectory/``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.result import Estimate
from ..core.session import EstimationConfig
from ..core.stopping import parse_target
from ..estimators import run_config
from ..exact import exact_concentrations_cached
from ..graphlets.catalog import graphlet_by_name, graphlets
from ..graphs.csr import as_backend
from ..graphs.graph import Graph
from ..graphs.shared import published
from .spec import ExperimentSpec, resolve_graph


@dataclass(frozen=True)
class TrialTask:
    """One fully self-contained unit of work.

    ``index`` orders tasks within a sweep (and keys resume);
    ``trial`` is the repetition number within the task's method.
    Everything an executor needs travels with the task, so a worker
    process holds only the graph.
    """

    index: int
    trial: int
    method: str
    k: Optional[int]
    budget: int
    seed: int
    seed_node: int
    chains: int = 1
    backend: Optional[str] = None
    stopping: Optional[str] = None


def execute_task(graph: Graph, task: TrialTask) -> dict:
    """Run one trial to completion; return its JSON-safe row.

    ``task.stopping`` (a :func:`repro.parse_target` string) makes the
    trial variance-aware: the rule is checked on the run cadence with
    ``task.budget`` as the hard cap.  Without it the trial spends the
    budget exactly as before — same steps, same row, bit-identical to
    every recorded trajectory artifact.
    """
    config = EstimationConfig(
        method=task.method,
        k=task.k,
        budget=task.budget if task.stopping is not None else None,
        seed=task.seed,
        seed_node=task.seed_node,
        chains=task.chains,
        backend=task.backend,
        target=(
            parse_target(task.stopping)
            if task.stopping is not None
            else task.budget
        ),
    )
    estimate = run_config(graph, config)
    row = {
        "index": task.index,
        "trial": task.trial,
        "method": task.method,
        "k": task.k,
        "budget": task.budget,
        "seed": task.seed,
        "seed_node": task.seed_node,
        "chains": task.chains,
        "backend": task.backend,
        "estimate": estimate.to_dict(),
    }
    # Joined the row schema later; keyed only when used so pre-existing
    # trajectory artifacts keep their canonical lines.
    if task.stopping is not None:
        row["stopping"] = task.stopping
    return row


# ----------------------------------------------------------------------
# Worker-pool plumbing.  Workers receive the graph itself once, through
# the pool initializer, as ``published`` yields it: shared and mmap
# graphs pickle by reference (segment handle, directory), other CSR
# graphs are copied into a shared segment for the pool's lifetime, and a
# list Graph is inherited (fork) or unpickled once per worker (spawn).
# ----------------------------------------------------------------------
_WORKER_GRAPH = None


def _init_worker(graph) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph


def _run_in_worker(task: TrialTask) -> dict:
    return execute_task(_WORKER_GRAPH, task)


def run_tasks(
    graph: Graph,
    tasks: Sequence[TrialTask],
    jobs: int = 1,
    on_row: Optional[Callable[[dict], None]] = None,
) -> List[dict]:
    """Execute trials, serially or over a process pool.

    Returns rows sorted by task index — identical content whatever
    ``jobs`` is (asserted in ``tests/test_experiments`` and
    ``tests/test_engine_transport``).  ``on_row`` observes rows in
    *completion* order (the JSONL writer hangs off it), so artifact
    files may interleave methods under parallel execution; consumers
    key on ``row["index"]``.
    """
    jobs = max(1, int(jobs))
    tasks = list(tasks)
    if jobs == 1 or len(tasks) <= 1:
        rows = []
        for task in tasks:
            row = execute_task(graph, task)
            if on_row is not None:
                on_row(row)
            rows.append(row)
        return rows
    # Convert once here rather than once per trial in the workers: each
    # task's as_backend(graph, "csr") is then the identity.
    if all(task.backend == "csr" for task in tasks):
        graph = as_backend(graph, "csr", context="run_tasks")
    rows = []
    ctx = multiprocessing.get_context()
    with published(graph) as shipped, ctx.Pool(
        processes=min(jobs, len(tasks)),
        initializer=_init_worker,
        initargs=(shipped,),
    ) as pool:
        for row in pool.imap_unordered(_run_in_worker, tasks):
            if on_row is not None:
                on_row(row)
            rows.append(row)
    return sorted(rows, key=lambda r: r["index"])


def build_tasks(spec: ExperimentSpec, graph: Graph) -> List[TrialTask]:
    """The spec's full task list: methods x trials, seeds shared across
    methods per trial (method A and B both see seed ``s_t``, as the
    historical serial runner did)."""
    seeds = spec.trial_seeds()
    starts = spec.start_nodes(graph)
    tasks = []
    for m, method in enumerate(spec.methods):
        for t in range(spec.trials):
            tasks.append(
                TrialTask(
                    index=m * spec.trials + t,
                    trial=t,
                    method=method,
                    k=spec.k,
                    budget=spec.budget,
                    seed=seeds[t],
                    seed_node=starts[t],
                    chains=spec.chains,
                    backend=spec.backend,
                    stopping=spec.stopping,
                )
            )
    return tasks


# ----------------------------------------------------------------------
# Canonical rows: the determinism-comparable projection of a trial.
# ----------------------------------------------------------------------
def canonical_row(row: dict) -> dict:
    """A trial row with wall-clock noise stripped.

    Timing fields (``elapsed_seconds`` and any ``*_seconds`` meta entry,
    e.g. wedge sampling's preprocess time) differ run to run; everything
    else is a pure function of the task.  Resume/parallelism tests and
    the CI parity gate compare these byte-for-byte via
    :func:`canonical_line`.
    """
    canon = json.loads(json.dumps(row))  # deep copy, JSON-safe
    estimate = canon.get("estimate", {})
    estimate.pop("elapsed_seconds", None)
    meta = estimate.get("meta")
    if isinstance(meta, dict):
        for key in [k for k in meta if k.endswith("_seconds")]:
            del meta[key]
    return canon


def canonical_line(row: dict) -> str:
    """Stable one-line serialization of :func:`canonical_row`."""
    return json.dumps(canonical_row(row), sort_keys=True)


def git_sha() -> Optional[str]:
    """HEAD commit of the working directory's repo, if any."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


class ExperimentResult:
    """Completed sweep: ordered trial rows plus summary reductions."""

    def __init__(
        self,
        spec: ExperimentSpec,
        graph: Graph,
        rows: List[dict],
        *,
        jobs: int = 1,
        wall_seconds: float = 0.0,
        resumed_trials: int = 0,
    ) -> None:
        self.spec = spec
        self.graph = graph
        self.rows = sorted(rows, key=lambda r: r["index"])
        self.jobs = jobs
        self.wall_seconds = wall_seconds
        self.resumed_trials = resumed_trials
        self._truth: Optional[Dict[int, float]] = None
        self._estimates_cache: Dict[str, List[Estimate]] = {}

    # ------------------------------------------------------------------
    # Per-method reductions
    # ------------------------------------------------------------------
    def method_rows(self, method: str) -> List[dict]:
        rows = [r for r in self.rows if r["method"] == method]
        if not rows:
            raise KeyError(
                f"no trials for method {method!r} in experiment "
                f"{self.spec.name!r} (methods: {', '.join(self.spec.methods)})"
            )
        return rows

    def method_estimates(self, method: str) -> List[Estimate]:
        if method not in self._estimates_cache:
            self._estimates_cache[method] = [
                Estimate.from_dict(r["estimate"]) for r in self.method_rows(method)
            ]
        return self._estimates_cache[method]

    def estimates(self, method: str) -> np.ndarray:
        """Concentration estimates, shape ``(trials, num_types)``."""
        return np.array(
            [e.concentrations for e in self.method_estimates(method)]
        )

    @property
    def truth(self) -> Dict[int, float]:
        """Exact ground-truth concentrations (cached per result)."""
        if self._truth is None:
            self._truth = exact_concentrations_cached(self.graph, self.spec.k)
        return self._truth

    @property
    def target_index(self) -> int:
        """Catalog index whose NRMSE headlines the summary."""
        if self.spec.target is not None:
            return graphlet_by_name(self.spec.k, self.spec.target).index
        truth = self.truth
        return min((i for i in truth if truth[i] > 0), key=lambda i: truth[i])

    def nrmse(self, method: str, index: Optional[int] = None) -> float:
        """NRMSE of one graphlet type (default: the spec's target)."""
        from ..evaluation.metrics import nrmse as _nrmse

        index = self.target_index if index is None else index
        return _nrmse(self.estimates(method)[:, index], self.truth[index])

    def nrmse_all(self, method: str) -> Dict[int, float]:
        """NRMSE per graphlet type (skipping zero-truth types)."""
        from ..evaluation.metrics import nrmse as _nrmse

        values = self.estimates(method)
        return {
            index: _nrmse(values[:, index], truth)
            for index, truth in self.truth.items()
            if truth > 0
        }

    # ------------------------------------------------------------------
    # The BENCH_<name>.json summary
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        target = self.target_index
        target_name = graphlets(self.spec.k)[target].name
        methods = {}
        for method in self.spec.methods:
            estimates = self.method_estimates(method)
            elapsed = sum(e.elapsed_seconds for e in estimates)
            steps = sum(e.steps for e in estimates)
            methods[method] = {
                "trials": len(estimates),
                "nrmse": self.nrmse(method),
                "mean_elapsed_seconds": elapsed / len(estimates),
                "mean_valid_samples": (
                    sum(e.samples for e in estimates) / len(estimates)
                ),
                "steps_per_second": steps / elapsed if elapsed > 0 else None,
            }
        session_seconds = sum(
            stats["mean_elapsed_seconds"] * stats["trials"]
            for stats in methods.values()
        )
        # Actual steps spent (== budget * trials when no trial stops early).
        total_steps = sum(
            e.steps
            for method in self.spec.methods
            for e in self.method_estimates(method)
        )
        return {
            "name": self.spec.name,
            "spec": self.spec.to_dict(),
            "config_hash": self.spec.config_hash(),
            "git_sha": git_sha(),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "jobs": self.jobs,
            "resumed_trials": self.resumed_trials,
            "target_graphlet": target_name,
            "truth": {
                graphlets(self.spec.k)[i].name: value
                for i, value in self.truth.items()
            },
            "nrmse": {m: methods[m]["nrmse"] for m in methods},
            "methods": methods,
            "total_trials": len(self.rows),
            "total_steps": total_steps,
            "session_seconds": session_seconds,
            "wall_seconds": self.wall_seconds,
            "steps_per_second": (
                total_steps / self.wall_seconds if self.wall_seconds > 0 else None
            ),
        }

    def write_summary(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.summary(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def trials_path(out_dir, spec: ExperimentSpec) -> Path:
    """Where a spec's per-trial JSONL rows live under ``out_dir``."""
    return Path(out_dir) / f"{spec.name}.trials.jsonl"


def summary_path(out_dir, spec: ExperimentSpec) -> Path:
    """Where a spec's summary artifact lives under ``out_dir``."""
    return Path(out_dir) / f"BENCH_{spec.name}.json"


def _load_recorded_rows(path: Path, spec: ExperimentSpec):
    """Validated rows from a previous (possibly interrupted) run.

    Returns ``(rows_by_index, valid_bytes)`` where ``valid_bytes`` is the
    length of the parseable prefix.  A malformed *final* line is the
    expected signature of a sweep killed mid-write — that trial is
    simply lost and re-run (the caller truncates the file back to
    ``valid_bytes`` before appending).  Malformed earlier lines mean the
    artifact is damaged beyond the kill-in-flight failure mode and
    raise.
    """
    expected = spec.config_hash()
    recorded: Dict[int, dict] = {}
    valid_bytes = 0
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    for number, line_bytes in enumerate(lines, start=1):
        text = line_bytes.decode("utf-8", errors="replace").strip()
        if text:
            try:
                row = json.loads(text)
            except json.JSONDecodeError:
                if number == len(lines):
                    break  # trial in flight when the sweep died; re-run it
                raise ValueError(
                    f"{path}:{number} is not valid JSON mid-file; the "
                    "artifact is corrupted — delete it (or pick a fresh "
                    "--out directory) to rerun from scratch"
                ) from None
            found = row.get("config_hash")
            if found != expected:
                raise ValueError(
                    f"{path}:{number} was recorded under config_hash={found!r} "
                    f"but spec {spec.name!r} now hashes to {expected!r}; the "
                    "experiment definition changed since the artifact was "
                    "written — delete the file (or pick a fresh --out "
                    "directory) to rerun from scratch"
                )
            recorded[row["index"]] = row
        valid_bytes += len(line_bytes)
    return recorded, valid_bytes


def run_experiment(
    spec: ExperimentSpec,
    *,
    graph: Optional[Graph] = None,
    jobs: int = 1,
    out_dir=None,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> ExperimentResult:
    """Run (or finish) one spec; write artifacts when ``out_dir`` is set.

    ``graph`` overrides the spec's graph source (tests inject fixtures
    this way); anything recorded in artifacts still names the source
    string.  With ``resume=True`` an existing ``<name>.trials.jsonl``
    under ``out_dir`` is validated against the spec's config hash and
    only missing trials execute — an interrupted sweep continues instead
    of restarting, and a finished one is a no-op.
    """
    if graph is None:
        graph = resolve_graph(spec.graph)
    tasks = build_tasks(spec, graph)
    config_hash = spec.config_hash()

    recorded: Dict[int, dict] = {}
    handle = None
    if out_dir is not None:
        path = trials_path(out_dir, spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        if resume and path.exists():
            recorded, valid_bytes = _load_recorded_rows(path, spec)
            # Drop a half-written final line before appending fresh rows.
            handle = open(path, "r+")
            handle.seek(valid_bytes)
            handle.truncate()
        else:
            if path.exists():
                path.unlink()
            handle = open(path, "a")

    pending = [task for task in tasks if task.index not in recorded]
    if progress is not None and recorded:
        progress(
            f"{spec.name}: resuming — {len(recorded)}/{len(tasks)} trials "
            "already recorded"
        )

    def on_row(row: dict) -> None:
        row["config_hash"] = config_hash
        if handle is not None:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        if progress is not None:
            progress(
                f"{spec.name}: {row['method']} trial {row['trial'] + 1}"
                f"/{spec.trials} done"
            )

    start = time.perf_counter()
    try:
        fresh = run_tasks(graph, pending, jobs=jobs, on_row=on_row)
    finally:
        if handle is not None:
            handle.close()
    wall = time.perf_counter() - start

    result = ExperimentResult(
        spec,
        graph,
        list(recorded.values()) + fresh,
        jobs=jobs,
        wall_seconds=wall,
        resumed_trials=len(recorded),
    )
    if out_dir is not None:
        result.write_summary(summary_path(out_dir, spec))
    return result
