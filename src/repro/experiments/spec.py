"""Declarative experiment descriptions.

An :class:`ExperimentSpec` captures everything that determines a
multi-trial sweep's *results* — graph source, graphlet size, methods,
budget, trial count, seeding — as plain JSON-able data.  Because the
description is declarative, the same spec can run serially in a test,
fan out over a process pool under ``repro bench --jobs N``, or resume
from a half-written artifact, and :meth:`ExperimentSpec.config_hash`
gives artifacts a stable fingerprint to validate against.

Graph sources are strings so specs stay serializable:

* ``"dataset:<name>"`` — a registered dataset (``"dataset:karate"``);
  a bare registered name is accepted as shorthand;
* ``"ba:<n>:<m>:<seed>"`` — a Barabási–Albert graph generated on the
  fly (the CI smoke suite uses one so it never depends on data files);
* ``"stream:<n>:<m>:<seed>:<batches>:<churn>"`` — a BA graph churned
  through ``batches`` seeded insert/delete rounds of ``churn`` edges
  each (:class:`~repro.streaming.EdgeStreamSpec`) and compacted — the
  post-stream graph the ``stream-smoke`` suite grades against;
* ``"file:<path>[:lcc|:raw]"`` — an on-disk graph: either a saved
  memory-mapped CSR layout (opened directly) or a SNAP/KONECT edge
  list, streamed through :func:`repro.graphs.ingest.ingest_edge_list`
  into a cache layout next to the file on first use (``:lcc``, the
  default, keeps the largest connected component; ``:raw`` keeps
  everything).  Resolves to a :class:`~repro.graphs.mmap.MmapCSRGraph`,
  so paper-scale sweeps never materialize the graph in RAM.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..core.stopping import parse_target
from ..estimators.adapters import CHAINLESS_METHODS
from ..estimators.registry import normalize
from ..graphs.csr import BACKENDS
from ..graphs.datasets import list_datasets, load_dataset
from ..graphs.generators import barabasi_albert
from ..graphs.graph import Graph

#: Recognized per-trial seed derivations (see :func:`seed_stream`).
SEED_STRATEGIES = ("spawn", "sequential")


def resolve_graph(source: str) -> Graph:
    """Materialize a graph-source string (``dataset:...`` / ``ba:...``)."""
    text = str(source).strip()
    kind, _, rest = text.partition(":")
    if kind == "dataset":
        return load_dataset(rest)
    if kind == "ba":
        try:
            n, m, seed = (int(part) for part in rest.split(":"))
        except ValueError:
            raise ValueError(
                f"malformed BA graph source {source!r}; expected 'ba:<n>:<m>:<seed>'"
            ) from None
        return barabasi_albert(n, m, seed=seed)
    if kind == "stream":
        from ..streaming import EdgeStreamSpec  # lazy: streaming imports us

        try:
            n, m, seed, batches, churn = (int(part) for part in rest.split(":"))
        except ValueError:
            raise ValueError(
                f"malformed stream graph source {source!r}; expected "
                "'stream:<n>:<m>:<seed>:<batches>:<churn>'"
            ) from None
        stream = EdgeStreamSpec(
            graph=f"ba:{n}:{m}:{seed}",
            batches=batches,
            inserts_per_batch=churn,
            deletes_per_batch=churn,
            seed=seed,
        )
        return stream.churned_graph().to_graph()
    if kind == "file":
        return _resolve_file_source(rest, source)
    if text in list_datasets():
        return load_dataset(text)
    raise ValueError(
        f"unknown graph source {source!r}; use 'dataset:<name>' "
        f"(names: {', '.join(list_datasets())}), 'ba:<n>:<m>:<seed>', "
        "'stream:<n>:<m>:<seed>:<batches>:<churn>', or "
        "'file:<path>[:lcc|:raw]'"
    )


def _resolve_file_source(rest: str, source: str):
    """Resolve ``file:<path>[:lcc|:raw]`` to a memory-mapped graph.

    A saved CSR layout opens directly; an edge-list file is ingested
    once into ``<path>.mmap`` (or ``.mmap-raw``) beside it and reopened
    from there on every later resolve — specs referencing big files pay
    the streaming ingest a single time per machine.
    """
    from ..graphs.mmap import MmapCSRGraph, is_mmap_dir

    lcc = True
    path = rest
    if rest.endswith(":lcc"):
        path = rest[: -len(":lcc")]
    elif rest.endswith(":raw"):
        path, lcc = rest[: -len(":raw")], False
    if not path:
        raise ValueError(
            f"malformed file graph source {source!r}; "
            "expected 'file:<path>[:lcc|:raw]'"
        )
    target = Path(path)
    if is_mmap_dir(target):
        return MmapCSRGraph.load(target)
    if not target.exists():
        raise ValueError(f"graph source {source!r}: {path} does not exist")
    from ..graphs.ingest import ingest_edge_list

    cache = target.with_name(target.name + (".mmap" if lcc else ".mmap-raw"))
    if not is_mmap_dir(cache):
        ingest_edge_list(target, cache, lcc=lcc)
    return MmapCSRGraph.load(cache, verify=False)


def seed_stream(base_seed: int, trials: int, strategy: str = "spawn") -> List[int]:
    """Per-trial seeds derived from one ``base_seed``.

    ``"spawn"`` draws each seed from an independent child of
    ``numpy.random.SeedSequence(base_seed)`` — the spawn tree guarantees
    non-overlapping streams however trials are distributed over worker
    processes.  ``"sequential"`` is the historical ``base_seed + t``
    derivation that :func:`repro.evaluation.run_trials` has always used;
    it is kept so converted benchmarks reproduce their golden numbers.

    Both derivations are pure functions of ``(base_seed, trial)``, which
    is what makes parallel execution bit-identical to serial: a trial's
    seed never depends on which worker runs it, or in what order.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if strategy == "sequential":
        return [base_seed + t for t in range(trials)]
    if strategy == "spawn":
        children = np.random.SeedSequence(base_seed).spawn(trials)
        return [int(child.generate_state(1)[0]) for child in children]
    raise ValueError(
        f"unknown seed strategy {strategy!r}; expected one of {SEED_STRATEGIES}"
    )


def random_start_nodes(graph: Graph, trials: int, seed: int = 0) -> List[int]:
    """Per-trial random start nodes (degree >= 1).

    The canonical implementation behind
    :func:`repro.evaluation.random_start_nodes` — kept bit-identical to
    the historical helper so seeded sweeps reproduce.
    """
    rng = random.Random(seed)
    candidates = [v for v in graph.nodes() if graph.degree(v) > 0]
    return [candidates[rng.randrange(len(candidates))] for _ in range(trials)]


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative multi-trial sweep.

    Parameters
    ----------
    name:
        Artifact basename: trials land in ``<name>.trials.jsonl``, the
        summary in ``BENCH_<name>.json``.
    graph:
        Graph source string (see :func:`resolve_graph`).
    k:
        Graphlet size.
    methods:
        Registry method names; every method runs ``trials`` times.
    budget:
        Per-trial budget units (walk steps / proposals / draws).
    trials:
        Independent repetitions per method.
    base_seed:
        Root of the per-trial seed stream.
    seed_strategy:
        ``"spawn"`` (SeedSequence tree, the default) or ``"sequential"``
        (``base_seed + t``, the historical runner derivation).
    starts:
        ``"random"`` — per-trial random start nodes drawn with
        ``seed=base_seed`` (the paper restarts every simulation
        independently); or ``"fixed:<node>"`` — every trial starts at
        one node.
    target:
        Graphlet catalog name whose NRMSE headlines the summary
        (``None`` picks the rarest type with positive ground truth).
    description:
        Free-text provenance recorded in the summary artifact.
    chains:
        Independent chains each trial's budget is split over (walk
        methods only; 1 keeps the historical single-chain trials).
    backend:
        Storage backend each trial converts the graph to before running
        (``"csr"`` unlocks the vectorized multi-chain kernels; ``None``
        keeps the graph as resolved).
    stopping:
        Optional :func:`repro.parse_target` spec string (e.g.
        ``"stderr:0.02"`` or ``"ci:0.1|steps:50000"``) each trial
        evaluates on the :meth:`~repro.core.session.Session.run`
        cadence; ``budget`` stays the hard step cap.  ``None`` (the
        default) keeps the historical fixed-budget trials bit-identical.
    """

    name: str
    graph: str
    k: int
    methods: Tuple[str, ...]
    budget: int
    trials: int
    base_seed: int = 0
    seed_strategy: str = "spawn"
    starts: str = "random"
    target: Optional[str] = None
    description: str = ""
    chains: int = 1
    backend: Optional[str] = None
    stopping: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.name or any(c in self.name for c in "/\\ "):
            raise ValueError(
                f"spec name {self.name!r} must be a non-empty artifact basename "
                "(no spaces or path separators)"
            )
        if not self.methods:
            raise ValueError("spec needs at least one method")
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.seed_strategy not in SEED_STRATEGIES:
            raise ValueError(
                f"unknown seed strategy {self.seed_strategy!r}; "
                f"expected one of {SEED_STRATEGIES}"
            )
        if self.starts != "random":
            kind, _, node = self.starts.partition(":")
            if kind != "fixed" or not node.lstrip("-").isdigit():
                raise ValueError(
                    f"starts must be 'random' or 'fixed:<node>', got {self.starts!r}"
                )
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")
        if self.chains != 1:
            chainless = sorted(
                m for m in self.methods
                if normalize(m) in CHAINLESS_METHODS
            )
            if chainless:
                raise ValueError(
                    f"chains={self.chains} but method(s) {', '.join(chainless)} "
                    "have no chain-splitting notion; put walk methods and "
                    "baselines in separate specs"
                )
        if self.budget < self.chains:
            raise ValueError(
                f"need at least one transition per chain: budget={self.budget} "
                f"< chains={self.chains}"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.stopping is not None:
            spec = parse_target(self.stopping)  # raises on malformed specs
            cap = spec.step_cap()
            if cap is not None and cap != self.budget:
                raise ValueError(
                    f"stopping spec {self.stopping!r} caps steps at {cap} "
                    f"but budget={self.budget}; drop the steps clause or "
                    "make them agree"
                )

    # ------------------------------------------------------------------
    # Derived per-trial parameters
    # ------------------------------------------------------------------
    def trial_seeds(self) -> List[int]:
        """Seed for each trial index (shared across methods, as the
        historical runner did: method A and B both see seed ``s_t``)."""
        return seed_stream(self.base_seed, self.trials, self.seed_strategy)

    def start_nodes(self, graph: Graph) -> List[int]:
        """Start node for each trial index."""
        if self.starts == "random":
            return random_start_nodes(graph, self.trials, seed=self.base_seed)
        node = int(self.starts.partition(":")[2])
        return [node] * self.trials

    # ------------------------------------------------------------------
    # Serialization and fingerprinting
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict (round-trips via :meth:`from_dict`)."""
        data = asdict(self)
        data["methods"] = list(self.methods)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        return cls(**{**data, "methods": tuple(data["methods"])})

    def config_hash(self) -> str:
        """Fingerprint of every result-determining field.

        Labeling fields (``name``, ``target``, ``description``) are
        excluded: renaming an artifact or re-targeting its headline
        NRMSE does not invalidate recorded trials.  Resume compares this
        hash against each stored row before trusting it.
        """
        payload = {
            "graph": self.graph,
            "k": self.k,
            "methods": list(self.methods),
            "budget": self.budget,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "seed_strategy": self.seed_strategy,
            "starts": self.starts,
        }
        # Execution-shape fields joined the spec later; they enter the
        # hash only when set, so every pre-existing spec (and its
        # checked-in trajectory artifacts) keeps its fingerprint.
        if self.chains != 1:
            payload["chains"] = self.chains
        if self.backend is not None:
            payload["backend"] = self.backend
        if self.stopping is not None:
            payload["stopping"] = self.stopping
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
