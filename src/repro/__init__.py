"""repro: random-walk graphlet statistics estimation.

A from-scratch reproduction of

    Xiaowei Chen, Yongkun Li, Pinghui Wang, John C.S. Lui.
    "A General Framework for Estimating Graphlet Statistics via Random
    Walk."  PVLDB 10(3), 2016.

Quickstart::

    from repro import estimate, exact_concentrations, load_dataset

    graph = load_dataset("facebook-like")
    result = estimate(graph, "srw2css", k=4, budget=20_000, seed=7)
    print(result.concentration_dict())
    print(exact_concentrations(graph, 4))

Every method — the paper's ``SRW{d}[CSS][NB]`` framework, the baselines,
and exact enumeration — is reachable by name through
:mod:`repro.estimators` (``register`` / ``get`` / ``available``) and
returns the same :class:`Estimate`; ``get(name).prepare(graph, config)``
opens a streaming session (``step`` / ``snapshot`` / ``result``) for
anytime partial results.

See README.md for the quickstart and the benchmark ↔ paper map,
docs/ARCHITECTURE.md for the layer and backend design, and
docs/METHODS.md for choosing among the ``SRW{d}[CSS][NB]`` methods.
"""

from .core import (
    AllOf,
    AnyOf,
    CIWidth,
    Deadline,
    Estimate,
    EstimationConfig,
    Estimator,
    MethodSpec,
    Session,
    StepBudget,
    StoppingRule,
    TargetStderr,
    TheoremBound,
    alpha_coefficient,
    alpha_table,
    parse_target,
    recommended_method,
    run_estimation,
    run_with_checkpoints,
    sample_size_bound,
    weighted_concentration,
)
from . import estimators
from .estimators import SelectionReport, estimate
from . import experiments
from .experiments import ExperimentSpec, run_experiment
from . import service
from . import streaming
from .streaming import ContinuousSession, EdgeStreamSpec
from .evaluation import (
    convergence_sweep,
    cosine_similarity,
    graphlet_kernel_similarity,
    nrmse,
    nrmse_table,
    run_trials,
)
from .exact import (
    TriadCensus,
    exact_concentrations,
    exact_counts,
    global_clustering_coefficient,
    triad_census,
    triangle_count,
)
from .graphlets import Graphlet, graphlet_names, graphlets, num_graphlets
from .graphs import (
    CSRGraph,
    DeltaCSRGraph,
    Graph,
    GraphError,
    MmapCSRGraph,
    RestrictedGraph,
    as_backend,
    barabasi_albert,
    erdos_renyi,
    ingest_edge_list,
    largest_connected_component,
    list_datasets,
    load_dataset,
    powerlaw_cluster,
    read_edge_list,
    watts_strogatz,
)
from .relgraph import relationship_edge_count, relationship_graph, walk_space

__version__ = "1.0.0"

__all__ = [
    "AllOf",
    "AnyOf",
    "CIWidth",
    "CSRGraph",
    "ContinuousSession",
    "Deadline",
    "DeltaCSRGraph",
    "EdgeStreamSpec",
    "Estimate",
    "EstimationConfig",
    "Estimator",
    "ExperimentSpec",
    "SelectionReport",
    "StepBudget",
    "StoppingRule",
    "TargetStderr",
    "TheoremBound",
    "Graph",
    "GraphError",
    "Graphlet",
    "MethodSpec",
    "MmapCSRGraph",
    "RestrictedGraph",
    "Session",
    "TriadCensus",
    "alpha_coefficient",
    "alpha_table",
    "as_backend",
    "barabasi_albert",
    "convergence_sweep",
    "cosine_similarity",
    "erdos_renyi",
    "estimate",
    "estimators",
    "exact_concentrations",
    "exact_counts",
    "experiments",
    "global_clustering_coefficient",
    "graphlet_kernel_similarity",
    "graphlet_names",
    "graphlets",
    "ingest_edge_list",
    "largest_connected_component",
    "list_datasets",
    "load_dataset",
    "nrmse",
    "nrmse_table",
    "num_graphlets",
    "parse_target",
    "powerlaw_cluster",
    "read_edge_list",
    "recommended_method",
    "relationship_edge_count",
    "relationship_graph",
    "run_estimation",
    "run_experiment",
    "run_trials",
    "run_with_checkpoints",
    "sample_size_bound",
    "service",
    "streaming",
    "triad_census",
    "triangle_count",
    "walk_space",
    "watts_strogatz",
    "weighted_concentration",
]
