"""Graph substrate: core graph type, generators, I/O, access models."""

from .access import AccessViolation, RestrictedGraph
from .csr import BACKENDS, CSRGraph, Edge, GraphError, as_backend
from .delta import DeltaCSRGraph
from .ingest import IngestReport, ingest_edge_list
from .mmap import MmapCSRGraph, is_mmap_dir, save_csr, to_mmap
from .shared import SharedCSRGraph, SharedGraphHandle
from .components import (
    connected_components,
    is_connected,
    largest_connected_component,
)
from .datasets import (
    DATASETS,
    DatasetSpec,
    KARATE_EDGES,
    dataset_spec,
    list_datasets,
    load_dataset,
)
from .generators import (
    stochastic_block_model,
    barabasi_albert,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    erdos_renyi_gnm,
    graph_union,
    grid_graph,
    lollipop_graph,
    path_graph,
    powerlaw_cluster,
    powerlaw_configuration,
    random_regular,
    star_graph,
    watts_strogatz,
)
from .graph import Graph
from .stats import (
    GraphSummary,
    average_degree,
    degree_assortativity,
    degree_histogram,
    density,
    estimated_diameter,
    powerlaw_exponent_mle,
    summarize,
)
from .subgraph import (
    core_numbers,
    degeneracy,
    ego_network,
    induced_subgraph,
    k_core,
)
from .io import graph_from_pairs, read_edge_list, write_edge_list

__all__ = [
    "AccessViolation",
    "BACKENDS",
    "CSRGraph",
    "DATASETS",
    "DatasetSpec",
    "DeltaCSRGraph",
    "Edge",
    "Graph",
    "GraphError",
    "GraphSummary",
    "IngestReport",
    "KARATE_EDGES",
    "MmapCSRGraph",
    "RestrictedGraph",
    "SharedCSRGraph",
    "SharedGraphHandle",
    "as_backend",
    "barabasi_albert",
    "complete_graph",
    "connected_components",
    "core_numbers",
    "degeneracy",
    "ego_network",
    "induced_subgraph",
    "k_core",
    "cycle_graph",
    "dataset_spec",
    "erdos_renyi",
    "erdos_renyi_gnm",
    "graph_from_pairs",
    "graph_union",
    "grid_graph",
    "ingest_edge_list",
    "is_connected",
    "is_mmap_dir",
    "largest_connected_component",
    "list_datasets",
    "load_dataset",
    "lollipop_graph",
    "path_graph",
    "powerlaw_cluster",
    "powerlaw_configuration",
    "random_regular",
    "read_edge_list",
    "save_csr",
    "star_graph",
    "to_mmap",
    "stochastic_block_model",
    "watts_strogatz",
    "average_degree",
    "degree_assortativity",
    "degree_histogram",
    "density",
    "estimated_diameter",
    "powerlaw_exponent_mle",
    "summarize",
    "write_edge_list",
]
