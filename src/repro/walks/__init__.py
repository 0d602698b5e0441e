"""Random walks: SRW / NB-SRW on G(d), MHRW, batched multi-chain kernels,
mixing-time tools."""

from .batched import (
    BatchedWalkEngine,
    BatchFallbackWarning,
    batch_capable,
    batch_support,
)
from .mhrw import (
    MetropolisHastingsWalk,
    uniform_weight,
    wedge_weight,
)
from .mixing import (
    effective_sample_size,
    mixing_time_exact,
    mixing_time_spectral,
    slem,
    spectral_gap,
    stationary_distribution,
    total_variation,
    transition_matrix,
)
from .walkers import NonBacktrackingWalk, SimpleWalk, make_engine, make_walk
from .windows import (
    as_stream,
    distinct_window_nodes,
    induced_bitmasks,
    label_pairs,
    sliding_windows,
    state_degrees,
)

__all__ = [
    "BatchedWalkEngine",
    "BatchFallbackWarning",
    "batch_support",
    "MetropolisHastingsWalk",
    "NonBacktrackingWalk",
    "SimpleWalk",
    "as_stream",
    "batch_capable",
    "distinct_window_nodes",
    "effective_sample_size",
    "induced_bitmasks",
    "label_pairs",
    "make_engine",
    "make_walk",
    "sliding_windows",
    "state_degrees",
    "mixing_time_exact",
    "mixing_time_spectral",
    "slem",
    "spectral_gap",
    "stationary_distribution",
    "total_variation",
    "transition_matrix",
    "uniform_weight",
    "wedge_weight",
]
