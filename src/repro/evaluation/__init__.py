"""Evaluation harness: metrics, trial runners, convergence, similarity."""

from .convergence import ConvergenceCurve, convergence_sweep
from .diagnostics import (
    batch_increments,
    batch_means_standard_error,
    concentration_trajectory,
    geweke_z_score,
)
from .figures import ascii_bar_chart, ascii_line_chart, convergence_chart
from .metrics import decompose_nrmse, nrmse, relative_bias, relative_std
from .runner import (
    TrialSummary,
    nrmse_table,
    random_start_nodes,
    run_trials,
)
from .similarity import (
    cosine_similarity,
    graphlet_kernel_similarity,
    similarity_trials,
)
from .tables import dict_rows, format_table

__all__ = [
    "ConvergenceCurve",
    "TrialSummary",
    "convergence_sweep",
    "cosine_similarity",
    "ascii_bar_chart",
    "batch_increments",
    "batch_means_standard_error",
    "concentration_trajectory",
    "geweke_z_score",
    "ascii_line_chart",
    "convergence_chart",
    "decompose_nrmse",
    "dict_rows",
    "format_table",
    "graphlet_kernel_similarity",
    "nrmse",
    "nrmse_table",
    "random_start_nodes",
    "relative_bias",
    "relative_std",
    "run_trials",
    "similarity_trials",
]
