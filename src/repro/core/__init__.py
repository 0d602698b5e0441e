"""The paper's core contribution: the SRW(d) estimation framework."""

from .alpha import (
    alpha_coefficient,
    alpha_fingerprints,
    alpha_table,
    hamilton_paths,
    unreachable_types,
)
from .bounds import (
    BoundReport,
    css_sample_size_bound,
    sample_size_bound,
    weighted_concentration,
)
from .checkpoints import run_with_checkpoints
from .css import css_templates, sampling_weight
from .estimator import MethodSpec, SRWSession, recommended_method, run_estimation
from .joint import run_joint_estimation
from .result import Estimate
from .session import EstimationConfig, Estimator, Session
from .stopping import (
    AllOf,
    AnyOf,
    CIWidth,
    Deadline,
    StepBudget,
    StopProbe,
    StoppingRule,
    TargetStderr,
    TheoremBound,
    as_stopping_spec,
    parse_target,
)
from .expanded_chain import (
    enumerate_windows,
    expanded_transition_matrix,
    nominal_degree,
    stationary_weight,
    theorem2_distribution,
)
from .variance import VarianceReport, lemma5_variances

__all__ = [
    "AllOf",
    "AnyOf",
    "BoundReport",
    "CIWidth",
    "Deadline",
    "Estimate",
    "EstimationConfig",
    "Estimator",
    "StepBudget",
    "StopProbe",
    "StoppingRule",
    "TargetStderr",
    "TheoremBound",
    "as_stopping_spec",
    "parse_target",
    "MethodSpec",
    "SRWSession",
    "Session",
    "alpha_coefficient",
    "alpha_fingerprints",
    "alpha_table",
    "css_templates",
    "enumerate_windows",
    "expanded_transition_matrix",
    "hamilton_paths",
    "nominal_degree",
    "recommended_method",
    "run_estimation",
    "run_joint_estimation",
    "run_with_checkpoints",
    "css_sample_size_bound",
    "sample_size_bound",
    "sampling_weight",
    "stationary_weight",
    "theorem2_distribution",
    "unreachable_types",
    "VarianceReport",
    "lemma5_variances",
    "weighted_concentration",
]
