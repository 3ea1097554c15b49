"""Bayesian segmentation of discrete time series.

Models each segment of a series as a variable-memory Markov chain whose tree
structure and parameters are integrated out exactly, and infers the number
and locations of change-points from the resulting marginal likelihoods,
either exactly (single change-point) or by Metropolis-Hastings sampling.
"""

__version__ = "0.1.0"

from .changepoints import (
    ChangePoints,
    EvidenceCache,
    exact_single_cp_posterior,
    log_joint_evidence,
    log_posterior_unnorm,
    log_prior_count,
    log_prior_positions,
    partition,
)
from .mcmc import (
    McmcConfig,
    Summary,
    Trace,
    log_accept_ratio,
    log_move_correction,
    propose_fixed,
    propose_variable,
    run,
    summarize,
)
from .sequences import (
    Alphabet,
    ParseError,
    Sequence,
    parse_csv,
    parse_fasta,
    parse_plain,
    split_context,
)
from .simulate import (
    NumericalError,
    PiecewiseSpec,
    SegmentSpec,
    generate_piecewise,
    model_from_table,
    piecewise_spec_from_json,
    piecewise_spec_to_json,
    stationary_marginal,
    ternary_benchmark_spec,
)
from .trees import (
    BctHyperParams,
    CountTree,
    TreeModel,
    default_beta,
    kt_log_prob,
    leaf_posterior_mean,
)

__all__ = [
    "Alphabet",
    "BctHyperParams",
    "ChangePoints",
    "CountTree",
    "EvidenceCache",
    "McmcConfig",
    "NumericalError",
    "ParseError",
    "PiecewiseSpec",
    "SegmentSpec",
    "Sequence",
    "Summary",
    "Trace",
    "TreeModel",
    "default_beta",
    "exact_single_cp_posterior",
    "generate_piecewise",
    "kt_log_prob",
    "leaf_posterior_mean",
    "log_accept_ratio",
    "log_joint_evidence",
    "log_move_correction",
    "log_posterior_unnorm",
    "log_prior_count",
    "log_prior_positions",
    "model_from_table",
    "parse_csv",
    "parse_fasta",
    "parse_plain",
    "partition",
    "piecewise_spec_from_json",
    "piecewise_spec_to_json",
    "propose_fixed",
    "propose_variable",
    "run",
    "split_context",
    "stationary_marginal",
    "summarize",
    "ternary_benchmark_spec",
]
