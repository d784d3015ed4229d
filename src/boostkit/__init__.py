"""Boosted decision stumps with a reproducibility-first design.

Classification by AdaBoost-style boosting of threshold stumps (binary or
confidence-rated outputs, exponential or logistic loss), plus three
extensions built on the same loop: conditional density estimation over a
discretized label range, prior-rule-regularized training, and pool-based
active learning by lowest-confidence queries.
"""

from .active import ActiveConfig, Pool, select_queries, simulate
from .boosting import (
    AdditiveModel,
    BoostConfig,
    RoundStats,
    alpha_binary,
    alpha_line_search,
    bound_report,
    logistic_weights,
    train,
    update_distribution,
)
from .data import (
    Dataset,
    load_csv,
    normalized,
    save_csv,
    split,
    uniform_distribution,
)
from .density import (
    BinDistribution,
    Breakpoints,
    ConditionalDensityModel,
    choose_breakpoints,
    conditional_distribution,
    quantile,
    sample,
    train_cde,
)
from .errors import BoostkitError, DataError, InvariantError, UsageError
from .losses import (
    common_minimizer_check,
    prob_positive,
    taylor_match_check,
)
from .model_io import load_model, save_classifier, save_density
from .prior import (
    PriorConfig,
    PriorRule,
    augment_with_prior,
    prior_loss,
    relative_entropy,
    train_with_prior,
)
from .rng import RngState
from .stumps import Stump, StumpSearchConfig

__version__ = "0.1.0"

__all__ = [
    "ActiveConfig",
    "AdditiveModel",
    "BinDistribution",
    "BoostConfig",
    "BoostkitError",
    "Breakpoints",
    "ConditionalDensityModel",
    "DataError",
    "Dataset",
    "InvariantError",
    "Pool",
    "PriorConfig",
    "PriorRule",
    "RngState",
    "RoundStats",
    "Stump",
    "StumpSearchConfig",
    "UsageError",
    "alpha_binary",
    "alpha_line_search",
    "augment_with_prior",
    "bound_report",
    "choose_breakpoints",
    "common_minimizer_check",
    "conditional_distribution",
    "load_csv",
    "load_model",
    "logistic_weights",
    "normalized",
    "prior_loss",
    "prob_positive",
    "quantile",
    "relative_entropy",
    "sample",
    "save_classifier",
    "save_csv",
    "save_density",
    "select_queries",
    "simulate",
    "split",
    "taylor_match_check",
    "train",
    "train_cde",
    "train_with_prior",
    "uniform_distribution",
    "update_distribution",
]
