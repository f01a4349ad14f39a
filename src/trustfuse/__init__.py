"""trustfuse: data fusion by learned source reliability.

Resolves conflicting observations from many sources by fitting a logistic
per-source accuracy model (supervised ERM or semi-supervised EM), inferring
the most probable value per object, and choosing between the two learners
with an information-units heuristic.
"""

from .instance import FusionInstance, GroundTruth, InstanceError, correctness_counts
from .model import (
    Diagnostics,
    PosteriorTable,
    WeightVector,
    map_values,
    posterior,
    posterior_all,
    source_accuracy,
    source_accuracies,
    trust_score,
)
from .learning import (
    LearnConfig,
    fit_em,
    fit_erm_object,
    fit_erm_observation,
    fit_weights,
)
from .optimizer import (
    OptimizerDecision,
    decide,
    em_units,
    estimate_avg_accuracy,
    ground_truth_units,
)
from .baselines import counts_fit, counts_infer, majority_vote
from .pipeline import FusionResult, fuse
from .analysis import (
    LassoPath,
    PairEstimatorState,
    add_copying_features,
    estimate_pair_state,
    lasso_path,
    predict_new_source_accuracy,
)
from .simulation import SimConfig, SimResult, add_clone, generate
from .io import dump_json, load_instance, round_floats, write_instance
from .evaluation import (
    empirical_accuracies,
    make_split,
    object_accuracy,
    weighted_accuracy_error,
)

__version__ = "0.1.0"

__all__ = [
    "dump_json",
    "load_instance",
    "round_floats",
    "write_instance",
    "FusionInstance",
    "GroundTruth",
    "InstanceError",
    "correctness_counts",
    "WeightVector",
    "PosteriorTable",
    "Diagnostics",
    "FusionResult",
    "fuse",
    "source_accuracy",
    "source_accuracies",
    "trust_score",
    "posterior",
    "posterior_all",
    "map_values",
    "LearnConfig",
    "fit_erm_object",
    "fit_erm_observation",
    "fit_em",
    "fit_weights",
    "OptimizerDecision",
    "decide",
    "em_units",
    "estimate_avg_accuracy",
    "ground_truth_units",
    "majority_vote",
    "counts_fit",
    "counts_infer",
    "LassoPath",
    "PairEstimatorState",
    "estimate_pair_state",
    "lasso_path",
    "predict_new_source_accuracy",
    "add_copying_features",
    "SimConfig",
    "SimResult",
    "generate",
    "add_clone",
    "empirical_accuracies",
    "object_accuracy",
    "weighted_accuracy_error",
    "make_split",
]
