"""End-to-end fusion: learn source accuracies, infer values, keep labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import counts_fit, majority_vote
from .instance import FusionInstance, GroundTruth
from .learning import LearnConfig, fit_em, fit_erm_object
from .model import Diagnostics, WeightVector, map_values, source_accuracies
from .optimizer import DEFAULT_TAU, OptimizerDecision, check_tau, decide

__all__ = ["FusionResult", "fuse"]


@dataclass(frozen=True)
class FusionResult:
    values: dict[str, str]
    accuracies: dict[str, float]
    weights: WeightVector
    algorithm_used: str
    diagnostics: Diagnostics
    # The selector's decision when ``fuse`` ran with algo "auto"; else None.
    decision: OptimizerDecision | None = None


def fuse(
    instance: FusionInstance,
    truth: GroundTruth,
    algo: str,
    config: LearnConfig,
    tau: float = DEFAULT_TAU,
) -> FusionResult:
    """Fuse ``instance`` with ``algo``: "erm", "em", "counts", "majority", or
    "auto", which lets `decide` pick ERM or EM at threshold ``tau``.

    Every labelled object keeps its label, whatever the algorithm; ties in
    inference are broken with ``config.seed``. Counts accuracies become
    source intercepts by their log-odds, majority vote gets zero weights.

    The labels are checked once by whichever function reads them (`decide`
    and the learners); majority vote reads none, so that branch checks them
    before the clamp indexes objects by label. ``tau`` must be positive and
    finite under every algorithm, not only under "auto", which reads it.
    """
    check_tau(tau)
    decision = None
    if algo == "auto":
        decision = decide(instance, truth, tau)
        algo = decision.choice.lower()
    diagnostics = Diagnostics(iterations=0, objective=0.0, converged=True)
    if algo == "erm":
        weights, diagnostics = fit_erm_object(instance, truth, config)
    elif algo == "em":
        weights, _, diagnostics = fit_em(instance, truth, config)
    elif algo == "counts":
        counted = counts_fit(instance, truth)
        a = np.array([counted[s] for s in instance.sources])
        weights = WeightVector(np.log(a / (1.0 - a)), np.zeros(instance.n_features))
    elif algo == "majority":
        truth.validate(instance)
        weights = WeightVector.zeros(instance)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    if algo == "majority":
        values = majority_vote(instance, seed=config.seed)
    else:
        values = map_values(instance, weights, config.seed)
    for o, value in truth.labels.items():
        values[instance.objects[o]] = value
    acc = source_accuracies(weights, instance.features)
    return FusionResult(
        values=values,
        accuracies={name: float(acc[i]) for i, name in enumerate(instance.sources)},
        weights=weights,
        algorithm_used=algo.upper(),
        diagnostics=diagnostics,
        decision=decision,
    )
