"""Majority vote and the Counts (Naive Bayes) baseline."""

from __future__ import annotations

import numpy as np

from .instance import FusionInstance, GroundTruth, label_correctness_counts
from .model import WeightVector, argmax_with_ties, map_values

__all__ = ["majority_vote", "counts_fit", "counts_infer"]


def majority_vote(instance: FusionInstance, seed: int = 0) -> dict[str, str]:
    """Most frequent observed value per object; ties broken per seed."""
    rng = np.random.default_rng(seed)
    return argmax_with_ties(instance.cand_votes, instance, rng)


def counts_fit(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    smoothing: float = 1.0,
) -> dict[str, float]:
    """Smoothed fraction of correct labeled observations per source.

    Sources with no labeled observations get the uninformed prior 0.5.
    """
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    correct, total = label_correctness_counts(
        instance, ground_truth.validate(instance)
    )
    acc = np.full(instance.n_sources, 0.5)
    seen = total > 0
    acc[seen] = (correct[seen] + smoothing) / (total[seen] + 2.0 * smoothing)
    return {instance.sources[s]: float(acc[s]) for s in range(instance.n_sources)}


def counts_infer(
    instance: FusionInstance,
    accuracies: dict[str, float],
    seed: int = 0,
) -> dict[str, str]:
    """Naive Bayes inference: `map_values` at trust scores log(A/(1 - A)),
    error mass split uniformly over wrong values."""
    acc = np.array([accuracies[s] for s in instance.sources], dtype=float)
    if np.any(acc <= 0.0) or np.any(acc >= 1.0):
        raise ValueError("accuracies must lie strictly in (0, 1)")
    weights = WeightVector(np.log(acc / (1.0 - acc)), np.zeros(instance.n_features))
    return map_values(instance, weights, seed)
