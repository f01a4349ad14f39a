"""Object-accuracy and source-accuracy-error metrics plus seeded splits."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .instance import FusionInstance, GroundTruth, correctness_counts

__all__ = [
    "object_accuracy",
    "weighted_accuracy_error",
    "empirical_accuracies",
    "make_split",
]


def object_accuracy(
    predicted: Mapping[str, str],
    truth: Mapping[str, str],
    test_set: Iterable[str],
) -> float:
    """Fraction of test objects whose predicted value matches the truth."""
    test = list(test_set)
    if not test:
        raise ValueError("test set must be non-empty")
    hits = sum(1 for obj in test if predicted.get(obj) == truth[obj])
    return hits / len(test)


def empirical_accuracies(
    instance: FusionInstance, full_truth: GroundTruth
) -> dict[str, float]:
    """Each source's correct fraction over all its observations; a full-truth
    value that no source reported counts as wrong for its reporters."""
    if len(full_truth) < instance.n_objects:
        raise ValueError("full ground truth must label every object")
    correct, total = correctness_counts(instance, full_truth)
    return {
        instance.sources[s]: float(correct[s] / total[s])
        for s in range(instance.n_sources)
        if total[s] > 0
    }


def weighted_accuracy_error(
    estimated: Mapping[str, float],
    instance: FusionInstance,
    full_truth: GroundTruth,
) -> float:
    """Observation-count-weighted mean absolute accuracy estimation error."""
    true_acc = empirical_accuracies(instance, full_truth)
    counts = instance.source_obs_counts
    num = 0.0
    den = 0.0
    for s in range(instance.n_sources):
        n_s = int(counts[s])
        if n_s == 0:
            continue
        name = instance.sources[s]
        num += n_s * abs(estimated[name] - true_acc[name])
        den += n_s
    return num / den


def make_split(
    objects: Iterable[str], train_fraction: float, seed: int
) -> tuple[list[str], list[str]]:
    """Seeded train/test split; train gets ceil(fraction * n), at least 1,
    and test the rest, which must not be empty."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train fraction must be in (0, 1)")
    objs = list(objects)
    n_train = max(1, int(np.ceil(train_fraction * len(objs))))
    if n_train >= len(objs):
        raise ValueError(
            f"train fraction {train_fraction} of {len(objs)} labels leaves no test set"
        )
    order = np.random.default_rng(seed).permutation(len(objs))
    train = [objs[i] for i in order[:n_train]]
    test = [objs[i] for i in order[n_train:]]
    return train, test
