"""Feature diagnostics: lasso path, cold-start accuracy prediction,
copying-pair features, and the pairwise unsupervised accuracy estimator."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .instance import FusionInstance, GroundTruth
from .learning import (
    LearnConfig,
    _binomial_loss,
    fit_erm_object,
    object_loss_and_grad,
    one_hot_targets,
    proximal_fit,
)
from .model import WeightVector, _logistic

__all__ = [
    "LassoPath",
    "PairEstimatorState",
    "lasso_path",
    "predict_new_source_accuracy",
    "add_copying_features",
    "estimate_pair_state",
]


@dataclass(frozen=True)
class LassoPath:
    """Feature-weight trajectories over a descending penalty grid."""

    grid: np.ndarray  # penalties, strictly decreasing
    mu: np.ndarray  # display position in [0, 1], inverse to the penalty
    weights: np.ndarray  # one |K| row per grid point
    feature_names: tuple[str, ...]


def lasso_path(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    grid_size: int,
    config: LearnConfig,
) -> LassoPath:
    """Warm-started ERM fits over a geometric L1 grid from lambda_max down.

    lambda_max is the smallest penalty at which the all-zero feature-weight
    solution is stationary (max absolute feature gradient with intercepts
    fitted), inflated by 1e-8 to absorb float drift.
    """
    if instance.n_features < 1:
        raise ValueError("lasso path requires at least one feature")
    if len(ground_truth) < 1:
        raise ValueError("lasso path requires labeled objects")
    if grid_size < 1:
        raise ValueError("grid size must be at least 1")
    # Fit intercepts with feature weights pinned at zero.
    pin = replace(config, l1_feature_penalty=1e12)
    w0, _ = fit_erm_object(instance, ground_truth, pin)
    targets = one_hot_targets(instance, ground_truth)
    _, grad = object_loss_and_grad(
        instance, targets, w0, config.l2_intercept_penalty
    )
    lam_max = float(np.max(np.abs(grad.feature_weights))) * (1.0 + 1e-8)
    if lam_max <= 0.0:
        lam_max = 1e-3
    if grid_size == 1:
        grid = np.array([lam_max])
        mu = np.array([0.0])
    else:
        grid = np.geomspace(lam_max, lam_max * 1e-3, grid_size)
        mu = 1.0 - np.log(grid / grid[-1]) / np.log(grid[0] / grid[-1])
    rows = np.zeros((grid.size, instance.n_features))
    # At lambda_max the pinned solution is stationary for the joint problem,
    # so it is recorded directly; this keeps the first row exactly zero.
    w = w0
    for i, lam in enumerate(grid[1:], start=1):
        cfg = replace(config, l1_feature_penalty=float(lam))
        w, _ = fit_erm_object(instance, ground_truth, cfg, init=w)
        rows[i] = w.feature_weights
    return LassoPath(
        grid=grid, mu=mu, weights=rows, feature_names=instance.feature_names
    )


def predict_new_source_accuracy(
    weights: WeightVector, feature_row: np.ndarray
) -> float:
    """Cold-start accuracy of an unseen source: logistic(w_k . f), intercept 0."""
    feature_row = np.asarray(feature_row, dtype=float)
    if not np.all(np.isfinite(feature_row)):
        raise ValueError("feature row must be finite")
    if feature_row.shape != weights.feature_weights.shape:
        raise ValueError("feature row length does not match feature weights")
    return float(_logistic(float(feature_row @ weights.feature_weights)))


def add_copying_features(
    instance: FusionInstance, min_overlap: int = 5
) -> FusionInstance:
    """Register a pair weight for every source pair co-observing enough objects.

    A registered pair's weight is added to the posterior score of every
    candidate the pair's agreed value contradicts, so a positive fitted
    weight discounts the pair's agreement.
    """
    if min_overlap < 1:
        raise ValueError("min_overlap must be at least 1")
    n = instance.n_sources
    first, second = instance.obs_pairs
    # Each co-observed object contributes one (i, j) key, i < j.
    keys, overlap = np.unique(
        instance.obs_source[first] * n + instance.obs_source[second],
        return_counts=True,
    )
    keys = keys[overlap >= min_overlap]
    return instance.with_pairs(list(zip((keys // n).tolist(), (keys % n).tolist())))


@dataclass(frozen=True)
class PairEstimatorState:
    """Intermediate quantities of the pairwise accuracy estimator."""

    a_e_hat: float  # estimate of sum_s (2 A_s* - 1)
    a_counts: np.ndarray  # per-source pseudo-counts of correct observations
    primary_counts: np.ndarray  # objects per source as designated primary
    weights: np.ndarray  # fitted feature weights
    accuracies: dict[str, float]
    n_reduced_objects: int


def _reduce_to_pairs(
    instance: FusionInstance, rng: np.random.Generator
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Keep exactly two observations per object; drop objects with fewer."""
    kept: list[tuple[int, np.ndarray, np.ndarray]] = []
    for o in range(instance.n_objects):
        rows = instance.observers_of(o)
        if rows.size < 2:
            continue
        if rows.size > 2:
            pick = rng.choice(rows.size, size=2, replace=False)
            rows = rows[np.sort(pick)]
        kept.append((o, instance.obs_source[rows], instance.obs_cand[rows]))
    return kept


def estimate_pair_state(
    instance: FusionInstance,
    delta: float,
    config: LearnConfig,
) -> PairEstimatorState:
    """Three-step unsupervised accuracy estimation on the pair-reduced instance.

    Step 1 estimates the aggregate centered accuracy from the mean pairwise
    agreement; step 2 converts per-primary-source agreement counts into
    pseudo-counts of correct observations; step 3 fits feature-only logistic
    weights to those counts by proximal Newton on the binomial loss.
    """
    if instance.n_sources < 3:
        raise ValueError("need at least three sources")
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must be in (0, 0.5]")
    if instance.n_features < 1:
        raise ValueError("the estimator fits feature weights; need features")
    rng = np.random.default_rng(config.seed)
    pairs = _reduce_to_pairs(instance, rng)
    if not pairs:
        raise ValueError("no object has two or more observations")
    n_s = instance.n_sources
    n_o = len(pairs)

    agree = np.array([1.0 if v[0] == v[1] else 0.0 for _, _, v in pairs])
    radicand = n_s * (n_s - 1) / n_o * float(np.sum(2.0 * agree - 1.0))
    a_e_hat = float(np.sqrt(max(0.0, radicand)))
    if a_e_hat == 0.0:
        raise ValueError("agreement indistinguishable from chance")

    primary_counts = np.zeros(n_s)
    a_counts = np.zeros(n_s)
    for (o, srcs, _), ag in zip(pairs, agree):
        primary = int(srcs[rng.integers(2)])
        primary_counts[primary] += 1.0
        a_counts[primary] += (2.0 * n_s * ag - (n_s - a_e_hat)) / (2.0 * a_e_hat)
    # The binomial log-likelihood needs counts within [0, |O_s|].
    a_counts = np.clip(a_counts, 0.0, primary_counts)

    features = instance.features

    def loss(w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        value, g_eta, curv = _binomial_loss(features @ w, a_counts, primary_counts)
        return value, features.T @ g_eta, features.T @ (curv[:, None] * features)

    # The K feature weights take the place of the solver's intercepts: no
    # features, no L1 and no ridge.
    w, _ = proximal_fit(
        np.zeros(instance.n_features),
        loss,
        np.zeros((instance.n_features, 0)),
        0.0,
        0.0,
        config.max_inner_iters,
        config.objective_tol * max(1.0, float(primary_counts.max())),
    )
    acc = _logistic(features @ w)
    accuracies = {instance.sources[s]: float(acc[s]) for s in range(n_s)}
    return PairEstimatorState(
        a_e_hat=a_e_hat,
        a_counts=a_counts,
        primary_counts=primary_counts,
        weights=w,
        accuracies=accuracies,
        n_reduced_objects=n_o,
    )
