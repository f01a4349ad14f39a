"""Feature diagnostics: lasso path, cold-start accuracy prediction,
copying-pair features, and the pairwise unsupervised accuracy estimator."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .instance import FusionInstance, GroundTruth
from .learning import (
    LearnConfig,
    _binomial_loss,
    _labelled_part,
    fit_weights,
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
    fitted), inflated by 1e-8 to absorb float drift. Every fit runs on the
    labelled part of the instance, sliced once.
    """
    if instance.n_features < 1:
        raise ValueError("lasso path requires at least one feature")
    if len(ground_truth) < 1:
        raise ValueError("lasso path requires labeled objects")
    if grid_size < 1:
        raise ValueError("grid size must be at least 1")
    part, targets, _ = _labelled_part(
        instance, one_hot_targets(instance, ground_truth)
    )
    # Fit intercepts with feature weights pinned at zero.
    pin = replace(config, l1_feature_penalty=1e12)
    w0, _ = fit_weights(part, targets, pin)
    _, grad = object_loss_and_grad(part, targets, w0, config.l2_intercept_penalty)
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
        w, _ = fit_weights(part, targets, cfg, init=w)
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
    # The counts lie above the diagonal, so each pair comes once, as i < j.
    i, j = np.nonzero(instance.pair_counts[0] >= min_overlap)
    return instance.with_pairs(list(zip(i.tolist(), j.tolist())))


@dataclass(frozen=True)
class PairEstimatorState:
    """Intermediate quantities of the pairwise accuracy estimator."""

    a_e_hat: float  # estimate of sum_s (2 A_s* - 1)
    a_counts: np.ndarray  # per-source pseudo-counts of correct observations
    primary_counts: np.ndarray  # objects per source as designated primary
    weights: np.ndarray  # fitted feature weights
    accuracies: dict[str, float]
    n_reduced_objects: int


def _draw_pairs(
    instance: FusionInstance, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One uniformly drawn pair of observations of each object with at least
    two, as observation indices (first, second) in observation order.
    Objects with exactly two draw nothing; the others draw i among their m
    observations and j among the other m - 1, each in one call."""
    order, bounds = instance._obs_by_object
    kept = np.flatnonzero(instance.obs_counts >= 2)
    m = instance.obs_counts[kept]
    lo = bounds[kept]
    hi = lo + 1
    big = m > 2
    i = rng.integers(m[big])
    j = rng.integers(m[big] - 1)
    j += j >= i
    hi[big] = lo[big] + np.maximum(i, j)
    lo[big] += np.minimum(i, j)
    return order[lo], order[hi]


def estimate_pair_state(
    instance: FusionInstance,
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
    if instance.n_features < 1:
        raise ValueError("the estimator fits feature weights; need features")
    rng = np.random.default_rng(config.seed)
    first, second = _draw_pairs(instance, rng)
    n_o = first.size
    if not n_o:
        raise ValueError("no object has two or more observations")
    n_s = instance.n_sources

    agree = (instance.obs_cand[first] == instance.obs_cand[second]).astype(float)
    radicand = n_s * (n_s - 1) / n_o * float(np.sum(2.0 * agree - 1.0))
    a_e_hat = float(np.sqrt(max(0.0, radicand)))
    if a_e_hat == 0.0:
        raise ValueError("agreement indistinguishable from chance")

    primary = instance.obs_source[np.where(rng.integers(2, size=n_o), second, first)]
    primary_counts = np.bincount(primary, minlength=n_s).astype(float)
    a_counts = np.bincount(
        primary,
        weights=(2.0 * n_s * agree - (n_s - a_e_hat)) / (2.0 * a_e_hat),
        minlength=n_s,
    )
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
        config.objective_tol,
        primary_counts,
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
