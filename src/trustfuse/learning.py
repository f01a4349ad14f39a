"""Parameter estimation: ERM on labels and hard/soft EM on partial labels.

All fits run through one monotone accelerated proximal-gradient solver:
L1 on feature weights is handled by soft-thresholding, the ridge on
intercepts (and pair weights) lives in the smooth part. Fits are full-batch
and deterministic for a fixed data order and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .baselines import _majority_candidates
from .instance import FusionInstance, GroundTruth, label_correctness_counts
from .model import (
    Diagnostics,
    PosteriorTable,
    WeightVector,
    candidate_scores,
    posterior_all,
    _argmax_candidates,
    _candidate_scores,
    _softmax_by_object,
)

__all__ = [
    "ERM_OBJECT",
    "ERM_OBSERVATION",
    "EM_HARD",
    "EM_SOFT",
    "LearnConfig",
    "fit_erm_object",
    "fit_erm_observation",
    "fit_em",
    "fit_weights",
    "object_loss_and_grad",
    "observation_loss_and_grad",
    "one_hot_targets",
    "em_free_energy",
]

ERM_OBJECT = "ERM_OBJECT"
ERM_OBSERVATION = "ERM_OBSERVATION"
EM_HARD = "EM_HARD"
EM_SOFT = "EM_SOFT"


@dataclass(frozen=True)
class LearnConfig:
    algorithm: str = ERM_OBJECT
    l1_feature_penalty: float = 0.0
    l2_intercept_penalty: float = 0.01
    max_outer_iters: int = 100
    max_inner_iters: int = 500
    objective_tol: float = 1e-6
    label_change_tol: float = 0.0
    step_size: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.l1_feature_penalty < 0 or self.l2_intercept_penalty < 0:
            raise ValueError("penalties must be non-negative")
        if self.max_outer_iters < 1 or self.max_inner_iters < 0:
            raise ValueError("iteration limits must be positive")
        if self.step_size <= 0:
            raise ValueError("step size must be positive")


# ---------------------------------------------------------------------------
# Parameter packing: flat vector [w_s | w_k | w_pairs]
# ---------------------------------------------------------------------------


class _Layout:
    def __init__(self, instance: FusionInstance):
        self.n_s = instance.n_sources
        self.n_k = instance.n_features
        self.n_p = len(instance.pairs)
        self.pairs = instance.pairs
        self.size = self.n_s + self.n_k + self.n_p

    def pack(self, w: WeightVector) -> np.ndarray:
        x = np.zeros(self.size)
        x[: self.n_s] = w.source_intercepts
        x[self.n_s : self.n_s + self.n_k] = w.feature_weights
        for i, p in enumerate(self.pairs):
            x[self.n_s + self.n_k + i] = w.pair_weights.get(p, 0.0)
        return x

    def unpack(self, x: np.ndarray) -> WeightVector:
        pair_weights = {
            p: float(x[self.n_s + self.n_k + i]) for i, p in enumerate(self.pairs)
        }
        return WeightVector(
            source_intercepts=x[: self.n_s].copy(),
            feature_weights=x[self.n_s : self.n_s + self.n_k].copy(),
            pair_weights=pair_weights,
        )

    def trust_scores(self, x: np.ndarray, features: np.ndarray) -> np.ndarray:
        """`WeightVector.trust_scores` straight from the flat vector."""
        sigma = x[: self.n_s]
        if self.n_k:
            sigma = sigma + features @ x[self.n_s : self.n_s + self.n_k]
        return sigma

    def l1_weights(self, lam: float) -> np.ndarray:
        v = np.zeros(self.size)
        v[self.n_s : self.n_s + self.n_k] = lam
        return v

    def ridge_mask(self) -> np.ndarray:
        # Ridge applies to intercepts and pair weights, not feature weights.
        m = np.ones(self.size)
        m[self.n_s : self.n_s + self.n_k] = 0.0
        return m


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def one_hot_targets(instance: FusionInstance, labels: GroundTruth) -> np.ndarray:
    """Flat candidate target mass: 1 at each labeled object's true value."""
    idx = labels.validate(instance)
    return _one_hot(instance, idx[idx >= 0])


def _one_hot(instance: FusionInstance, cands: np.ndarray) -> np.ndarray:
    t = np.zeros(instance.n_candidates)
    t[cands] = 1.0
    return t


def _object_smooth_loss(
    instance: FusionInstance,
    targets: np.ndarray,
    obj_weight: np.ndarray,
    l2: float,
    layout: _Layout,
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Weighted softmax cross-entropy over candidate scores plus ridge."""
    ridge = layout.ridge_mask()
    incl_cand = obj_weight[instance.cand_object]

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        sigma = layout.trust_scores(x, instance.features)
        scores = _candidate_scores(instance, sigma, x[layout.n_s + layout.n_k :])
        probs = _softmax_by_object(scores, instance)
        logp = np.log(np.maximum(probs, 1e-300))
        loss = -float(targets @ logp)
        residual = incl_cand * probs - targets
        grad = np.zeros_like(x)
        g_sigma = np.bincount(
            instance.obs_source,
            weights=residual[instance.obs_cand],
            minlength=instance.n_sources,
        )
        grad[: layout.n_s] = g_sigma
        if layout.n_k:
            grad[layout.n_s : layout.n_s + layout.n_k] = instance.features.T @ g_sigma
        if layout.n_p:
            ev_obj, ev_cand, ev_pair = instance.pair_events
            gp = np.zeros(layout.n_p)
            if ev_obj.size:
                # Residuals sum to 0 per object, so the "all candidates but
                # the agreed one" contribution collapses to -residual[agreed].
                np.add.at(gp, ev_pair, -residual[ev_cand])
            grad[layout.n_s + layout.n_k :] = gp
        loss += l2 * float(np.sum((ridge * x) ** 2))
        grad += 2.0 * l2 * ridge * x
        return loss, grad

    return fg


def object_loss_and_grad(
    instance: FusionInstance,
    targets: np.ndarray,
    w: WeightVector,
    l2: float = 0.0,
) -> tuple[float, WeightVector]:
    """Smooth part of the object objective and its gradient at ``w``.

    The L1 feature penalty is not included; it is handled by the proximal
    step and is non-smooth at zero.
    """
    layout = _Layout(instance)
    obj_weight = np.bincount(
        instance.cand_object, weights=targets, minlength=instance.n_objects
    )
    fg = _object_smooth_loss(instance, targets, obj_weight, l2, layout)
    loss, grad = fg(layout.pack(w))
    return loss, layout.unpack(grad)


def _observation_smooth_loss(
    instance: FusionInstance,
    correct: np.ndarray,
    total: np.ndarray,
    l2: float,
    layout: _Layout,
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Binomial log-loss on observation correctness, aggregated per source."""
    ridge = layout.ridge_mask()

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        eta = layout.trust_scores(x, instance.features)
        # log(A) = -log(1 + e^-eta), log(1 - A) = -eta - log(1 + e^-eta)
        log_a = -np.logaddexp(0.0, -eta)
        log_1ma = -eta + log_a
        loss = -float(correct @ log_a + (total - correct) @ log_1ma)
        a = np.exp(log_a)
        g_eta = total * a - correct
        grad = np.zeros_like(x)
        grad[: layout.n_s] = g_eta
        if layout.n_k:
            grad[layout.n_s : layout.n_s + layout.n_k] = instance.features.T @ g_eta
        loss += l2 * float(np.sum((ridge * x) ** 2))
        grad += 2.0 * l2 * ridge * x
        return loss, grad

    return fg


def observation_loss_and_grad(
    instance: FusionInstance,
    labels: GroundTruth,
    w: WeightVector,
    l2: float = 0.0,
) -> tuple[float, WeightVector]:
    """Smooth part of the observation objective and its gradient at ``w``."""
    layout = _Layout(instance)
    correct, total = label_correctness_counts(instance, labels.validate(instance))
    fg = _observation_smooth_loss(instance, correct, total, l2, layout)
    loss, grad = fg(layout.pack(w))
    return loss, layout.unpack(grad)


# ---------------------------------------------------------------------------
# Monotone FISTA with backtracking
# ---------------------------------------------------------------------------


def _soft_threshold(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def proximal_fit(
    x0: np.ndarray,
    fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
    l1: np.ndarray,
    max_iters: int,
    tol: float,
    step_size: float = 1.0,
) -> tuple[np.ndarray, Diagnostics]:
    """Minimize fg's smooth objective plus ``l1 . |x|`` by accelerated
    proximal gradient descent.

    Accepts a step only when the full objective does not increase (monotone
    FISTA with restart on backtracking), so the returned objective never
    exceeds the initial one. fg runs once per distinct point: the last
    accepted point keeps its objective and gradient, and they are reused
    whenever the point to evaluate is bit for bit that point (the first
    iteration, a restart, the iteration after a restart).
    """

    def full_obj(x: np.ndarray, f: float) -> float:
        return f + float(l1 @ np.abs(x))

    def evaluate(p: np.ndarray) -> tuple[float, np.ndarray]:
        return (f_x, g_x) if p.tobytes() == x.tobytes() else fg(p)

    x = x0.copy()
    f_x, g_x = fg(x)
    if not (np.isfinite(f_x) and np.all(np.isfinite(g_x))):
        raise ValueError("non-finite objective or gradient at the initial point")
    obj = full_obj(x, f_x)
    y = x
    t_k = 1.0
    step = step_size
    iters = 0
    converged = max_iters == 0
    for iters in range(1, max_iters + 1):
        g_y = evaluate(y)[1]
        accepted = False
        for _ in range(60):
            cand = _soft_threshold(y - step * g_y, step * l1)
            f_c, g_c = evaluate(cand)
            cand_obj = full_obj(cand, f_c)
            if np.isfinite(cand_obj) and cand_obj <= obj + 1e-12 * (1.0 + abs(obj)):
                accepted = True
                break
            step *= 0.5
            if not np.array_equal(y, x):
                # Momentum overshoot: restart from the last accepted point.
                y, g_y = x, g_x
                t_k = 1.0
        if not accepted:
            converged = True
            break
        delta = obj - cand_obj
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        y = cand + ((t_k - 1.0) / t_next) * (cand - x)
        x, f_x, g_x, obj, t_k = cand, f_c, g_c, cand_obj, t_next
        step = min(step * 1.2, step_size)
        if delta < tol:
            converged = True
            break
    return x, Diagnostics(iterations=iters, objective=float(obj), converged=converged)


def fit_weights(
    instance: FusionInstance,
    targets: np.ndarray,
    config: LearnConfig,
    init: WeightVector | None = None,
) -> tuple[WeightVector, Diagnostics]:
    """Shared M-step/ERM solver for the object objective.

    ``targets`` is a flat candidate array of per-object label mass (one-hot
    for hard labels, posterior rows for soft labels); objects with zero mass
    do not contribute.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (instance.n_candidates,):
        raise ValueError("targets must be a flat candidate array")
    obj_weight = np.bincount(
        instance.cand_object, weights=targets, minlength=instance.n_objects
    )
    if not np.any(obj_weight > 0):
        raise ValueError("targets must cover at least one object")
    layout = _Layout(instance)
    x0 = layout.pack(init if init is not None else WeightVector.zeros(instance))
    fg = _object_smooth_loss(
        instance, targets, obj_weight, config.l2_intercept_penalty, layout
    )
    x, diag = proximal_fit(
        x0,
        fg,
        layout.l1_weights(config.l1_feature_penalty),
        config.max_inner_iters,
        config.objective_tol,
        config.step_size,
    )
    return layout.unpack(x), diag


def fit_erm_object(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    config: LearnConfig,
    init: WeightVector | None = None,
) -> tuple[WeightVector, Diagnostics]:
    """ERM over labeled objects: minimize the penalized posterior log-loss."""
    if len(ground_truth) == 0:
        raise ValueError("ERM requires at least one labeled object")
    targets = one_hot_targets(instance, ground_truth)
    return fit_weights(instance, targets, config, init=init)


def fit_erm_observation(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    config: LearnConfig,
    init: WeightVector | None = None,
) -> tuple[WeightVector, Diagnostics]:
    """Regularized logistic regression on observation-correctness labels."""
    if len(ground_truth) == 0:
        raise ValueError("ERM requires at least one labeled object")
    layout = _Layout(instance)
    correct, total = label_correctness_counts(
        instance, ground_truth.validate(instance)
    )
    fg = _observation_smooth_loss(
        instance, correct, total, config.l2_intercept_penalty, layout
    )
    x0 = layout.pack(init if init is not None else WeightVector.zeros(instance))
    x, diag = proximal_fit(
        x0,
        fg,
        layout.l1_weights(config.l1_feature_penalty),
        config.max_inner_iters,
        config.objective_tol,
        config.step_size,
    )
    return layout.unpack(x), diag


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------


def _penalties(w: WeightVector, config: LearnConfig) -> float:
    ridge = float(np.sum(w.source_intercepts**2)) + float(
        sum(v * v for v in w.pair_weights.values())
    )
    return config.l2_intercept_penalty * ridge + config.l1_feature_penalty * float(
        np.sum(np.abs(w.feature_weights))
    )


def em_free_energy(
    instance: FusionInstance,
    q: np.ndarray,
    w: WeightVector,
    config: LearnConfig,
    clamped: np.ndarray,
) -> float:
    """Penalized expected complete-data log-likelihood plus soft-label entropy.

    Non-decreasing across soft-EM outer iterations: the M-step raises it for
    fixed q, the E-step (q = posterior on unclamped objects) for fixed w.
    """
    probs = posterior_all(instance, w).probs
    logp = np.log(np.maximum(probs, 1e-300))
    value = float(q @ logp)
    free = ~clamped[instance.cand_object]
    qf = q[free]
    nz = qf > 0
    value -= float(qf[nz] @ np.log(qf[nz]))
    return value - _penalties(w, config)


def fit_em(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    config: LearnConfig,
) -> tuple[WeightVector, PosteriorTable, Diagnostics]:
    """Hard or soft EM with labeled objects clamped in every E-step.

    The first E-step is majority vote with seeded tie-breaking; weights are
    warm-started across outer iterations. Hard EM stops when the fraction of
    flipped labels drops to ``label_change_tol``; soft EM stops when the
    free energy improves by less than ``objective_tol``.
    """
    soft = config.algorithm == EM_SOFT
    label_cand = ground_truth.validate(instance)
    clamped_obj = label_cand >= 0
    free_obj = ~clamped_obj
    label_targets = _one_hot(instance, label_cand[clamped_obj])
    clamped_cand = clamped_obj[instance.cand_object]

    # Hard assignments as one flat candidate per object, labels clamped.
    picks = _majority_candidates(instance, seed=config.seed)
    q = _one_hot(instance, np.where(clamped_obj, label_cand, picks))

    inner = replace(config, algorithm=ERM_OBJECT)
    w = WeightVector.zeros(instance)
    history: list[float] = []
    converged = False
    outer = 0
    n_unlabeled = int(free_obj.sum())
    for outer in range(1, config.max_outer_iters + 1):
        w, m_diag = fit_weights(instance, q, inner, init=w)
        if soft:
            table = posterior_all(instance, w)
            q_new = np.where(clamped_cand, label_targets, table.probs)
            free_energy = em_free_energy(instance, q_new, w, config, clamped_obj)
            history.append(free_energy)
            if len(history) >= 2 and free_energy - history[-2] < config.objective_tol:
                q = q_new
                converged = True
                break
            q = q_new
        else:
            rng = np.random.default_rng((config.seed, outer))
            new_picks = _argmax_candidates(candidate_scores(instance, w), instance, rng)
            flips = int(np.count_nonzero((new_picks != picks) & free_obj))
            history.append(m_diag.objective)
            picks = new_picks
            q = _one_hot(instance, np.where(clamped_obj, label_cand, picks))
            if n_unlabeled == 0 or flips <= config.label_change_tol * n_unlabeled:
                converged = True
                break
    table = posterior_all(instance, w)
    final_obj = history[-1] if history else float("nan")
    diag = Diagnostics(
        iterations=outer,
        objective=float(final_obj),
        converged=converged,
        history=tuple(history),
    )
    return w, table, diag
