"""Parameter estimation: ERM on labels and one-coin EM on partial labels.

Two losses over x = [w_s | w_k], one stopping rule: every fit stops when its
KKT residual (`_kkt_residual`) is at most ``objective_tol`` times the most
observations one source has in the fit, and ``converged`` means that check
passed. Proximal Newton (`_proximal_newton`) fits the per-source binomial
loss (`fit_erm_observation`, EM's M-step and the pair estimator in
`analysis`) and the object loss (`fit_weights`: object ERM, as `fuse --algo
erm` runs it, and the lasso path). Only object fits with copying-pair
weights, whose count grows as S^2, keep the monotone accelerated
proximal-gradient solver (`proximal_fit`). All fits apply L1 to feature
weights only and a ridge to intercepts (and pair weights). Fits are
full-batch and deterministic for a fixed data order and seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baselines import _majority_candidates
from .instance import FusionInstance, GroundTruth, label_correctness_counts
from .model import (
    Diagnostics,
    PosteriorTable,
    WeightVector,
    _candidate_scores,
    _exp_by_object,
    _softmax_by_object,
)

__all__ = [
    "LearnConfig",
    "fit_erm_object",
    "fit_erm_observation",
    "fit_em",
    "fit_weights",
    "object_loss_and_grad",
    "observation_loss_and_grad",
    "one_hot_targets",
]

_log = logging.getLogger("trustfuse")


@dataclass(frozen=True)
class LearnConfig:
    """Penalties, iteration limits and seed shared by every fit."""

    l1_feature_penalty: float = 0.0
    l2_intercept_penalty: float = 0.01
    max_outer_iters: int = 100
    max_inner_iters: int = 500
    objective_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.l1_feature_penalty < 0 or self.l2_intercept_penalty < 0:
            raise ValueError("penalties must be non-negative")
        if self.max_outer_iters < 1 or self.max_inner_iters < 0:
            raise ValueError("iteration limits must be positive")


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


# A loss of the trust scores sigma: (value, gradient in sigma, curvature in
# sigma), the curvature either a diagonal (1-D) or a full S x S matrix.
_SigmaLoss = Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]]


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
        loss, _, residual, g_sigma = _cross_entropy(
            instance, targets, incl_cand, scores
        )
        grad = np.zeros_like(x)
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


def _cross_entropy(
    instance: FusionInstance,
    targets: np.ndarray,
    incl_cand: np.ndarray,
    scores: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Weighted softmax cross-entropy of candidate ``scores``: the loss, the
    probabilities, the per-candidate residual and the gradient in sigma."""
    probs = _softmax_by_object(scores, instance)
    loss = -float(targets @ np.log(np.maximum(probs, 1e-300)))
    residual = incl_cand * probs - targets
    g_sigma = np.bincount(
        instance.obs_source,
        weights=residual[instance.obs_cand],
        minlength=instance.n_sources,
    )
    return loss, probs, residual, g_sigma


def _object_sigma_loss(
    instance: FusionInstance, targets: np.ndarray, obj_weight: np.ndarray
) -> _SigmaLoss:
    """The object loss of an instance without copying pairs as a function of
    the trust scores, for `_proximal_newton`.

    Its curvature in sigma is the S x S matrix sum_o m_o (diag(p_o) -
    p_o p_o') pulled back through the vote incidence, with m_o the object's
    label mass: each ordered pair (i, j) of observations of a labelled
    object, i = j included, adds m_o p[c_i]([c_i = c_j] - p[c_j]) at
    (s_i, s_j).
    """
    n_s = instance.n_sources
    first, second = instance.obs_pairs
    keep = obj_weight[instance.obs_object[first]] > 0
    first, second = first[keep], second[keep]
    own = np.flatnonzero(obj_weight[instance.obs_object] > 0)
    obs_i = np.concatenate([first, second, own])
    obs_j = np.concatenate([second, first, own])
    cand_i, cand_j = instance.obs_cand[obs_i], instance.obs_cand[obs_j]
    same = (cand_i == cand_j).astype(float)
    mass = obj_weight[instance.obs_object[obs_i]]
    cell = instance.obs_source[obs_i] * n_s + instance.obs_source[obs_j]
    incl_cand = obj_weight[instance.cand_object]
    no_pairs = np.empty(0)

    def loss(sigma: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        scores = _candidate_scores(instance, sigma, no_pairs)
        value, probs, _, g_sigma = _cross_entropy(instance, targets, incl_cand, scores)
        p_i = probs[cand_i]
        curv = np.bincount(
            cell, weights=mass * p_i * (same - probs[cand_j]), minlength=n_s * n_s
        )
        return value, g_sigma, curv.reshape(n_s, n_s)

    return loss


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


def _binomial_loss(
    eta: np.ndarray, correct: np.ndarray, total: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Binomial log-loss of ``correct`` out of ``total`` at trust scores
    ``eta``, with its first and second derivatives in ``eta``."""
    # log(A) = -log(1 + e^-eta), log(1 - A) = -eta - log(1 + e^-eta)
    log_a = -np.logaddexp(0.0, -eta)
    log_1ma = -eta + log_a
    loss = -float(correct @ log_a + (total - correct) @ log_1ma)
    g_eta = total * np.exp(log_a) - correct
    # total * A (1 - A), without the cancellation of 1 - A near A = 1.
    curvature = total * np.exp(log_a + log_1ma)
    return loss, g_eta, curvature


def observation_loss_and_grad(
    instance: FusionInstance,
    labels: GroundTruth,
    w: WeightVector,
    l2: float = 0.0,
) -> tuple[float, WeightVector]:
    """Smooth part of the observation objective and its gradient at ``w``:
    the binomial loss of each source's correct out of total labelled
    observations, plus the ridge."""
    layout = _Layout(instance)
    correct, total = label_correctness_counts(instance, labels.validate(instance))
    x = layout.pack(w)
    ridge = layout.ridge_mask()
    loss, g_eta, _ = _binomial_loss(
        layout.trust_scores(x, instance.features), correct, total
    )
    grad = np.zeros_like(x)
    grad[: layout.n_s] = g_eta
    if layout.n_k:
        grad[layout.n_s : layout.n_s + layout.n_k] = instance.features.T @ g_eta
    loss += l2 * float(np.sum((ridge * x) ** 2))
    grad += 2.0 * l2 * ridge * x
    return loss, layout.unpack(grad)


# ---------------------------------------------------------------------------
# Monotone FISTA with backtracking
# ---------------------------------------------------------------------------


def _soft_threshold(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _kkt_residual(
    g_free: np.ndarray, v: np.ndarray, g_v: np.ndarray, l1: float | np.ndarray
) -> float:
    """The KKT residual every fit stops on: the largest gradient of the
    coordinates without L1 and the largest proximal-gradient step
    ``|v - soft(v - g_v, l1)|`` of the L1-penalised coordinates ``v``."""
    return max(
        np.max(np.abs(g_free), initial=0.0),
        np.max(np.abs(v - _soft_threshold(v - g_v, l1)), initial=0.0),
    )


def proximal_fit(
    x0: np.ndarray,
    fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
    l1: np.ndarray,
    max_iters: int,
    bound: float,
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

    ``converged`` means the `_kkt_residual` at the last accepted point, with
    the coordinates whose ``l1`` is 0 unpenalised, is at most ``bound``. The
    fit stops there, after ``max_iters`` iterations, or when the line search
    accepts no step.
    """
    pen = l1 > 0

    def full_obj(x: np.ndarray, f: float) -> float:
        return f + float(l1 @ np.abs(x))

    def evaluate(p: np.ndarray) -> tuple[float, np.ndarray]:
        return (f_x, g_x) if p.tobytes() == x.tobytes() else fg(p)

    def stationary(x: np.ndarray, g: np.ndarray) -> bool:
        return bool(_kkt_residual(g[~pen], x[pen], g[pen], l1[pen]) <= bound)

    x = x0.copy()
    f_x, g_x = fg(x)
    if not (np.isfinite(f_x) and np.all(np.isfinite(g_x))):
        raise ValueError("non-finite objective or gradient at the initial point")
    obj = full_obj(x, f_x)
    y = x
    t_k = 1.0
    step = step_size
    iters = 0
    converged = stationary(x, g_x)
    while not converged and iters < max_iters:
        iters += 1
        g_y = evaluate(y)[1]
        for _ in range(60):
            cand = _soft_threshold(y - step * g_y, step * l1)
            f_c, g_c = evaluate(cand)
            cand_obj = full_obj(cand, f_c)
            if np.isfinite(cand_obj) and cand_obj <= obj + 1e-12 * (1.0 + abs(obj)):
                break
            step *= 0.5
            if not np.array_equal(y, x):
                # Momentum overshoot: restart from the last accepted point.
                y, g_y = x, g_x
                t_k = 1.0
        else:
            break
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        y = cand + ((t_k - 1.0) / t_next) * (cand - x)
        x, f_x, g_x, obj, t_k = cand, f_c, g_c, cand_obj, t_next
        step = min(step * 1.2, step_size)
        converged = stationary(x, g_x)
    return x, Diagnostics(iterations=iters, objective=float(obj), converged=converged)


# ---------------------------------------------------------------------------
# Proximal Newton on [w_s | w_k]
# ---------------------------------------------------------------------------


def _proximal_newton(
    features: np.ndarray,
    loss: _SigmaLoss,
    l1: float,
    l2: float,
    x0: np.ndarray,
    max_iters: int,
    bound: float,
) -> tuple[np.ndarray, Diagnostics]:
    """Minimize ``loss(w_s + F w_k) + l2 |w_s|^2 + l1 |w_k|_1`` over
    x = [w_s | w_k] by proximal Newton steps (Lee, Sun & Saunders 2014).

    With H the curvature of ``loss`` in sigma, the Hessian is H + 2 l2 on
    the intercepts, H F between intercepts and features and F'HF on the
    features. Each step solves the quadratic model exactly: the intercept
    step is eliminated, the K feature weights are solved on their Schur
    complement ``2 l2 F'(H + 2 l2)^-1 H F`` by `_lasso_qp`, and a monotone
    Armijo search on the full objective damps the step.

    ``converged`` means the `_kkt_residual`
    ``max(|grad_w|_inf, |w_k - soft(w_k - grad_k, l1)|_inf)`` is at most
    ``bound``. The fit stops there, after ``max_iters`` steps, or when the
    line search finds no decrease.
    """
    x = np.array(x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite initial point")
    n_s = features.shape[0]

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        w, v = x[:n_s], x[n_s:]
        value, g_sigma, curv = loss(w + features @ v)
        return value + l2 * float(w @ w) + l1 * float(np.abs(v).sum()), g_sigma, curv

    obj, g_sigma, curv = evaluate(x)
    converged = False
    steps = 0
    while True:
        w, v = x[:n_s], x[n_s:]
        g_w = g_sigma + 2.0 * l2 * w
        g_v = features.T @ g_sigma
        if _kkt_residual(g_w, v, g_v, l1) <= bound:
            converged = True
            break
        if steps == max_iters:
            break
        # Eliminating the intercept step leaves, for the feature weights,
        # the quadratic  r.dv + dv'(2 l2 F'(H + 2 l2)^-1 H F)dv / 2.
        if curv.ndim == 1:
            denom = curv + 2.0 * l2
            inv = np.divide(1.0, denom, out=np.zeros_like(denom), where=denom > 0)
            schur = features.T @ ((2.0 * l2 * curv * inv)[:, None] * features)
            r = g_v - features.T @ (curv * inv * g_w)
            dv = _lasso_qp(schur, r, v, l1) - v
            dw = -(g_w + curv * (features @ dv)) * inv
        else:
            hf = curv @ features
            # (H + 2 l2)^-1 [g_w | H F]; without a ridge H can be singular,
            # and the least-norm solution is taken.
            rhs = np.column_stack([g_w, hf])
            a = curv + 2.0 * l2 * np.eye(n_s)
            z = (
                np.linalg.solve(a, rhs)
                if l2 > 0
                else np.linalg.lstsq(a, rhs, rcond=None)[0]
            )
            schur = 2.0 * l2 * (features.T @ z[:, 1:])
            r = g_v - hf.T @ z[:, 0]
            dv = _lasso_qp(schur, r, v, l1) - v
            dw = -(z[:, 0] + z[:, 1:] @ dv)
        decrease = float(g_w @ dw + g_v @ dv) + l1 * float(
            np.abs(v + dv).sum() - np.abs(v).sum()
        )
        if not decrease < 0.0:
            break
        step = np.concatenate([dw, dv])
        t = 1.0
        for _ in range(50):
            trial = evaluate(x + t * step)
            if trial[0] <= obj + 1e-4 * t * decrease:
                break
            t *= 0.5
        else:
            break
        x = x + t * step
        obj, g_sigma, curv = trial
        steps += 1
    return x, Diagnostics(iterations=steps, objective=float(obj), converged=converged)


def _fit_binomial(
    features: np.ndarray,
    correct: np.ndarray,
    total: np.ndarray,
    l1: float,
    l2: float,
    x0: np.ndarray,
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, Diagnostics]:
    """`_proximal_newton` on the binomial loss of ``correct`` out of
    ``total`` per source, whose curvature in sigma is diagonal. The KKT
    bound is ``tol`` times the most observations of one source (at least 1).
    """
    return _proximal_newton(
        features,
        lambda eta: _binomial_loss(eta, correct, total),
        l1,
        l2,
        x0,
        max_iters,
        tol * max(1.0, float(np.max(total, initial=0))),
    )


def _lasso_qp(q: np.ndarray, r: np.ndarray, v: np.ndarray, l1: float) -> np.ndarray:
    """Minimize ``r.(u - v) + (u - v)'q(u - v)/2 + l1 |u|_1`` over u.

    Solved directly when ``l1`` is 0, by cyclic coordinate descent
    otherwise. A coordinate with no curvature (every one when the ridge is
    0) stays at ``v`` without L1 and goes to 0, a minimiser, with it.
    """
    if l1 == 0.0:
        return v + np.linalg.lstsq(q, -r, rcond=None)[0]
    diag = np.diag(q)
    u = v.copy()
    grad = r.copy()
    for _ in range(1000):
        largest = 0.0
        for k in range(u.size):
            new = 0.0
            if diag[k] > 0:
                new = _soft_threshold(diag[k] * u[k] - grad[k], l1) / diag[k]
            delta = new - u[k]
            if delta:
                grad += q[:, k] * delta
                u[k] = new
                largest = max(largest, abs(delta))
        if largest <= 1e-12 * max(1.0, float(np.max(np.abs(u), initial=0.0))):
            break
    return u


def fit_weights(
    instance: FusionInstance,
    targets: np.ndarray,
    config: LearnConfig,
    init: WeightVector | None = None,
) -> tuple[WeightVector, Diagnostics]:
    """Solver for the object objective, the one object-level fit: ERM,
    copying-pair weights and the lasso path run through it.

    ``targets`` is a flat candidate array of per-object label mass (one-hot
    for labels); objects with zero mass do not contribute.

    ``converged`` means the KKT residual (`_kkt_residual`) is at most
    ``objective_tol`` times the most labelled observations of any source (at
    least 1), reached within ``max_inner_iters`` steps. Without copying pairs
    the steps are proximal Newton (`_proximal_newton`). With them they are
    accelerated proximal gradient (`proximal_fit`): up to S(S-1)/2 pair
    weights make a dense Newton step too costly.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (instance.n_candidates,):
        raise ValueError("targets must be a flat candidate array")
    obj_weight = np.bincount(
        instance.cand_object, weights=targets, minlength=instance.n_objects
    )
    if not np.any(obj_weight > 0):
        raise ValueError("targets must cover at least one object")
    labelled_obs = np.bincount(
        instance.obs_source,
        weights=obj_weight[instance.obs_object],
        minlength=instance.n_sources,
    )
    bound = config.objective_tol * max(1.0, float(np.max(labelled_obs)))
    layout = _Layout(instance)
    x0 = layout.pack(init if init is not None else WeightVector.zeros(instance))
    if instance.pairs:
        fg = _object_smooth_loss(
            instance, targets, obj_weight, config.l2_intercept_penalty, layout
        )
        x, diag = proximal_fit(
            x0,
            fg,
            layout.l1_weights(config.l1_feature_penalty),
            config.max_inner_iters,
            bound,
        )
    else:
        x, diag = _proximal_newton(
            instance.features,
            _object_sigma_loss(instance, targets, obj_weight),
            config.l1_feature_penalty,
            config.l2_intercept_penalty,
            x0,
            config.max_inner_iters,
            bound,
        )
    return layout.unpack(x), diag


def fit_erm_object(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    config: LearnConfig,
    init: WeightVector | None = None,
) -> tuple[WeightVector, Diagnostics]:
    """ERM over labeled objects: minimize the penalized posterior log-loss,
    by `fit_weights` (proximal Newton unless the instance has copying
    pairs)."""
    if len(ground_truth) == 0:
        raise ValueError("ERM requires at least one labeled object")
    targets = one_hot_targets(instance, ground_truth)
    return fit_weights(instance, targets, config, init=init)


def fit_erm_observation(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    config: LearnConfig,
) -> tuple[WeightVector, Diagnostics]:
    """Regularized logistic regression on observation-correctness labels:
    the per-source binomial loss of each source's correct out of total
    labelled observations, solved by proximal Newton (`_fit_binomial`).

    ``converged`` means the fit passed its scale-aware KKT check at
    ``config.objective_tol`` within ``config.max_inner_iters`` steps.
    """
    if len(ground_truth) == 0:
        raise ValueError("ERM requires at least one labeled object")
    if instance.pairs:
        raise ValueError(
            "fit_erm_observation cannot fit copying-pair weights; use fit_erm_object"
        )
    layout = _Layout(instance)
    correct, total = label_correctness_counts(
        instance, ground_truth.validate(instance)
    )
    x, diag = _fit_binomial(
        instance.features,
        correct,
        total,
        config.l1_feature_penalty,
        config.l2_intercept_penalty,
        layout.pack(WeightVector.zeros(instance)),
        config.max_inner_iters,
        config.objective_tol,
    )
    return layout.unpack(x), diag


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------


def fit_em(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    config: LearnConfig,
) -> tuple[WeightVector, PosteriorTable, Diagnostics]:
    """One-coin EM (Dawid & Skene 1979) with labelled objects clamped.

    Source s reports an object's true value with probability A_s and
    otherwise one of its other ``|D_o| - 1`` values uniformly: the model
    that `candidate_scores` scores. The E-step is the exact posterior over
    each object's candidates, as `posterior_all` computes it. The M-step
    fits the per-source binomial loss of `fit_erm_observation` to the
    expected correct counts by proximal Newton, warm-started across outer
    iterations, at most ``max_inner_iters`` steps each. The first E-step is
    majority vote with seeded ties.

    ``history`` holds the penalized marginal log-likelihood after each
    M-step, which does not decrease. EM stops, with ``converged`` set, when
    it changes by at most ``objective_tol`` relative to its last value, or
    after one M-step when every object is labelled. The returned table is
    the last E-step's posterior, with labelled objects clamped; its other
    rows equal `posterior_all` at the returned weights. Each outer
    iteration logs one DEBUG line to the ``trustfuse`` logger: the
    log-likelihood, its relative change, and the M-step's Newton steps and
    KKT ``converged`` flag.
    """
    if instance.pairs:
        raise ValueError("fit_em cannot fit copying-pair weights; use fit_erm_object")
    label_cand = ground_truth.validate(instance)
    clamped_obj = label_cand >= 0
    labelled = label_cand[clamped_obj]
    clamped_cand = clamped_obj[instance.cand_object]
    label_targets = _one_hot(instance, labelled)
    picks = _majority_candidates(instance, seed=config.seed)
    q = _one_hot(instance, np.where(clamped_obj, label_cand, picks))

    layout = _Layout(instance)
    l1 = layout.l1_weights(config.l1_feature_penalty)
    total = instance.source_obs_counts
    x = np.zeros(layout.size)
    history: list[float] = []
    converged = False
    for outer in range(1, config.max_outer_iters + 1):
        correct = np.bincount(
            instance.obs_source,
            weights=q[instance.obs_cand],
            minlength=instance.n_sources,
        )
        x, m_step = _fit_binomial(
            instance.features,
            correct,
            total,
            config.l1_feature_penalty,
            config.l2_intercept_penalty,
            x,
            config.max_inner_iters,
            config.objective_tol,
        )
        sigma = layout.trust_scores(x, instance.features)
        scores = _candidate_scores(instance, sigma, np.empty(0))
        ex, best, norm = _exp_by_object(scores, instance)
        q = np.where(clamped_cand, label_targets, ex / norm[instance.cand_object])
        log_lik = (
            float(np.sum((best + np.log(norm))[~clamped_obj]))
            + float(np.sum(scores[labelled]))
            - float(total @ np.logaddexp(0.0, sigma))
        )
        penalty = config.l2_intercept_penalty * float(x[: layout.n_s] @ x[: layout.n_s])
        penalty += float(l1 @ np.abs(x))
        history.append(log_lik - penalty)
        settled = False
        rel_change = math.nan
        if outer > 1:
            change = abs(history[-1] - history[-2])
            settled = change <= config.objective_tol * abs(history[-2])
            rel_change = change / abs(history[-2]) if history[-2] else math.inf
        _log.debug(
            "EM iteration %d: log-likelihood %.10g, relative change %.3g; "
            "M-step %d Newton steps, converged=%s",
            outer,
            history[-1],
            rel_change,
            m_step.iterations,
            m_step.converged,
        )
        if settled or clamped_obj.all():
            converged = True
            break
    diag = Diagnostics(
        iterations=outer,
        objective=history[-1],
        converged=converged,
        history=tuple(history),
    )
    table = PosteriorTable(probs=q, offsets=instance.cand_offsets.copy())
    return layout.unpack(x), table, diag
