"""Parameter estimation: ERM on labels and one-coin EM on partial labels.

Two losses over x = [w_s | w_pairs | w_k], one solver and one stopping rule.
Every fit is proximal Newton (`proximal_fit`): the per-source binomial loss
(`fit_erm_observation`, EM's M-step and the pair estimator in `analysis`)
and the object loss (`fit_weights`: object ERM, as `fuse --algo erm` runs
it, copying-pair weights and the lasso path). Every fit stops on the KKT
check that `proximal_fit` states, and ``converged`` means that check
passed. All fits apply L1 to feature weights only and a ridge to intercepts
and pair weights. Fits are full-batch and deterministic for a fixed data
order and seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .instance import FusionInstance, GroundTruth, label_correctness_counts
from .model import (
    Diagnostics,
    PosteriorTable,
    WeightVector,
    _argmax_candidates,
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
        penalties = (self.l1_feature_penalty, self.l2_intercept_penalty)
        if not all(0 <= p < math.inf for p in penalties):
            raise ValueError("penalties must be non-negative and finite")
        if self.max_outer_iters < 1 or self.max_inner_iters < 0:
            raise ValueError("iteration limits must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# ---------------------------------------------------------------------------
# Parameter packing: flat vector [w_s | w_pairs | w_k]
# ---------------------------------------------------------------------------


class _Layout:
    """x = [w_s | w_pairs | w_k]. The pair weights sit with the intercepts
    in `proximal_fit`'s ``w`` (ridged, without L1), with zero rows in
    ``features``."""

    def __init__(self, instance: FusionInstance):
        self.n_s = instance.n_sources
        self.n_w = self.n_s + len(instance.pairs)
        self.pairs = instance.pairs
        self.size = self.n_w + instance.n_features
        self.features = instance.features
        if self.pairs:
            pad = np.zeros((len(self.pairs), instance.n_features))
            self.features = np.vstack([self.features, pad])

    def pack(self, w: WeightVector) -> np.ndarray:
        pair_weights = [w.pair_weights.get(p, 0.0) for p in self.pairs]
        return np.concatenate([w.source_intercepts, pair_weights, w.feature_weights])

    def unpack(self, x: np.ndarray) -> WeightVector:
        return WeightVector(
            source_intercepts=x[: self.n_s].copy(),
            feature_weights=x[self.n_w :].copy(),
            pair_weights=dict(zip(self.pairs, x[self.n_s : self.n_w].tolist())),
        )

    def smooth_loss_and_grad(
        self, loss: _SigmaLoss, x: np.ndarray, l2: float
    ) -> tuple[float, WeightVector]:
        """``loss(w + F w_k) + l2 |w|^2`` at x, the smooth part of what
        `proximal_fit` minimises, and its gradient by the chain rule."""
        w, v = x[: self.n_w], x[self.n_w :]
        value, g, _ = loss(w + self.features @ v)
        grad = np.concatenate([g + 2.0 * l2 * w, self.features.T @ g])
        return value + l2 * float(w @ w), self.unpack(grad)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


class _CurvatureOperator(NamedTuple):
    """A curvature given by its products ``matvec(v) = H v`` and its
    diagonal."""

    matvec: Callable[[np.ndarray], np.ndarray]
    diagonal: np.ndarray


# A loss of the trust scores sigma, extended by the pair weights when the
# instance has copying pairs: (value, gradient, curvature), the curvature a
# diagonal (1-D), a full matrix or a `_CurvatureOperator`.
_SigmaLoss = Callable[
    [np.ndarray], tuple[float, np.ndarray, np.ndarray | _CurvatureOperator]
]


def one_hot_targets(instance: FusionInstance, labels: GroundTruth) -> np.ndarray:
    """Flat candidate target mass: 1 at each labeled object's true value."""
    idx = labels.validate(instance)
    return _one_hot(instance, idx[idx >= 0])


def _one_hot(instance: FusionInstance, cands: np.ndarray) -> np.ndarray:
    t = np.zeros(instance.n_candidates)
    t[cands] = 1.0
    return t


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
    return loss, probs, residual, instance.source_sums(residual)


def _labelled_part(
    instance: FusionInstance, targets: np.ndarray
) -> tuple[FusionInstance, np.ndarray, np.ndarray]:
    """The objects with positive target mass, the only ones the object loss
    sums over: their `FusionInstance.sub_instance`, their targets and their
    per-object mass. When every object has mass the part is the instance
    itself.

    ``targets`` must be a flat candidate array of finite, non-negative
    entries.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (instance.n_candidates,):
        raise ValueError("targets must be a flat candidate array")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    if np.any(targets < 0):
        raise ValueError("targets must be non-negative")
    obj_weight = np.bincount(
        instance.cand_object, weights=targets, minlength=instance.n_objects
    )
    labelled = obj_weight > 0
    if labelled.all():
        return instance, targets, obj_weight
    part = instance.sub_instance(labelled)
    return part, targets[labelled[instance.cand_object]], obj_weight[labelled]


def _object_sigma_loss(
    instance: FusionInstance, targets: np.ndarray, obj_weight: np.ndarray
) -> _SigmaLoss:
    """The object loss as a function of the trust scores, for
    `proximal_fit`; with copying pairs, `_object_pair_loss`.

    Objects with zero mass add nothing, so the fits pass the labelled part
    (`_labelled_part`), and every array here is as long as its observations,
    candidates and vote pairs. Its curvature in sigma is the S x S matrix
    sum_o m_o (diag(p_o) - p_o p_o') pulled back through the vote incidence,
    with m_o the object's label mass: U + U' + diag(d), where a vote pair adds
    m_o p_first ([agree] - p_second) to U at its `obs_pair_cells` cell, above
    the diagonal, and an observation adds m_o p (1 - p) to d at its source.
    """
    if instance.pairs:
        return _object_pair_loss(instance, targets, obj_weight)
    n_s = instance.n_sources
    first, second = instance.obs_pairs
    cells, agree = instance.obs_pair_cells
    cand_f, cand_s = instance.obs_cand[first], instance.obs_cand[second]
    incl_cand = obj_weight[instance.cand_object]
    no_pairs = np.empty(0)

    def loss(sigma: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        scores = _candidate_scores(instance, sigma, no_pairs)
        value, probs, _, g_sigma = _cross_entropy(instance, targets, incl_cand, scores)
        mass_p = incl_cand * probs
        pair_w = mass_p[cand_f] * (agree - probs[cand_s])
        upper = np.bincount(cells, weights=pair_w, minlength=n_s**2).reshape(n_s, n_s)
        d = instance.source_sums(mass_p * (1.0 - probs))
        return value, g_sigma, upper + upper.T + np.diag(d)

    return loss


def _object_pair_loss(
    instance: FusionInstance, targets: np.ndarray, obj_weight: np.ndarray
) -> _SigmaLoss:
    """The object loss of an instance with copying pairs as a function of
    u = [sigma | w_pairs], for `proximal_fit`.

    A pair weight scores -w_p on the agreed candidate of each of its
    `pair_events`; the +w_p it adds to every candidate of the object cancels
    in the softmax. So the scores are A u up to a per-object shift, with A
    the incidence of votes (+1) and pair firings (-1) on candidates, and the
    curvature in u is A'MA, with M the block diagonal of
    m_o (diag(p_o) - p_o p_o'). Up to S(S-1)/2 pairs make it too large to
    form, so it is an operator: each product scatters into the candidates,
    reduces once per object and scatters back. As in `_object_sigma_loss`,
    objects with zero mass add nothing, and the fits pass the labelled part.
    """
    n_s = instance.n_sources
    n_u = n_s + len(instance.pairs)
    mass = obj_weight[instance.cand_object]
    _, ev_cand, ev_pair = instance.pair_events
    col = np.concatenate([instance.obs_source, n_s + ev_pair])
    sign = np.repeat([1.0, -1.0], [instance.n_observations, ev_pair.size])
    cand = np.concatenate([instance.obs_cand, ev_cand])
    cand_obj = instance.cand_object

    def loss(u: np.ndarray) -> tuple[float, np.ndarray, _CurvatureOperator]:
        scores = _candidate_scores(instance, u[:n_s], u[n_s:])
        value, p, residual, g_sigma = _cross_entropy(instance, targets, mass, scores)
        g_pairs = np.bincount(ev_pair, weights=residual[ev_cand], minlength=n_u - n_s)

        def matvec(v: np.ndarray) -> np.ndarray:
            y = p * np.bincount(cand, weights=sign * v[col], minlength=p.size)
            y -= p * np.bincount(cand_obj, weights=y)[cand_obj]
            return np.bincount(col, weights=sign * (mass * y)[cand], minlength=n_u)

        p_e = p[cand]
        diagonal = np.bincount(
            col, weights=mass[cand] * p_e * (1.0 - p_e), minlength=n_u
        )
        curv = _CurvatureOperator(matvec, diagonal)
        return value, np.concatenate([g_sigma, -g_pairs]), curv

    return loss


def object_loss_and_grad(
    instance: FusionInstance,
    targets: np.ndarray,
    w: WeightVector,
    l2: float = 0.0,
) -> tuple[float, WeightVector]:
    """Smooth part of the object objective and its gradient at ``w``: the
    loss `fit_weights` fits plus the ridge.

    The L1 feature penalty is not included; it is handled by the proximal
    step and is non-smooth at zero.
    """
    layout = _Layout(instance)
    loss = _object_sigma_loss(*_labelled_part(instance, targets))
    return layout.smooth_loss_and_grad(loss, layout.pack(w), l2)


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
    # Pair weights do not enter this loss: their coordinates count nothing.
    pad = (0, layout.n_w - layout.n_s)
    correct, total = np.pad(correct, pad), np.pad(total, pad)
    return layout.smooth_loss_and_grad(
        lambda eta: _binomial_loss(eta, correct, total), layout.pack(w), l2
    )


# ---------------------------------------------------------------------------
# Proximal Newton on [w | w_k]
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


def _jacobi_cg(curv: _CurvatureOperator, ridge: float, b: np.ndarray) -> np.ndarray:
    """Solve ``(H + ridge) z = b`` by conjugate gradients with a Jacobi
    preconditioner, to a relative residual of 1e-2 or at most one step per
    coordinate. Without a ridge H can be singular; a coordinate with no
    curvature stays at 0."""
    diagonal = curv.diagonal + ridge
    inv = np.divide(1.0, diagonal, out=np.zeros_like(diagonal), where=diagonal > 0)
    z = np.zeros_like(b)
    r = b.copy()
    target = 1e-2 * np.linalg.norm(b)
    y = inv * r
    p = y.copy()
    ry = float(r @ y)
    for _ in range(b.size):
        if np.linalg.norm(r) <= target:
            break
        ap = curv.matvec(p) + ridge * p
        pap = float(p @ ap)
        if not pap > 0.0:
            break
        alpha = ry / pap
        z += alpha * p
        r -= alpha * ap
        y = inv * r
        ry, ry_old = float(r @ y), ry
        p = y + (ry / ry_old) * p
    return z


def proximal_fit(
    x0: np.ndarray,
    loss: _SigmaLoss,
    features: np.ndarray,
    l1: float,
    l2: float,
    max_iters: int,
    tol: float,
    counts: np.ndarray,
) -> tuple[np.ndarray, Diagnostics]:
    """Minimize ``loss(w + F w_k) + l2 |w|^2 + l1 |w_k|_1`` over
    x = [w | w_k] by proximal Newton steps (Lee, Sun & Saunders 2014). The
    solver of every fit.

    With H the curvature of ``loss`` in its argument, the Hessian is
    H + 2 l2 on w, H F between w and the features and F'HF on the features.
    Each step eliminates the w step and solves for the K feature weights on
    the Schur complement ``2 l2 F'(H + 2 l2)^-1 H F`` by `_lasso_qp`; a
    monotone Armijo search on the full objective damps the step. A diagonal
    or full H is inverted exactly; an H given as a `_CurvatureOperator`
    (copying pairs) is inverted on ``[g_w | H F]`` by `_jacobi_cg`.

    The stopping rule of every fit: ``converged`` means the `_kkt_residual`
    ``max(|grad_w|_inf, |w_k - soft(w_k - grad_k, l1)|_inf)`` is at most
    ``tol * max(1, max(counts))``, where ``counts`` holds how many
    observations each source has in the fit, so the bound grows with the
    data as the loss does. The fit stops there, after ``max_iters`` steps,
    or when the line search finds no decrease. A start that already passes
    the check is returned after no step.
    """
    x = np.array(x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite initial point")
    n_s = features.shape[0]
    bound = tol * max(1.0, float(np.max(counts, initial=0)))

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
        # Eliminating the w step leaves, for the feature weights, the
        # quadratic  r.dv + dv'(2 l2 F'(H + 2 l2)^-1 H F)dv / 2.
        if isinstance(curv, np.ndarray) and curv.ndim == 1:
            denom = curv + 2.0 * l2
            inv = np.divide(1.0, denom, out=np.zeros_like(denom), where=denom > 0)
            schur = features.T @ ((2.0 * l2 * curv * inv)[:, None] * features)
            r = g_v - features.T @ (curv * inv * g_w)
            dv = _lasso_qp(schur, r, v, l1) - v
            dw = -(g_w + curv * (features @ dv)) * inv
        else:
            # z = (H + 2 l2)^-1 [g_w | H F]
            if isinstance(curv, np.ndarray):
                hf = curv @ features
                # Without a ridge H can be singular, and the least-norm
                # solution is taken.
                rhs = np.column_stack([g_w, hf])
                a = curv + 2.0 * l2 * np.eye(n_s)
                z = (
                    np.linalg.solve(a, rhs)
                    if l2 > 0
                    else np.linalg.lstsq(a, rhs, rcond=None)[0]
                )
            else:
                rhs = np.column_stack([g_w, *(curv.matvec(f) for f in features.T)])
                hf = rhs[:, 1:]
                z = np.column_stack([_jacobi_cg(curv, 2.0 * l2, b) for b in rhs.T])
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


def _lasso_qp(q: np.ndarray, r: np.ndarray, v: np.ndarray, l1: float) -> np.ndarray:
    """Minimize ``r.(u - v) + (u - v)'q(u - v)/2 + l1 |u|_1`` over u.

    Solved directly when ``l1`` is 0, by cyclic coordinate descent
    otherwise. A coordinate with no curvature (every one when the ridge is
    0) stays at ``v`` without L1 and goes to 0, a minimiser, with it.
    """
    if l1 == 0.0:
        return v + np.linalg.lstsq(q, -r, rcond=None)[0]
    l1 = float(l1)
    # Python floats: K is a handful, and each coordinate update is a few
    # scalar operations, in the order of the array arithmetic they replace
    # (`_soft_threshold` of one coordinate, then ``grad += q[:, k] * delta``).
    diag = np.diag(q).tolist()
    columns = q.T.tolist()
    u = v.tolist()
    grad = r.tolist()
    coords = range(len(u))
    for _ in range(1000):
        largest = 0.0
        for k in coords:
            d = diag[k]
            new = 0.0
            if d > 0:
                x = d * u[k] - grad[k]
                m = abs(x) - l1
                if m < 0.0:
                    m = 0.0
                # np.sign(x) * m, with np.sign(+-0.0) = 0.0.
                new = (m if x > 0.0 else -m if x < 0.0 else 0.0 * m) / d
            delta = new - u[k]
            if delta:
                column = columns[k]
                for j in coords:
                    grad[j] += column[j] * delta
                u[k] = new
                largest = max(largest, abs(delta))
        if largest <= 1e-12 * max(1.0, max(map(abs, u), default=0.0)):
            break
    return np.array(u, dtype=float)


def fit_weights(
    instance: FusionInstance,
    targets: np.ndarray,
    config: LearnConfig,
    init: WeightVector | None = None,
) -> tuple[WeightVector, Diagnostics]:
    """Solver for the object objective, the one object-level fit: ERM,
    copying-pair weights and the lasso path run through it.

    ``targets`` is a flat candidate array of per-object label mass (one-hot
    for labels), finite and non-negative, or ValueError is raised. Objects
    with zero mass do not contribute, so the fit runs on the labelled part
    of the instance (`_labelled_part`), sliced once: a Newton step costs
    O(labelled observations + labelled vote pairs) plus one S x S solve
    (conjugate gradients with copying pairs), whatever the number of
    unlabelled objects.

    The fit is `proximal_fit` on `_object_sigma_loss`. Without copying pairs
    its curvature is a dense S x S matrix. With them the pair weights join
    the intercepts, and the curvature is a matrix-free operator, whose
    Newton systems conjugate gradients solves. ``converged`` means the KKT
    check of `proximal_fit`, pair gradients included, passed at
    ``objective_tol`` within ``max_inner_iters`` steps; a source's count is
    its label mass over the labelled objects it observes.
    """
    part, targets, obj_weight = _labelled_part(instance, targets)
    if not part.n_objects:
        raise ValueError("targets must cover at least one object")
    labelled_obs = part.source_sums(obj_weight[part.cand_object])
    layout = _Layout(instance)
    x, diag = proximal_fit(
        layout.pack(init if init is not None else WeightVector.zeros(instance)),
        _object_sigma_loss(part, targets, obj_weight),
        layout.features,
        config.l1_feature_penalty,
        config.l2_intercept_penalty,
        config.max_inner_iters,
        config.objective_tol,
        labelled_obs,
    )
    return layout.unpack(x), diag


def fit_erm_object(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    config: LearnConfig,
    init: WeightVector | None = None,
) -> tuple[WeightVector, Diagnostics]:
    """ERM over labeled objects: minimize the penalized posterior log-loss,
    by `fit_weights`."""
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
    labelled observations, solved by `proximal_fit`.

    ``converged`` means the fit passed `proximal_fit`'s KKT check at
    ``config.objective_tol``, counting each source's labelled observations,
    within ``config.max_inner_iters`` steps.
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
    x, diag = proximal_fit(
        layout.pack(WeightVector.zeros(instance)),
        lambda eta: _binomial_loss(eta, correct, total),
        instance.features,
        config.l1_feature_penalty,
        config.l2_intercept_penalty,
        config.max_inner_iters,
        config.objective_tol,
        total,
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
    M-step, which does not decrease. EM stops when it changes by at most
    ``objective_tol`` relative to its last value, or after one M-step when
    every object is labelled; ``converged`` is set if it stopped there and
    that last M-step passed its KKT check. The returned table is
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
    rng = np.random.default_rng(config.seed)
    picks = _argmax_candidates(instance.cand_votes, instance, rng)
    q = _one_hot(instance, np.where(clamped_obj, label_cand, picks))

    layout = _Layout(instance)
    n_k = layout.size - layout.n_w
    l1 = np.repeat([0.0, config.l1_feature_penalty], [layout.n_w, n_k])
    total = instance.source_obs_counts
    x = np.zeros(layout.size)
    history: list[float] = []
    converged = False
    for outer in range(1, config.max_outer_iters + 1):
        correct = instance.source_sums(q)
        x, m_step = proximal_fit(
            x,
            lambda eta: _binomial_loss(eta, correct, total),
            instance.features,
            config.l1_feature_penalty,
            config.l2_intercept_penalty,
            config.max_inner_iters,
            config.objective_tol,
            total,
        )
        sigma = layout.unpack(x).trust_scores(instance.features)
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
            converged = m_step.converged
            break
    diag = Diagnostics(
        iterations=outer,
        objective=history[-1],
        converged=converged,
        history=tuple(history),
    )
    table = PosteriorTable(probs=q, offsets=instance.cand_offsets.copy())
    return layout.unpack(x), table, diag
