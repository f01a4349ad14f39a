"""Automatic choice between ERM and EM via information units.

Ground truth is worth m units per labeled object (m = observing sources).
An EM E-step under an equal-accuracy majority-vote model is worth
m * (1 - H(p_e)) per object, where p_e is the probability majority vote
recovers the true value. A generalization-bound check short-circuits to ERM
when labels are plentiful relative to the feature count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import FusionInstance, GroundTruth

__all__ = [
    "OptimizerDecision",
    "estimate_avg_accuracy",
    "em_units",
    "ground_truth_units",
    "decide",
    "agreement_matrix",
]


@dataclass(frozen=True)
class OptimizerDecision:
    choice: str  # "ERM" or "EM"
    erm_bound: float
    estimated_avg_accuracy: float | None
    ground_truth_units: float
    em_units: float | None
    tau: float


def agreement_matrix(instance: FusionInstance) -> np.ndarray:
    """Mean pairwise agreement-minus-disagreement; 0 where no overlap."""
    n = instance.n_sources
    first, second = instance.obs_pairs
    # One key per pair of observations of one object, i * n + j with i < j.
    keys = instance.obs_source[first] * n + instance.obs_source[second]
    same = instance.obs_cand[first] == instance.obs_cand[second]
    cnt = np.bincount(keys, minlength=n * n).reshape(n, n)
    agree = np.bincount(keys[same], minlength=n * n).reshape(n, n)
    cnt = cnt + cnt.T
    # The numerator is 0 wherever cnt is, so pairs with no overlap get 0.
    x = (2 * (agree + agree.T) - cnt) / np.maximum(cnt, 1.0)
    np.fill_diagonal(x, 0.0)
    return x


def estimate_avg_accuracy(instance: FusionInstance) -> float:
    """Average source accuracy A from the agreement matrix, solving
    2 (A^2 + c (1 - A)^2) - 1 = mean agreement-minus-disagreement, with c the
    mean of 1 / max(|D_o| - 1, 1) over pairs of votes on one object: two
    wrong votes agree with probability c. In [c / (1 + c), 1]."""
    n = instance.n_sources
    if n < 2:
        raise ValueError("need at least two sources to estimate agreement")
    x = agreement_matrix(instance)
    mu = float(x.sum()) / (n * n - n)
    first, _ = instance.obs_pairs
    wrong = np.maximum(instance.cand_counts[instance.obs_object[first]] - 1, 1)
    c = float(np.mean(1.0 / wrong)) if first.size else 1.0
    r = ((1.0 + c) * mu + (1.0 - c)) / 2.0
    return float(min((c + np.sqrt(max(0.0, r))) / (1.0 + c), 1.0))


def _entropy_bits(p):
    """Binary entropy in bits, 0 outside (0, 1); elementwise on arrays."""
    p = np.asarray(p, dtype=float)
    h = np.zeros_like(p)
    mixed = (p > 0.0) & (p < 1.0)
    q = p[mixed]
    h[mixed] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return h if h.ndim else float(h)


def em_units(instance: FusionInstance, avg_accuracy: float) -> float:
    """Expected information units contributed by one EM E-step: each
    object's 1 - H(p_e) times its number of observers, the scale of
    ground-truth units."""
    if not (0.0 < avg_accuracy < 1.0):
        raise ValueError("average accuracy must lie strictly in (0, 1)")
    m = instance.obs_counts
    p_e = majority_success_probability(m, instance.cand_counts, avg_accuracy)
    useful = p_e >= 0.5
    gains = m[useful] * (1.0 - _entropy_bits(p_e[useful]))
    # cumsum adds one object at a time in object order; np.sum would pair
    # terms up and round differently.
    return float(np.cumsum(gains)[-1]) if gains.size else 0.0


def majority_success_probability(m, domain_size, accuracy: float):
    """P(majority vote is correct): upper binomial tail past floor(m/|D|).

    The threshold is capped at m - 1 so a domain observed with a single
    distinct value degenerates to the plain per-source success probability.
    Elementwise on arrays of ``m`` and ``domain_size``.
    """
    m, domain_size = np.asarray(m), np.asarray(domain_size)
    if np.any(m < 1) or np.any(domain_size < 1):
        raise ValueError("object must have observations and a non-empty domain")
    k = np.minimum(m // domain_size, m - 1)
    if accuracy in (0.0, 1.0):
        # The tail starts at 1 <= k + 1 <= m: all mass sits at 0 or at m.
        p = np.full(k.shape, float(accuracy))
        return p if p.ndim else float(p)
    sizes, which = np.unique(np.broadcast_to(m, k.shape), return_inverse=True)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(sizes[-1] + 1)])
    tails = []
    for n in sizes:
        # Binomial(n, accuracy) pmf in log space, summed from j = n down so
        # tails[.][j] = P(X >= j) adds its smallest terms first.
        j = np.arange(n + 1)
        log_pmf = (log_fact[n] - log_fact[j] - log_fact[n - j]
                   + j * np.log(accuracy) + (n - j) * np.log1p(-accuracy))
        tails.append(np.cumsum(np.exp(log_pmf)[::-1])[::-1])
    starts = np.cumsum(sizes + 1) - (sizes + 1)
    p = np.concatenate(tails)[starts[which.reshape(k.shape)] + k + 1]
    # Rounding can lift a sum of nearly all the mass a few ulps above 1.
    p = np.minimum(p, 1.0)
    return p if p.ndim else float(p)


def ground_truth_units(instance: FusionInstance, ground_truth: GroundTruth) -> float:
    """Total observers over labeled objects: m units per labeled object."""
    counts = instance.obs_counts
    return float(sum(int(counts[o]) for o in ground_truth.labels))


def decide(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    tau: float,
    n_features: int | None = None,
) -> OptimizerDecision:
    """Pick ERM or EM for this instance.

    ERM wins outright when sqrt(|K|/|G|) * ln(max(|G|, 2)) <= tau; otherwise
    EM wins iff its estimated units exceed the ground-truth units, so ERM
    wins when they cannot be estimated. No labels forces EM.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    n_k = instance.n_features if n_features is None else n_features
    n_g = len(ground_truth)
    if n_g > 0:
        bound = float(np.sqrt(n_k / n_g) * np.log(max(n_g, 2)))
    else:
        bound = float("inf")

    avg_acc: float | None = None
    units_em: float | None = None
    try:
        avg_acc = estimate_avg_accuracy(instance)
        units_em = em_units(instance, min(avg_acc, 1.0 - 1e-12))
    except ValueError:
        avg_acc = None
        units_em = None

    units_gt = ground_truth_units(instance, ground_truth)
    if n_g > 0 and bound <= tau:
        choice = "ERM"
    elif n_g == 0:
        choice = "EM"
    else:
        # EM units that cannot be estimated (fewer than two sources) do not
        # exceed the label units.
        choice = "EM" if units_em is not None and units_em > units_gt else "ERM"
    return OptimizerDecision(
        choice=choice,
        erm_bound=bound,
        estimated_avg_accuracy=avg_acc,
        ground_truth_units=units_gt,
        em_units=units_em,
        tau=tau,
    )
