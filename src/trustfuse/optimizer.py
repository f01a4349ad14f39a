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
    shared, agree = instance.pair_counts
    cnt = shared + shared.T
    # The numerator is 0 wherever cnt is, so pairs with no overlap and the
    # diagonal (the counts lie above it) get 0.
    return (2 * (agree + agree.T) - cnt) / np.maximum(cnt, 1.0)


def estimate_avg_accuracy(instance: FusionInstance) -> float:
    """Average source accuracy A from the agreement matrix, solving
    2 (A^2 + c (1 - A)^2) - 1 = mean agreement-minus-disagreement, with c the
    mean of 1 / max(|D_o| - 1, 1) over pairs of votes on one object: two
    wrong votes agree with probability c. In [c / (1 + c), 1].

    The mean is over the source pairs that observe some object together;
    pairs that never overlap carry no evidence, and the mean is 0 when no
    pair overlaps. Object o holds m_o (m_o - 1) / 2 vote pairs, so c is a
    sum over the objects, not over the pairs."""
    if instance.n_sources < 2:
        raise ValueError("need at least two sources to estimate agreement")
    x = agreement_matrix(instance)
    # Each overlapping pair of sources owns one count and two entries of x.
    overlapping = 2 * np.count_nonzero(instance.pair_counts[0])
    mu = float(x.sum()) / overlapping if overlapping else 0.0
    m = instance.obs_counts
    pairs = m * (m - 1) // 2
    n_pairs = int(pairs.sum())
    c = float(np.sum(pairs / instance.wrong_counts)) / n_pairs if n_pairs else 1.0
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
    if accuracy in (0.0, 1.0) or not k.size:
        # The tail starts at 1 <= k + 1 <= m: all mass sits at 0 or at m.
        # With no objects there is no tail to sum.
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
    """Total observers over labeled objects: m units per labeled object.

    The labels are checked first (`GroundTruth.validate`).
    """
    labelled = ground_truth.validate(instance) >= 0
    return float(instance.obs_counts[labelled].sum())


# The selector threshold `fuse` and the CLI use when none is given.
DEFAULT_TAU = 0.1


def check_tau(tau: float) -> None:
    """Reject a selector threshold ``tau`` that is not positive and finite."""
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")


def decide(
    instance: FusionInstance,
    ground_truth: GroundTruth,
    tau: float,
    n_features: int | None = None,
) -> OptimizerDecision:
    """Pick ERM or EM for this instance.

    ERM wins outright when sqrt(|K|/|G|) * ln(max(|G|, 2)) <= tau; otherwise
    EM wins iff its estimated units exceed the ground-truth units, so ERM
    wins when they cannot be estimated. No labels forces EM. ``tau`` must be
    positive and finite, and the labels pass `GroundTruth.validate`.
    """
    check_tau(tau)
    units_gt = ground_truth_units(instance, ground_truth)
    n_k = instance.n_features if n_features is None else n_features
    n_g = len(ground_truth)
    if n_g > 0:
        bound = float(np.sqrt(n_k / n_g) * np.log(max(n_g, 2)))
    else:
        bound = float("inf")

    avg_acc: float | None = None
    units_em: float | None = None
    if instance.n_sources >= 2:
        avg_acc = estimate_avg_accuracy(instance)
        units_em = em_units(instance, min(avg_acc, 1.0 - 1e-12))

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
