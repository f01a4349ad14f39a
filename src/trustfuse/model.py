"""Logistic source-accuracy model and exact per-object posteriors.

A source's accuracy is ``logistic(w_s + w_k . f_s)``; its trust score is the
log-odds of that accuracy. Object posteriors are softmaxes of summed trust
scores over the object's candidate values, computed in closed form with
max-subtraction for stability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .instance import FusionInstance

__all__ = [
    "WeightVector",
    "PosteriorTable",
    "Diagnostics",
    "source_accuracy",
    "source_accuracies",
    "trust_score",
    "candidate_scores",
    "posterior",
    "posterior_all",
    "map_values",
    "argmax_with_ties",
    "SCORE_TIE_TOL",
]

# Absolute tolerance for detecting score ties in MAP inference.
SCORE_TIE_TOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Model parameters: per-source intercepts, feature weights, pair weights."""

    source_intercepts: np.ndarray
    feature_weights: np.ndarray
    pair_weights: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "source_intercepts", np.asarray(self.source_intercepts, dtype=float)
        )
        object.__setattr__(
            self, "feature_weights", np.asarray(self.feature_weights, dtype=float)
        )
        if not np.all(np.isfinite(self.source_intercepts)):
            raise ValueError("source intercepts must be finite")
        if not np.all(np.isfinite(self.feature_weights)):
            raise ValueError("feature weights must be finite")
        for p, w in self.pair_weights.items():
            if not np.isfinite(w):
                raise ValueError(f"pair weight for {p} must be finite")

    @classmethod
    def zeros(cls, instance: FusionInstance) -> "WeightVector":
        return cls(
            source_intercepts=np.zeros(instance.n_sources),
            feature_weights=np.zeros(instance.n_features),
            pair_weights={p: 0.0 for p in instance.pairs},
        )

    def trust_scores(self, features: np.ndarray) -> np.ndarray:
        """Per-source score w_s + w_k . f_s."""
        sigma = self.source_intercepts.copy()
        if self.feature_weights.size:
            sigma += features @ self.feature_weights
        return sigma


@dataclass(frozen=True)
class PosteriorTable:
    """Per-object probability rows over candidate domains, stored flat."""

    probs: np.ndarray
    offsets: np.ndarray

    @property
    def n_objects(self) -> int:
        return int(self.offsets.size - 1)

    def row(self, o: int) -> np.ndarray:
        return self.probs[self.offsets[o] : self.offsets[o + 1]]

    def rows(self):
        for o in range(self.n_objects):
            yield self.row(o)


@dataclass(frozen=True)
class Diagnostics:
    iterations: int
    objective: float
    converged: bool
    # Per-outer-iteration objective trace for EM-style fits; empty otherwise.
    history: tuple[float, ...] = ()


def source_accuracy(w: WeightVector, s: int, features: np.ndarray) -> float:
    """Estimated accuracy of source ``s``: logistic(w_s + sum_k w_k f_sk)."""
    eta = w.source_intercepts[s]
    if w.feature_weights.size:
        eta = eta + float(features[s] @ w.feature_weights)
    return float(_logistic(eta))


def source_accuracies(w: WeightVector, features: np.ndarray) -> np.ndarray:
    """Vector of estimated accuracies for all sources."""
    return _logistic(w.trust_scores(features))


def trust_score(accuracy: float) -> float:
    """Log-odds log(A / (1 - A)); accuracy must lie strictly in (0, 1)."""
    if not (0.0 < accuracy < 1.0):
        raise ValueError(f"accuracy must be in (0, 1), got {accuracy}")
    return float(np.log(accuracy / (1.0 - accuracy)))


def _logistic(x):
    # Stable both directions: exp argument is always <= 0.
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def candidate_scores(instance: FusionInstance, w: WeightVector) -> np.ndarray:
    """Unnormalized log-score of every candidate value, flat layout.

    Each candidate d of object o scores the sum of trust scores of sources
    reporting d, plus, for every registered copying pair agreeing on a value
    u for o, the pair weight added to every candidate except u.
    """
    sigma = w.trust_scores(instance.features)
    scores = np.zeros(instance.n_candidates)
    np.add.at(scores, instance.obs_cand, sigma[instance.obs_source])
    if instance.pairs:
        ev_obj, ev_cand, ev_pair = instance.pair_events
        if ev_obj.size:
            pw = np.array(
                [w.pair_weights.get(p, 0.0) for p in instance.pairs], dtype=float
            )
            per_object = np.zeros(instance.n_objects)
            np.add.at(per_object, ev_obj, pw[ev_pair])
            scores += per_object[instance.cand_object]
            np.subtract.at(scores, ev_cand, pw[ev_pair])
    return scores


def _softmax_by_object(scores: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    starts = offsets[:-1]
    counts = np.diff(offsets)
    seg_max = np.maximum.reduceat(scores, starts)
    shifted = scores - np.repeat(seg_max, counts)
    ex = np.exp(shifted)
    seg_sum = np.add.reduceat(ex, starts)
    return ex / np.repeat(seg_sum, counts)


def posterior_all(instance: FusionInstance, w: WeightVector) -> PosteriorTable:
    """Exact posterior over candidates for every object."""
    probs = _softmax_by_object(candidate_scores(instance, w), instance.cand_offsets)
    return PosteriorTable(probs=probs, offsets=instance.cand_offsets.copy())


def posterior(instance: FusionInstance, w: WeightVector, o: int) -> np.ndarray:
    """Posterior probability vector for object ``o``, aligned with D_o."""
    if not (0 <= o < instance.n_objects):
        raise IndexError(f"object index {o} out of range")
    return posterior_all(instance, w).row(o).copy()


def argmax_with_ties(
    values: np.ndarray,
    instance: FusionInstance,
    rng: np.random.Generator,
    tol: float = SCORE_TIE_TOL,
) -> dict[str, str]:
    """Per-object argmax over flat candidate values with seeded tie-breaking.

    Objects are visited in index order and the rng is consumed only on
    ties, so two score functions with identical tie structure and a shared
    seed break ties identically.
    """
    out: dict[str, str] = {}
    offsets = instance.cand_offsets
    for o in range(instance.n_objects):
        row = values[offsets[o] : offsets[o + 1]]
        best = row.max()
        ties = np.flatnonzero(row >= best - tol)
        idx = int(ties[0]) if ties.size == 1 else int(ties[rng.integers(ties.size)])
        out[instance.objects[o]] = instance.domains[o][idx]
    return out


def map_values(
    instance: FusionInstance, w: WeightVector, seed: int = 0
) -> dict[str, str]:
    """MAP value per object; exact score ties broken uniformly per seed."""
    scores = candidate_scores(instance, w)
    rng = np.random.default_rng(seed)
    return argmax_with_ties(scores, instance, rng)
