"""Logistic source-accuracy model and exact per-object posteriors.

A source's accuracy is ``logistic(w_s + w_k . f_s)``; its trust score is the
log-odds of that accuracy. A source reports the true value with probability
A_s and otherwise one of the other ``|D_o| - 1`` values uniformly (one-coin
Dawid & Skene), so each vote scores its trust score plus ``log(|D_o| - 1)``.
Object posteriors are softmaxes of summed vote scores over the object's
candidate values, computed in closed form with max-subtraction for stability.
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
    "source_accuracies",
    "trust_score",
    "candidate_scores",
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
        finite = np.isfinite(np.fromiter(self.pair_weights.values(), float))
        if not finite.all():
            first = list(self.pair_weights)[int(np.argmin(finite))]
            raise ValueError(f"pair weight for {first} must be finite")

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

    def row(self, o: int) -> np.ndarray:
        return self.probs[self.offsets[o] : self.offsets[o + 1]]


@dataclass(frozen=True)
class Diagnostics:
    iterations: int
    objective: float
    converged: bool
    # Per-outer-iteration objective trace for EM-style fits; empty otherwise.
    history: tuple[float, ...] = ()


def source_accuracies(w: WeightVector, features: np.ndarray) -> np.ndarray:
    """Estimated accuracy of every source: logistic(w_s + sum_k w_k f_sk)."""
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
    reporting d, plus their `FusionInstance.cand_vote_term`, plus, for every
    registered copying pair agreeing on a value u for o, the pair weight
    added to every candidate except u.
    """
    pair_weights = np.array(
        [w.pair_weights.get(p, 0.0) for p in instance.pairs], dtype=float
    )
    sigma = w.trust_scores(instance.features)
    return _candidate_scores(instance, sigma, pair_weights)


def _candidate_scores(
    instance: FusionInstance, sigma: np.ndarray, pair_weights: np.ndarray
) -> np.ndarray:
    """`candidate_scores` from per-source trust scores and pair weights:
    each candidate's `FusionInstance.candidate_sums` of the trust scores,
    plus its vote term."""
    scores = instance.candidate_sums(sigma)
    scores += instance.cand_vote_term
    if instance.pairs:
        ev_obj, ev_cand, ev_pair = instance.pair_events
        if ev_obj.size:
            pw = pair_weights[ev_pair]
            per_object = np.zeros(instance.n_objects)
            np.add.at(per_object, ev_obj, pw)
            scores += per_object[instance.cand_object]
            np.subtract.at(scores, ev_cand, pw)
    return scores


def _object_max(values: np.ndarray, instance: FusionInstance) -> np.ndarray:
    """Largest candidate value of each object."""
    best = np.full(instance.n_objects, -np.inf)
    np.maximum.at(best, instance.cand_object, values)
    return best


def _softmax_by_object(scores: np.ndarray, instance: FusionInstance) -> np.ndarray:
    ex, _, norm = _exp_by_object(scores, instance)
    return ex / norm[instance.cand_object]


def _exp_by_object(
    scores: np.ndarray, instance: FusionInstance
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(score - object max) per candidate, each object's max and the
    sum of its exponentials: its log-normaliser is ``max + log(sum)``."""
    cand_object = instance.cand_object
    best = _object_max(scores, instance)
    ex = np.exp(scores - best[cand_object])
    # Each object's normaliser adds its first term to the in-order sum of
    # the rest. Up to 8 values these are the additions np.add.reduceat
    # makes, which the tests hold as the reference bit for bit; wider
    # domains can differ from it in the last ulp.
    first = instance.cand_offsets[:-1]
    rest = ex.copy()
    rest[first] = 0.0
    norm = ex[first] + np.bincount(cand_object, weights=rest, minlength=first.size)
    return ex, best, norm


def posterior_all(instance: FusionInstance, w: WeightVector) -> PosteriorTable:
    """Exact posterior over candidates for every object."""
    probs = _softmax_by_object(candidate_scores(instance, w), instance)
    return PosteriorTable(probs=probs, offsets=instance.cand_offsets.copy())


def argmax_with_ties(
    values: np.ndarray,
    instance: FusionInstance,
    rng: np.random.Generator,
) -> dict[str, str]:
    """Per-object argmax over flat candidate values with seeded tie-breaking.

    Objects are visited in index order and the rng is consumed only on
    ties, so two score functions with identical tie structure and a shared
    seed break ties identically.
    """
    picks = _argmax_candidates(values, instance, rng)
    cand_values = instance.cand_values
    return dict(zip(instance.objects, [cand_values[c] for c in picks.tolist()]))


def _argmax_candidates(
    values: np.ndarray,
    instance: FusionInstance,
    rng: np.random.Generator,
) -> np.ndarray:
    """`argmax_with_ties` as the flat candidate index picked per object.

    An object whose candidates tie within `SCORE_TIE_TOL` of its best draws
    ``rng.integers(n_ties)`` among them; tied objects draw in object order.
    All draws are one ``rng.integers`` call over the tied objects' counts,
    which takes the same values from the stream, and leaves it in the same
    state, as one call per tied object in turn.
    """
    best = _object_max(values, instance)
    ties = np.flatnonzero(values >= (best - SCORE_TIE_TOL)[instance.cand_object])
    n_ties = np.bincount(instance.cand_object[ties], minlength=instance.n_objects)
    if not np.all(n_ties):
        raise ValueError("candidate values must not be NaN")
    first = np.zeros(instance.n_objects + 1, dtype=np.int64)
    np.cumsum(n_ties, out=first[1:])
    picks = ties[first[:-1]]
    tied = np.flatnonzero(n_ties > 1)
    picks[tied] = ties[first[tied] + rng.integers(n_ties[tied])]
    return picks


def map_values(
    instance: FusionInstance, w: WeightVector, seed: int = 0
) -> dict[str, str]:
    """MAP value per object; exact score ties broken uniformly per seed."""
    scores = candidate_scores(instance, w)
    rng = np.random.default_rng(seed)
    return argmax_with_ties(scores, instance, rng)
