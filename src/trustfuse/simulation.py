"""Seeded synthetic fusion instances with known truth and source accuracies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import FusionInstance, GroundTruth
from .model import _logistic

__all__ = ["SimConfig", "SimResult", "generate"]


@dataclass(frozen=True)
class SimConfig:
    n_sources: int
    n_objects: int
    density: float = 0.1
    pair_sampling: bool = False
    domain_size: int = 2
    # UNIFORM model: accuracies drawn uniformly from mean +- spread.
    accuracy_mean: float = 0.8
    accuracy_spread: float = 0.0
    # FEATURE_LOGISTIC model: Boolean features, A_s = logistic(w . f_s).
    true_weights: tuple[float, ...] | None = None
    feature_density: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sources < 1 or self.n_objects < 1:
            raise ValueError("need at least one source and one object")
        if not self.pair_sampling and not (0.0 < self.density <= 1.0):
            raise ValueError("density must be in (0, 1]")
        if self.pair_sampling and self.n_sources < 2:
            raise ValueError("pair sampling needs at least two sources")
        if self.domain_size < 2:
            raise ValueError("domain size must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        given = (self.accuracy_mean, self.accuracy_spread, *(self.true_weights or ()))
        if not np.all(np.isfinite(given)):
            raise ValueError("accuracy mean, spread and feature weights must be finite")
        if not (0.0 <= self.feature_density <= 1.0):
            raise ValueError("feature density must be in [0, 1]")
        if self.true_weights is None:
            lo = self.accuracy_mean - self.accuracy_spread
            hi = self.accuracy_mean + self.accuracy_spread
            if lo < 0.0 or hi > 1.0:
                raise ValueError("accuracy range must stay within [0, 1]")


@dataclass(frozen=True)
class SimResult:
    instance: FusionInstance
    truth: GroundTruth
    true_accuracies: np.ndarray
    true_weights: np.ndarray | None


def _draw_accuracies(
    config: SimConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, tuple[str, ...]]:
    if config.true_weights is None:
        acc = rng.uniform(
            config.accuracy_mean - config.accuracy_spread,
            config.accuracy_mean + config.accuracy_spread,
            size=config.n_sources,
        )
        features = np.zeros((config.n_sources, 0))
        return acc, features, None, ()
    w = np.asarray(config.true_weights, dtype=float)
    features = (
        rng.random((config.n_sources, w.size)) < config.feature_density
    ).astype(float)
    acc = _logistic(features @ w)
    names = tuple(f"f{k}" for k in range(w.size))
    return acc, features, w, names


# Density mode draws its observer mask for blocks of objects of about this
# many floats, so a 500 x 20 000 draw never holds one 80 MB array. The block
# size fixes how the random stream is split, so changing it changes every
# seeded density-mode instance.
_DRAW_BLOCK = 2**20


def _draw_observers(
    config: SimConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Observation (object, source) columns in object-major order."""
    n_s, n_o = config.n_sources, config.n_objects
    if config.pair_sampling:
        # Uniform over ordered pairs of distinct sources.
        first = rng.integers(n_s, size=n_o)
        second = rng.integers(n_s - 1, size=n_o)
        second += second >= first
        return np.repeat(np.arange(n_o), 2), np.column_stack((first, second)).ravel()
    rows = max(1, _DRAW_BLOCK // n_s)
    obs_o, obs_s = [], []
    for start in range(0, n_o, rows):
        mask = rng.random((min(rows, n_o - start), n_s)) < config.density
        # Re-draw whole rows until no object is left without an observer.
        empty = np.flatnonzero(~mask.any(axis=1))
        while empty.size:
            mask[empty] = rng.random((empty.size, n_s)) < config.density
            empty = empty[~mask[empty].any(axis=1)]
        o, s = np.nonzero(mask)
        obs_o.append(o + start)
        obs_s.append(s)
    return np.concatenate(obs_o), np.concatenate(obs_s)


def generate(config: SimConfig) -> SimResult:
    """Draw a full synthetic instance; identical seeds give identical output.

    True values are uniform over the domain; a source reports the truth with
    its accuracy, otherwise a uniform wrong value. Density mode re-rolls any
    object left with zero observations; pair mode picks exactly two sources
    per object.
    """
    rng = np.random.default_rng(config.seed)
    n_s, n_o, d = config.n_sources, config.n_objects, config.domain_size
    accuracies, features, true_w, feature_names = _draw_accuracies(config, rng)
    truth_idx = rng.integers(d, size=n_o)
    obs_o, obs_s = _draw_observers(config, rng)
    true_v = truth_idx[obs_o]
    wrong_v = rng.integers(d - 1, size=obs_o.size)
    wrong_v += wrong_v >= true_v
    correct = rng.random(obs_o.size) < accuracies[obs_s]
    instance = FusionInstance.from_columns(
        sources=[f"s{i}" for i in range(n_s)],
        objects=[f"o{i}" for i in range(n_o)],
        obs_object=obs_o,
        obs_source=obs_s,
        values=[f"v{v}" for v in range(d)],
        obs_value=np.where(correct, true_v, wrong_v),
        features=features,
        feature_names=feature_names,
    )
    truth = GroundTruth({o: f"v{v}" for o, v in enumerate(truth_idx.tolist())})
    return SimResult(
        instance=instance,
        truth=truth,
        true_accuracies=accuracies,
        true_weights=true_w,
    )
