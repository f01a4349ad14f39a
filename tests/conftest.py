import math

import numpy as np
import pytest

from trustfuse import FusionInstance, WeightVector


def random_instance(
    rng: np.random.Generator,
    max_sources: int = 6,
    max_objects: int = 8,
    max_values: int = 5,
    n_features: int = 0,
) -> FusionInstance:
    """Small random instance for brute-force comparisons."""
    n_s = int(rng.integers(2, max_sources + 1))
    n_o = int(rng.integers(1, max_objects + 1))
    triples = []
    for o in range(n_o):
        observers = rng.choice(n_s, size=int(rng.integers(1, n_s + 1)), replace=False)
        for s in observers:
            triples.append((o, int(s), f"v{int(rng.integers(max_values))}"))
    features = rng.normal(size=(n_s, n_features)) if n_features else None
    names = tuple(f"f{k}" for k in range(n_features))
    return FusionInstance.from_triples(
        [f"s{i}" for i in range(n_s)],
        [f"o{i}" for i in range(n_o)],
        triples,
        features,
        names,
    )


def random_weights(rng: np.random.Generator, instance: FusionInstance) -> WeightVector:
    return WeightVector(
        source_intercepts=rng.normal(size=instance.n_sources),
        feature_weights=rng.normal(size=instance.n_features),
        pair_weights={p: float(rng.normal()) for p in instance.pairs},
    )


def brute_force_posterior(instance: FusionInstance, w: WeightVector, o: int):
    """Direct enumeration of the softmax over candidate values.

    Independent of the library path: per-candidate scores are accumulated
    with plain Python loops and normalized without max subtraction. Each
    vote adds its source's trust score plus log(max(|D_o| - 1, 1)).
    """
    dom = instance.domains[o]
    log_wrong = math.log(max(len(dom) - 1, 1))
    scores = {d: 0.0 for d in dom}
    for i in range(instance.n_observations):
        if int(instance.obs_object[i]) != o:
            continue
        s = int(instance.obs_source[i])
        sigma = float(w.source_intercepts[s])
        for k in range(instance.n_features):
            sigma += float(w.feature_weights[k]) * float(instance.features[s, k])
        value = dom[int(instance.obs_value_idx[i])]
        scores[value] += sigma + log_wrong
    for (s1, s2) in instance.pairs:
        v1 = v2 = None
        for i in range(instance.n_observations):
            if int(instance.obs_object[i]) != o:
                continue
            if int(instance.obs_source[i]) == s1:
                v1 = dom[int(instance.obs_value_idx[i])]
            if int(instance.obs_source[i]) == s2:
                v2 = dom[int(instance.obs_value_idx[i])]
        if v1 is not None and v1 == v2:
            wp = w.pair_weights.get((s1, s2), 0.0)
            for d in dom:
                if d != v1:
                    scores[d] += wp
    z = sum(math.exp(v) for v in scores.values())
    return np.array([math.exp(scores[d]) / z for d in dom])


def truth_by_name(instance, truth):
    return {instance.objects[o]: v for o, v in truth.labels.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
