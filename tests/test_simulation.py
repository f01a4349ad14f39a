import numpy as np
import pytest

from trustfuse import SimConfig, generate


class TestConfigValidation:
    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            SimConfig(n_sources=5, n_objects=5, density=0.0)
        with pytest.raises(ValueError):
            SimConfig(n_sources=5, n_objects=5, density=1.5)

    def test_rejects_unit_domain(self):
        with pytest.raises(ValueError):
            SimConfig(n_sources=5, n_objects=5, domain_size=1)

    def test_rejects_accuracy_range_outside_unit_interval(self):
        with pytest.raises(ValueError):
            SimConfig(n_sources=5, n_objects=5,
                      accuracy_mean=0.95, accuracy_spread=0.1)

    def test_pair_sampling_needs_two_sources(self):
        with pytest.raises(ValueError):
            SimConfig(n_sources=1, n_objects=5, pair_sampling=True)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SimConfig(n_sources=5, n_objects=5, seed=-1)

    @pytest.mark.parametrize("field", [
        {"accuracy_mean": float("nan")},
        {"accuracy_spread": float("nan")},
        {"true_weights": (float("nan"), 1.0)},
        {"true_weights": (float("inf"),)},
        {"feature_density": 1.7},
        {"feature_density": -0.5},
        {"feature_density": float("nan")},
    ])
    def test_rejects_non_finite_or_out_of_range_inputs(self, field):
        with pytest.raises(ValueError):
            SimConfig(n_sources=5, n_objects=5, **field)


class TestGenerate:
    def test_deterministic_per_seed(self):
        cfg = SimConfig(n_sources=8, n_objects=30, density=0.3, seed=21)
        a, b = generate(cfg), generate(cfg)
        assert a.instance == b.instance
        assert a.truth.labels == b.truth.labels
        assert np.array_equal(a.true_accuracies, b.true_accuracies)
        other = generate(SimConfig(n_sources=8, n_objects=30, density=0.3, seed=22))
        assert other.instance != a.instance

    def test_every_object_observed(self):
        sim = generate(SimConfig(n_sources=10, n_objects=200, density=0.01, seed=3))
        assert np.all(sim.instance.obs_counts >= 1)

    def test_pair_sampling_two_distinct_observers(self):
        sim = generate(SimConfig(n_sources=6, n_objects=100,
                                 pair_sampling=True, seed=4))
        inst = sim.instance
        for o in range(inst.n_objects):
            observers = inst.obs_source[inst.observers_of(o)]
            assert observers.size == 2
            assert observers[0] != observers[1]

    def test_observation_count_tracks_density(self):
        cfg = SimConfig(n_sources=50, n_objects=400, density=0.2, seed=5)
        sim = generate(cfg)
        expected = cfg.n_sources * cfg.n_objects * cfg.density
        assert sim.instance.n_observations == pytest.approx(expected, rel=0.1)

    def test_empirical_accuracy_matches_declared(self):
        sim = generate(SimConfig(n_sources=5, n_objects=4000, density=0.5,
                                 accuracy_mean=0.75, accuracy_spread=0.2, seed=6))
        inst = sim.instance
        truth_idx = np.array(
            [inst.domains[o].index(sim.truth.labels[o])
             if sim.truth.labels[o] in inst.domains[o] else -1
             for o in range(inst.n_objects)]
        )
        for s in range(inst.n_sources):
            rows = inst.obs_source == s
            correct = inst.obs_value_idx[rows] == truth_idx[inst.obs_object[rows]]
            assert correct.mean() == pytest.approx(sim.true_accuracies[s], abs=0.03)

    def test_pairwise_agreement_rate(self):
        # two sources with common accuracy A on binary domains agree with
        # probability A^2 + (1 - A)^2 = 1/2 + (2A - 1)^2 / 2
        a = 0.8
        sim = generate(SimConfig(n_sources=2, n_objects=20000, pair_sampling=True,
                                 accuracy_mean=a, seed=7))
        inst = sim.instance
        vals = {}
        for o, s, v in inst.triples():
            vals.setdefault(o, {})[s] = v
        agree = [row[0] == row[1] for row in vals.values()]
        expected = 0.5 + (2 * a - 1) ** 2 / 2
        assert np.mean(agree) == pytest.approx(expected, abs=0.01)

    def test_feature_model_accuracies(self):
        sim = generate(SimConfig(n_sources=40, n_objects=50, density=0.2,
                                 true_weights=(2.0, -1.0, 0.5), seed=8))
        inst = sim.instance
        assert inst.features.shape == (40, 3)
        assert set(np.unique(inst.features)) <= {0.0, 1.0}
        assert inst.feature_names == ("f0", "f1", "f2")
        logits = inst.features @ np.array(sim.true_weights)
        np.testing.assert_allclose(
            sim.true_accuracies, 1.0 / (1.0 + np.exp(-logits)), atol=1e-12
        )

    def test_uniform_model_has_no_features(self):
        sim = generate(SimConfig(n_sources=5, n_objects=10, density=0.5, seed=9))
        assert sim.instance.features.shape == (5, 0)
        assert sim.true_weights is None

    def test_wrong_values_uniform_over_the_other_values(self):
        # At accuracy 0 every observation is wrong, and its value is uniform
        # over the four values other than the truth.
        sim = generate(SimConfig(n_sources=10, n_objects=4000, density=0.5,
                                 domain_size=5, accuracy_mean=0.0, seed=12))
        inst = sim.instance
        truth = np.array([int(sim.truth.labels[o][1:])
                          for o in range(inst.n_objects)])
        value = np.array([int(inst.cand_values[c][1:]) for c in inst.obs_cand])
        offset = (value - truth[inst.obs_object]) % 5
        assert not np.any(offset == 0)
        for t in range(5):
            share = np.bincount(offset[truth[inst.obs_object] == t],
                                minlength=5)[1:]
            np.testing.assert_allclose(share / share.sum(), 0.25, atol=0.03)

    def test_density_draw_spanning_several_blocks(self):
        # 5000 sources put about 209 objects in each draw block, so 600
        # objects take three blocks. At this density about one object in
        # five draws no observer at first and is re-drawn, so each object's
        # count is a Binomial(S, density) conditioned on being positive.
        cfg = SimConfig(n_sources=5000, n_objects=600, density=0.0003, seed=13)
        a, b = generate(cfg), generate(cfg)
        inst = a.instance
        for name in ("obs_object", "obs_source", "obs_cand"):
            assert np.array_equal(getattr(inst, name), getattr(b.instance, name))
        assert a.truth.labels == b.truth.labels
        assert np.all(inst.obs_counts >= 1)
        key = inst.obs_object * cfg.n_sources + inst.obs_source
        assert np.all(np.diff(key) > 0)  # object-major, sources ascending
        mean = cfg.n_sources * cfg.density
        per_object = mean / (1.0 - (1.0 - cfg.density) ** cfg.n_sources)
        assert inst.n_observations == pytest.approx(
            cfg.n_objects * per_object, rel=0.1
        )

    def test_pair_sampling_with_exactly_two_sources(self):
        sim = generate(SimConfig(n_sources=2, n_objects=2000,
                                 pair_sampling=True, seed=14))
        inst = sim.instance
        pairs = inst.obs_source.reshape(-1, 2)
        assert np.array_equal(inst.obs_object, np.repeat(np.arange(2000), 2))
        assert np.all(np.sort(pairs, axis=1) == [0, 1])
        # Both orders are equally likely.
        assert np.mean(pairs[:, 0] == 0) == pytest.approx(0.5, abs=0.05)
