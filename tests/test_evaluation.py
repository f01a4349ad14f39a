import numpy as np
import pytest

from trustfuse import (
    FusionInstance,
    GroundTruth,
    empirical_accuracies,
    make_split,
    object_accuracy,
    weighted_accuracy_error,
)
from trustfuse.simulation import SimConfig, generate


class TestObjectAccuracy:
    def test_exact_fraction(self):
        predicted = {"o0": "a", "o1": "b", "o2": "c"}
        truth = {"o0": "a", "o1": "x", "o2": "c"}
        assert object_accuracy(predicted, truth, ["o0", "o1", "o2"]) == \
            pytest.approx(2 / 3)

    def test_missing_prediction_counts_as_wrong(self):
        assert object_accuracy({}, {"o0": "a"}, ["o0"]) == 0.0

    def test_restricted_to_test_set(self):
        predicted = {"o0": "a", "o1": "wrong"}
        truth = {"o0": "a", "o1": "b"}
        assert object_accuracy(predicted, truth, ["o0"]) == 1.0

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            object_accuracy({}, {}, [])


class TestEmpiricalAccuracies:
    def test_counts_per_observation(self):
        triples = [
            (0, 0, "a"), (1, 0, "b"), (2, 0, "a"), (3, 0, "x"),
            (0, 1, "a"), (1, 1, "c"), (3, 1, "y"),
        ]
        inst = FusionInstance.from_triples(
            ["s0", "s1"], ["o0", "o1", "o2", "o3"], triples
        )
        # No source reported o3's true value, so both reporters are wrong.
        truth = GroundTruth({0: "a", 1: "b", 2: "a", 3: "z"})
        acc = empirical_accuracies(inst, truth)
        assert acc["s0"] == pytest.approx(3 / 4)
        assert acc["s1"] == pytest.approx(1 / 3)

    def test_requires_full_truth(self):
        inst = FusionInstance.from_triples(
            ["s0", "s1"], ["o0", "o1"],
            [(0, 0, "a"), (0, 1, "b"), (1, 0, "a"), (1, 1, "a")],
        )
        with pytest.raises(ValueError):
            empirical_accuracies(inst, GroundTruth({0: "a"}))


class TestWeightedAccuracyError:
    def make(self):
        # s0 observes 3 objects (all correct), s1 observes 1 (wrong)
        triples = [(0, 0, "a"), (1, 0, "b"), (2, 0, "c"), (2, 1, "d")]
        inst = FusionInstance.from_triples(
            ["s0", "s1"], ["o0", "o1", "o2"], triples
        )
        truth = GroundTruth({0: "a", 1: "b", 2: "c"})
        return inst, truth

    def test_perfect_estimates_zero_error(self):
        inst, truth = self.make()
        est = {"s0": 1.0, "s1": 0.0}
        assert weighted_accuracy_error(est, inst, truth) == pytest.approx(0.0)

    def test_weighting_by_observation_count(self):
        inst, truth = self.make()
        est = {"s0": 0.9, "s1": 0.5}
        # (3 * |0.9 - 1| + 1 * |0.5 - 0|) / 4
        expected = (3 * 0.1 + 1 * 0.5) / 4
        assert weighted_accuracy_error(est, inst, truth) == pytest.approx(expected)

    def test_simulated_estimates_beat_random_guess(self):
        sim = generate(SimConfig(n_sources=10, n_objects=500, density=0.3,
                                 accuracy_mean=0.8, accuracy_spread=0.15, seed=2))
        inst = sim.instance
        truth = GroundTruth(
            {o: sim.truth.labels[o] if sim.truth.labels[o] in inst.domains[o]
             else inst.domains[o][0] for o in range(inst.n_objects)}
        )
        true_est = {inst.sources[s]: float(sim.true_accuracies[s])
                    for s in range(inst.n_sources)}
        flat = {name: 0.5 for name in inst.sources}
        assert weighted_accuracy_error(true_est, inst, truth) < \
            weighted_accuracy_error(flat, inst, truth)


class TestMakeSplit:
    def test_partition(self):
        objs = [f"o{i}" for i in range(20)]
        train, test = make_split(objs, 0.3, seed=0)
        assert sorted(train + test) == sorted(objs)
        assert not set(train) & set(test)

    def test_ceil_sizing(self):
        train, test = make_split([f"o{i}" for i in range(10)], 0.25, seed=1)
        assert len(train) == 3  # ceil(2.5)
        train, _ = make_split(["o0", "o1"], 0.01, seed=1)
        assert len(train) == 1  # never empty

    def test_seeded_and_varying(self):
        objs = [f"o{i}" for i in range(50)]
        assert make_split(objs, 0.5, seed=7) == make_split(objs, 0.5, seed=7)
        assert make_split(objs, 0.5, seed=7) != make_split(objs, 0.5, seed=8)

    def test_rejects_degenerate_fraction(self):
        for frac in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                make_split(["o0"], frac, seed=0)
