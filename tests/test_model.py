import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustfuse import (
    FusionInstance,
    WeightVector,
    map_values,
    posterior_all,
    source_accuracies,
    trust_score,
)
from conftest import brute_force_posterior, random_instance, random_weights


def one_object(values_by_source):
    n_s = len(values_by_source)
    return FusionInstance.from_triples(
        [f"s{i}" for i in range(n_s)],
        ["o0"],
        [(0, s, v) for s, v in enumerate(values_by_source)],
    )


class TestWeightVector:
    def test_names_the_first_non_finite_pair_weight(self):
        pairs = {(i, j): 0.1 * i - 0.01 * j
                 for i in range(200) for j in range(i + 1, 200)}
        pairs[(150, 170)] = np.nan
        pairs[(160, 161)] = np.inf
        message = r"pair weight for \(150, 170\) must be finite"
        with pytest.raises(ValueError, match=message):
            WeightVector(np.zeros(200), np.zeros(0), pairs)


class TestSourceAccuracy:
    def test_zero_weights_give_half(self):
        inst = one_object(["a"])
        w = WeightVector(np.zeros(1), np.zeros(0))
        assert source_accuracies(w, inst.features)[0] == 0.5

    def test_log_odds_of_point_seven(self):
        # logit(0.7) = log(7/3); logistic inverts it exactly
        w = WeightVector(np.array([math.log(0.7 / 0.3)]), np.zeros(0))
        assert source_accuracies(w, np.zeros((1, 0)))[0] == pytest.approx(0.7, abs=1e-15)

    def test_negative_feature_weight_mirrors(self):
        f = np.array([[1.0]])
        w = WeightVector(np.array([0.0]), np.array([-math.log(0.7 / 0.3)]))
        assert source_accuracies(w, f)[0] == pytest.approx(0.3, abs=1e-15)


class TestTrustScore:
    def test_half_is_zero(self):
        assert trust_score(0.5) == 0.0

    def test_point_seven(self):
        # independent high-precision value of log(0.7/0.3)
        assert trust_score(0.7) == pytest.approx(0.8472978603872036, abs=1e-14)

    def test_antisymmetry(self):
        assert trust_score(0.3) == pytest.approx(-trust_score(0.7), abs=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            trust_score(bad)

    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
    def test_roundtrip_with_logistic(self, a):
        w = WeightVector(np.array([trust_score(a)]), np.zeros(0))
        assert source_accuracies(w, np.zeros((1, 0)))[0] == pytest.approx(a, abs=1e-12)


class TestPosterior:
    def test_singleton_domain(self):
        inst = one_object(["a"])
        w = WeightVector(np.zeros(1), np.zeros(0))
        assert posterior_all(inst, w).row(0) == pytest.approx([1.0])

    def test_two_against_one(self):
        inst = one_object(["a", "a", "b"])
        w = WeightVector(np.ones(3), np.zeros(0))
        expected = 1.0 / (1.0 + math.exp(-1.0))
        np.testing.assert_allclose(
            posterior_all(inst, w).row(0), [expected, 1 - expected], atol=1e-12
        )

    def test_symmetric_votes_are_uniform(self):
        inst = one_object(["a", "b"])
        w = WeightVector(np.zeros(2), np.zeros(0))
        np.testing.assert_allclose(
            posterior_all(inst, w).row(0), [0.5, 0.5], atol=1e-15
        )

    def test_no_overflow_at_extreme_scores(self):
        inst = one_object(["a", "b"])
        w = WeightVector(np.array([700.0, -700.0]), np.zeros(0))
        p = posterior_all(inst, w).row(0)
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(50):
            inst = random_instance(rng, n_features=int(rng.integers(0, 3)))
            w = random_weights(rng, inst)
            table = posterior_all(inst, w)
            for o in range(inst.n_objects):
                np.testing.assert_allclose(
                    table.row(o), brute_force_posterior(inst, w, o), atol=1e-12
                )

    def test_rows_sum_to_one(self, rng):
        for _ in range(20):
            inst = random_instance(rng, n_features=2)
            w = random_weights(rng, inst)
            table = posterior_all(inst, w)
            for row in map(table.row, range(inst.n_objects)):
                assert row.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all((row >= 0) & (row <= 1))

    def test_monotone_in_reporting_source_intercept(self, rng):
        inst = random_instance(rng)
        w = random_weights(rng, inst)
        o = int(rng.integers(inst.n_objects))
        rows = inst.observers_of(o)
        i = int(rows[0])
        s = int(inst.obs_source[i])
        d = int(inst.obs_value_idx[i])
        before = posterior_all(inst, w).row(o)[d]
        bumped = WeightVector(
            w.source_intercepts + np.eye(inst.n_sources)[s] * 0.5,
            w.feature_weights,
        )
        after = posterior_all(inst, bumped).row(o)[d]
        assert after >= before - 1e-12

    def test_shift_invariance_of_candidate_scores(self):
        # adding a constant to every candidate of an object leaves the
        # posterior unchanged; realized via a uniform intercept shift of a
        # source observing a singleton-vote object
        inst = one_object(["a", "b"])
        w1 = WeightVector(np.array([1.0, 2.0]), np.zeros(0))
        p1 = posterior_all(inst, w1).row(0)
        # shifting both candidates by c = 3 is equal to adding 3 to both
        # intercepts here because each source votes for a distinct value
        w2 = WeightVector(np.array([4.0, 5.0]), np.zeros(0))
        np.testing.assert_allclose(
            posterior_all(inst, w2).row(0), p1, atol=1e-12
        )


class TestMapValues:
    def test_strict_argmax(self):
        inst = one_object(["a", "a", "b"])
        w = WeightVector(np.ones(3), np.zeros(0))
        assert map_values(inst, w)["o0"] == "a"

    def test_tie_break_reproducible_per_seed(self):
        inst = one_object(["a", "b"])
        w = WeightVector(np.ones(2), np.zeros(0))
        picks = {seed: map_values(inst, w, seed=seed)["o0"] for seed in range(20)}
        for seed, value in picks.items():
            assert map_values(inst, w, seed=seed)["o0"] == value
        assert set(picks.values()) == {"a", "b"}

    def test_equals_majority_vote_with_uniform_weights(self, rng):
        from trustfuse import majority_vote

        # 20 sources x 50 objects, no exact ties by construction check
        n_s, n_o = 20, 50
        triples = []
        for o in range(n_o):
            observers = rng.choice(n_s, size=int(rng.integers(3, 10)), replace=False)
            for s in observers:
                triples.append((o, int(s), f"v{int(rng.integers(3))}"))
        inst = FusionInstance.from_triples(
            [f"s{i}" for i in range(n_s)], [f"o{i}" for i in range(n_o)], triples
        )
        w = WeightVector(np.full(n_s, 0.7), np.zeros(0))
        assert map_values(inst, w, seed=3) == majority_vote(inst, seed=3)
