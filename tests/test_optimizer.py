import math

import numpy as np
import pytest
from scipy import special

from trustfuse import (
    FusionInstance,
    GroundTruth,
    decide,
    em_units,
    estimate_avg_accuracy,
    ground_truth_units,
)
from trustfuse.optimizer import majority_success_probability, _entropy_bits
from trustfuse.simulation import SimConfig, generate


def brute_force_binom_tail(k, m, a):
    """Tail P(X > k) by direct summation with exact binomial coefficients."""
    total = 0.0
    for i in range(k + 1, m + 1):
        total += math.comb(m, i) * a**i * (1 - a) ** (m - i)
    return total


class TestEstimateAvgAccuracy:
    def make_pairwise(self, agreements):
        """Two sources over len(agreements) objects; True means agree."""
        triples = []
        for o, agree in enumerate(agreements):
            triples.append((o, 0, "a"))
            triples.append((o, 1, "a" if agree else "b"))
        return FusionInstance.from_triples(
            ["s0", "s1"],
            [f"o{i}" for i in range(len(agreements))],
            triples,
        )

    def test_perfect_agreement(self):
        inst = self.make_pairwise([True] * 10)
        assert estimate_avg_accuracy(inst) == pytest.approx(1.0)

    def test_half_agreement_is_chance(self):
        inst = self.make_pairwise([True, False] * 5)
        assert estimate_avg_accuracy(inst) == pytest.approx(0.5)

    def test_single_source_rejected(self):
        inst = FusionInstance.from_triples(["s0"], ["o0"], [(0, 0, "a")])
        with pytest.raises(ValueError):
            estimate_avg_accuracy(inst)

    def test_recovers_uniform_accuracy(self):
        for a in (0.7, 0.9):
            sim = generate(
                SimConfig(n_sources=100, n_objects=1000, density=0.1,
                          accuracy_mean=a, accuracy_spread=0.0, seed=int(a * 100))
            )
            est = estimate_avg_accuracy(sim.instance)
            assert est == pytest.approx(a, abs=0.05)

    @pytest.mark.parametrize("domain", [3, 5])
    def test_recovers_average_accuracy_on_multi_valued_domains(self, domain):
        # Acceptance test 6's grid with wider domains, where two wrong votes
        # rarely agree.
        worst = 0.0
        for a in (0.6, 0.7, 0.8, 0.9):
            for seed in range(5):
                sim = generate(
                    SimConfig(n_sources=100, n_objects=1000, density=0.1,
                              domain_size=domain, accuracy_mean=a, seed=seed)
                )
                worst = max(worst, abs(estimate_avg_accuracy(sim.instance) - a))
        assert worst <= 0.09

    def test_invariant_to_value_relabeling_and_source_permutation(self, rng):
        sim = generate(SimConfig(n_sources=20, n_objects=100, density=0.2, seed=4))
        inst = sim.instance
        base = estimate_avg_accuracy(inst)
        relabeled = FusionInstance.from_triples(
            inst.sources,
            inst.objects,
            [(o, s, f"x-{v}") for o, s, v in inst.triples()],
        )
        assert estimate_avg_accuracy(relabeled) == pytest.approx(base, abs=1e-12)
        perm = rng.permutation(inst.n_sources)
        remap = np.argsort(perm)
        permuted = FusionInstance.from_triples(
            [inst.sources[p] for p in perm],
            inst.objects,
            [(o, int(remap[s]), v) for o, s, v in inst.triples()],
        )
        assert estimate_avg_accuracy(permuted) == pytest.approx(base, abs=1e-12)


class TestEmUnits:
    def test_worked_binary_example(self):
        # 10 equally accurate (0.7) sources on a binary object
        p_e = majority_success_probability(10, 2, 0.7)
        assert p_e == pytest.approx(0.8497, abs=5e-4)
        assert p_e == pytest.approx(brute_force_binom_tail(5, 10, 0.7), abs=1e-12)
        assert _entropy_bits(p_e) == pytest.approx(0.611, abs=5e-4)
        contribution = 10 * (1 - _entropy_bits(p_e))
        assert contribution == pytest.approx(3.89, abs=5e-3)

    def test_single_observation_tail(self):
        assert majority_success_probability(1, 2, 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_near_perfect_sources_contribute_full_units(self):
        inst = FusionInstance.from_triples(
            ["s0", "s1", "s2"],
            ["o0"],
            [(0, 0, "a"), (0, 1, "a"), (0, 2, "b")],
        )
        # accuracy -> 1 gives p_e -> 1, entropy -> 0, contribution -> m
        assert em_units(inst, 1 - 1e-12) == pytest.approx(3.0, abs=1e-6)

    def test_log_space_stability_for_large_m(self):
        p = majority_success_probability(10_000, 2, 0.7)
        assert 0.0 < p <= 1.0 and np.isfinite(p)

    def test_monotone_in_accuracy(self):
        sim = generate(SimConfig(n_sources=30, n_objects=80, density=0.15, seed=2))
        grid = np.linspace(0.5, 0.99, 25)
        units = [em_units(sim.instance, a) for a in grid]
        assert np.all(np.diff(units) >= -1e-9)


class TestMajoritySuccessProbability:
    M = np.array([*range(1, 200), 500, 1_000, 5_000, 10_000])

    @pytest.mark.parametrize("domain", [1, 2, 3, 5, 12])
    @pytest.mark.parametrize(
        "accuracy", [1e-9, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-12]
    )
    def test_matches_scipy_bdtrc(self, domain, accuracy):
        got = majority_success_probability(self.M, domain, accuracy)
        k = np.minimum(self.M // domain, self.M - 1)
        ref = special.bdtrc(k, self.M, accuracy)
        shown = ref > 1e-300
        assert np.all(got >= 0.0) and np.all(got <= 1.0)
        np.testing.assert_allclose(got[shown], ref[shown], rtol=1e-10, atol=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("domain", [1, 2, 5])
    def test_exact_at_zero_and_one(self, domain):
        for m in (1, 2, 7, 1_000):
            assert majority_success_probability(m, domain, 0.0) == 0.0
            assert majority_success_probability(m, domain, 1.0) == 1.0
        ones = majority_success_probability(self.M, domain, 1.0)
        assert ones.shape == self.M.shape and np.all(ones == 1.0)

    def test_array_call_equals_scalar_calls(self):
        rng = np.random.default_rng(5)
        m = rng.integers(1, 60, size=(4, 25))
        domain = rng.integers(1, 6, size=(4, 25))
        for accuracy in (0.3, 0.72, 1 - 1e-12):
            got = majority_success_probability(m, domain, accuracy)
            assert got.shape == m.shape
            for idx in np.ndindex(m.shape):
                one = majority_success_probability(
                    int(m[idx]), int(domain[idx]), accuracy
                )
                assert isinstance(one, float) and got[idx] == one

    @pytest.mark.parametrize("m, domain", [(0, 2), (3, 0), (np.array([2, 0]), 2)])
    def test_rejects_empty_objects_and_domains(self, m, domain):
        with pytest.raises(ValueError):
            majority_success_probability(m, domain, 0.7)


class TestGroundTruthUnits:
    def make(self):
        triples = [(0, s, "a") for s in range(10)]
        triples += [(1, s, "b") for s in range(3)]
        triples += [(2, s, "c") for s in range(3, 10)]
        return FusionInstance.from_triples(
            [f"s{i}" for i in range(10)], ["o0", "o1", "o2"], triples
        )

    def test_empty(self):
        assert ground_truth_units(self.make(), GroundTruth({})) == 0.0

    def test_single_object(self):
        assert ground_truth_units(self.make(), GroundTruth({0: "a"})) == 10.0

    def test_additive(self):
        inst = self.make()
        both = ground_truth_units(inst, GroundTruth({1: "b", 2: "c"}))
        assert both == 10.0
        assert both == ground_truth_units(inst, GroundTruth({1: "b"})) + \
            ground_truth_units(inst, GroundTruth({2: "c"}))


class TestDecide:
    def test_bound_formula(self):
        sim = generate(SimConfig(n_sources=20, n_objects=50, density=0.3, seed=7))
        gt = sim.truth.restricted_to_domains(sim.instance)
        d = decide(sim.instance, gt, tau=0.1, n_features=4)
        n_g = len(gt)
        assert d.erm_bound == pytest.approx(
            math.sqrt(4 / n_g) * math.log(max(n_g, 2))
        )

    def test_spec_bound_value(self):
        # |K| = 4, |G| = 10^4: bound exceeds tau = 0.1
        bound = math.sqrt(4 / 10_000) * math.log(10_000)
        assert bound == pytest.approx(0.1842, abs=1e-3)
        assert bound > 0.1

    def test_no_labels_forces_em(self):
        sim = generate(SimConfig(n_sources=10, n_objects=30, density=0.3, seed=8))
        d = decide(sim.instance, GroundTruth({}), tau=0.1)
        assert d.choice == "EM"
        assert not np.isfinite(d.erm_bound)

    def test_bound_below_tau_forces_erm(self):
        sim = generate(SimConfig(n_sources=10, n_objects=200, density=0.3, seed=8))
        gt = sim.truth.restricted_to_domains(sim.instance)
        d = decide(sim.instance, gt, tau=10.0, n_features=1)
        assert d.choice == "ERM"
        assert d.erm_bound <= 10.0

    def test_units_comparison_respected(self):
        sim = generate(
            SimConfig(n_sources=50, n_objects=400, density=0.1,
                      accuracy_mean=0.85, seed=13)
        )
        inst = sim.instance
        full = sim.truth.restricted_to_domains(inst)
        # tiny ground truth: EM units dominate
        few = GroundTruth(dict(list(full.labels.items())[:2]))
        d_few = decide(inst, few, tau=0.1, n_features=50)
        assert d_few.em_units > d_few.ground_truth_units
        assert d_few.choice == "EM"
        # plentiful ground truth with the bound kept large: units favor ERM
        d_full = decide(inst, full, tau=1e-9, n_features=50)
        assert d_full.em_units <= d_full.ground_truth_units
        assert d_full.choice == "ERM"

    def test_one_source_with_labels_picks_erm(self):
        # One source leaves the EM units unestimable; they cannot exceed the
        # label units, so ERM wins.
        inst = FusionInstance.from_triples(
            ["s0"], ["o0", "o1", "o2"], [(0, 0, "a"), (1, 0, "b"), (2, 0, "a")]
        )
        d = decide(inst, GroundTruth({0: "a", 1: "b"}), tau=0.1, n_features=4)
        assert d.erm_bound > d.tau
        assert d.em_units is None and d.estimated_avg_accuracy is None
        assert d.choice == "ERM"

    def test_deterministic(self):
        sim = generate(SimConfig(n_sources=15, n_objects=60, density=0.2, seed=3))
        gt = sim.truth.restricted_to_domains(sim.instance)
        a = decide(sim.instance, gt, tau=0.1)
        b = decide(sim.instance, gt, tau=0.1)
        assert a == b

    def test_rejects_bad_tau(self):
        sim = generate(SimConfig(n_sources=5, n_objects=10, density=0.5, seed=1))
        with pytest.raises(ValueError):
            decide(sim.instance, GroundTruth({}), tau=0.0)
