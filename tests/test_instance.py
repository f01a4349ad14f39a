import numpy as np
import pytest

from trustfuse import FusionInstance, GroundTruth, InstanceError, correctness_counts

from conftest import random_instance


def make_basic():
    return FusionInstance.from_triples(
        ["s0", "s1", "s2"],
        ["o0", "o1"],
        [(0, 0, "a"), (0, 1, "b"), (1, 1, "a"), (1, 2, "a")],
    )


def test_domains_first_appearance_order():
    inst = make_basic()
    assert inst.domains == (("a", "b"), ("a",))
    assert inst.n_candidates == 3
    assert list(inst.cand_offsets) == [0, 2, 3]


def test_duplicate_observation_rejected():
    with pytest.raises(InstanceError, match="duplicate"):
        FusionInstance.from_triples(
            ["s0"], ["o0"], [(0, 0, "a"), (0, 0, "b")]
        )


def test_zero_observation_object_rejected():
    with pytest.raises(InstanceError, match="no observations"):
        FusionInstance.from_triples(["s0"], ["o0", "o1"], [(0, 0, "a")])


def test_nonfinite_features_rejected():
    with pytest.raises(InstanceError, match="finite"):
        FusionInstance.from_triples(
            ["s0"], ["o0"], [(0, 0, "a")],
            features=np.array([[np.inf]]), feature_names=("f0",),
        )


def test_feature_shape_mismatch_rejected():
    with pytest.raises(InstanceError, match="shape"):
        FusionInstance.from_triples(
            ["s0"], ["o0"], [(0, 0, "a")],
            features=np.zeros((2, 1)), feature_names=("f0",),
        )


def test_observers_and_counts():
    inst = make_basic()
    assert list(inst.obs_counts) == [2, 2]
    rows = inst.observers_of(1)
    assert sorted(inst.obs_source[rows]) == [1, 2]


def test_ground_truth_validation():
    inst = make_basic()
    GroundTruth({0: "a"}).validate(inst)
    with pytest.raises(InstanceError, match="not reported"):
        GroundTruth({1: "b"}).validate(inst)
    with pytest.raises(InstanceError, match="out of range"):
        GroundTruth({7: "a"}).validate(inst)
    restricted = GroundTruth({0: "a", 1: "b"}).restricted_to_domains(inst)
    assert restricted.labels == {0: "a"}


def test_with_pairs_and_events():
    inst = make_basic().with_pairs([(1, 2)])
    ev_obj, ev_cand, ev_pair = inst.pair_events
    # sources 1 and 2 agree on "a" for object 1 only
    assert list(ev_obj) == [1]
    assert list(ev_cand) == [2]
    assert list(ev_pair) == [0]


def test_with_pairs_rejects_bad_pairs():
    inst = make_basic()
    with pytest.raises(InstanceError):
        inst.with_pairs([(0, 0)])
    with pytest.raises(InstanceError):
        inst.with_pairs([(0, 9)])


def test_equality_roundtrip_through_triples():
    inst = make_basic()
    rebuilt = FusionInstance.from_triples(
        inst.sources, inst.objects, inst.triples(), inst.features, inst.feature_names
    )
    assert rebuilt == inst


def test_correctness_counts_match_loop_over_observations(rng):
    for _ in range(30):
        inst = random_instance(rng)
        labels = {}
        for o in range(inst.n_objects):
            u = rng.random()
            if u < 0.2:
                labels[o] = "unreported"
            elif u < 0.7:
                labels[o] = inst.domains[o][rng.integers(len(inst.domains[o]))]
        correct, total = correctness_counts(inst, GroundTruth(labels))
        ref_correct = np.zeros(inst.n_sources)
        ref_total = np.zeros(inst.n_sources)
        for o, s, value in inst.triples():
            if o in labels:
                ref_total[s] += 1
                ref_correct[s] += value == labels[o]
        assert correct.dtype == total.dtype == np.float64
        assert np.array_equal(correct, ref_correct)
        assert np.array_equal(total, ref_total)
