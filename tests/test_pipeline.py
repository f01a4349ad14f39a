import pytest

from trustfuse import FusionResult, GroundTruth, LearnConfig, fuse
from trustfuse.simulation import SimConfig, generate


@pytest.fixture(scope="module")
def sim():
    return generate(SimConfig(n_sources=12, n_objects=80, density=0.25,
                              accuracy_mean=0.85, seed=42))


@pytest.mark.parametrize("algo", ["erm", "em", "majority", "counts", "auto"])
def test_result_per_algorithm(sim, algo):
    inst = sim.instance
    truth = sim.truth.restricted_to_domains(inst)
    labels = GroundTruth({o: truth.labels[o] for o in list(truth.labels)[:10]})
    result = fuse(inst, labels, algo, LearnConfig())
    assert isinstance(result, FusionResult)
    assert set(result.values) == set(inst.objects)
    assert set(result.accuracies) == set(inst.sources)
    for o, value in labels.labels.items():
        assert result.values[inst.objects[o]] == value
    if algo == "auto":
        assert result.algorithm_used == result.decision.choice
    else:
        assert result.algorithm_used == algo.upper()
        assert result.decision is None


def test_unknown_algorithm_rejected(sim):
    with pytest.raises(ValueError, match="unknown algorithm"):
        fuse(sim.instance, sim.truth.restricted_to_domains(sim.instance),
             "bogus", LearnConfig())
