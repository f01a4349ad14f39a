import itertools
import warnings

import numpy as np
import pytest

from trustfuse import (
    FusionInstance,
    GroundTruth,
    LearnConfig,
    WeightVector,
    add_copying_features,
    estimate_pair_state,
    fit_erm_object,
    lasso_path,
    posterior_all,
    predict_new_source_accuracy,
)
from trustfuse.learning import object_loss_and_grad, one_hot_targets
from trustfuse.simulation import SimConfig, add_clone, generate


def featured_instance(seed=0, n_sources=30, n_objects=120):
    return generate(
        SimConfig(n_sources=n_sources, n_objects=n_objects, density=0.25,
                  true_weights=(2.5, -1.5, 0.0), feature_density=0.5, seed=seed)
    )


class TestLassoPath:
    def test_all_weights_zero_at_lambda_max(self):
        sim = featured_instance()
        gt = sim.truth.restricted_to_domains(sim.instance)
        path = lasso_path(sim.instance, gt, grid_size=12, config=LearnConfig())
        np.testing.assert_allclose(path.weights[0], 0.0, atol=1e-8)

    def test_grid_and_mu_shapes(self):
        sim = featured_instance()
        gt = sim.truth.restricted_to_domains(sim.instance)
        path = lasso_path(sim.instance, gt, grid_size=10, config=LearnConfig())
        assert path.grid.shape == path.mu.shape == (10,)
        assert path.weights.shape == (10, 3)
        assert np.all(np.diff(path.grid) < 0)
        assert path.mu[0] == pytest.approx(0.0)
        assert path.mu[-1] == pytest.approx(1.0)
        assert np.all(np.diff(path.mu) > 0)
        assert path.feature_names == ("f0", "f1", "f2")

    def test_informative_features_activate_before_junk(self):
        sim = featured_instance(seed=3, n_sources=60, n_objects=400)
        gt = sim.truth.restricted_to_domains(sim.instance)
        path = lasso_path(sim.instance, gt, grid_size=20, config=LearnConfig())

        def first_active(k):
            nz = np.flatnonzero(np.abs(path.weights[:, k]) > 1e-6)
            return nz[0] if nz.size else len(path.grid)

        # the strongest true weight (f0 at 2.5) enters no later than the
        # zero-weight junk feature f2
        assert first_active(0) <= first_active(2)

    def test_grid_size_one(self):
        sim = featured_instance()
        gt = sim.truth.restricted_to_domains(sim.instance)
        path = lasso_path(sim.instance, gt, grid_size=1, config=LearnConfig())
        assert path.mu.tolist() == [0.0]
        np.testing.assert_allclose(path.weights[0], 0.0, atol=1e-8)

    def test_requires_features_and_labels(self):
        plain = generate(SimConfig(n_sources=5, n_objects=20, density=0.5, seed=1))
        with pytest.raises(ValueError):
            lasso_path(plain.instance, GroundTruth({0: "v0"}), 5, LearnConfig())
        sim = featured_instance()
        with pytest.raises(ValueError):
            lasso_path(sim.instance, GroundTruth({}), 5, LearnConfig())
        gt = sim.truth.restricted_to_domains(sim.instance)
        with pytest.raises(ValueError):
            lasso_path(sim.instance, gt, 0, LearnConfig())


class TestPredictNewSourceAccuracy:
    def test_zero_weights_give_half(self):
        w = WeightVector(np.zeros(3), np.zeros(2), {})
        assert predict_new_source_accuracy(w, np.array([1.0, 1.0])) == \
            pytest.approx(0.5)

    def test_logistic_of_feature_score(self):
        w = WeightVector(np.array([5.0]), np.array([2.0, -1.0]), {})
        got = predict_new_source_accuracy(w, np.array([1.0, 1.0]))
        # the intercept of an unseen source is unknown, so only w_k counts
        assert got == pytest.approx(1.0 / (1.0 + np.exp(-1.0)))

    def test_shape_mismatch_rejected(self):
        w = WeightVector(np.zeros(1), np.zeros(2), {})
        with pytest.raises(ValueError):
            predict_new_source_accuracy(w, np.array([1.0, 2.0, 3.0]))

    def test_cold_start_mae_on_simulated_sources(self):
        sim = featured_instance(seed=5, n_sources=80, n_objects=600)
        inst = sim.instance
        gt = sim.truth.restricted_to_domains(inst)
        # a light feature penalty keeps w_k from overfitting; intercepts
        # alone can already separate the training sources
        cfg = LearnConfig(l2_intercept_penalty=0.05, l1_feature_penalty=0.1)
        w, _ = fit_erm_object(inst, gt, cfg)
        true_w = np.array(sim.true_weights)
        rng = np.random.default_rng(99)
        rows = (rng.random((200, 3)) < 0.5).astype(float)
        pred = np.array([predict_new_source_accuracy(w, r) for r in rows])
        actual = 1.0 / (1.0 + np.exp(-(rows @ true_w)))
        assert np.mean(np.abs(pred - actual)) < 0.06


class TestCopyingFeatures:
    def test_overlap_threshold(self):
        triples = []
        for o in range(6):
            triples.append((o, 0, "a"))
            triples.append((o, 1, "a"))
        triples.append((0, 2, "b"))
        inst = FusionInstance.from_triples(
            ["s0", "s1", "s2"], [f"o{i}" for i in range(6)], triples
        )
        assert add_copying_features(inst, min_overlap=5).pairs == ((0, 1),)
        assert add_copying_features(inst, min_overlap=1).pairs == \
            ((0, 1), (0, 2), (1, 2))
        assert add_copying_features(inst, min_overlap=7).pairs == ()

    def test_positive_pair_weight_discounts_agreement(self):
        # grid-search oracle on a tiny 3-source instance: raising the pair
        # weight of the colluding pair must lower the posterior of the value
        # they agree on when the independent source dissents
        inst = FusionInstance.from_triples(
            ["s0", "s1", "s2"],
            ["o0"],
            [(0, 0, "a"), (0, 1, "a"), (0, 2, "b")],
        ).with_pairs([(0, 1)])
        base = WeightVector(np.zeros(3), np.zeros(0), {(0, 1): 0.0})
        bumped = WeightVector(np.zeros(3), np.zeros(0), {(0, 1): 2.0})
        p0 = posterior_all(inst, base).row(0)
        p1 = posterior_all(inst, bumped).row(0)
        assert p0[0] > p1[0]
        assert p1[1] > p0[1]

    @staticmethod
    def misleading_pair():
        """s0 and s1 co-observe only objects where they agree on the wrong
        value; alone each is fine. Every object is labelled."""
        triples = []
        for o in range(10):  # joint objects: both wrong, agreeing
            triples += [(o, 0, "b"), (o, 1, "b"), (o, 2, "a")]
        for o in range(10, 20):  # s0 alone, correct
            triples += [(o, 0, "a"), (o, 2, "a")]
        for o in range(20, 30):  # s1 alone, correct
            triples += [(o, 1, "a"), (o, 2, "a")]
        inst = FusionInstance.from_triples(
            ["s0", "s1", "s2"], [f"o{i}" for i in range(30)], triples
        ).with_pairs([(0, 1)])
        return inst, GroundTruth({o: "a" for o in range(30)})

    def test_fitted_pair_weight_positive_for_misleading_agreement(self):
        # Intercepts cannot express the pair's collusion, so the fit must
        # put positive weight on the pair to discount its agreement.
        inst, gt = self.misleading_pair()
        w, _ = fit_erm_object(inst, gt, LearnConfig(l2_intercept_penalty=0.01))
        assert w.pair_weights[(0, 1)] > 0.5

    @pytest.mark.parametrize("max_iters", [3, 500])
    def test_pair_fit_without_ridge_reports_its_kkt_check(self, max_iters):
        # Without a ridge the curvature is singular (only the margin
        # sigma_2 - sigma_0 - sigma_1 + w_pair is identified) and the loss
        # has no finite minimiser, so conjugate gradients runs on a singular
        # system. The fit must still stop, and `converged` must say whether
        # the KKT residual is within the bound.
        inst, gt = self.misleading_pair()
        cfg = LearnConfig(l2_intercept_penalty=0.0, max_inner_iters=max_iters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, diag = fit_erm_object(inst, gt, cfg)
        _, g = object_loss_and_grad(inst, one_hot_targets(inst, gt), w)
        residual = max(np.max(np.abs(g.source_intercepts)),
                       abs(g.pair_weights[(0, 1)]))
        # s2 observes all 30 labelled objects.
        bound = cfg.objective_tol * 30
        assert diag.iterations <= max_iters
        assert diag.converged == (residual <= bound)
        assert diag.converged == (max_iters == 500)
        assert np.isfinite(diag.objective)

    def test_clone_pair_registered_by_overlap(self):
        sim = generate(SimConfig(n_sources=6, n_objects=400, density=0.5,
                                 accuracy_mean=0.7, seed=8))
        cloned = add_clone(sim, source=0, noise=0.02, seed=1)
        inst = add_copying_features(cloned.instance, min_overlap=5)
        assert (0, 6) in inst.pairs

    def test_min_overlap_validation(self):
        sim = generate(SimConfig(n_sources=3, n_objects=5, density=0.9, seed=0))
        with pytest.raises(ValueError):
            add_copying_features(sim.instance, min_overlap=0)


class TestPairEstimator:
    def test_near_perfect_sources(self):
        # all sources perfectly accurate: agreement is total and the
        # radicand reaches its ceiling |S| * (|S| - 1)
        sim = generate(SimConfig(n_sources=10, n_objects=2000, pair_sampling=True,
                                 true_weights=(12.0,), feature_density=1.0, seed=2))
        state = estimate_pair_state(sim.instance, 0.1, LearnConfig(seed=0))
        assert state.a_e_hat == pytest.approx(np.sqrt(10 * 9), abs=1e-6)
        for a in state.accuracies.values():
            assert a > 0.95

    def test_weights_pass_the_kkt_check(self):
        # The fit is the binomial loss of a_counts out of primary_counts in
        # the feature weights alone, with no penalty: its gradient must be
        # within the scale-aware bound.
        sim = generate(SimConfig(n_sources=40, n_objects=2000, pair_sampling=True,
                                 true_weights=(2.0, 1.0), feature_density=0.5,
                                 seed=4))
        cfg = LearnConfig(seed=0)
        state = estimate_pair_state(sim.instance, 0.1, cfg)
        feats = sim.instance.features
        acc = 1.0 / (1.0 + np.exp(-(feats @ state.weights)))
        grad = feats.T @ (state.primary_counts * acc - state.a_counts)
        bound = cfg.objective_tol * max(1.0, state.primary_counts.max())
        assert np.max(np.abs(grad)) <= bound

    def test_counts_clamped_to_valid_range(self):
        sim = generate(SimConfig(n_sources=8, n_objects=800, pair_sampling=True,
                                 true_weights=(1.5, -0.5), seed=3))
        state = estimate_pair_state(sim.instance, 0.1, LearnConfig(seed=0))
        assert np.all(state.a_counts >= 0.0)
        assert np.all(state.a_counts <= state.primary_counts)
        assert state.n_reduced_objects == 800

    def test_recovers_feature_driven_accuracies(self):
        sim = generate(SimConfig(n_sources=40, n_objects=20000, pair_sampling=True,
                                 true_weights=(2.0, 1.0), feature_density=0.5,
                                 seed=4))
        est = estimate_pair_state(sim.instance, 0.1, LearnConfig(seed=0)).accuracies
        errs = [abs(est[f"s{s}"] - sim.true_accuracies[s]) for s in range(40)]
        assert np.mean(errs) < 0.1

    def test_chance_agreement_rejected(self):
        # independent coin-flip sources: expected agreement is exactly chance
        rng = np.random.default_rng(0)
        triples = []
        for o in range(400):
            triples.append((o, int(2 * (o % 2)), "a" if rng.random() < 0.5 else "b"))
            triples.append((o, int(2 * (o % 2)) + 1, "a" if rng.random() < 0.5 else "b"))
        inst = FusionInstance.from_triples(
            ["s0", "s1", "s2", "s3"], [f"o{i}" for i in range(400)], triples,
            features=np.ones((4, 1)), feature_names=("f0",),
        )
        try:
            state = estimate_pair_state(inst, 0.1, LearnConfig(seed=0))
        except ValueError as err:
            assert "chance" in str(err)
        else:
            # random fluctuation can leave a tiny positive radicand
            assert state.a_e_hat < 1.5

    def test_argument_validation(self):
        sim = featured_instance()
        with pytest.raises(ValueError):
            estimate_pair_state(sim.instance, 0.0, LearnConfig())
        two = generate(SimConfig(n_sources=2, n_objects=10, pair_sampling=True,
                                 true_weights=(1.0,), seed=0))
        with pytest.raises(ValueError):
            estimate_pair_state(two.instance, 0.1, LearnConfig())
        plain = generate(SimConfig(n_sources=5, n_objects=10, density=0.9, seed=0))
        with pytest.raises(ValueError):
            estimate_pair_state(plain.instance, 0.1, LearnConfig())
