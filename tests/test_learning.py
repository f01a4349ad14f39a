import itertools
import logging
import os
import subprocess
import sys
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
    fit_em,
    fit_erm_object,
    fit_erm_observation,
    fit_weights,
    lasso_path,
    majority_vote,
    map_values,
    posterior_all,
    source_accuracies,
    weighted_accuracy_error,
)
from trustfuse.instance import label_correctness_counts
from trustfuse.model import argmax_with_ties
from trustfuse.learning import (
    _Layout,
    _binomial_loss,
    _fit_binomial,
    _object_sigma_loss,
    _soft_threshold,
    object_loss_and_grad,
    observation_loss_and_grad,
    one_hot_targets,
    proximal_fit,
)
from trustfuse.simulation import SimConfig, generate
from conftest import random_instance, random_weights, truth_by_name
from test_kernels import ref_proximal_fit


# The FISTA references run with a tolerance of 0, so only this cap, a step
# that lowers the objective by less than 0 or a stalled line search stops
# them. Stopped instead when a step lowered the objective by less than
# 1e-15, they ran 991 to 3 402 iterations on these fixtures, so here their
# objective is no higher than at that stop.
FISTA_REF_ITERS = 4000


def fista_reference(fg, x0, l1):
    return ref_proximal_fit(x0, fg, l1, FISTA_REF_ITERS, 0.0)[0]


def l1_vector(layout, l1):
    """The L1 weight of each coordinate of x = [w_s | w_pairs | w_k]."""
    return np.repeat([0.0, l1], [layout.n_w, layout.size - layout.n_w])


def object_fg(inst, targets, l2):
    """`object_loss_and_grad` on the flat vector x."""
    layout = _Layout(inst)

    def fg(x):
        loss, grad = object_loss_and_grad(inst, targets, layout.unpack(x), l2)
        return loss, layout.pack(grad)

    return fg


def two_source_instance():
    """One binary object, two sources on opposite sides."""
    return FusionInstance.from_triples(
        ["s0", "s1"], ["o0"], [(0, 0, "a"), (0, 1, "b")]
    )


def erm_objective(inst, gt, w, l1, l2):
    loss, _ = object_loss_and_grad(inst, one_hot_targets(inst, gt), w, l2)
    return loss + l1 * float(np.sum(np.abs(w.feature_weights)))


class TestFitErmObject:
    def test_singleton_domain_has_zero_loss(self):
        inst = FusionInstance.from_triples(["s0"], ["o0"], [(0, 0, "a")])
        cfg = LearnConfig(l2_intercept_penalty=0.0)
        w, diag = fit_erm_object(inst, GroundTruth({0: "a"}), cfg)
        assert diag.objective == pytest.approx(0.0, abs=1e-12)
        assert w.source_intercepts == pytest.approx([0.0])

    def test_correct_source_outranks_wrong_one(self):
        inst = two_source_instance()
        gt = GroundTruth({0: "a"})
        cfg = LearnConfig(l2_intercept_penalty=0.05)
        w, _ = fit_erm_object(inst, gt, cfg)
        assert w.source_intercepts[0] > w.source_intercepts[1]
        # independent oracle: dense grid search over the two intercepts
        grid = np.linspace(-3, 3, 121)
        best, best_obj = None, np.inf
        for w0, w1 in itertools.product(grid, grid):
            cand = WeightVector(np.array([w0, w1]), np.zeros(0))
            obj = erm_objective(inst, gt, cand, 0.0, 0.05)
            if obj < best_obj:
                best, best_obj = (w0, w1), obj
        assert best[0] > best[1]
        ours = erm_objective(inst, gt, w, 0.0, 0.05)
        assert ours <= best_obj + 1e-6

    def test_huge_l1_zeroes_feature_weights(self, rng):
        inst = random_instance(rng, n_features=3)
        labels = {o: inst.domains[o][0] for o in range(inst.n_objects)}
        cfg = LearnConfig(l1_feature_penalty=1e6)
        w, _ = fit_erm_object(inst, GroundTruth(labels), cfg)
        assert np.all(w.feature_weights == 0.0)

    def test_empty_ground_truth_rejected(self, rng):
        inst = random_instance(rng)
        with pytest.raises(ValueError):
            fit_erm_object(inst, GroundTruth({}), LearnConfig())

    def test_label_outside_domain_rejected(self):
        inst = two_source_instance()
        with pytest.raises(Exception):
            fit_erm_object(inst, GroundTruth({0: "zzz"}), LearnConfig())

    def test_convexity_multi_start_agreement(self, rng):
        inst = random_instance(rng, max_sources=5, max_objects=10, n_features=2)
        labels = {o: inst.domains[o][0] for o in range(inst.n_objects)}
        gt = GroundTruth(labels)
        cfg = LearnConfig(l1_feature_penalty=0.02, l2_intercept_penalty=0.05,
                          objective_tol=1e-10, max_inner_iters=3000)
        objs = []
        for i in range(5):
            init_rng = np.random.default_rng(100 + i)
            init = WeightVector(
                init_rng.normal(size=inst.n_sources),
                init_rng.normal(size=inst.n_features),
            )
            w, _ = fit_erm_object(inst, gt, cfg, init=init)
            objs.append(erm_objective(inst, gt, w, 0.02, 0.05))
        assert max(objs) - min(objs) < 1e-5

    def test_permutation_equivariance(self, rng):
        inst = random_instance(rng, max_sources=5, max_objects=12)
        labels = {o: inst.domains[o][0] for o in range(inst.n_objects)}
        cfg = LearnConfig(objective_tol=1e-10, max_inner_iters=2000)
        w, _ = fit_erm_object(inst, GroundTruth(labels), cfg)
        perm = rng.permutation(inst.n_sources)
        remap = np.argsort(perm)  # new index of old source s is remap[s]
        triples = [(o, int(remap[s]), v) for o, s, v in inst.triples()]
        inst_p = FusionInstance.from_triples(
            [inst.sources[p] for p in perm], inst.objects, triples
        )
        w_p, _ = fit_erm_object(inst_p, GroundTruth(labels), cfg)
        np.testing.assert_allclose(
            w_p.source_intercepts, w.source_intercepts[perm], atol=1e-4
        )
        assert map_values(inst_p, w_p, seed=1) == map_values(inst, w, seed=1)


class TestFitErmObservation:
    def make_repeat_instance(self, n_correct, n_total, n_sources=1):
        triples = []
        labels = {}
        for o in range(n_total):
            for s in range(n_sources):
                value = "right" if o < n_correct else "wrong"
                triples.append((o, s, value))
            # a reference source pins both values into every domain
            triples.append((o, n_sources, "right" if o >= n_correct else "wrong"))
            labels[o] = "right"
        inst = FusionInstance.from_triples(
            [f"s{i}" for i in range(n_sources + 1)],
            [f"o{i}" for i in range(n_total)],
            triples,
        )
        return inst, GroundTruth(labels)

    def test_always_correct_source_with_small_ridge(self):
        inst, gt = self.make_repeat_instance(10, 10)
        cfg = LearnConfig(l2_intercept_penalty=0.01, objective_tol=1e-12,
                          max_inner_iters=5000)
        w, _ = fit_erm_observation(inst, gt, cfg)
        a0 = source_accuracies(w, inst.features)[0]
        assert a0 > 0.9
        # scalar brute force: minimize -10 log A(eta) + 0.01 eta^2 over eta
        etas = np.linspace(0, 20, 200001)
        losses = 10 * np.log1p(np.exp(-etas)) + 0.01 * etas**2
        eta_star = etas[np.argmin(losses)]
        assert w.source_intercepts[0] == pytest.approx(eta_star, abs=1e-2)
        assert a0 < 1.0

    def test_half_correct_source_is_half(self):
        inst, gt = self.make_repeat_instance(5, 10)
        cfg = LearnConfig(l2_intercept_penalty=0.0, objective_tol=1e-12,
                          max_inner_iters=2000)
        w, _ = fit_erm_observation(inst, gt, cfg)
        assert w.source_intercepts[0] == pytest.approx(0.0, abs=1e-6)
        assert source_accuracies(w, inst.features)[0] == pytest.approx(0.5, abs=1e-6)

    def test_identical_sources_get_identical_accuracy(self):
        inst, gt = self.make_repeat_instance(7, 10, n_sources=2)
        cfg = LearnConfig(objective_tol=1e-12, max_inner_iters=2000)
        w, _ = fit_erm_observation(inst, gt, cfg)
        acc = source_accuracies(w, inst.features)
        assert acc[0] == pytest.approx(acc[1], abs=1e-9)

    def test_agrees_with_object_erm_under_balanced_references(self):
        # Binary objects where one subject source votes and two balanced
        # reference sources take opposite sides of each other; the reference
        # scores cancel in every candidate difference, so the subject's
        # object loss reduces to its observation-correctness loss and the
        # two ERM variants must fit the same accuracies.
        triples = []
        labels = {}
        for o in range(8):
            subject_correct = o < 6
            r1_correct = o in (0, 1, 2, 6)
            triples.append((o, 0, "a" if subject_correct else "b"))
            triples.append((o, 1, "a" if r1_correct else "b"))
            triples.append((o, 2, "b" if r1_correct else "a"))
            labels[o] = "a"
        inst = FusionInstance.from_triples(
            ["subject", "r1", "r2"], [f"o{i}" for i in range(8)], triples
        )
        gt = GroundTruth(labels)
        cfg = LearnConfig(l2_intercept_penalty=0.01, objective_tol=1e-12,
                          max_inner_iters=5000)
        w_obj, _ = fit_erm_object(inst, gt, cfg)
        w_obs, _ = fit_erm_observation(inst, gt, cfg)
        a_obj = source_accuracies(w_obj, inst.features)
        a_obs = source_accuracies(w_obs, inst.features)
        np.testing.assert_allclose(a_obj, a_obs, atol=1e-3)
        assert map_values(inst, w_obj, seed=1) == map_values(inst, w_obs, seed=1)


    def test_copying_pairs_rejected(self):
        sim = generate(SimConfig(n_sources=10, n_objects=40, density=0.4, seed=2))
        inst = sim.instance.with_pairs([(0, 1)])
        gt = sim.truth.restricted_to_domains(inst)
        with pytest.raises(ValueError, match="fit_erm_object"):
            fit_erm_observation(inst, gt, LearnConfig())


class TestFitBinomial:
    """The proximal Newton solver behind both binomial-loss fits."""

    L2 = 0.01

    @pytest.fixture(scope="class")
    def problem(self):
        sim = generate(
            SimConfig(n_sources=20, n_objects=300, density=0.2,
                      true_weights=(1.5, -0.8, 0.6), seed=4)
        )
        inst = sim.instance
        labels = sim.truth.restricted_to_domains(inst).labels
        gt = GroundTruth(dict(sorted(labels.items())[:60]))
        correct, total = label_correctness_counts(inst, gt.validate(inst))
        return inst, correct, total

    @staticmethod
    def smooth_loss(inst, correct, total, l2):
        """The binomial loss over x = [w_s | w_k] plus the intercept ridge."""
        n_s = inst.n_sources

        def fg(x):
            w, v = x[:n_s], x[n_s:]
            loss, g_eta, _ = _binomial_loss(w + inst.features @ v, correct, total)
            grad = np.concatenate([g_eta + 2.0 * l2 * w, inst.features.T @ g_eta])
            return loss + l2 * float(w @ w), grad

        return fg

    @staticmethod
    def kkt_residual(fg, x, n_s, l1):
        _, g = fg(x)
        v = x[n_s:]
        return max(np.max(np.abs(g[:n_s])),
                   np.max(np.abs(v - _soft_threshold(v - g[n_s:], l1))))

    def lambda_max(self, inst, correct, total):
        # The smallest L1 at which all feature weights are 0: the largest
        # feature gradient at the intercept-only optimum.
        w, diag = _fit_binomial(inst.features[:, :0], correct, total, 0.0,
                                self.L2, np.zeros(inst.n_sources), 100, 1e-12)
        assert diag.converged
        _, g_eta, _ = _binomial_loss(w, correct, total)
        return float(np.max(np.abs(inst.features.T @ g_eta)))

    @pytest.mark.parametrize("l1_kind", ["zero", "small", "above_max"])
    def test_matches_tight_fista(self, problem, l1_kind):
        inst, correct, total = problem
        l1 = {"zero": 0.0, "small": 0.1,
              "above_max": 1.01 * self.lambda_max(inst, correct, total)}[l1_kind]
        layout = _Layout(inst)
        fg = self.smooth_loss(inst, correct, total, self.L2)
        x0 = np.zeros(layout.size)
        tol = 1e-10
        x, diag = _fit_binomial(inst.features, correct, total, l1, self.L2,
                                x0, 100, tol)
        x_ref = fista_reference(fg, x0, l1_vector(layout, l1))

        def objective(z):
            return fg(z)[0] + l1 * float(np.abs(z[layout.n_s:]).sum())

        assert diag.converged
        assert diag.objective == pytest.approx(objective(x), rel=1e-12)
        ref = objective(x_ref)
        assert objective(x) <= ref + 1e-9 * abs(ref)
        bound = tol * max(1.0, float(total.max()))
        assert self.kkt_residual(fg, x, layout.n_s, l1) <= bound
        if l1_kind == "above_max":
            assert np.all(x[layout.n_s:] == 0.0)

    def test_one_step_from_zeros_is_not_converged(self, problem):
        inst, correct, total = problem
        x0 = np.zeros(inst.n_sources + inst.n_features)
        _, diag = _fit_binomial(inst.features, correct, total, 0.1, self.L2,
                                x0, 1, 1e-6)
        assert diag.iterations == 1
        assert not diag.converged

    @pytest.mark.parametrize("l1", [0.0, 0.1])
    def test_no_ridge_gives_finite_weights(self, problem, l1):
        # Without a ridge the Schur block is 0 and sources that are always
        # right (or wrong) have no finite optimum.
        inst, correct, total = problem
        x0 = np.zeros(inst.n_sources + inst.n_features)
        x0[inst.n_sources:] = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, diag = _fit_binomial(inst.features, correct, total, l1, 0.0,
                                    x0, 50, 1e-6)
        assert np.all(np.isfinite(x))
        assert np.isfinite(diag.objective)
        if l1:
            assert np.all(x[inst.n_sources:] == 0.0)
        else:
            np.testing.assert_array_equal(x[inst.n_sources:], 0.5)

    def test_nonfinite_start_rejected(self, problem):
        inst, correct, total = problem
        x0 = np.zeros(inst.n_sources + inst.n_features)
        x0[0] = np.nan
        with pytest.raises(ValueError):
            _fit_binomial(inst.features, correct, total, 0.0, self.L2, x0, 10, 1e-6)


class TestObjectNewton:
    """Proximal Newton on the object loss (`fit_weights` without pairs)."""

    L2 = 0.01
    TOL = 1e-10

    @pytest.fixture(scope="class")
    def problem(self):
        sim = generate(
            SimConfig(n_sources=20, n_objects=300, density=0.2, domain_size=3,
                      true_weights=(1.5, -0.8, 0.6), seed=6)
        )
        inst = sim.instance
        labels = sim.truth.restricted_to_domains(inst).labels
        targets = one_hot_targets(inst, GroundTruth(dict(sorted(labels.items())[:60])))
        return inst, targets

    @staticmethod
    def obj_weight(inst, targets):
        return np.bincount(inst.cand_object, weights=targets,
                           minlength=inst.n_objects)

    def kkt(self, inst, targets, x, l1):
        """The KKT residual at x and the bound `fit_weights` checks it by."""
        layout = _Layout(inst)
        _, g = object_fg(inst, targets, self.L2)(x)
        v = x[layout.n_s:]
        residual = max(np.max(np.abs(g[:layout.n_s])),
                       np.max(np.abs(v - _soft_threshold(v - g[layout.n_s:], l1))))
        labelled_obs = np.bincount(
            inst.obs_source, weights=self.obj_weight(inst, targets)[inst.obs_object]
        )
        return residual, self.TOL * max(1.0, labelled_obs.max())

    def lambda_max(self, inst, targets):
        # The largest feature gradient at the intercept-only optimum.
        cfg = LearnConfig(l1_feature_penalty=1e12, l2_intercept_penalty=self.L2,
                          objective_tol=self.TOL)
        w, diag = fit_weights(inst, targets, cfg)
        assert diag.converged
        _, grad = object_loss_and_grad(inst, targets, w, self.L2)
        return float(np.max(np.abs(grad.feature_weights)))

    @pytest.mark.parametrize("l1_kind", ["zero", "small", "above_max"])
    def test_matches_tight_fista(self, problem, l1_kind):
        inst, targets = problem
        l1 = {"zero": 0.0, "small": 0.1,
              "above_max": 1.01 * self.lambda_max(inst, targets)}[l1_kind]
        cfg = LearnConfig(l1_feature_penalty=l1, l2_intercept_penalty=self.L2,
                          objective_tol=self.TOL, max_inner_iters=100)
        w, diag = fit_weights(inst, targets, cfg)
        layout = _Layout(inst)
        x = layout.pack(w)
        fg = object_fg(inst, targets, self.L2)
        x_ref = fista_reference(fg, np.zeros(layout.size), l1_vector(layout, l1))

        def objective(z):
            return fg(z)[0] + l1 * float(np.abs(z[layout.n_s:]).sum())

        assert diag.converged
        assert diag.objective == pytest.approx(objective(x), rel=1e-12)
        ref = objective(x_ref)
        assert objective(x) <= ref + 1e-9 * abs(ref)
        residual, bound = self.kkt(inst, targets, x, l1)
        assert residual <= bound
        if l1_kind == "above_max":
            assert np.all(w.feature_weights == 0.0)

    def test_curvature_matches_finite_differences(self, problem):
        inst, targets = problem
        # Label mass other than 1 per object, which scales the curvature.
        targets = targets * np.where(inst.cand_object % 2, 1.5, 0.5)
        loss = _object_sigma_loss(inst, targets, self.obj_weight(inst, targets))
        sigma = np.random.default_rng(1).normal(size=inst.n_sources)
        _, _, curv = loss(sigma)
        h = 1e-6
        fd = np.empty_like(curv)
        for s in range(inst.n_sources):
            e = np.zeros(inst.n_sources)
            e[s] = h
            fd[:, s] = (loss(sigma + e)[1] - loss(sigma - e)[1]) / (2 * h)
        np.testing.assert_allclose(curv, fd, atol=1e-7)

    def test_one_step_from_zeros_is_not_converged(self, problem):
        inst, targets = problem
        cfg = LearnConfig(l1_feature_penalty=0.1, max_inner_iters=1)
        _, diag = fit_weights(inst, targets, cfg)
        assert diag.iterations == 1
        assert not diag.converged

    def test_nonfinite_start_rejected(self, problem):
        inst, targets = problem
        loss = _object_sigma_loss(inst, targets, self.obj_weight(inst, targets))
        x0 = np.zeros(inst.n_sources + inst.n_features)
        x0[0] = np.nan
        with pytest.raises(ValueError):
            proximal_fit(x0, loss, inst.features, 0.0, self.L2, 10, 1e-6)

    @pytest.mark.parametrize("l1", [0.0, 0.1])
    def test_no_ridge_with_an_unlabelled_source_gives_finite_weights(
        self, problem, l1
    ):
        # Source 0 observes no labelled object, so its row of the curvature
        # is 0, and without a ridge the intercept block is singular.
        inst, _ = problem
        seen_by_0 = set(inst.obs_object[inst.obs_source == 0].tolist())
        labels = {o: inst.domains[o][0] for o in range(inst.n_objects)
                  if o not in seen_by_0}
        targets = one_hot_targets(inst, GroundTruth(dict(sorted(labels.items())[:60])))
        assert self.obj_weight(inst, targets)[list(seen_by_0)].sum() == 0
        cfg = LearnConfig(l1_feature_penalty=l1, l2_intercept_penalty=0.0,
                          max_inner_iters=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, diag = fit_weights(inst, targets, cfg)
        assert np.all(np.isfinite(w.source_intercepts))
        assert np.all(np.isfinite(w.feature_weights))
        assert np.isfinite(diag.objective)


class TestCopyingPairFit:
    """`fit_weights` with copying-pair weights: proximal Newton whose
    curvature is an operator, on the same KKT bound as every other fit."""

    @staticmethod
    def kkt(inst, targets, w, cfg):
        """The KKT residual at w, from `object_loss_and_grad`, and the bound
        `fit_weights` checks it by."""
        _, g = object_loss_and_grad(inst, targets, w, cfg.l2_intercept_penalty)
        v = w.feature_weights
        l1 = cfg.l1_feature_penalty
        residual = max(
            np.max(np.abs(g.source_intercepts)),
            max(abs(g.pair_weights[p]) for p in inst.pairs),
            np.max(np.abs(v - _soft_threshold(v - g.feature_weights, l1))),
        )
        obj_weight = np.bincount(inst.cand_object, weights=targets,
                                 minlength=inst.n_objects)
        labelled_obs = np.bincount(inst.obs_source,
                                   weights=obj_weight[inst.obs_object])
        return residual, cfg.objective_tol * max(1.0, labelled_obs.max())

    @pytest.mark.parametrize("n_sources,n_objects,seed",
                             [(20, 300, 1), (30, 400, 3), (25, 300, 5)])
    @pytest.mark.parametrize("l1", [0.0, 0.1])
    def test_converged_passes_the_kkt_bound(self, n_sources, n_objects, seed, l1):
        sim = generate(SimConfig(n_sources=n_sources, n_objects=n_objects,
                                 density=0.2, true_weights=(1.5, -0.8, 0.6),
                                 seed=seed))
        inst = add_copying_features(sim.instance, min_overlap=5)
        assert inst.pairs
        labels = sim.truth.restricted_to_domains(inst).labels
        keys = sorted(labels)[: len(labels) // 10]
        targets = one_hot_targets(inst, GroundTruth({o: labels[o] for o in keys}))
        cfg = LearnConfig(l1_feature_penalty=l1)
        w, diag = fit_weights(inst, targets, cfg)
        residual, bound = self.kkt(inst, targets, w, cfg)
        assert diag.converged
        assert residual <= bound

    def test_default_cap_suffices_at_benchmark_scale(self):
        # The erm-labeled shape with about 9.4k copying pairs. Accelerated
        # proximal gradient needed about 1 300 steps here and stopped at
        # the 500-step cap with converged=False.
        sim = generate(SimConfig(n_sources=200, n_objects=5000, density=0.03,
                                 true_weights=(1.5, -0.8, 0.6), seed=1))
        inst = add_copying_features(sim.instance, min_overlap=5)
        assert 9000 < len(inst.pairs) < 10000
        labels = sim.truth.restricted_to_domains(inst).labels
        targets = one_hot_targets(
            inst, GroundTruth({o: labels[o] for o in sorted(labels)[:500]})
        )
        cfg = LearnConfig(l1_feature_penalty=0.1)
        w, diag = fit_weights(inst, targets, cfg)
        assert diag.converged and diag.iterations < cfg.max_inner_iters
        residual, bound = self.kkt(inst, targets, w, cfg)
        assert residual <= bound

    def test_curvature_operator_matches_finite_differences(self):
        sim = generate(SimConfig(n_sources=15, n_objects=200, density=0.3,
                                 domain_size=3, true_weights=(1.5, -0.8),
                                 seed=2))
        inst = add_copying_features(sim.instance, min_overlap=5)
        labels = sim.truth.restricted_to_domains(inst).labels
        targets = one_hot_targets(
            inst, GroundTruth({o: labels[o] for o in sorted(labels)[:80]})
        )
        # Label mass other than 1 per object, which scales the curvature.
        targets = targets * np.where(inst.cand_object % 2, 1.5, 0.5)
        obj_weight = np.bincount(inst.cand_object, weights=targets,
                                 minlength=inst.n_objects)
        loss = _object_sigma_loss(inst, targets, obj_weight)
        n_u = inst.n_sources + len(inst.pairs)
        u = np.random.default_rng(3).normal(size=n_u)
        _, _, curv = loss(u)
        h = 1e-6
        dense = np.column_stack([curv.matvec(e) for e in np.eye(n_u)])
        fd = np.column_stack([
            (loss(u + h * e)[1] - loss(u - h * e)[1]) / (2 * h) for e in np.eye(n_u)
        ])
        np.testing.assert_allclose(dense, fd, atol=1e-7)
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        np.testing.assert_allclose(curv.diagonal, np.diag(dense), atol=1e-12)


@pytest.fixture
def proximal_fit_calls(monkeypatch):
    """Wrap `proximal_fit` as the benchmark's tracer does: in every
    trustfuse module that holds it, by a wrapper shaped (x0, loss, *args)
    that counts calls of its second argument. Records, per call, the loss
    evaluations and the Newton steps."""
    calls = []

    def wrapper(x0, loss, *args, **kwargs):
        evals = 0

        def counted(u):
            nonlocal evals
            evals += 1
            return loss(u)

        x, diag = proximal_fit(x0, counted, *args, **kwargs)
        calls.append((evals, diag.iterations))
        return x, diag

    for name, module in list(sys.modules.items()):
        held = vars(module).get("proximal_fit")
        if name.startswith("trustfuse.") and held is proximal_fit:
            monkeypatch.setattr(module, "proximal_fit", wrapper)
    return calls


class TestEveryFitIsProximalFit:
    @pytest.fixture(scope="class")
    def sim(self):
        return generate(SimConfig(n_sources=20, n_objects=300, density=0.2,
                                  true_weights=(1.5, -0.8, 0.6), seed=7))

    @staticmethod
    def some_labels(sim, n=60):
        labels = sim.truth.restricted_to_domains(sim.instance).labels
        return GroundTruth(dict(sorted(labels.items())[:n]))

    @pytest.mark.parametrize("pairs", [False, True])
    def test_object_erm(self, sim, proximal_fit_calls, pairs):
        inst = add_copying_features(sim.instance) if pairs else sim.instance
        assert bool(inst.pairs) == pairs
        cfg = LearnConfig(l1_feature_penalty=0.1)
        _, diag = fit_erm_object(inst, self.some_labels(sim), cfg)
        assert [steps for _, steps in proximal_fit_calls] == [diag.iterations]
        assert proximal_fit_calls[0][0] > diag.iterations > 0

    def test_observation_erm(self, sim, proximal_fit_calls):
        labels = self.some_labels(sim)
        _, diag = fit_erm_observation(sim.instance, labels, LearnConfig())
        assert [steps for _, steps in proximal_fit_calls] == [diag.iterations]
        assert proximal_fit_calls[0][0] > diag.iterations > 0

    def test_em_once_per_outer_iteration(self, sim, proximal_fit_calls):
        _, _, diag = fit_em(sim.instance, self.some_labels(sim, 5), LearnConfig())
        assert len(proximal_fit_calls) == diag.iterations > 1
        assert all(evals > 0 for evals, _ in proximal_fit_calls)

    def test_lasso_path(self, sim, proximal_fit_calls):
        lasso_path(sim.instance, self.some_labels(sim), 4, LearnConfig())
        # The intercept-only fit, then one fit per grid point after the first.
        assert len(proximal_fit_calls) == 4

    def test_pair_estimator(self, proximal_fit_calls):
        sim = generate(SimConfig(n_sources=10, n_objects=500, pair_sampling=True,
                                 true_weights=(2.0, 1.0), seed=3))
        estimate_pair_state(sim.instance, 0.1, LearnConfig())
        assert len(proximal_fit_calls) == 1
        assert proximal_fit_calls[0][0] > 0


def test_import_loads_no_scipy():
    # trustfuse runs on numpy alone: scipy.special by itself adds about 17 MB
    # to the peak resident size of a process that runs `fuse`.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, trustfuse, trustfuse.cli; sys.exit(any("
        "m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestFitWeights:
    def test_zero_iterations_returns_init(self, rng):
        inst = random_instance(rng, n_features=2)
        init = random_weights(rng, inst)
        targets = one_hot_targets(
            inst, GroundTruth({0: inst.domains[0][0]})
        )
        cfg = LearnConfig(max_inner_iters=0)
        w, diag = fit_weights(inst, targets, cfg, init=init)
        np.testing.assert_array_equal(w.source_intercepts, init.source_intercepts)
        np.testing.assert_array_equal(w.feature_weights, init.feature_weights)
        assert diag.iterations == 0

    @pytest.mark.parametrize("kind", ["object", "observation"])
    def test_gradient_matches_finite_differences(self, rng, kind):
        inst = random_instance(rng, max_sources=4, max_objects=6, n_features=2)
        labels = {o: inst.domains[o][0] for o in range(inst.n_objects)}
        gt = GroundTruth(labels)
        targets = one_hot_targets(inst, gt)
        w0 = WeightVector.zeros(inst)
        if kind == "object":
            f, g = object_loss_and_grad(inst, targets, w0, l2=0.01)
        else:
            f, g = observation_loss_and_grad(inst, gt, w0, l2=0.01)
        h = 1e-5
        for s in range(inst.n_sources):
            e = np.zeros(inst.n_sources)
            e[s] = h
            wp = WeightVector(w0.source_intercepts + e, w0.feature_weights)
            wm = WeightVector(w0.source_intercepts - e, w0.feature_weights)
            if kind == "object":
                fp, _ = object_loss_and_grad(inst, targets, wp, l2=0.01)
                fm, _ = object_loss_and_grad(inst, targets, wm, l2=0.01)
            else:
                fp, _ = observation_loss_and_grad(inst, gt, wp, l2=0.01)
                fm, _ = observation_loss_and_grad(inst, gt, wm, l2=0.01)
            fd = (fp - fm) / (2 * h)
            assert g.source_intercepts[s] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_doubling_ridge_shrinks_intercepts(self, rng):
        inst = random_instance(rng, max_sources=5, max_objects=10)
        labels = {o: inst.domains[o][0] for o in range(inst.n_objects)}
        gt = GroundTruth(labels)
        norms = []
        for l2 in (0.1, 0.2):
            cfg = LearnConfig(l2_intercept_penalty=l2, objective_tol=1e-12,
                              max_inner_iters=3000)
            w, _ = fit_erm_object(inst, gt, cfg)
            norms.append(float(np.linalg.norm(w.source_intercepts)))
        assert norms[1] <= norms[0] + 1e-9

    def test_nonfinite_init_rejected(self, rng):
        inst = random_instance(rng)
        targets = one_hot_targets(inst, GroundTruth({0: inst.domains[0][0]}))
        with pytest.raises(ValueError):
            WeightVector(np.full(inst.n_sources, np.nan), np.zeros(0))
        # targets covering no object also rejected
        with pytest.raises(ValueError):
            fit_weights(inst, np.zeros(inst.n_candidates), LearnConfig())


class TestFitEm:
    def test_fully_labeled_reduces_to_erm(self, rng):
        sim = generate(SimConfig(n_sources=10, n_objects=30, density=0.4, seed=5))
        inst = sim.instance
        gt = sim.truth.restricted_to_domains(inst)
        cfg = LearnConfig(objective_tol=1e-10, max_inner_iters=3000, seed=5)
        w_em, _, diag = fit_em(inst, gt, cfg)
        # EM's M-step is the observation loss, and with every object
        # labelled its expected counts are the labelled counts.
        w_erm, _ = fit_erm_observation(inst, gt, cfg)
        np.testing.assert_allclose(
            w_em.source_intercepts, w_erm.source_intercepts, atol=1e-6
        )
        assert diag.converged
        assert diag.iterations == 1

    def test_unsupervised_recovery_on_sparse_binary(self):
        sim = generate(
            SimConfig(
                n_sources=200, n_objects=500, density=0.02,
                accuracy_mean=0.80, accuracy_spread=0.15, seed=11,
            )
        )
        inst = sim.instance
        cfg = LearnConfig(seed=11, max_inner_iters=200)
        w, _, diag = fit_em(inst, GroundTruth({}), cfg)
        values = map_values(inst, w, seed=11)
        truth = truth_by_name(inst, sim.truth)
        correct = sum(values[o] == truth[o] for o in truth) / len(truth)
        assert correct > 0.85
        assert diag.converged

    def test_soft_em_free_energy_non_decreasing(self):
        sim = generate(
            SimConfig(n_sources=40, n_objects=120, density=0.1,
                      accuracy_mean=0.75, accuracy_spread=0.1, seed=3)
        )
        inst = sim.instance
        gt = sim.truth.restricted_to_domains(inst)
        few = GroundTruth(dict(list(gt.labels.items())[:5]))
        cfg = LearnConfig(seed=3, max_outer_iters=15)
        _, _, diag = fit_em(inst, few, cfg)
        hist = np.array(diag.history)
        assert hist.size >= 2
        assert np.all(np.diff(hist) >= -1e-8)

    @pytest.mark.parametrize("domain", [2, 3, 5])
    def test_unsupervised_accuracies_on_multi_valued_domains(self, domain):
        sim = generate(
            SimConfig(n_sources=100, n_objects=1000, density=0.05,
                      domain_size=domain, true_weights=(1.5, -0.8, 0.6),
                      seed=domain)
        )
        inst = sim.instance
        w, table, diag = fit_em(inst, GroundTruth({}), LearnConfig(seed=domain))
        acc = source_accuracies(w, inst.features)
        est = {name: float(acc[s]) for s, name in enumerate(inst.sources)}
        assert weighted_accuracy_error(est, inst, sim.truth) <= 0.1
        truth = truth_by_name(inst, sim.truth)

        def n_correct(values):
            return sum(values[o] == truth[o] for o in truth)

        rng = np.random.default_rng(domain)
        em_values = argmax_with_ties(table.probs, inst, rng)
        assert n_correct(em_values) >= n_correct(majority_vote(inst, seed=domain))
        assert diag.converged
        # EM's posterior is the model's posterior at EM's weights.
        assert np.array_equal(posterior_all(inst, w).probs, table.probs)
        assert map_values(inst, w, seed=domain) == em_values

    def test_copying_pairs_rejected(self):
        sim = generate(SimConfig(n_sources=10, n_objects=40, density=0.4, seed=2))
        inst = sim.instance.with_pairs([(0, 1)])
        with pytest.raises(ValueError, match="fit_erm_object"):
            fit_em(inst, GroundTruth({}), LearnConfig())

    def test_logs_each_outer_iteration(self, caplog):
        sim = generate(SimConfig(n_sources=20, n_objects=60, density=0.2, seed=9))
        with caplog.at_level(logging.DEBUG, logger="trustfuse"):
            _, _, diag = fit_em(sim.instance, GroundTruth({}), LearnConfig(seed=9))
        lines = [r.getMessage() for r in caplog.records if r.name == "trustfuse"]
        assert len(lines) == diag.iterations > 1
        for i, (line, value) in enumerate(zip(lines, diag.history), start=1):
            assert line.startswith(f"EM iteration {i}: log-likelihood {value:.10g}, ")
            assert ("relative change nan" in line) == (i == 1)
            assert "Newton steps, converged=True" in line

    def test_hard_em_termination_is_flagged(self):
        sim = generate(SimConfig(n_sources=20, n_objects=60, density=0.2, seed=9))
        cfg = LearnConfig(seed=9, max_outer_iters=50)
        _, _, diag = fit_em(sim.instance, GroundTruth({}), cfg)
        assert diag.converged or diag.iterations == 50

    def test_l1_path_sparsity_monotone(self, rng):
        sim = generate(
            SimConfig(n_sources=30, n_objects=100, density=0.2,
                      true_weights=(1.5, 0.0, -1.0, 0.0), seed=21)
        )
        inst = sim.instance
        gt = sim.truth.restricted_to_domains(inst)
        zero_sets = []
        for l1 in (0.01, 0.1, 1.0, 10.0):
            cfg = LearnConfig(l1_feature_penalty=l1, objective_tol=1e-10,
                              max_inner_iters=2000)
            w, _ = fit_erm_object(inst, gt, cfg)
            zero_sets.append(frozenset(np.flatnonzero(np.abs(w.feature_weights) <= 1e-8)))
        for smaller, larger in zip(zero_sets, zero_sets[1:]):
            assert smaller <= larger
