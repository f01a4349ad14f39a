"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
pytest capture) so a full run doubles as an acceptance report.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from trustfuse import (
    FusionInstance,
    GroundTruth,
    LearnConfig,
    WeightVector,
    counts_fit,
    counts_infer,
    decide,
    em_units,
    estimate_avg_accuracy,
    estimate_pair_state,
    fit_em,
    fit_erm_object,
    fit_erm_observation,
    lasso_path,
    majority_vote,
    map_values,
    posterior_all,
    predict_new_source_accuracy,
    source_accuracies,
    weighted_accuracy_error,
    write_instance,
)
from trustfuse.cli import main
from trustfuse.learning import (
    object_loss_and_grad,
    observation_loss_and_grad,
    one_hot_targets,
)
from trustfuse.optimizer import majority_success_probability, _entropy_bits
from trustfuse.simulation import SimConfig, generate

from conftest import brute_force_posterior, random_instance, random_weights


@pytest.fixture
def report(capfd):
    def _report(n, ok, desc, detail=""):
        with capfd.disabled():
            status = "PASS" if ok else "FAIL"
            extra = f" ({detail})" if detail else ""
            print(f"[acceptance {n:2d}] {status}: {desc}{extra}")
        assert ok, f"criterion {n} failed: {desc} {detail}"

    return _report


# ---------------------------------------------------------------------------
# helpers shared by the trend/optimizer criteria
# ---------------------------------------------------------------------------


def subset_gt(sim, frac, seed):
    """A seeded random fraction of the loadable ground truth."""
    labeled = sim.truth.restricted_to_domains(sim.instance)
    keys = sorted(labeled.labels)
    rng = np.random.default_rng(seed + 99)
    n = max(1, int(round(frac * len(keys))))
    pick = rng.choice(len(keys), size=n, replace=False)
    return GroundTruth({keys[i]: labeled.labels[keys[i]] for i in pick})


def object_accuracy_vs_truth(sim, inst, w, gt, seed):
    """Accuracy against the full simulated truth, labels clamped."""
    values = map_values(inst, w, seed=seed)
    for o, v in gt.labels.items():
        values[inst.objects[o]] = v
    return float(np.mean(
        [values[inst.objects[o]] == v for o, v in sim.truth.labels.items()]
    ))


def restrict_sources(inst, keep):
    """Sub-instance over a source subset; objects left empty are dropped."""
    keep = sorted(set(keep))
    keep_set = set(keep)
    triples = [(o, s, v) for o, s, v in inst.triples() if s in keep_set]
    obj_seen = sorted({o for o, _, _ in triples})
    omap = {o: i for i, o in enumerate(obj_seen)}
    smap = {s: i for i, s in enumerate(keep)}
    sub = FusionInstance.from_triples(
        [inst.sources[s] for s in keep],
        [inst.objects[o] for o in obj_seen],
        [(omap[o], smap[s], v) for o, s, v in triples],
        features=inst.features[keep],
        feature_names=inst.feature_names,
    )
    return sub, omap


def binary_kl(p, q):
    p = np.clip(p, 1e-9, 1 - 1e-9)
    q = np.clip(q, 1e-9, 1 - 1e-9)
    return p * np.log(p / q) + (1 - p) * np.log((1 - p) / (1 - q))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_01_worked_units_example(report):
    majority_success_probability(10, 2, 0.7)  # warm up
    t0 = time.perf_counter()
    p_e = majority_success_probability(10, 2, 0.7)
    entropy = _entropy_bits(p_e)
    contribution = 10 * (1 - entropy)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(p_e - 0.8497) < 5e-4
        and abs(entropy - 0.611) < 5e-4
        and abs(contribution - 3.89) < 5e-3
        and elapsed < 1e-3
    )
    report(1, ok, "per-object information units match the worked example",
           f"p_e={p_e:.4f} H={entropy:.4f} units={contribution:.3f} "
           f"t={elapsed * 1e6:.0f}us")


def test_02_posterior_brute_force(report):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    max_err = 0.0
    max_row_err = 0.0
    for _ in range(100):
        inst = random_instance(rng, n_features=int(rng.integers(0, 3)))
        w = random_weights(rng, inst)
        post = posterior_all(inst, w)
        for o in range(inst.n_objects):
            row = post.row(o)
            ref = brute_force_posterior(inst, w, o)
            max_err = max(max_err, float(np.max(np.abs(row - ref))))
            max_row_err = max(max_row_err, abs(float(np.sum(row)) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = max_err < 1e-12 and max_row_err < 1e-9 and elapsed < 1.0
    report(2, ok, "posteriors match brute-force enumeration on 100 instances",
           f"max_err={max_err:.2e} row_err={max_row_err:.2e} t={elapsed:.2f}s")


def test_03_gradient_finite_differences(report):
    rng = np.random.default_rng(7)
    sim = generate(SimConfig(n_sources=10, n_objects=20, density=0.4,
                             true_weights=(1.0, -0.5, 0.3), seed=7))
    inst = sim.instance.with_pairs([(0, 1), (2, 3)])
    gt = sim.truth.restricted_to_domains(inst)
    # soft targets for the EM M-step objective: random per-object simplexes
    q = np.exp(rng.normal(size=inst.n_candidates))
    for o in range(inst.n_objects):
        lo, hi = inst.cand_offsets[o], inst.cand_offsets[o] + inst.cand_counts[o]
        q[lo:hi] /= q[lo:hi].sum()
    hard = one_hot_targets(inst, gt)
    h = 1e-5
    t0 = time.perf_counter()
    max_rel = 0.0

    def check(loss_at, grad_vec):
        nonlocal max_rel
        for i in range(grad_vec.size):
            fd = (loss_at(i, h) - loss_at(i, -h)) / (2 * h)
            rel = abs(grad_vec[i] - fd) / max(1.0, abs(fd))
            max_rel = max(max_rel, rel)

    for _ in range(20):
        w = random_weights(rng, inst)
        pk = sorted(w.pair_weights)

        def perturbed(kind, i, eps):
            si = w.source_intercepts.copy()
            fw = w.feature_weights.copy()
            pw = dict(w.pair_weights)
            if kind == "s":
                si[i] += eps
            elif kind == "f":
                fw[i] += eps
            else:
                pw[pk[i]] += eps
            return WeightVector(si, fw, pw)

        for targets in (hard, q):
            _, g = object_loss_and_grad(inst, targets, w, l2=0.01)
            for kind, vec in (("s", g.source_intercepts),
                              ("f", g.feature_weights),
                              ("p", np.array([g.pair_weights[p] for p in pk]))):
                check(lambda i, eps, k=kind, t=targets:
                      object_loss_and_grad(inst, t, perturbed(k, i, eps),
                                           l2=0.01)[0], vec)
        _, g = observation_loss_and_grad(inst, gt, w, l2=0.01)
        for kind, vec in (("s", g.source_intercepts),
                          ("f", g.feature_weights)):
            check(lambda i, eps, k=kind:
                  observation_loss_and_grad(inst, gt, perturbed(k, i, eps),
                                            l2=0.01)[0], vec)
    elapsed = time.perf_counter() - t0
    ok = max_rel < 1e-5 and elapsed < 5.0
    report(3, ok, "analytic gradients match central finite differences",
           f"max_rel={max_rel:.2e} t={elapsed:.1f}s")


def test_04_soft_em_monotone(report):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        sim = generate(SimConfig(n_sources=30, n_objects=80, density=0.15,
                                 accuracy_mean=0.75, seed=seed))
        cfg = LearnConfig(seed=seed)
        _, _, diag = fit_em(sim.instance, GroundTruth({}), cfg)
        drops = np.diff(np.asarray(diag.history))
        if drops.size:
            worst = max(worst, float(-drops.min()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(4, ok, "soft-EM free energy never decreases across outer iterations",
           f"worst_drop={worst:.2e} t={elapsed:.1f}s")


def test_05_erm_error_scaling(report):
    t0 = time.perf_counter()

    def run(seed, n_g):
        sim = generate(SimConfig(n_sources=200, n_objects=2000, density=0.05,
                                 true_weights=(1.5, -1.0, 0.8, -0.6, 0.4),
                                 feature_density=0.5, seed=seed))
        inst = sim.instance
        labeled = sim.truth.restricted_to_domains(inst)
        keys = sorted(labeled.labels)
        rng = np.random.default_rng(seed + 777)
        pick = rng.choice(len(keys), size=n_g, replace=False)
        gt = GroundTruth({keys[i]: labeled.labels[keys[i]] for i in pick})
        w, _ = fit_erm_observation(inst, gt, LearnConfig())
        acc = source_accuracies(w, inst.features)
        est = {inst.sources[s]: float(acc[s]) for s in range(inst.n_sources)}
        return weighted_accuracy_error(est, inst, sim.truth)

    ratios = [run(seed, 50) / run(seed, 800) for seed in range(5)]
    mean_ratio = float(np.mean(ratios))
    elapsed = time.perf_counter() - t0
    ok = 2.0 <= mean_ratio <= 6.0 and elapsed < 120.0
    report(5, ok, "accuracy-estimation error shrinks with labeled sample size",
           f"ratio={mean_ratio:.2f} t={elapsed:.1f}s")


def test_06_avg_accuracy_estimator(report):
    t0 = time.perf_counter()
    worst = 0.0
    for a in (0.6, 0.7, 0.8, 0.9):
        for seed in range(5):
            sim = generate(SimConfig(n_sources=100, n_objects=1000, density=0.1,
                                     accuracy_mean=a, seed=seed))
            worst = max(worst, abs(estimate_avg_accuracy(sim.instance) - a))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and elapsed < 60.0
    report(6, ok, "agreement-based average accuracy within 0.05 of truth",
           f"worst_abs_err={worst:.3f} t={elapsed:.1f}s")


def test_07_density_and_accuracy_trends(report):
    t0 = time.perf_counter()
    densities = (0.005, 0.01, 0.02, 0.04)

    def em_acc(sim, frac, seed):
        gt = subset_gt(sim, frac, seed)
        w, _, _ = fit_em(sim.instance, gt, LearnConfig(seed=seed))
        return object_accuracy_vs_truth(sim, sim.instance, w, gt, seed)

    def erm_acc(sim, frac, seed):
        gt = subset_gt(sim, frac, seed)
        w, _ = fit_erm_object(sim.instance, gt, LearnConfig(seed=seed))
        return object_accuracy_vs_truth(sim, sim.instance, w, gt, seed)

    em_by_density = [
        np.mean([em_acc(generate(SimConfig(n_sources=200, n_objects=500,
                                           density=d, accuracy_mean=0.8,
                                           seed=s)), 0.01, s)
                 for s in range(5)])
        for d in densities
    ]
    rho_a = stats.spearmanr(densities, em_by_density).statistic

    acc_grid = (0.55, 0.65, 0.75, 0.85)
    em_by_acc = [
        np.mean([em_acc(generate(SimConfig(n_sources=200, n_objects=500,
                                           density=0.02, accuracy_mean=a,
                                           seed=s)), 0.01, s)
                 for s in range(5)])
        for a in acc_grid
    ]
    rho_b = stats.spearmanr(acc_grid, em_by_acc).statistic

    erm_by_density = [
        np.mean([erm_acc(generate(SimConfig(n_sources=200, n_objects=500,
                                            density=d, accuracy_mean=0.95,
                                            seed=s)), 0.05, s)
                 for s in range(5)])
        for d in densities
    ]
    spread = max(erm_by_density) - min(erm_by_density)
    elapsed = time.perf_counter() - t0
    ok = rho_a >= 0.8 and rho_b >= 0.8 and spread < 0.05 and elapsed < 600.0
    report(7, ok, "unsupervised accuracy rises with density and source quality;"
           " supervised accuracy stays flat",
           f"rho_density={rho_a:.2f} rho_accuracy={rho_b:.2f} "
           f"erm_spread={spread:.3f} t={elapsed:.0f}s")


def test_08_optimizer_agreement(report):
    t0 = time.perf_counter()
    match = 0
    total = 0
    max_loss = 0.0
    for d in (0.05, 0.075, 0.1):
        for am in (0.7, 0.8, 0.9):
            for frac in (0.01, 0.05, 0.1):
                for seed in range(3):
                    sim = generate(SimConfig(n_sources=150, n_objects=300,
                                             density=d, accuracy_mean=am,
                                             seed=seed))
                    inst = sim.instance
                    gt = subset_gt(sim, frac, seed)
                    dec = decide(inst, gt, tau=0.1, n_features=4)
                    cfg = LearnConfig(seed=seed)
                    w_erm, _ = fit_erm_object(inst, gt, cfg)
                    w_em, _, _ = fit_em(inst, gt, cfg)
                    a_erm = object_accuracy_vs_truth(sim, inst, w_erm, gt, seed)
                    a_em = object_accuracy_vs_truth(sim, inst, w_em, gt, seed)
                    best = "ERM" if a_erm >= a_em else "EM"
                    total += 1
                    if dec.choice == best or a_erm == a_em:
                        match += 1
                    else:
                        max_loss = max(max_loss, abs(a_erm - a_em))
    elapsed = time.perf_counter() - t0
    rate = match / total
    ok = rate >= 0.75 and max_loss <= 0.05 and elapsed < 900.0
    report(8, ok, "algorithm choice matches the empirically better learner",
           f"match={rate:.2f} max_mismatch_loss={max_loss:.3f} t={elapsed:.0f}s")


def test_09_lasso_sparsity(report):
    t0 = time.perf_counter()
    weights = (2.0, -1.5) + (0.0,) * 8
    zero_at_max = True
    ordered_seeds = 0
    for seed in range(5):
        sim = generate(SimConfig(n_sources=60, n_objects=400, density=0.15,
                                 true_weights=weights, seed=seed))
        gt = sim.truth.restricted_to_domains(sim.instance)
        path = lasso_path(sim.instance, gt, grid_size=25, config=LearnConfig())
        zero_at_max &= bool(np.all(path.weights[0] == 0.0))

        def first_active(k):
            nz = np.flatnonzero(np.abs(path.weights[:, k]) > 1e-8)
            return int(nz[0]) if nz.size else path.grid.size

        informative = max(first_active(0), first_active(1))
        junk = min(first_active(k) for k in range(2, 10))
        if informative < junk:
            ordered_seeds += 1
    elapsed = time.perf_counter() - t0
    ok = zero_at_max and ordered_seeds >= 4 and elapsed < 120.0
    report(9, ok, "penalty path activates informative features first",
           f"zero_at_lambda_max={zero_at_max} ordered={ordered_seeds}/5 "
           f"t={elapsed:.0f}s")


def test_10_cold_start(report):
    t0 = time.perf_counter()
    fractions = (0.25, 0.5, 0.75)
    errs = np.zeros((5, 3))
    below_baseline = True
    for seed in range(5):
        sim = generate(SimConfig(n_sources=120, n_objects=800, density=0.1,
                                 true_weights=(2.0, -1.2, 0.7, -0.4),
                                 seed=seed))
        inst = sim.instance
        n = inst.n_sources
        rng = np.random.default_rng(seed + 321)
        order = rng.permutation(n)
        held = order[:n // 4]
        for j, r in enumerate(fractions):
            revealed = order[n // 4: n // 4 + int(round(r * n))]
            sub, omap = restrict_sources(inst, revealed.tolist())
            loadable = sim.truth.restricted_to_domains(inst)
            gt = GroundTruth({omap[o]: v for o, v in loadable.labels.items()
                              if o in omap and v in sub.domains[omap[o]]})
            w, _ = fit_erm_observation(sub, gt, LearnConfig())
            pred = np.array([predict_new_source_accuracy(w, inst.features[s])
                             for s in held])
            errs[seed, j] = np.mean(np.abs(pred - sim.true_accuracies[held]))
        baseline = float(np.mean(np.abs(0.5 - sim.true_accuracies[held])))
        below_baseline &= bool(np.all(errs[seed] < baseline))
    mean_errs = errs.mean(axis=0)
    monotone = bool(np.all(np.diff(mean_errs) <= 1e-12))
    elapsed = time.perf_counter() - t0
    ok = below_baseline and monotone and elapsed < 120.0
    report(10, ok, "held-out source accuracy predicted from features alone",
           f"errs={np.round(mean_errs, 3).tolist()} t={elapsed:.0f}s")


def test_11_pairwise_estimator(report):
    t0 = time.perf_counter()
    rel_ok = True
    kl_small = []
    kl_large = []
    for seed in range(5):
        per_size = {}
        for n_o in (1250, 5000):
            sim = generate(SimConfig(n_sources=50, n_objects=n_o,
                                     pair_sampling=True,
                                     true_weights=(0.5, 0.8, 0.9),
                                     feature_density=0.5, seed=seed))
            state = estimate_pair_state(sim.instance, LearnConfig(seed=seed))
            est = np.array([state.accuracies[f"s{s}"] for s in range(50)])
            per_size[n_o] = (state, est, sim.true_accuracies)
        state, est, true_acc = per_size[5000]
        true_ae = float(np.sum(2 * true_acc - 1))
        rel_ok &= abs(state.a_e_hat - true_ae) / true_ae <= 0.2
        kl_large.append(float(np.mean(binary_kl(per_size[5000][1],
                                                per_size[5000][2]))))
        kl_small.append(float(np.mean(binary_kl(per_size[1250][1],
                                                per_size[1250][2]))))
    elapsed = time.perf_counter() - t0
    ok = rel_ok and np.mean(kl_large) < np.mean(kl_small) and elapsed < 120.0
    report(11, ok, "agreement-only accuracy estimates improve with more objects",
           f"kl@1250={np.mean(kl_small):.4f} kl@5000={np.mean(kl_large):.4f} "
           f"t={elapsed:.0f}s")


def test_12_baseline_identities(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    identical = True
    fractions_exact = True
    for trial in range(20):
        inst = random_instance(rng, max_sources=8, max_objects=12)
        acc = {name: 0.7 for name in inst.sources}
        seed = trial
        identical &= counts_infer(inst, acc, seed=seed) == \
            majority_vote(inst, seed=seed)
        gt = GroundTruth({o: inst.domains[o][int(rng.integers(len(inst.domains[o])))]
                          for o in range(inst.n_objects)})
        fitted = counts_fit(inst, gt, smoothing=0.0)
        correct = {name: 0 for name in inst.sources}
        total = {name: 0 for name in inst.sources}
        for o, s, v in inst.triples():
            total[inst.sources[s]] += 1
            correct[inst.sources[s]] += v == gt.labels[o]
        for name in inst.sources:
            expected = correct[name] / total[name] if total[name] else 0.5
            fractions_exact &= abs(fitted[name] - expected) < 1e-15
    elapsed = time.perf_counter() - t0
    ok = identical and fractions_exact and elapsed < 1.0
    report(12, ok, "counts baseline degenerates to majority vote and exact "
           "fractions", f"t={elapsed:.2f}s")


def test_13_copying_extension(report):
    t0 = time.perf_counter()
    all_ok = True
    pair_ws = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n_objects = 500
        triples = []
        for o in range(n_objects):
            clone_v = "b" if rng.random() < 0.6 else "a"
            indep_v = "a" if rng.random() < 0.9 else "b"
            triples += [(o, 0, clone_v), (o, 1, clone_v), (o, 2, indep_v)]
        inst = FusionInstance.from_triples(
            ["c0", "c1", "ind"], [f"o{i}" for i in range(n_objects)], triples)
        labeled = rng.choice(n_objects, size=n_objects // 5, replace=False)
        gt = GroundTruth({int(o): "a" for o in labeled
                          if "a" in inst.domains[int(o)]})
        truth = {o: "a" for o in range(n_objects)}
        cfg = LearnConfig(l2_intercept_penalty=0.01, seed=seed)

        def accuracy(instance, w):
            values = map_values(instance, w, seed=seed)
            for o, v in gt.labels.items():
                values[instance.objects[o]] = v
            return float(np.mean(
                [values[instance.objects[o]] == v for o, v in truth.items()]
            ))

        w_plain, _ = fit_erm_object(inst, gt, cfg)
        ext = inst.with_pairs([(0, 1)])
        w_ext, _ = fit_erm_object(ext, gt, cfg)
        pair_w = w_ext.pair_weights[(0, 1)]
        pair_ws.append(pair_w)
        all_ok &= pair_w > 0 and accuracy(ext, w_ext) >= accuracy(inst, w_plain)
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 120.0
    report(13, ok, "colluding-pair weight is positive and never hurts accuracy",
           f"pair_weights={np.round(pair_ws, 2).tolist()} t={elapsed:.0f}s")


def test_14_command_determinism(report, tmp_path):
    t0 = time.perf_counter()

    def run(*argv):
        return main([str(a) for a in argv])

    ok = True
    # simulate twice into separate directories
    for d in ("simA", "simB"):
        assert run("simulate", "--sources", 20, "--objects", 300,
                   "--density", 0.2, "--feature-model", "2.0,1.0",
                   "--seed", 7, "--out-dir", tmp_path / d) == 0
    for name in ("observations.csv", "features.csv", "truth.csv"):
        ok &= (tmp_path / "simA" / name).read_bytes() == \
            (tmp_path / "simB" / name).read_bytes()

    data = tmp_path / "simA"
    obs, feats, truth = (data / "observations.csv", data / "features.csv",
                         data / "truth.csv")

    def twice(*argv):
        outs = []
        for tag in ("1", "2"):
            out = tmp_path / f"{argv[0]}-{tag}.out"
            assert run(*argv, "--out", out) == 0
            outs.append(out.read_bytes())
        return outs[0] == outs[1]

    ok &= twice("fuse", "--observations", obs, "--features", feats,
                "--truth", truth, "--algo", "auto", "--seed", 3)
    ok &= twice("lasso-path", "--observations", obs, "--features", feats,
                "--truth", truth, "--grid", 6)
    ok &= twice("evaluate", "--observations", obs, "--truth", truth,
                "--train-fractions", "0.1", "--reps", 1)
    ok &= twice("pair-estimate", "--observations", obs, "--features", feats)

    fuse_out = tmp_path / "fuse-1.out"
    new_feats = tmp_path / "new.csv"
    new_feats.write_text("source_id,f0,f1\nn0,1,0\nn1,0,1\n")
    ok &= twice("predict-sources", "--weights", fuse_out,
                "--features", new_feats)

    printed = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run("optimize", "--observations", obs, "--truth", truth) == 0
        printed.append(buf.getvalue())
    ok &= printed[0] == printed[1]

    elapsed = time.perf_counter() - t0
    report(14, ok, "every command is byte-identical across reruns",
           f"t={elapsed:.0f}s")
