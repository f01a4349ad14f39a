"""Command-line surface: fuse, optimize, lasso-path, simulate, evaluate,
predict-sources, pair-estimate."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, evaluation, learning, optimizer, simulation
from .instance import FusionInstance, GroundTruth, InstanceError
from .io import dump_json, load_instance, read_features, write_instance
from .model import WeightVector
from .pipeline import fuse

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NO_CONVERGENCE = 2


def _weights_json(instance: FusionInstance, w: WeightVector) -> dict:
    return {
        "sources": {
            name: float(w.source_intercepts[i])
            for i, name in enumerate(instance.sources)
        },
        "features": {
            name: float(w.feature_weights[k])
            for k, name in enumerate(instance.feature_names)
        },
        "pairs": {
            f"{instance.sources[i]}|{instance.sources[j]}": float(v)
            for (i, j), v in sorted(w.pair_weights.items())
        },
    }


def _decision_json(d: optimizer.OptimizerDecision) -> dict:
    return {
        "choice": d.choice,
        "erm_bound": d.erm_bound if np.isfinite(d.erm_bound) else None,
        "estimated_avg_accuracy": d.estimated_avg_accuracy,
        "ground_truth_units": d.ground_truth_units,
        "em_units": d.em_units,
        "tau": d.tau,
    }


def _run_fuse(args: argparse.Namespace) -> int:
    instance, truth = load_instance(args.observations, args.features, args.truth)
    config = learning.LearnConfig(
        l1_feature_penalty=args.l1,
        l2_intercept_penalty=args.l2,
        seed=args.seed,
    )
    result = fuse(instance, truth or GroundTruth(), args.algo, config, args.tau)
    diagnostics = result.diagnostics
    payload = {
        "values": result.values,
        "accuracies": result.accuracies,
        "weights": _weights_json(instance, result.weights),
        "algorithm": result.algorithm_used,
        "optimizer": _decision_json(result.decision) if result.decision else None,
        "diagnostics": {
            "iterations": diagnostics.iterations,
            "objective": diagnostics.objective,
            "converged": diagnostics.converged,
        },
    }
    dump_json(payload, args.out)
    if diagnostics.converged:
        return EXIT_OK
    print(
        f"warning: {result.algorithm_used} ran {diagnostics.iterations} "
        f"iterations and did not pass its optimality check; {args.out} "
        'has "converged": false',
        file=sys.stderr,
    )
    return EXIT_NO_CONVERGENCE


def _run_optimize(args: argparse.Namespace) -> int:
    instance, truth = load_instance(args.observations, args.features, args.truth)
    decision = optimizer.decide(instance, truth or GroundTruth(), args.tau)
    print(json.dumps(_decision_json(decision), sort_keys=True, indent=2))
    return EXIT_OK


def _run_lasso_path(args: argparse.Namespace) -> int:
    instance, truth = load_instance(args.observations, args.features, args.truth)
    config = learning.LearnConfig(l2_intercept_penalty=args.l2)
    path = analysis.lasso_path(instance, truth, args.grid, config)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "mu", *path.feature_names])
        for i in range(path.grid.size):
            writer.writerow(
                [
                    f"{path.grid[i]:.12g}",
                    f"{path.mu[i]:.12g}",
                    *(f"{v:.12g}" for v in path.weights[i]),
                ]
            )
    return EXIT_OK


def _run_simulate(args: argparse.Namespace) -> int:
    true_weights = None
    if args.feature_model:
        true_weights = tuple(float(x) for x in args.feature_model.split(","))
    config = simulation.SimConfig(
        n_sources=args.sources,
        n_objects=args.objects,
        density=args.density,
        pair_sampling=args.pair_sampling,
        domain_size=args.domain,
        accuracy_mean=args.acc_mean,
        accuracy_spread=args.acc_spread,
        true_weights=true_weights,
        feature_density=args.feature_density,
        seed=args.seed,
    )
    result = simulation.generate(config)
    write_instance(result, args.out_dir)
    return EXIT_OK


def _run_evaluate(args: argparse.Namespace) -> int:
    instance, truth = load_instance(args.observations, args.features, args.truth)
    fractions = [float(x) for x in args.train_fractions.split(",")]
    obj_idx = {name: i for i, name in enumerate(instance.objects)}
    truth_by_name = {
        instance.objects[o]: v for o, v in truth.labels.items()
    }
    labeled = list(truth_by_name)
    full = len(truth) == instance.n_objects
    rows = []
    for fi, fraction in enumerate(fractions):
        for rep in range(args.reps):
            seed = args.seed + 1000 * fi + rep
            train, test = evaluation.make_split(labeled, fraction, seed)
            train_gt = GroundTruth(
                {obj_idx[name]: truth_by_name[name] for name in train}
            )
            config = learning.LearnConfig(
                l1_feature_penalty=args.l1, l2_intercept_penalty=args.l2, seed=seed
            )
            for algo in ("erm", "em", "counts", "majority"):
                t0 = time.perf_counter()
                result = fuse(instance, train_gt, algo, config)
                elapsed_ms = (time.perf_counter() - t0) * 1000.0
                err = (
                    evaluation.weighted_accuracy_error(
                        result.accuracies, instance, truth
                    )
                    if full
                    else None
                )
                rows.append(
                    {
                        "config": {"train_fraction": fraction, "rep": rep},
                        "seed": seed,
                        "algorithm": algo,
                        "object_accuracy": evaluation.object_accuracy(
                            result.values, truth_by_name, test
                        ),
                        "weighted_accuracy_error": err,
                        "runtime_ms": elapsed_ms if args.timing else None,
                    }
                )
    dump_json({"rows": rows}, args.out)
    return EXIT_OK


def _feature_weight(path: str, name: str, value) -> float:
    """A feature weight read from a weights file, as a finite float."""
    try:
        weight = float(value)
    except (TypeError, ValueError):
        weight = math.nan
    if not math.isfinite(weight):
        raise InstanceError(
            f"{path}: weight of feature {name!r} must be a finite number, "
            f"got {value!r}"
        )
    return weight


def _run_predict_sources(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.weights).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{args.weights}: not valid JSON ({exc})") from None
    weights = payload.get("weights", {}) if isinstance(payload, dict) else None
    feature_weights = weights.get("features", {}) if isinstance(weights, dict) else None
    if not isinstance(feature_weights, dict):
        raise InstanceError(f"{args.weights}: no weights.features object")
    names, table = read_features(args.features)
    missing = [n for n in names if n not in feature_weights]
    if missing:
        raise InstanceError(
            f"{args.features}: features {missing} absent from weights file"
        )
    w = WeightVector(
        source_intercepts=np.zeros(0),
        feature_weights=np.array(
            [_feature_weight(args.weights, n, feature_weights[n]) for n in names]
        ),
    )
    preds = {
        src: analysis.predict_new_source_accuracy(w, row) for src, row in table.items()
    }
    dump_json({"accuracies": preds}, args.out)
    return EXIT_OK


def _run_pair_estimate(args: argparse.Namespace) -> int:
    instance, _ = load_instance(args.observations, args.features)
    config = learning.LearnConfig(seed=args.seed)
    state = analysis.estimate_pair_state(instance, config)
    dump_json(
        {
            "a_e_hat": state.a_e_hat,
            "n_reduced_objects": state.n_reduced_objects,
            "accuracies": state.accuracies,
        },
        args.out,
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call, so callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="trustfuse",
        description="Resolve conflicting source observations by learning "
        "per-source accuracies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="run end-to-end data fusion")
    fuse.add_argument("--observations", required=True)
    fuse.add_argument("--features", default=None)
    fuse.add_argument("--truth", default=None)
    fuse.add_argument(
        "--algo",
        default="auto",
        choices=["auto", "erm", "em", "majority", "counts"],
    )
    fuse.add_argument("--tau", type=float, default=0.1)
    fuse.add_argument("--l1", type=float, default=0.0)
    fuse.add_argument("--l2", type=float, default=0.01)
    fuse.add_argument("--seed", type=int, default=0)
    fuse.add_argument("--out", required=True)
    fuse.set_defaults(func=_run_fuse)

    opt = sub.add_parser("optimize", help="print the ERM/EM decision")
    opt.add_argument("--observations", required=True)
    opt.add_argument("--features", default=None)
    opt.add_argument("--truth", default=None)
    opt.add_argument("--tau", type=float, default=0.1)
    opt.set_defaults(func=_run_optimize)

    lasso = sub.add_parser("lasso-path", help="L1 regularization path CSV")
    lasso.add_argument("--observations", required=True)
    lasso.add_argument("--features", required=True)
    lasso.add_argument("--truth", required=True)
    lasso.add_argument("--grid", type=int, default=50)
    lasso.add_argument("--l2", type=float, default=0.01)
    lasso.add_argument("--out", required=True)
    lasso.set_defaults(func=_run_lasso_path)

    sim = sub.add_parser("simulate", help="generate a synthetic instance")
    sim.add_argument("--sources", type=int, required=True)
    sim.add_argument("--objects", type=int, required=True)
    sim.add_argument("--density", type=float, default=0.1)
    sim.add_argument("--pair-sampling", action="store_true")
    sim.add_argument("--domain", type=int, default=2)
    sim.add_argument("--acc-mean", type=float, default=0.8)
    sim.add_argument("--acc-spread", type=float, default=0.0)
    sim.add_argument(
        "--feature-model",
        default=None,
        help="comma-separated true feature weights; switches the accuracy "
        "model to logistic-of-features",
    )
    sim.add_argument("--feature-density", type=float, default=0.5)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=_run_simulate)

    ev = sub.add_parser("evaluate", help="train-fraction sweep report")
    ev.add_argument("--observations", required=True)
    ev.add_argument("--features", default=None)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--train-fractions", default="0.001,0.01,0.05,0.1,0.2")
    ev.add_argument("--reps", type=int, default=5)
    ev.add_argument("--l1", type=float, default=0.0)
    ev.add_argument("--l2", type=float, default=0.01)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock runtimes (breaks byte-for-byte reproducibility)",
    )
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=_run_evaluate)

    pred = sub.add_parser(
        "predict-sources", help="cold-start accuracy for new sources"
    )
    pred.add_argument("--weights", required=True)
    pred.add_argument("--features", required=True)
    pred.add_argument("--out", required=True)
    pred.set_defaults(func=_run_predict_sources)

    pair = sub.add_parser(
        "pair-estimate", help="unsupervised accuracies from pairwise agreement"
    )
    pair.add_argument("--observations", required=True)
    pair.add_argument("--features", required=True)
    pair.add_argument("--seed", type=int, default=0)
    pair.add_argument("--out", required=True)
    pair.set_defaults(func=_run_pair_estimate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
