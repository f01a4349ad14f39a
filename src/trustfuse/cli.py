"""Command-line surface: fuse, optimize, lasso-path, simulate, evaluate,
predict-sources, pair-estimate."""

from __future__ import annotations

import argparse
import csv
import dataclasses
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
    config = _learn_config(args)
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
    path = analysis.lasso_path(instance, truth, args.grid, _learn_config(args))
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
    fields = dataclasses.fields(simulation.SimConfig)
    given = {f.name: getattr(args, f.name) for f in fields}
    # --feature-model is parsed here rather than by argparse, so that a bad
    # weight is an input error (exit 1) like any other bad setting.
    weights = args.true_weights
    given["true_weights"] = tuple(map(float, weights.split(","))) if weights else None
    result = simulation.generate(simulation.SimConfig(**given))
    write_instance(result, args.out_dir)
    return EXIT_OK


def _run_evaluate(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise ValueError(f"reps must be at least 1, got {args.reps}")
    instance, truth = load_instance(args.observations, args.features, args.truth)
    fractions = [float(x) for x in args.train_fractions.split(",")]
    obj_idx = {name: i for i, name in enumerate(instance.objects)}
    truth_by_name = {instance.objects[o]: v for o, v in truth.labels.items()}
    labeled = list(truth_by_name)
    full = len(truth) == instance.n_objects
    runs = [
        (fraction, rep, _learn_config(args, seed=args.seed + 1000 * fi + rep))
        for fi, fraction in enumerate(fractions)
        for rep in range(args.reps)
    ]
    # Every split is drawn, so every fraction checked, before the first fit.
    splits = [evaluation.make_split(labeled, f, c.seed) for f, _, c in runs]
    rows = []
    for (fraction, rep, config), (train, test) in zip(runs, splits):
        train_gt = GroundTruth({obj_idx[name]: truth_by_name[name] for name in train})
        for algo in ("erm", "em", "counts", "majority"):
            t0 = time.perf_counter()
            result = fuse(instance, train_gt, algo, config)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            err = (
                evaluation.weighted_accuracy_error(result.accuracies, instance, truth)
                if full
                else None
            )
            rows.append(
                {
                    "config": {"train_fraction": fraction, "rep": rep},
                    "seed": config.seed,
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
    state = analysis.estimate_pair_state(instance, _learn_config(args))
    dump_json(
        {
            "a_e_hat": state.a_e_hat,
            "n_reduced_objects": state.n_reduced_objects,
            "accuracies": state.accuracies,
        },
        args.out,
    )
    return EXIT_OK


_LEARN_DEFAULTS = learning.LearnConfig()

# The options that several commands take, each declared once.
_SHARED_OPTIONS = {
    "--observations": {},
    "--features": {},
    "--truth": {},
    "--out": {},
    "--tau": {"type": float, "default": optimizer.DEFAULT_TAU},
    "--l1": {"type": float, "default": _LEARN_DEFAULTS.l1_feature_penalty},
    "--l2": {"type": float, "default": _LEARN_DEFAULTS.l2_intercept_penalty},
    "--seed": {"type": int, "default": _LEARN_DEFAULTS.seed},
}

# The `LearnConfig` field that each learning option sets, by dest.
_LEARN_FIELDS = {
    "l1": "l1_feature_penalty",
    "l2": "l2_intercept_penalty",
    "seed": "seed",
}


def _learn_config(args: argparse.Namespace, **override) -> learning.LearnConfig:
    """The `LearnConfig` of the command's --l1, --l2 and --seed, then
    ``override``; a field the command has no option for keeps its default."""
    given = {f: getattr(args, d) for d, f in _LEARN_FIELDS.items() if d in args}
    return learning.LearnConfig(**{**given, **override})


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

    def command(name, func, summary, shared, required=()):
        """Subcommand ``name`` with the ``shared`` options; --observations,
        --out and those in ``required`` must be given."""
        cmd = sub.add_parser(name, help=summary)
        cmd.set_defaults(func=func)
        for flag in shared:
            must = flag in ("--observations", "--out", *required)
            cmd.add_argument(flag, required=must, **_SHARED_OPTIONS[flag])
        return cmd

    inputs = ("--observations", "--features", "--truth")
    learn = ("--l1", "--l2", "--seed")

    cmd = command("fuse", _run_fuse, "run end-to-end data fusion",
                  (*inputs, "--tau", *learn, "--out"))
    cmd.add_argument(
        "--algo",
        default="auto",
        choices=["auto", "erm", "em", "majority", "counts"],
    )

    command("optimize", _run_optimize, "print the ERM/EM decision",
            (*inputs, "--tau"))

    cmd = command("lasso-path", _run_lasso_path, "L1 regularization path CSV",
                  (*inputs, "--l2", "--out"), required=("--features", "--truth"))
    cmd.add_argument("--grid", type=int, default=50)

    cmd = command("simulate", _run_simulate, "generate a synthetic instance",
                  ("--seed",))
    cmd.add_argument("--sources", dest="n_sources", type=int, required=True)
    cmd.add_argument("--objects", dest="n_objects", type=int, required=True)
    cmd.add_argument("--density", type=float)
    cmd.add_argument("--pair-sampling", action="store_true")
    cmd.add_argument("--domain", dest="domain_size", type=int)
    cmd.add_argument("--acc-mean", dest="accuracy_mean", type=float)
    cmd.add_argument("--acc-spread", dest="accuracy_spread", type=float)
    cmd.add_argument(
        "--feature-model",
        dest="true_weights",
        help="comma-separated true feature weights; switches the accuracy "
        "model to logistic-of-features",
    )
    cmd.add_argument("--feature-density", type=float)
    cmd.add_argument("--out-dir", required=True)
    # Each option stored under a SimConfig field, --seed included, defaults
    # to the field's default.
    cmd.set_defaults(
        **{
            f.name: f.default
            for f in dataclasses.fields(simulation.SimConfig)
            if f.default is not dataclasses.MISSING
        }
    )

    cmd = command("evaluate", _run_evaluate, "train-fraction sweep report",
                  (*inputs, *learn, "--out"), required=("--truth",))
    cmd.add_argument("--train-fractions", default="0.001,0.01,0.05,0.1,0.2")
    cmd.add_argument("--reps", type=int, default=5)
    cmd.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock runtimes (breaks byte-for-byte reproducibility)",
    )

    cmd = command("predict-sources", _run_predict_sources,
                  "cold-start accuracy for new sources",
                  ("--features", "--out"), required=("--features",))
    cmd.add_argument("--weights", required=True)

    command("pair-estimate", _run_pair_estimate,
            "unsupervised accuracies from pairwise agreement",
            ("--observations", "--features", "--seed", "--out"),
            required=("--features",))
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
