"""trustfuse benchmark: a closed loop of `trustfuse fuse` jobs on seeded inputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One client in one process calls `trustfuse.cli.main(argv)` in-process, one
job after another; each job reads CSVs and writes result.json exactly as a
user's `trustfuse fuse` does. Set-up runs first, in separate processes
(see inputs.py). Every job's output is checked (checks.py). With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` untraced and traced jobs alternate and it carries the
per-layer metrics (tracer.py). Metric names and units are those listed in
BENCHMARK.json. The exit code is 0 unless an output check failed.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import bootstrap  # noqa: F401  (first: caps BLAS threads, puts src/ on sys.path)

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from checks import check_result, contradicted_labels, flip_one_value, parse_result, read_pairs
from workloads import WORKLOADS, Workload, toy

HERE = Path(__file__).resolve().parent
WORK = bootstrap.ROOT / ".perfbench_work"
SPEC = bootstrap.ROOT / "BENCHMARK.json"
SETUP_REPS = 3
# Traced runs cycle over at most this many inputs, so every input they use
# gets an untraced and a traced job within the run time.
TRACE_INPUTS = 2


@dataclass
class Input:
    dir: Path
    n_observations: int
    objects: set[str]
    labels: dict[str, str]
    truth: dict[str, str]
    first: bytes | None = None


@dataclass
class Job:
    n: int
    input: int
    traced: bool
    seconds: float
    rc: int
    bytes_written: int
    error: str | None = None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="toy-scale inputs, one set-up")
    return p.parse_args(argv)


def require_program() -> None:
    """Refuse to run without this checkout's trustfuse sources."""
    if not (bootstrap.SRC / "trustfuse" / "__init__.py").is_file():
        raise SystemExit(f"error: no trustfuse sources under {bootstrap.SRC}")
    if not SPEC.is_file():
        raise SystemExit(f"error: {SPEC} is missing")


def environment(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": bootstrap.BLAS_THREADS,
    }


def set_up(w: Workload, args: argparse.Namespace, work: Path) -> tuple[list[float], list[dict]]:
    """Build the inputs SETUP_REPS times in fresh processes; wall time of each."""
    cmd = [sys.executable, str(HERE / "inputs.py"), w.name, str(args.seed), str(work)]
    if args.smoke:
        cmd.append("--smoke")
    times, stages = [], []
    for _ in range(1 if args.smoke else SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
        stages.append(json.loads((work / "setup.json").read_text(encoding="utf-8")))
    return times, stages


def load_inputs(work: Path, stage: dict) -> list[Input]:
    inputs = []
    for i, info in enumerate(stage["inputs"]):
        d = work / f"in{i}"
        truth = read_pairs(d / "truth_all.csv")
        inputs.append(Input(d, info["n_observations"], set(truth), read_pairs(d / "labels.csv"), truth))
    return inputs


def run_job(n: int, i: int, inp: Input, w: Workload, tracer, corrupt: bool) -> Job:
    from trustfuse import cli

    out = inp.dir / "result.json"
    out.unlink(missing_ok=True)
    argv = [
        "fuse",
        "--observations", str(inp.dir / "observations.csv"),
        "--features", str(inp.dir / "features.csv"),
        "--truth", str(inp.dir / "labels.csv"),
        "--out", str(out),
        *w.fuse_args,
    ]
    with tracer.job_span(n) if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
    if corrupt:
        flip_one_value(out)
    data = out.read_bytes() if out.is_file() else b""
    job = Job(n, i, tracer is not None, seconds, rc, len(data))
    job.error = check_result(data, inp.objects, inp.labels, inp.first)
    if inp.first is None:
        inp.first = data
    return job


def run_jobs(w: Workload, inputs: list[Input], seconds: float, tracer, corrupt_job: int | None) -> list[Job]:
    """Closed loop over the inputs in turn until `seconds` have passed and
    every input in use has run. Traced runs do an untraced and a traced job
    on the same input back to back, alternating which goes first."""
    n_used = len(inputs) if tracer is None else min(len(inputs), TRACE_INPUTS)
    jobs: list[Job] = []
    start = time.perf_counter()
    k = 0
    while k < n_used or time.perf_counter() - start < seconds:
        i = k % n_used
        plan = [None] if tracer is None else ([None, tracer] if (k // n_used) % 2 == 0 else [tracer, None])
        for t in plan:
            jobs.append(run_job(len(jobs), i, inputs[i], w, t, len(jobs) == corrupt_job))
        k += 1
    return jobs


def median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of all order
    statistics, steadier than the middle value when a run has few jobs
    (an auto-semi run has six, one per instance)."""
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[0.5])[0]) if len(values) > 1 else values[0]


def end_to_end(jobs: list[Job], inputs: list[Input], setup_times: list[float], rss_mb: float) -> dict:
    from trustfuse import evaluation, io
    from trustfuse.instance import GroundTruth

    hits = unlabeled = 0
    maes = []
    for inp in inputs:
        result = parse_result(inp.first)
        unl = [o for o in inp.truth if o not in inp.labels]
        hits += sum(result["values"][o] == inp.truth[o] for o in unl)
        unlabeled += len(unl)
        inst, _ = io.load_instance(inp.dir / "observations.csv", inp.dir / "features.csv")
        full = GroundTruth({o: inp.truth[name] for o, name in enumerate(inst.objects)})
        maes.append(evaluation.weighted_accuracy_error(result["accuracies"], inst, full))
    return {
        "obs_per_s": sum(inputs[j.input].n_observations for j in jobs) / sum(j.seconds for j in jobs),
        "job_s.p50": median([j.seconds for j in jobs]),
        "object_acc": hits / unlabeled,
        "source_mae": statistics.fmean(maes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }


# Metric -> (span, whether it is the span's self time rather than its total).
SPAN_METRICS = {
    "io.load_instance.s": ("io.load_instance", True),
    "instance.from_triples.s": ("instance.from_triples", False),
    "instance.index.s": ("instance.index", False),
    "io.dump_json.s": ("io.dump_json", False),
    "learning.fit_erm_object.s": ("learning.fit_erm_object", True),
    "learning.fit_em.s": ("learning.fit_em", True),
    "learning.proximal_fit.s": ("learning.proximal_fit", True),
    "model.candidate_scores.s": ("model.candidate_scores", False),
    "model.posterior_all.s": ("model.posterior_all", False),
    "model.argmax_with_ties.s": ("model.argmax_with_ties", False),
    "baselines.counts_fit.s": ("baselines.counts_fit", False),
    "baselines.counts_infer.s": ("baselines.counts_infer", False),
    "baselines.majority_vote.s": ("baselines.majority_vote", False),
    "optimizer.decide.s": ("optimizer.decide", True),
    "optimizer.agreement_matrix.s": ("optimizer.agreement_matrix", False),
    "optimizer.em_units.s": ("optimizer.em_units", False),
    "cli.fuse.self_s": ("cli.fuse", True),
}

COUNT_METRICS = (
    "io.rows_read",
    "io.bytes_written",
    "learning.proximal_fit.calls",
    "learning.iters",
    "learning.fg_evals",
    "learning.em_outer_iters",
    "model.candidate_scores.calls",
    "model.argmax_with_ties.calls",
)


def per_layer(jobs: list[Job], tracer, stages: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced jobs, and any count mismatches.

    Times are the median over traced jobs of a span's time per job, its
    self time (minus child spans) where SPAN_METRICS says so.
    Counts are exact per input; they are averaged over the inputs used and
    must repeat exactly on every traced job of the same input.
    """
    traced = [j for j in jobs if j.traced]
    times = {j.n: tracer.times(j.n) for j in traced}  # (total, self) per job
    metrics = {
        metric: statistics.median(times[j.n][1 if own else 0][span] for j in traced)
        for metric, (span, own) in SPAN_METRICS.items()
    }
    problems = []
    by_input: dict[int, dict] = {}
    for j in traced:
        counts = dict(tracer.job_counts(j.n))
        counts["io.bytes_written"] = j.bytes_written
        counts["learning.objective"] = tracer.objective.get(j.n, 0.0)
        if j.input in by_input and by_input[j.input] != counts:
            problems.append(f"counts differ between traced jobs on input {j.input}")
        by_input.setdefault(j.input, counts)
    per_input = list(by_input.values())
    for name in (*COUNT_METRICS, "learning.objective"):
        metrics[name] = statistics.fmean(c.get(name, 0) for c in per_input)
    calls = sum(c.get("learning.proximal_fit.calls", 0) for c in per_input)
    converged = sum(c.get("learning.converged_calls", 0) for c in per_input)
    metrics["learning.converged_frac"] = converged / calls if calls else 0.0
    for metric, stage in (("simulation.generate.s", "generate_s"), ("io.write_instance.s", "write_instance_s")):
        metrics[metric] = statistics.median(sum(inp[stage] for inp in s["inputs"]) for s in stages)
    # Jobs come in (untraced, traced) pairs on one input, in either order.
    ratios = []
    for a, b in zip(jobs[::2], jobs[1::2]):
        plain, traced_job = (a, b) if b.traced else (b, a)
        ratios.append(traced_job.seconds / plain.seconds)
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return metrics, problems


def labelled(values: dict, section: str) -> dict:
    """Attach BENCHMARK.json's units; the metric names must match exactly."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))[section]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(values))} disagree with BENCHMARK.json")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def main(argv: list[str] | None = None, corrupt_job: int | None = None) -> int:
    """Run one workload; `corrupt_job` flips a value in that job's output
    (the self-test uses it to show the checks catch a wrong result)."""
    args = parse_args(argv)
    require_program()
    import tracer as tracing

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = toy(w)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = WORK / tag
    env = environment(args)
    try:
        setup_times, stages = set_up(w, args, work)
        inputs = load_inputs(work, stages[-1])
        tracer = tracing.Tracer() if args.trace else None
        jobs = run_jobs(w, inputs, args.seconds, tracer, corrupt_job)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = [f"job {j.n} (input {j.input}): {j.error}" for j in jobs if j.error]
        if any(parse_result(inputs[i].first) is None for i in {j.input for j in jobs}):
            # Nothing to score: report the failed checks without a result.
            print("\n".join(f"CHECK FAILED: {p}" for p in problems))
            return 1
        if args.trace:
            values, count_problems = per_layer(jobs, tracer, stages)
            problems += count_problems
            metrics = labelled(values, "per_layer")
        else:
            metrics = labelled(end_to_end(jobs, inputs, setup_times, rss_mb), "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for j in jobs if j.rc != 0 or j.error)
    overridden = sum(len(contradicted_labels(parse_result(inp.first)["values"], inp.labels))
                     for inp in inputs if inp.first)
    n_labels = sum(len(inp.labels) for inp in inputs if inp.first)
    record = {
        "env": env,
        "metrics": metrics,
        "jobs": [{"input": j.input, "traced": j.traced, "seconds": j.seconds, "rc": j.rc, "error": j.error} for j in jobs],
        "failed_frac": failed / len(jobs),
        "labels_contradicted": [overridden, n_labels],
        "setup_s_reps": setup_times,
        "problems": problems,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        (results / f"{tag}-spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")

    exit_codes = sorted({j.rc for j in jobs})
    print(f"perfbench {tag}: {len(jobs)} jobs, {failed} failed "
          f"(failed_frac {failed / len(jobs):.3f}, fuse exit codes {exit_codes}); "
          f"{overridden} of {n_labels} labelled objects fused to another value")
    for name, m in metrics.items():
        note = f"  (n={sum(not j.traced for j in jobs)})" if name == "job_s.p50" else ""
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": len(jobs), "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
