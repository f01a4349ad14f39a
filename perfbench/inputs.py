"""Set-up step: draw a workload's seeded instances and write them as CSVs.

Runs as its own process so that its wall time covers what a user pays
before the first `fuse` (interpreter start, imports, `generate`, CSV
writes) and so that its memory does not count in the jobs' peak RSS.

Usage: python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR [--smoke]

Writes, for each input i, OUT_DIR/in<i>/ with observations.csv,
features.csv and labels.csv (the only files `fuse` reads), truth_all.csv
(the simulator's truth for every object, used only for scoring; the
truth.csv that `write_instance` adds is not used), and OUT_DIR/setup.json
with per-input sizes and stage times.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from pathlib import Path

import bootstrap  # noqa: F401  (puts the checkout's src/ on sys.path)
from workloads import TRUE_WEIGHTS, WORKLOADS, toy

import numpy as np

from trustfuse import io, simulation


def write_input(w, seed: int, i: int, out: Path) -> dict:
    t0 = time.perf_counter()
    sim = simulation.generate(
        simulation.SimConfig(
            n_sources=w.n_sources,
            n_objects=w.n_objects,
            density=w.density,
            true_weights=TRUE_WEIGHTS,
            seed=seed * 1000 + i,
        )
    )
    t1 = time.perf_counter()
    io.write_instance(sim, out)
    t2 = time.perf_counter()
    inst = sim.instance
    # Labels come only from objects whose true value some source reported:
    # the CLI rejects any other label (closed world).
    loadable = sorted(sim.truth.restricted_to_domains(inst).labels)
    rng = np.random.default_rng([seed, i])
    n_labels = max(1, int(np.ceil(w.label_fraction * inst.n_objects)))
    labeled = np.sort(rng.choice(loadable, size=n_labels, replace=False))
    with open(out / "labels.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object_id", "value"])
        for o in labeled:
            writer.writerow([inst.objects[o], sim.truth.labels[int(o)]])
    with open(out / "truth_all.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object_id", "value"])
        for o in range(inst.n_objects):
            writer.writerow([inst.objects[o], sim.truth.labels[o]])
    return {
        "n_observations": inst.n_observations,
        "generate_s": t1 - t0,
        "write_instance_s": t2 - t1,
    }


def main(argv: list[str]) -> int:
    name, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    w = WORKLOADS[name]
    if "--smoke" in argv[3:]:
        w = toy(w)
    inputs = []
    for i in range(w.n_inputs):
        d = out_dir / f"in{i}"
        d.mkdir(parents=True, exist_ok=True)
        inputs.append(write_input(w, seed, i, d))
    (out_dir / "setup.json").write_text(json.dumps({"inputs": inputs}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
