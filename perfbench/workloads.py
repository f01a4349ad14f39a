"""The benchmark's workloads: simulator shapes, label fractions and `fuse` flags.

All workloads use the simulator's feature model (three Boolean source
features with true weights 1.5, -0.8, 0.6), so every fit has real feature
weights to learn and the L1 prox has something to act on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

TRUE_WEIGHTS = (1.5, -0.8, 0.6)


@dataclass(frozen=True)
class Workload:
    name: str
    n_sources: int
    n_objects: int
    density: float
    label_fraction: float
    fuse_args: tuple[str, ...]
    # Distinct seeded instances per run, used in turn, so that a run's
    # figures are not set by a single draw: EM's outer-iteration count, and
    # with it the job time, depends on the instance, and so do the quality
    # metrics.
    n_inputs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # Supervised ERM with an active L1 prox: the solver and
        # model.candidate_scores do most of each job.
        Workload("erm-labeled", 200, 5_000, 0.03, 0.10, ("--algo", "erm", "--l1", "0.1"), n_inputs=4),
        # Few labels, so the selector picks semi-supervised hard EM: a
        # warm-started sequence of M-steps plus MAP passes and the optimizer.
        Workload("auto-semi", 200, 5_000, 0.03, 0.01, ("--algo", "auto"), n_inputs=6),
        # No solver: CSV load, instance build, the counts baseline and a
        # 20k-value JSON write. Learning changes should not move it.
        Workload("bulk-counts", 500, 20_000, 0.02, 0.10, ("--algo", "counts")),
    )
}


def toy(w: Workload) -> Workload:
    """The same workload at toy scale, for the smoke mode and the self-test."""
    return replace(w, n_sources=20, n_objects=300, density=0.2, n_inputs=min(w.n_inputs, 2))
