"""Per-job output checks of a `fuse` result.json."""

from __future__ import annotations

import csv
import json
from pathlib import Path


def read_pairs(path: Path) -> dict[str, str]:
    """object_id -> value from a two-column CSV with a header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        return {obj: value for obj, value in rows}


# `fuse` clamps labelled objects to their labels when it fits a model (ERM,
# EM); the counts and majority baselines report their own inference for
# every object, labelled or not.
CLAMPED_ALGORITHMS = ("ERM", "EM")


def contradicted_labels(values: dict[str, str], labels: dict[str, str]) -> list[str]:
    """Labelled objects whose fused value is not their label."""
    return [o for o, v in labels.items() if values.get(o) != v]


def parse_result(data: bytes | None) -> dict | None:
    """A result.json with a "values" object and an "algorithm", or None."""
    try:
        result = json.loads(data)
    except (TypeError, ValueError):
        return None
    ok = isinstance(result, dict) and isinstance(result.get("values"), dict) and "algorithm" in result
    return result if ok else None


def check_result(
    data: bytes, objects: set[str], labels: dict[str, str], first: bytes | None
) -> str | None:
    """Why a job's result.json is wrong, or None when it passes.

    It must give a value for every object and only for those, keep every
    labelled object's label when the algorithm clamps labels, and be
    byte-identical to the first job's result on the same input (`fuse`
    promises reproducible output).
    """
    result = parse_result(data)
    if result is None:
        return "unreadable result"
    values, algorithm = result["values"], result["algorithm"]
    if set(values) != objects:
        return f"values missing or unexpected for {len(objects ^ set(values))} objects"
    changed = contradicted_labels(values, labels)
    if changed and algorithm in CLAMPED_ALGORITHMS:
        return f"{len(changed)} labelled objects lost their label, e.g. {changed[0]!r}"
    if first is not None and data != first:
        return "result differs from the first job on the same input"
    return None


def flip_one_value(path: Path) -> None:
    """Corrupt a result file the way a wrong fusion would: change one value.

    Used only by the self-test, to show that the checks catch it.
    """
    result = json.loads(path.read_bytes())
    obj = min(result["values"])
    # Simulated domains are v0, v1, ...: swap for another value of the domain.
    result["values"][obj] = "v1" if result["values"][obj] == "v0" else "v0"
    path.write_text(json.dumps(result, sort_keys=True, indent=2) + "\n", encoding="utf-8")
