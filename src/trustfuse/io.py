"""CSV/JSON file formats: loading instances and writing reproducible output."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .instance import FusionInstance, GroundTruth, InstanceError
from .simulation import SimResult

__all__ = [
    "load_instance",
    "read_features",
    "write_instance",
    "dump_json",
    "round_floats",
]


@dataclass(frozen=True)
class _Rows:
    """The non-empty data rows of a CSV file, stored by column.

    ``columns[j]`` holds cell j of every row with surrounding whitespace
    trimmed, one column per header cell (at least ``min_cols``); a row
    narrower than the header reads "" in the missing cells. ``lines`` holds
    each row's line number, counting CSV records with the header as line 1,
    and ``widths`` its number of cells. ``len`` is the number of rows.
    """

    columns: tuple[list[str], ...]
    lines: list[int]
    widths: list[int]

    def __len__(self) -> int:
        return len(self.lines)


def _read_rows(path: Path, min_cols: int) -> tuple[list[str], _Rows]:
    """Read a CSV file into its trimmed header and its rows by column.

    A row with fewer than ``min_cols`` cells raises InstanceError naming the
    file and line. No per-row container outlives its loop iteration, so a
    large file leaves nothing for the cyclic garbage collector to walk.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InstanceError(f"{path}: file is empty") from None
        n_cols = max(min_cols, len(header))
        cells: list[str] = []
        lines: list[int] = []
        widths: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            width = len(row)
            if not width:
                continue
            if width < min_cols:
                raise InstanceError(
                    f"{path}, line {lineno}: expected at least "
                    f"{min_cols} columns, got {width}"
                )
            lines.append(lineno)
            widths.append(width)
            # Each row adds exactly n_cols cells, so column j is cells[j::n_cols].
            if width != n_cols:
                row = row[:n_cols] if width > n_cols else row + [""] * (n_cols - width)
            cells += row
    columns = tuple(list(map(str.strip, cells[j::n_cols])) for j in range(n_cols))
    return header, _Rows(columns, lines, widths)


def read_features(path: str | Path) -> tuple[tuple[str, ...], dict[str, np.ndarray]]:
    """Read a features CSV: the feature names, and each source's feature row
    keyed by source id in file order.

    Rule violations raise InstanceError naming the file, line, and rule.
    """
    path = Path(path)
    header, rows = _read_rows(path, 1)
    if header[:1] != ["source_id"]:
        raise InstanceError(f"{path}, line 1: header must start with source_id")
    names = tuple(header[1:])
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if repeated:
        raise InstanceError(
            f"{path}, line 1: header repeats feature name {repeated[0]!r}"
        )
    table: dict[str, np.ndarray] = {}
    line_of: dict[str, int] = {}
    for lineno, width, src, *cells in zip(rows.lines, rows.widths, *rows.columns):
        if src in line_of:
            raise InstanceError(
                f"{path}, line {lineno}: duplicate features for source "
                f"{src!r} (first at line {line_of[src]})"
            )
        line_of[src] = lineno
        if width != len(header):
            raise InstanceError(
                f"{path}, line {lineno}: expected "
                f"{len(header)} columns, got {width}"
            )
        values = []
        for name, cell in zip(names, cells):
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is None or not math.isfinite(value):
                kind = "non-numeric" if value is None else "non-finite"
                raise InstanceError(
                    f"{path}, line {lineno}: {kind} feature value "
                    f"{cell!r} for {name!r}"
                )
            values.append(value)
        table[src] = np.array(values)
    return names, table


def _first_appearance_index(column: list[str]) -> dict[str, int]:
    """Number the distinct cells of a column in order of first appearance."""
    index = dict.fromkeys(column)
    return dict(zip(index, range(len(index))))


def load_instance(
    observations_path: str | Path,
    features_path: str | Path | None = None,
    truth_path: str | Path | None = None,
) -> tuple[FusionInstance, GroundTruth | None]:
    """Load an instance (and ground truth, when given) from CSV files.

    Values are normalized by trimming surrounding whitespace only. Rule
    violations raise InstanceError naming the file, line, and rule; feature
    rows for sources without observations are checked, then ignored.
    """
    obs_path = Path(observations_path)
    header, rows = _read_rows(obs_path, 3)
    if header[:3] != ["object_id", "source_id", "value"]:
        raise InstanceError(
            f"{obs_path}: header must be object_id,source_id,value"
        )
    object_col, source_col, values = rows.columns[:3]
    object_idx = _first_appearance_index(object_col)
    source_idx = _first_appearance_index(source_col)

    features = None
    feature_names: tuple[str, ...] = ()
    if features_path is not None:
        feature_names, table = read_features(features_path)
        features = np.zeros((len(source_idx), len(feature_names)))
        for src, row in table.items():
            if src in source_idx:
                features[source_idx[src]] = row

    try:
        instance = FusionInstance.from_triples(
            tuple(source_idx),
            tuple(object_idx),
            zip(
                map(object_idx.__getitem__, object_col),
                map(source_idx.__getitem__, source_col),
                values,
            ),
            features,
            feature_names,
        )
    except InstanceError as exc:
        if not exc.positions:
            raise
        first, repeat = (rows.lines[i] for i in exc.positions)
        raise InstanceError(
            f"{obs_path}, line {repeat}: {exc} (first at line {first})"
        ) from None

    truth = None
    if truth_path is not None:
        t_path = Path(truth_path)
        theader, trows = _read_rows(t_path, 2)
        if theader[:2] != ["object_id", "value"]:
            raise InstanceError(f"{t_path}: header must be object_id,value")
        labels: dict[int, str] = {}
        bounds = instance.cand_offsets.tolist()
        for lineno, obj, value in zip(trows.lines, *trows.columns[:2]):
            if obj not in object_idx:
                raise InstanceError(
                    f"{t_path}, line {lineno}: object {obj!r} has no observations"
                )
            o = object_idx[obj]
            if value not in instance.cand_values[bounds[o] : bounds[o + 1]]:
                raise InstanceError(
                    f"{t_path}, line {lineno}: value {value!r} for object "
                    f"{obj!r} was not reported by any source"
                )
            if o in labels:
                raise InstanceError(
                    f"{t_path}, line {lineno}: duplicate label for object {obj!r}"
                )
            labels[o] = value
        truth = GroundTruth(labels)
    return instance, truth


def write_instance(result: SimResult, out_dir: str | Path) -> dict[str, Path]:
    """Write a simulated instance as observations/features/truth CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inst = result.instance
    paths: dict[str, Path] = {}

    obs_path = out / "observations.csv"
    with open(obs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object_id", "source_id", "value"])
        writer.writerows(
            zip(
                map(inst.objects.__getitem__, inst.obs_object.tolist()),
                map(inst.sources.__getitem__, inst.obs_source.tolist()),
                map(inst.cand_values.__getitem__, inst.obs_cand.tolist()),
            )
        )
    paths["observations"] = obs_path

    if inst.n_features:
        feat_path = out / "features.csv"
        with open(feat_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source_id", *inst.feature_names])
            for s, name in enumerate(inst.sources):
                writer.writerow([name, *(f"{v:.12g}" for v in inst.features[s])])
        paths["features"] = feat_path

    truth_path = out / "truth.csv"
    with open(truth_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object_id", "value"])
        # Labels whose value no source reported are unloadable under the
        # closed-world rule, so they are dropped on write.
        loadable = result.truth.restricted_to_domains(inst)
        for o in sorted(loadable.labels):
            writer.writerow([inst.objects[o], loadable.labels[o]])
    paths["truth"] = truth_path
    return paths


def round_floats(obj):
    """Recursively round floats to 12 significant digits for stable diffs."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dump_json(obj, path: str | Path) -> None:
    text = json.dumps(round_floats(obj), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")
