"""CSV/JSON file formats: loading instances and writing reproducible output."""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass
from io import StringIO
from itertools import count, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .instance import FusionInstance, GroundTruth, InstanceError, factorize
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

    ``columns[j]`` holds cell j of every row as read, untrimmed, one column
    per header cell (at least ``min_cols``); a row narrower than the header
    reads "" in the missing cells. ``lines`` holds each row's line number,
    counting CSV records with the header as line 1, and ``widths`` its
    number of cells. ``len`` is the number of rows.
    """

    columns: tuple[Sequence[str], ...]
    lines: Sequence[int]
    widths: Sequence[int]

    def __len__(self) -> int:
        return len(self.lines)


def _read_rows(path: Path, min_cols: int) -> tuple[list[str], _Rows]:
    """Read a CSV file into its trimmed header and its rows by column.

    A row with fewer than ``min_cols`` cells, or a cell longer than
    `csv.field_size_limit`, raises InstanceError naming the file and line.
    Text without quotes or NUL characters whose rows all have the same
    width is split with `str` methods alone; any other text goes through
    `csv.reader`, which the fast path agrees with cell for cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise InstanceError(f"{path}: file is empty")
    if '"' in text or "\0" in text:
        return _read_csv_rows(path, text, min_cols)
    # csv.reader ends a record at "\r\n", "\r" or "\n", and skips a blank one.
    records = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n")
    head, newline, body = records.partition("\n")
    if newline and (not body or "\n\n" in body or body[0] == "\n" or body[-1] == "\n"):
        return _read_csv_rows(path, text, min_cols)
    header = head.split(",") if head else []
    n_cols = max(min_cols, len(header))
    n_rows = body.count("\n") + 1 if newline else 0
    # Each record end becomes a "\0" cell of its own. No other cell can be
    # "\0", so every record is n_cols wide exactly when the cells number
    # n_rows * (n_cols + 1) - 1 and every (n_cols + 1)-th one is "\0".
    stride = n_cols + 1
    cells = body.replace("\n", ",\0,").split(",") if newline else []
    if len(cells) != max(n_rows * stride - 1, 0) or set(cells[n_cols::stride]) - {"\0"}:
        return _read_csv_rows(path, text, min_cols)
    limit = csv.field_size_limit()
    if _longest_cell(records) > limit:
        i = [len(c) > limit for c in header + cells].index(True) - len(header)
        lineno = 1 if i < 0 else i // stride + 2
        raise InstanceError(
            f"{path}, line {lineno}: field larger than field limit ({limit})"
        )
    columns = tuple(cells[j::stride] for j in range(n_cols))
    rows = _Rows(columns, range(2, n_rows + 2), [n_cols] * n_rows)
    return list(map(str.strip, header)), rows


def _longest_cell(records: str) -> int:
    """The length of the longest cell of unquoted CSV text whose records
    end at "\n": the longest run between commas and record ends."""
    ascii = records.isascii()
    chars = np.frombuffer(
        records.encode("ascii" if ascii else "utf-32-le"),
        dtype=np.uint8 if ascii else np.uint32,
    )
    ends = np.flatnonzero((chars == ord(",")) | (chars == ord("\n")))
    return int(np.diff(ends, prepend=-1, append=chars.size).max()) - 1


def _read_csv_rows(path: Path, text: str, min_cols: int) -> tuple[list[str], _Rows]:
    """`_read_rows` through `csv.reader`: quoted cells, NUL characters,
    blank records and rows of differing widths."""
    reader = csv.reader(StringIO(text, newline=""))
    lineno = 0
    cells: list[str] = []
    lines: list[int] = []
    widths: list[int] = []
    try:
        header = next(reader, [])
        n_cols = max(min_cols, len(header))
        lineno = 1
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
    except csv.Error as exc:
        raise InstanceError(f"{path}, line {lineno + 1}: {exc}") from None
    columns = tuple(cells[j::n_cols] for j in range(n_cols))
    return list(map(str.strip, header)), _Rows(columns, lines, widths)


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
    sources = list(map(str.strip, rows.columns[0]))
    try:
        values = np.array(
            [list(map(float, map(str.strip, col))) for col in rows.columns[1:]]
        )
    except ValueError:
        values = None
    if (
        values is None
        or not np.isfinite(values).all()
        or set(rows.widths) - {len(header)}
        or len(set(sources)) < len(sources)
    ):
        _raise_feature_row_error(path, header, rows)
    table = np.ascontiguousarray(values.reshape(len(names), len(sources)).T)
    return names, dict(zip(sources, table))


def _raise_feature_row_error(path: Path, header: list[str], rows: _Rows) -> None:
    """Raise the error of the first features row that breaks a rule."""
    names = header[1:]
    line_of: dict[str, int] = {}
    for lineno, width, src, *cells in zip(rows.lines, rows.widths, *rows.columns):
        src = src.strip()
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
        for name, cell in zip(names, map(str.strip, cells)):
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
    objects, obs_object = factorize(rows.columns[0], strip=True)
    sources, obs_source = factorize(rows.columns[1], strip=True)
    values, obs_value = factorize(rows.columns[2], strip=True)

    features = None
    feature_names: tuple[str, ...] = ()
    if features_path is not None:
        feature_names, table = read_features(features_path)
        absent = np.zeros(len(feature_names))
        features = np.array(list(map(table.get, sources, repeat(absent))))
        features = features.reshape(len(sources), len(feature_names))

    try:
        instance = FusionInstance.from_columns(
            sources,
            objects,
            obs_object,
            obs_source,
            values,
            obs_value,
            features,
            feature_names,
        )
    except InstanceError as exc:
        if not exc.positions:
            raise
        first, repeat_line = (rows.lines[i] for i in exc.positions)
        raise InstanceError(
            f"{obs_path}, line {repeat_line}: {exc} (first at line {first})"
        ) from None

    truth = None if truth_path is None else _read_truth(Path(truth_path), instance)
    return instance, truth


def _read_truth(path: Path, instance: FusionInstance) -> GroundTruth:
    """Read a truth CSV of labels for ``instance``'s objects.

    A row naming an object without observations, a value no source reported
    for its object, or an object labelled before raises InstanceError naming
    the file and line; the first such row is reported.
    """
    header, rows = _read_rows(path, 2)
    if header[:2] != ["object_id", "value"]:
        raise InstanceError(f"{path}: header must be object_id,value")
    names = list(map(str.strip, rows.columns[0]))
    values = list(map(str.strip, rows.columns[1]))
    n = len(names)
    object_idx = dict(zip(instance.objects, count()))
    obj = np.fromiter(map(object_idx.get, names, repeat(-1)), np.int64, n)
    # Compare each row's value with every candidate of its object, laid out
    # row after row; a row naming an unknown object (-1) has no candidates.
    counts = np.append(instance.cand_counts, 0)[obj]
    row = np.repeat(np.arange(n), counts)
    row_start = instance.cand_offsets[obj] - np.cumsum(counts) + counts
    slot = np.arange(row.size) + row_start[row]
    same = map(
        operator.eq,
        map(instance.cand_values.__getitem__, slot.tolist()),
        map(values.__getitem__, row.tolist()),
    )
    reported = np.zeros(n, dtype=bool)
    reported[row[np.fromiter(same, dtype=bool, count=row.size)]] = True
    _, first, inverse = np.unique(obj, return_index=True, return_inverse=True)
    repeated = first[inverse] != np.arange(obj.size)
    bad = np.flatnonzero(~reported | repeated)
    if bad.size:
        i = int(bad[0])
        where, name = f"{path}, line {rows.lines[i]}", names[i]
        if obj[i] < 0:
            raise InstanceError(f"{where}: object {name!r} has no observations")
        if not reported[i]:
            raise InstanceError(
                f"{where}: value {values[i]!r} for object "
                f"{name!r} was not reported by any source"
            )
        raise InstanceError(f"{where}: duplicate label for object {name!r}")
    return GroundTruth(dict(zip(obj.tolist(), values)))


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
    """Write ``obj`` as ``json.dumps(round_floats(obj), sort_keys=True,
    indent=2)`` plus a newline, byte for byte, but through the C encoder."""
    Path(path).write_text(_to_json(obj, "\n") + "\n", encoding="utf-8")


def _to_json(obj, newline: str) -> str:
    """`dump_json`'s text for ``obj``, whose lines start with ``newline``.

    A container without nested containers is one C-encoder call whose item
    separator carries the line break and indent; only nested containers
    recurse.
    """
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        return json.dumps(round_floats(obj))
    if not obj:
        return "{}" if is_dict else "[]"
    inner = newline + "  "
    items = obj.values() if is_dict else obj
    kinds = set(map(type, items))
    if not any(issubclass(k, (dict, list, tuple)) for k in kinds):
        if any(issubclass(k, float) for k in kinds):
            rounded = map(round_floats, items)
            obj = dict(zip(obj, rounded)) if is_dict else list(rounded)
        body = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
    elif is_dict:
        body = "{" + ("," + inner).join(
            f"{_key_json(k)}: {_to_json(v, inner)}" for k, v in sorted(obj.items())
        ) + "}"
    else:
        body = "[" + ("," + inner).join(_to_json(v, inner) for v in obj) + "]"
    return body[0] + inner + body[1:-1] + newline + body[-1]


def _key_json(key) -> str:
    """A dict key as the JSON encoder writes it, read off a one-item dict:
    ``{"k": 0}`` with its brace and ``: 0}`` cut."""
    return json.dumps({key: 0})[1:-4]
