"""CSV/JSON file formats: loading instances and writing reproducible output."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from io import StringIO
from itertools import accumulate, count, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .instance import FusionInstance, GroundTruth, InstanceError, factorize, group_keys
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
    """The non-empty data rows of a CSV file, stored by coded column.

    ``columns[j]`` is ``factorize(cells, strip=True)`` of cell j of every
    row: the distinct trimmed cells in first-appearance order, and each
    row's code into them. There is one column per header cell (at least
    ``min_cols``); a row narrower than the header reads "" in the missing
    cells. ``lines`` holds each row's line number, counting CSV records
    with the header as line 1, and ``widths`` its number of cells. ``len``
    is the number of rows.
    """

    columns: tuple[tuple[tuple[str, ...], np.ndarray], ...]
    lines: Sequence[int]
    widths: Sequence[int]

    def __len__(self) -> int:
        return len(self.lines)

    def cells(self, j: int) -> list[str]:
        """Column j as one trimmed cell per row."""
        distinct, codes = self.columns[j]
        return list(map(distinct.__getitem__, codes.tolist()))


# _LOW_BYTES[w] keeps the first w bytes of a little-endian 64-bit word.
_LOW_BYTES = np.array([(1 << 8 * w) - 1 for w in range(9)], dtype=np.uint64)


def _read_rows(path: Path, min_cols: int) -> tuple[list[str], _Rows]:
    """Read a CSV file into its trimmed header and its rows by coded column.

    A row with fewer than ``min_cols`` cells, or a cell longer than
    `csv.field_size_limit` characters, raises InstanceError naming the file
    and line. Text without quotes or NUL characters, without blank records
    after the header, whose rows all have the same width and whose header
    line and cells are no longer than the limit in bytes is coded from its
    bytes (`_code_cells`); any other text goes through `csv.reader`, which
    the byte path agrees with cell for cell.
    """
    with open(path, "rb") as fh:
        # Room for a final record end and the 8 zero bytes that pad
        # `_code_cells`' words; a file that is not regular (a pipe's size
        # reads 0) grows the buffer.
        data = bytearray(os.fstat(fh.fileno()).st_size + 9)
        size = fh.readinto(data)
        if size > len(data) - 9:
            data[size:] = fh.read()
            size = len(data)
            data += bytes(9)
    if not size:
        raise InstanceError(f"{path}: file is empty")
    contents = memoryview(data)[:size]
    if not data.isascii():
        str(contents, "utf-8")  # rejects a file that is not UTF-8
    if data.find(b'"', 0, size) >= 0 or data.find(b"\0", 0, size) >= 0:
        return _read_csv_rows(path, contents, min_cols)
    # csv.reader ends a record at "\r\n", "\r" or "\n"; the last record gets
    # one if it has none.
    if data[size - 1] not in b"\n\r":
        data[size] = ord("\n")
    buf = np.frombuffer(data, dtype=np.uint8)
    seps, at_end = _separators(buf)
    # The header is the first record; each row after it must hold n_cols
    # cells, so every n_cols-th separator after the header ends a record.
    h = int(at_end.argmax())
    header = data[: seps[h]].decode().split(",") if seps[h] else []
    n_cols = max(min_cols, len(header))
    n_rows = np.count_nonzero(at_end) - 1
    if seps.size - h - 1 != n_rows * n_cols or not at_end[h + n_cols :: n_cols].all():
        return _read_csv_rows(path, contents, min_cols)
    # csv.reader counts the limit in characters and names the line at fault.
    # A UTF-8 cell has no more characters than bytes, so every cell kept here
    # is within the limit.
    limit = csv.field_size_limit()
    if seps[h] > limit:
        return _read_csv_rows(path, contents, min_cols)
    columns = []
    for j in range(n_cols):
        # Cell j of each row starts after the separator before it; a row's
        # first cell, after the "\n" of a "\r\n" before it.
        starts = seps[h + j : -1 : n_cols] + 1
        if not j:
            starts += (buf[starts - 1] == ord("\r")) & (buf[starts] == ord("\n"))
        widths = seps[h + j + 1 :: n_cols] - starts
        blank = n_cols == 1 and not widths.all()  # a blank record
        if blank or widths.max(initial=0) > limit:
            return _read_csv_rows(path, contents, min_cols)
        columns.append(_code_cells(buf, starts, widths))
    rows = _Rows(tuple(columns), range(2, n_rows + 2), [n_cols] * n_rows)
    return list(map(str.strip, header)), rows


def _separators(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions in ``buf`` of every comma and record end, and whether
    each ends a record: a "\n", a "\r", or the "\r" of a "\r\n"."""
    end = buf == ord("\n")
    cr = buf == ord("\r")
    np.greater(end[1:], cr[:-1], out=end[1:])
    end |= cr
    sep = np.equal(buf, ord(","), out=cr)
    sep |= end
    seps = np.flatnonzero(sep)
    return seps, end[seps]


def _code_cells(
    buf: np.ndarray, starts: np.ndarray, widths: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray]:
    """`factorize(cells, strip=True)` of the UTF-8 cells
    ``buf[starts[i]:starts[i] + widths[i]]``.

    ``buf`` ends in at least 8 zero bytes, and no cell holds a zero byte. A
    column with a cell over 8 bytes, which one 64-bit word cannot key, is
    decoded whole (`_decode`) and factorized. Otherwise each cell is keyed
    in place by the word at its start, masked to its width: that key is
    the cell, so the column is one 1-D gather, and `group_keys` groups
    equal keys, sorting only the heads of runs of equal cells. Only each
    group's first cell becomes a Python string, and those are factorized
    only where trimming changes one.
    """
    if not starts.size:
        return (), np.zeros(0, dtype=np.int64)
    if widths.max() > 8:
        return factorize(_decode(buf, starts, widths), strip=True)
    # words[i] is the little-endian word at byte i of buf.
    words = np.ndarray((buf.size - 7,), np.dtype("<u8"), buf, strides=(1,))
    keys = words[starts]
    keys &= _LOW_BYTES[widths]
    run_of, first = group_keys(keys)
    del keys  # as long as the column
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    at = first[by_first]
    cells = _decode(buf, starts[at], widths[at])
    # factorize(cells, strip=True) codes as factorize of the trimmed cells.
    trimmed = list(map(str.strip, cells))
    if trimmed == cells:
        return tuple(cells), rank[run_of]
    distinct, merged = factorize(trimmed)
    return distinct, merged[rank][run_of]


def _decode(buf: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> list[str]:
    """The UTF-8 cells ``buf[starts[i]:starts[i] + widths[i]]``, none of
    which holds a comma, decoded as one text of cells each followed by a
    comma."""
    size = widths + 1
    stop = np.cumsum(size)
    joined = buf[np.arange(stop[-1]) - np.repeat(stop - size - starts, size)]
    joined[stop - 1] = ord(",")
    return joined.tobytes().decode().split(",")[:-1]


def _read_csv_rows(
    path: Path, data: memoryview, min_cols: int
) -> tuple[list[str], _Rows]:
    """`_read_rows` through `csv.reader` of the UTF-8 bytes ``data``: quoted
    cells, NUL characters, blank records and rows of differing widths."""
    reader = csv.reader(StringIO(str(data, "utf-8"), newline=""))
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
    columns = tuple(factorize(cells[j::n_cols], strip=True) for j in range(n_cols))
    return list(map(str.strip, header)), _Rows(columns, lines, widths)


def read_features(path: str | Path) -> tuple[tuple[str, ...], dict[str, np.ndarray]]:
    """Read a features CSV: the feature names, and each source's feature row
    keyed by source id in file order.

    Rule violations raise InstanceError naming the file, line, and rule; the
    first row that breaks a rule is the one reported.
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
    line_of: dict[str, int] = {}
    values: list[float] = []
    columns = map(rows.cells, range(len(rows.columns)))
    for lineno, width, src, *cells in zip(rows.lines, rows.widths, *columns):
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
    table = np.array(values).reshape(len(line_of), len(names))
    return names, dict(zip(line_of, table))


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
    (objects, obs_object), (sources, obs_source), (values, obs_value) = rows.columns[:3]

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
    names, name_codes = rows.columns[0]
    values = rows.cells(1)
    object_idx = dict(zip(instance.objects, count()))
    obj = np.fromiter(map(object_idx.get, names, repeat(-1)), np.int64, len(names))
    obj = obj[name_codes]
    # A row naming an unknown object (-1) matches no candidate.
    reported = instance.candidate_index(obj.tolist(), values) >= 0
    label, first = group_keys(obj)
    repeated = first[label] != np.arange(obj.size)
    bad = np.flatnonzero(~reported | repeated)
    if bad.size:
        i = int(bad[0])
        where, name = f"{path}, line {rows.lines[i]}", names[name_codes[i]]
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
    """Write a simulated instance as observations/features/truth CSVs.

    The files hold what `csv.writer` writes, byte for byte; the
    observations and truth rows are gathered by column (`_write_rows`).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inst = result.instance
    paths: dict[str, Path] = {}
    objects = _csv_cells(inst.objects)
    values, cand_value = factorize(inst.cand_values)

    obs_path = out / "observations.csv"
    _write_rows(
        obs_path,
        ["object_id", "source_id", "value"],
        [
            (objects, inst.obs_object),
            (_csv_cells(inst.sources), inst.obs_source),
            (_csv_cells(values), cand_value[inst.obs_cand]),
        ],
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
    # Labels whose value no source reported are unloadable under the
    # closed-world rule, so they are dropped on write.
    labels = result.truth.restricted_to_domains(inst).labels
    labelled = sorted(labels)
    values, value_codes = factorize([labels[o] for o in labelled])
    _write_rows(
        truth_path,
        ["object_id", "value"],
        [
            (objects, np.array(labelled, dtype=np.int64)),
            (_csv_cells(values), value_codes),
        ],
    )
    paths["truth"] = truth_path
    return paths


def _csv_cells(strings: Sequence[str]) -> list[str]:
    """Each string as `csv.writer` writes it as one cell of a row of two or
    more cells: quoted only where it must be."""
    buf = StringIO()
    writerow = csv.writer(buf).writerow
    # The row (string, "") is written as the cell, "," and the "\r\n" line
    # end; writerow returns its length.
    sizes = [writerow((string, "")) for string in strings]
    text = buf.getvalue()
    stops = accumulate(sizes)
    return [text[stop - size : stop - 3] for size, stop in zip(sizes, stops)]


# Rows gathered at a time by `_write_rows`, which bounds its index arrays.
_ROWS_PER_BLOCK = 1 << 16


def _write_rows(
    path: Path, header: list[str], columns: list[tuple[list[str], np.ndarray]]
) -> None:
    """Write the CSV file of ``header`` and the rows whose cell j is
    ``cells[codes[i]]`` for ``(cells, codes) = columns[j]``, with ``cells``
    from `_csv_cells`, as `csv.writer` writes it.

    Each column's cells are encoded once, each followed by its separator
    (the row's "\r\n" after the last column). A block of rows is then the
    concatenation of those byte strings, gathered from one buffer by array,
    as `_code_cells` decodes.
    """
    pool = []
    starts = []
    sizes = []
    offset = 0
    for j, (cells, codes) in enumerate(columns):
        end = "\r\n" if j == len(columns) - 1 else ","
        text = end.join(cells) + end if cells else ""
        data = text.encode("utf-8")
        # In ASCII text a cell has as many bytes as characters.
        lengths = map(len, cells) if len(data) == len(text) else (
            len(cell.encode("utf-8")) for cell in cells
        )
        size = np.fromiter(lengths, np.int64, len(cells)) + len(end)
        stop = np.cumsum(size)
        starts.append((stop - size + offset)[codes])
        sizes.append(size[codes])
        offset += len(data)
        pool.append(data)
    buf = np.frombuffer(b"".join(pool), dtype=np.uint8)
    # Row-major: row i's cells are entries k i to k i + k - 1, for k columns.
    start = np.column_stack(starts).ravel()
    size = np.column_stack(sizes).ravel()
    step = _ROWS_PER_BLOCK * len(columns)
    with open(path, "wb") as fh:
        fh.write((",".join(_csv_cells(header)) + "\r\n").encode("utf-8"))
        for lo in range(0, size.size, step):
            size_block = size[lo : lo + step]
            stop = np.cumsum(size_block)
            at = np.repeat(stop - size_block - start[lo : lo + step], size_block)
            fh.write(buf[np.arange(stop[-1]) - at].tobytes())


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
