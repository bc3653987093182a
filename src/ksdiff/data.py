"""The dataset container, the table text format, the parameter checks and the report writers.

A dataset is an N x D matrix of finite reals with named feature columns.
Indices are 0-based throughout; column names are display labels only.
A table (a name header, then one row of decimals per line) is read and
written here for dataset CSVs and, past their provenance line, matrix files.
Its file is read once, as bytes, less a leading UTF-8 byte-order mark. A
table in a strict form (plain ASCII decimals, no quotes, blanks or carriage
returns) is parsed by ``parse_table`` of the native library; any other, or
every table when the library cannot be built, is read with ``csv`` and
``float`` over a UTF-8 decode of the same bytes, which accept and reject the
same files with the same values and messages, and name the line of a byte
that is not UTF-8 or of a field past ``csv.field_size_limit``.
Every array the library is given (a dataset, a sample, a weight matrix,
scores, angles) passes through ``_array``: numeric, of the expected number
of dimensions, non-empty and finite, with bools and integers widened to
float64 and nothing else coerced. Every integer parameter and feature index
passes through ``_integer``, with the range [0, D-1] for an index when D is
known, and every real parameter through ``_finite``; neither coerces. The
feature names of a dataset and of a KS matrix both pass through
``_check_names``.
Every report goes through one of two writers: ``_write_json`` (indent 2,
then a newline; it refuses a NaN or infinity) or ``_write_csv`` (standard
CSV by ``csv.writer``, rows ended by a newline, a float as its ``repr``).
Tables keep ``_write_table``, which is faster for a large block of floats.
``_fan_out`` is the one worker fan-out, for the matrix build's chunks and an
experiment's cells: serial when ``jobs`` is 1, else a thread pool.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import re
import sys
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import _native
from .errors import ConfigFieldError, DataValidationError


def _check_names(names, d: int) -> tuple[str, ...]:
    """``names`` as a tuple of ``d`` distinct strings that a table header holds exactly.

    Each is non-empty, with no comma or newline, no leading or trailing
    whitespace (the reader strips it) and no leading quote (the reader takes
    it as quoting).
    """
    names = tuple(str(n) for n in names)
    for name in names:
        if not name:
            raise DataValidationError("feature names must be non-empty")
        if "," in name or "\n" in name or "\r" in name:
            raise DataValidationError(f"feature name {name!r} contains a comma or newline")
        if name != name.strip() or name.startswith('"'):
            raise DataValidationError(f"feature name {name!r} has surrounding whitespace or a leading quote")
    if len(names) != d:
        raise DataValidationError(f"{len(names)} names for {d} features")
    if len(set(names)) != d:
        raise DataValidationError("duplicate feature names")
    return names


def _array(values, ndim: int, field: str) -> np.ndarray:
    """``values`` as a float64 array, rejected unless ``ndim``-D, non-empty, numeric and finite."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting of lists
        raise DataValidationError(f"{field} must be a rectangular array of numbers") from None
    # bools and integers widen to float; strings, objects and complex numbers are not coerced
    if arr.dtype.kind not in "biuf":
        raise DataValidationError(f"{field} must be numeric, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != ndim:
        raise DataValidationError(f"{field} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DataValidationError(f"empty {field}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        where = ", ".join(map(str, np.unravel_index(bad[0], arr.shape)))
        raise DataValidationError(f"{field} contains non-finite value at position {where}")
    return arr


def _integer(field: str, value, low: int, high: int | None = None) -> int:
    # bool is an int subclass, and a float such as 1.5 must not be truncated
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integral or value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        reason = " (out of range)" if integral else ""
        raise ConfigFieldError(field, f"must be an integer {bounds}, got {value!r}{reason}")
    return int(value)


def _finite(field: str, value) -> float:
    # as in _integer, bool and strings such as "1e-9" are rejected, not coerced;
    # the comparisons are false for NaN and also reject ints beyond float range
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigFieldError(field, f"must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Dataset:
    """N x D matrix of finite reals plus D column names."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        arr = _array(self.values, 2, "dataset")
        names = _check_names(self.names, arr.shape[1])
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "names", names)

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def num_features(self) -> int:
        return self.values.shape[1]


def _check_same_columns(p: Dataset, q: Dataset) -> None:
    """Reject two datasets whose column names differ, naming the first differing pair."""
    if p.names != q.names:
        a, b = next((a, b) for a, b in zip_longest(p.names, q.names) if a != b)
        raise DataValidationError(f"column names differ: {a or '<none>'!r} vs {b or '<none>'!r}")


def default_names(d: int) -> tuple[str, ...]:
    """Display labels x1..xD for a D-column dataset."""
    return tuple(f"x{i + 1}" for i in range(d))


def dataset_from_array(values, names=None) -> Dataset:
    arr = _array(values, 2, "dataset")
    return Dataset(default_names(arr.shape[1]) if names is None else tuple(names), arr)


@np.errstate(over="ignore", invalid="ignore")
def standardize(ds: Dataset) -> Dataset:
    """Rescale every column to zero mean and unit variance.

    A column whose variance is zero, or past the float range, has no finite
    scale and is rejected by name.
    """
    mean = ds.values.mean(axis=0)
    std = ds.values.std(axis=0)
    flat = np.flatnonzero((std == 0.0) | ~np.isfinite(std))
    if flat.size:
        cols = ", ".join(ds.names[int(i)] for i in flat)
        raise DataValidationError(f"cannot standardize column(s) of zero or overflowing variance: {cols}")
    return Dataset(ds.names, (ds.values - mean) / std)


def load_dataset_csv(path) -> Dataset:
    """Read a dataset CSV: one table of names and one row of decimals per sample.

    A leading UTF-8 byte-order mark is dropped. Errors name the first defect
    in file order, with its line number.
    """
    names, values = _read_table(_read_bytes(path), path, 1)
    if not len(values):
        raise DataValidationError(f"{path}: no data rows")
    return Dataset(names, values)


def _read_bytes(path) -> bytes:
    """The whole file at ``path``, less a leading UTF-8 byte-order mark."""
    with open(path, "rb") as fh:
        return fh.read().removeprefix(codecs.BOM_UTF8)


def _read_table(raw: bytes, path, header_line: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Names and (R, D) values of a table whose name header is line ``header_line`` of ``raw``.

    Blank lines are skipped; errors name the first defect in file order. A
    table in the strict form of ``_read_table_native`` is parsed natively; any
    other is read here, so accepted tables, values and errors are this reader's.
    """
    if (fast := _read_table_native(raw, header_line)) is not None:
        return fast
    try:
        text = io.StringIO(raw.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        breaks = list(re.finditer(rb"\r\n?|\n", raw[: exc.start]))
        line = len(breaks) + 1
        if line > header_line:
            # the rows above the bad line are read first: a defect among them comes first
            _read_table(raw[: breaks[-1].end()], path, header_line)
        raise DataValidationError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(text)
    try:
        for _ in range(header_line - 1):
            text.readline()
        header = next(reader, None)
        if header is None:
            raise DataValidationError(f"{path}: line {header_line}: missing feature-name header")
        names = [h.strip() for h in header]
        rows = array("d")
        for lineno, row in enumerate(reader, start=header_line + 1):
            if not row:
                continue
            if len(row) != len(names):
                raise DataValidationError(f"{path}: line {lineno}: expected {len(names)} values, got {len(row)}")
            try:
                values = list(map(float, row))
            except ValueError:
                raise DataValidationError(f"{path}: line {lineno}: non-numeric value") from None
            for name, value in zip(names, values):
                if not math.isfinite(value):
                    raise DataValidationError(f"{path}: line {lineno}: non-finite value in column {name!r}")
            rows.extend(values)
    except csv.Error as exc:
        raise DataValidationError(f"{path}: line {header_line - 1 + reader.line_num}: {exc}") from None
    return tuple(names), np.frombuffer(rows).reshape(-1, len(names)) if rows else np.asarray([], dtype=np.float64)


def _read_table_native(raw: bytes, header_line: int):
    """The names and values of ``_read_table``, or None when the native parser declines ``raw``.

    The lines up to the header must be UTF-8 without a quote, a NUL or a
    carriage return, and the header must not be blank. The body must hold at
    least one row, and every row exactly one ASCII decimal
    ``[+-]digits[.digits][(e|E)[+-]digits]`` per name, separated by commas,
    each row ending in a newline (the last one may not), and every value
    finite. No field may pass ``csv.field_size_limit``. These are the same
    names and values the ``csv`` reader gives such a file.
    """
    parse = _native.parse_table()
    if parse is None:
        return None
    start = 0
    for _ in range(header_line):
        start = raw.find(b"\n", start) + 1
        if not start:
            return None
    head = raw[:start]
    try:
        # every line up to the header is decoded, as the csv reader's text layer does
        header = head.decode("utf-8").split("\n")[-2]
    except UnicodeDecodeError:
        return None
    if not header or any(c in head for c in (b"\r", b'"', b"\0")):
        return None
    fields = header.split(",")
    # csv.reader raises on a field longer than its limit; such a table is left to it
    limit = csv.field_size_limit()
    rows = raw.count(b"\n", start) + (not raw.endswith(b"\n"))
    if not rows or max(map(len, fields)) > limit:
        return None
    values = np.empty((rows, len(fields)))
    if parse(raw, start, len(raw), len(fields), rows, limit, values.ctypes.data) < 0:
        return None
    return tuple(h.strip() for h in fields), values


_ROWS_PER_WRITE = 1024


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write a dataset CSV with full-precision (round-trippable) decimals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_table(fh, ds.names, ds.values)


def _write_table(fh, names, values) -> None:
    """Write the name header and one row of round-trippable decimals per row of ``values``."""
    fh.write(",".join(names) + "\n")
    # one join per block of rows: as fast as one per table, without the table's text in memory
    for start in range(0, len(values), _ROWS_PER_WRITE):
        rows = values[start : start + _ROWS_PER_WRITE].tolist()
        fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


def _write_json(path, payload) -> None:
    """Write ``payload`` as JSON indented by two spaces, then a newline; a NaN or infinity raises ValueError."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_csv(path, header, rows) -> None:
    """Write a report as standard CSV: the header, then one line per row; a float as its ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fan_out(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, on ``jobs`` threads unless ``jobs`` is 1 or there are under two items."""
    if jobs == 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        # reading every result re-raises an exception from any item
        return list(pool.map(fn, items))
