"""Tabular sample containers, the table text format and the parameter checks.

A dataset is an N x D matrix of finite reals with named feature columns.
Indices are 0-based throughout; column names are display labels only.
A table (a name header, then one row of decimals per line) is read and
written here for dataset CSVs and, past their provenance line, matrix files.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import ConfigFieldError, DataValidationError


def _check_name(name: str) -> str:
    if not name:
        raise DataValidationError("feature names must be non-empty")
    if "," in name or "\n" in name or "\r" in name:
        raise DataValidationError(f"feature name {name!r} contains a comma or newline")
    return name


def _integer(field: str, value, low: int, high: int | None = None) -> int:
    # bool is an int subclass, and a float such as 1.5 must not be truncated
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integral or value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigFieldError(field, f"must be an integer {bounds}, got {value!r}")
    return int(value)


def _finite(field: str, value) -> float:
    # as in _integer, bool and strings such as "1e-9" are rejected, not coerced;
    # the comparisons are false for NaN and also reject ints beyond float range
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigFieldError(field, f"must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Sample1D:
    """One-dimensional sample of finite reals, optionally known to be sorted."""

    values: np.ndarray
    is_sorted: bool = False

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise DataValidationError(f"sample must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise DataValidationError("empty sample")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise DataValidationError(f"sample contains non-finite value at position {bad[0]}")
        if self.is_sorted and np.any(arr[1:] < arr[:-1]):
            raise DataValidationError("sample marked sorted but is not nondecreasing")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    @property
    def sorted_values(self) -> np.ndarray:
        return self.values if self.is_sorted else np.sort(self.values)


def as_sample(values) -> Sample1D:
    """Coerce an array-like (or pass through a Sample1D) into a validated sample."""
    if isinstance(values, Sample1D):
        return values
    return Sample1D(np.asarray(values, dtype=np.float64))


@dataclass(frozen=True)
class Dataset:
    """N x D matrix of finite reals plus D column names."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise DataValidationError(f"dataset must be 2-D, got shape {arr.shape}")
        n, d = arr.shape
        if n < 1 or d < 1:
            raise DataValidationError(f"dataset needs at least one row and one column, got {n}x{d}")
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            r, c = bad[0]
            raise DataValidationError(f"non-finite value at row {r}, column {c}")
        names = tuple(_check_name(str(x)) for x in self.names)
        if len(names) != d:
            raise DataValidationError(f"{len(names)} names for {d} columns")
        if len(set(names)) != d:
            raise DataValidationError("duplicate feature names")
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
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DataValidationError(f"expected a 2-D array, got shape {arr.shape}")
    if names is None:
        names = default_names(arr.shape[1])
    return Dataset(tuple(names), arr)


def standardize(ds: Dataset) -> Dataset:
    """Rescale every column to zero mean and unit variance."""
    mean = ds.values.mean(axis=0)
    std = ds.values.std(axis=0)
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        cols = ", ".join(ds.names[int(i)] for i in flat)
        raise DataValidationError(f"cannot standardize constant column(s): {cols}")
    return Dataset(ds.names, (ds.values - mean) / std)


def load_dataset_csv(path) -> Dataset:
    """Read a dataset CSV: one table of names and one row of decimals per sample.

    A leading UTF-8 byte-order mark is dropped. Errors name the first defect
    in file order, with its line number.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        names, values = _read_table(fh, path, 1)
    if not len(values):
        raise DataValidationError(f"{path}: no data rows")
    return Dataset(names, values)


def _read_table(fh, path, header_line: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Names and (R, D) values of a table whose name header is line ``header_line`` of ``fh``.

    Blank lines are skipped; errors name the first defect in file order.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataValidationError(f"{path}: line {header_line}: missing feature-name header") from None
    names = [h.strip() for h in header]
    rows, linenos = [], []
    for lineno, row in enumerate(reader, start=header_line + 1):
        if not row:
            continue
        if len(row) != len(names):
            _check_finite_rows(path, names, rows, linenos)
            raise DataValidationError(
                f"{path}: line {lineno}: expected {len(names)} values, got {len(row)}"
            )
        try:
            rows.append(list(map(float, row)))
        except ValueError:
            _check_finite_rows(path, names, rows, linenos)
            raise DataValidationError(f"{path}: line {lineno}: non-numeric value") from None
        linenos.append(lineno)
    return tuple(names), _check_finite_rows(path, names, rows, linenos)


def _check_finite_rows(path, names, rows, linenos) -> np.ndarray:
    """Stack parsed rows, rejecting the first non-finite value in file order."""
    values = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DataValidationError(
            f"{path}: line {linenos[r]}: non-finite value in column {names[c]!r}"
        )
    return values


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write a dataset CSV with full-precision (round-trippable) decimals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_table(fh, ds.names, ds.values)


def _write_table(fh, names, values) -> None:
    """Write the name header and one row of round-trippable decimals per row of ``values``."""
    fh.write(",".join(names) + "\n")
    for row in values:
        fh.write(",".join(repr(float(v)) for v in row) + "\n")
