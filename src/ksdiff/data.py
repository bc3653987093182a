"""Tabular sample containers and CSV round-trip.

A dataset is an N x D matrix of finite reals with named feature columns.
Indices are 0-based throughout; column names are display labels only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError


def _check_name(name: str) -> str:
    if not name:
        raise DataValidationError("feature names must be non-empty")
    if "," in name or "\n" in name or "\r" in name:
        raise DataValidationError(f"feature name {name!r} contains a comma or newline")
    return name


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
    """Read a dataset CSV: header row of names, one row of decimals per sample.

    A leading UTF-8 byte-order mark is dropped. Errors name the first defect
    in file order, with its line number.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        rows, linenos = [], []
        for lineno, row in enumerate(reader, start=2):
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
    if not rows:
        raise DataValidationError(f"{path}: no data rows")
    values = _check_finite_rows(path, names, rows, linenos)
    return Dataset(tuple(names), values)


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
        fh.write(",".join(ds.names) + "\n")
        for row in ds.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
