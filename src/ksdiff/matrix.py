"""Pairwise KS matrix: per-feature KS on the diagonal, projected KS off it.

Every pair (i < j) draws its own angle set from (master_seed, i, j), so the
build is deterministic for any worker count and any evaluation order. The
"shared" policy reuses a single angle set, keyed on the master seed alone,
for every pair. The angles of all pairs are drawn in one pass before the
chunks run, and the chunk results are written back with one scatter.
A matrix file is a provenance line followed by the entries as a dataset CSV
table, read and written by the same code as a dataset CSV.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_name, _check_same_columns, _integer, _read_table, _write_table
from .errors import DataValidationError
from .ks import ProjectionAngleSet, _angles, _ks_merged, _philox_angles, _project_rows, ks_empirical_columns

ANGLE_POLICIES = ("per-pair", "shared")

# feature pairs are evaluated in groups so one sort call serves many
# projections while the working set stays cache-sized; grouping never
# changes values (instances are independent) and depends only on the
# problem shape, never on the worker count
_CHUNK_ELEMENT_BUDGET = 250_000
_MAX_PAIRS_PER_CHUNK = 16


def _pairs_per_chunk(rows_pooled: int, num_angles: int) -> int:
    by_budget = _CHUNK_ELEMENT_BUDGET // max(1, rows_pooled * num_angles)
    return int(min(_MAX_PAIRS_PER_CHUNK, max(1, by_budget)))

_META_RE = re.compile(r"^# ksdiff-matrix L=(\d+) seed=(\d+) policy=(\S+)$")


@dataclass(frozen=True)
class EmpiricalKsMatrix:
    """Symmetric D x D matrix of KS statistics with the provenance that built it."""

    entries: np.ndarray
    names: tuple[str, ...]
    num_angles: int
    master_seed: int
    angle_policy: str

    def __post_init__(self):
        arr = as_weight_matrix(self.entries)
        if arr.shape[0] < 1:
            raise DataValidationError("matrix must have at least one feature")
        if np.any(arr > 1.0):
            raise DataValidationError("entry out of [0,1]")
        names = tuple(_check_name(str(n)) for n in self.names)
        if len(names) != arr.shape[0]:
            raise DataValidationError(f"{len(names)} names for a {arr.shape[0]}-feature matrix")
        _integer("num_angles", self.num_angles, 1)
        _integer("master_seed", self.master_seed, 0)
        if self.angle_policy not in ANGLE_POLICIES:
            raise DataValidationError(f"unknown angle policy {self.angle_policy!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def as_weight_matrix(h) -> np.ndarray:
    """Coerce a KS matrix or raw array into a validated symmetric nonnegative matrix."""
    if isinstance(h, EmpiricalKsMatrix):
        return h.entries
    arr = np.asarray(h, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DataValidationError(f"weight matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataValidationError("weight matrix contains non-finite entries")
    if not np.array_equal(arr, arr.T):
        raise DataValidationError("weight matrix is not symmetric")
    if np.any(arr < 0.0):
        raise DataValidationError("weight matrix has negative entries")
    return arr


def pair_angles(master_seed: int, num_angles: int, i: int, j: int, policy: str) -> ProjectionAngleSet:
    """Angle set used for pair (i, j) under the given policy."""
    if policy == "per-pair":
        lo, hi = (i, j) if i < j else (j, i)
        return ProjectionAngleSet.generate(master_seed, num_angles, pair=(lo, hi))
    if policy == "shared":
        return ProjectionAngleSet.generate(master_seed, num_angles)
    raise DataValidationError(f"unknown angle policy {policy!r}")


def build_ks_matrix(
    p: Dataset,
    q: Dataset,
    num_angles: int,
    master_seed: int,
    angle_policy: str = "per-pair",
    jobs: int = 1,
) -> EmpiricalKsMatrix:
    """Build the pairwise KS matrix of two datasets with identical columns.

    Diagonal entry i is the KS statistic of column i across the datasets;
    entry (i, j) averages the KS statistic over the pair's projection angles.
    The result is identical for any ``jobs`` value.
    """
    _check_same_columns(p, q)
    num_angles = _integer("num_angles", num_angles, 1)
    master_seed = _integer("master_seed", master_seed, 0)
    jobs = _integer("jobs", jobs, 1)
    if angle_policy not in ANGLE_POLICIES:
        raise DataValidationError(f"unknown angle policy {angle_policy!r}")

    d = p.num_features
    h = np.zeros((d, d), dtype=np.float64)
    h[np.diag_indices(d)] = ks_empirical_columns(p.values, q.values)

    pair_i, pair_j = np.triu_indices(d, k=1)
    num_pairs = pair_i.size
    pairs = np.column_stack((pair_i, pair_j)) if angle_policy == "per-pair" else None
    table = _angles(_philox_angles(master_seed, num_angles, pairs))
    angles = np.broadcast_to(table, (num_pairs, num_angles))
    step = _pairs_per_chunk(p.num_rows + q.num_rows, num_angles)
    # one feature per contiguous row, so each chunk projects straight into row layout
    pt = np.ascontiguousarray(p.values.T)
    qt = np.ascontiguousarray(q.values.T)
    values = np.empty(num_pairs)

    def eval_chunk(start):
        stop = start + step
        chunk_angles = angles[start:stop].ravel()
        cols_i = np.repeat(pair_i[start:stop], num_angles)
        cols_j = np.repeat(pair_j[start:stop], num_angles)
        cos, sin = np.cos(chunk_angles), np.sin(chunk_angles)
        rp = _project_rows(pt, cols_i, cols_j, cos, sin)
        rq = _project_rows(qt, cols_i, cols_j, cos, sin)
        values[start:stop] = _ks_merged(rp.T, rq.T).reshape(-1, num_angles).mean(axis=1)

    starts = range(0, num_pairs, step)
    if jobs == 1 or len(starts) < 2:
        for start in starts:
            eval_chunk(start)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            # reading every result re-raises an exception from any chunk
            list(pool.map(eval_chunk, starts))

    h[pair_i, pair_j] = values
    h[pair_j, pair_i] = values
    return EmpiricalKsMatrix(h, p.names, num_angles, master_seed, angle_policy)


def save_matrix(m: EmpiricalKsMatrix, path) -> None:
    """Write a matrix file: provenance comment, then the entries as a dataset CSV table."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# ksdiff-matrix L={m.num_angles} seed={m.master_seed} policy={m.angle_policy}\n")
        _write_table(fh, m.names, m.entries)


def load_matrix(path) -> EmpiricalKsMatrix:
    """Read a matrix file back; the round trip through ``save_matrix`` is exact."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        meta = _META_RE.match(fh.readline().rstrip("\r\n"))
        if meta is None:
            raise DataValidationError(f"{path}: line 1: expected '# ksdiff-matrix L=<L> seed=<seed> policy=<policy>'")
        names, entries = _read_table(fh, path, 2)
    if len(entries) != len(names):
        raise DataValidationError(f"{path}: expected {len(names)} matrix rows, found {len(entries)}")
    try:
        return EmpiricalKsMatrix(entries, names, int(meta.group(1)), int(meta.group(2)), meta.group(3))
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None
