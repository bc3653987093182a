"""Pairwise KS matrix: per-feature KS on the diagonal, projected KS off it.

Every pair (i < j) draws its own angle set from (master_seed, i, j), so the
build is deterministic for any worker count and any evaluation order. The
"shared" policy reuses a single angle set, keyed on the master seed alone,
for every pair. The angles of all pairs are drawn in one pass before the
chunks run, and the chunk results are written back with one scatter.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_name
from .errors import DataValidationError
from .ks import ProjectionAngleSet, _ks_merged, _philox_angles, _project_rows, ks_empirical_columns

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
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DataValidationError(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DataValidationError("matrix must have at least one feature")
        if not np.array_equal(arr, arr.T):
            raise DataValidationError("matrix is not symmetric")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise DataValidationError("entry out of [0,1]")
        names = tuple(_check_name(str(n)) for n in self.names)
        if len(names) != arr.shape[0]:
            raise DataValidationError(f"{len(names)} names for a {arr.shape[0]}-feature matrix")
        if self.num_angles < 1:
            raise DataValidationError("angle count must be >= 1")
        if self.master_seed < 0:
            raise DataValidationError("seed must be a nonnegative integer")
        if self.angle_policy not in ANGLE_POLICIES:
            raise DataValidationError(f"unknown angle policy {self.angle_policy!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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
    if p.names != q.names:
        raise DataValidationError("datasets must share identical column names")
    if num_angles < 1:
        raise DataValidationError("angle count must be >= 1")
    if master_seed < 0:
        raise DataValidationError("seed must be a nonnegative integer")
    if angle_policy not in ANGLE_POLICIES:
        raise DataValidationError(f"unknown angle policy {angle_policy!r}")
    if jobs < 1:
        raise DataValidationError("jobs must be >= 1")

    d = p.num_features
    h = np.zeros((d, d), dtype=np.float64)
    h[np.diag_indices(d)] = ks_empirical_columns(p.values, q.values)

    pair_i, pair_j = np.triu_indices(d, k=1)
    num_pairs = pair_i.size
    if angle_policy == "per-pair":
        angles = _philox_angles(master_seed, num_angles, np.column_stack((pair_i, pair_j)))
    else:
        angles = np.broadcast_to(_philox_angles(master_seed, num_angles), (num_pairs, num_angles))
    if angles.size and not (angles.min() >= 0.0 and angles.max() < np.pi):
        raise DataValidationError("angles must lie in [0, pi)")
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
    """Write a matrix file: provenance comment, name header, full-precision rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# ksdiff-matrix L={m.num_angles} seed={m.master_seed} policy={m.angle_policy}\n")
        fh.write(",".join(m.names) + "\n")
        for row in m.entries:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_matrix(path) -> EmpiricalKsMatrix:
    """Read a matrix file back; the round trip through ``save_matrix`` is exact."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataValidationError(f"{path}: empty file")
    meta = _META_RE.match(lines[0])
    if meta is None:
        raise DataValidationError(f"{path}: line 1: expected '# ksdiff-matrix L=<L> seed=<seed> policy=<policy>'")
    num_angles, seed, policy = int(meta.group(1)), int(meta.group(2)), meta.group(3)
    if len(lines) < 2:
        raise DataValidationError(f"{path}: line 2: missing feature-name header")
    names = [n.strip() for n in lines[1].split(",")]
    d = len(names)
    body = [row for row in lines[2:] if row.strip()]
    if len(body) != d:
        raise DataValidationError(f"{path}: expected {d} matrix rows, found {len(body)}")
    entries = np.empty((d, d), dtype=np.float64)
    for r, row in enumerate(body):
        cells = row.split(",")
        if len(cells) != d:
            raise DataValidationError(f"{path}: line {r + 3}: expected {d} entries, got {len(cells)}")
        try:
            entries[r] = [float(c) for c in cells]
        except ValueError:
            raise DataValidationError(f"{path}: line {r + 3}: non-numeric entry") from None
    try:
        return EmpiricalKsMatrix(entries, tuple(names), num_angles, seed, policy)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None
