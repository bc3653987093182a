"""Pairwise KS matrix: per-feature KS on the diagonal, projected KS off it.

Every pair (i < j) draws its own angles from (master_seed, i, j), so the
build is deterministic for any worker count and any evaluation order. The
"shared" policy reuses one row of angles, keyed on the master seed alone,
for every pair; ``pair_angles`` returns a pair's row under either policy.
The angles of all pairs are drawn in one pass before the chunks run, and the
chunk results are written back with one scatter.

``_projected_ks_values`` is the one evaluator of the projected statistic:
the build's chunks, ``projected_ks`` and ``projected_ks_grid`` all call it.
A matrix file is a provenance line followed by the entries as a dataset CSV
table, read and written by the same code as a dataset CSV.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .data import Dataset, _array, _check_names, _check_same_columns, _fan_out, _integer, _read_bytes, _read_table, _write_table
from .errors import DataValidationError
from .ks import _angles, _ks_merged, _philox_angles, _project_rows, ks_empirical_columns

ANGLE_POLICIES = ("per-pair", "shared")

# projection angles per feature pair (L) wherever a caller does not choose
DEFAULT_NUM_ANGLES = 10

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


def _angle_settings(num_angles, master_seed, policy) -> tuple[int, int]:
    """Checked ``num_angles`` and ``master_seed``; ``policy`` must name one of ``ANGLE_POLICIES``."""
    num_angles = _integer("num_angles", num_angles, 1)
    master_seed = _integer("master_seed", master_seed, 0)
    if policy not in ANGLE_POLICIES:
        raise DataValidationError(f"unknown angle policy {policy!r}")
    return num_angles, master_seed


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
        if np.any(arr > 1.0):
            raise DataValidationError("entry out of [0,1]")
        names = _check_names(self.names, arr.shape[0])
        _angle_settings(self.num_angles, self.master_seed, self.angle_policy)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def as_weight_matrix(h) -> np.ndarray:
    """A KS matrix's entries, or a raw array checked as a finite, square, symmetric, nonnegative matrix with a finite doubled sum."""
    if isinstance(h, EmpiricalKsMatrix):
        return h.entries
    arr = _array(h, 2, "weight matrix")
    if arr.shape[0] != arr.shape[1]:
        raise DataValidationError(f"weight matrix must be square, got shape {arr.shape}")
    if not np.array_equal(arr, arr.T):
        raise DataValidationError("weight matrix is not symmetric")
    if np.any(arr < 0.0):
        raise DataValidationError("weight matrix has negative entries")
    # the solvers form w.sum() and 2.0 * row sums; no partial sum exceeds the total
    with np.errstate(over="ignore"):
        if not np.isfinite(2.0 * arr.sum()):
            raise DataValidationError("weight matrix is too large: twice its sum overflows the float range")
    return arr


def pair_angles(master_seed: int, num_angles: int, i: int, j: int, policy: str) -> np.ndarray:
    """Read-only angles of pair (i, j) under the given policy: its row of the build's table.

    Under "per-pair" the pair is keyed as (min, max) and each index must fit
    one 32-bit spawn-key word; "shared" ignores the pair.
    """
    num_angles, master_seed = _angle_settings(num_angles, master_seed, policy)
    pairs = None
    if policy == "per-pair":
        i, j = (_integer("pair indices", k, 0, 2**32 - 1) for k in (i, j))
        pairs = np.array([[min(i, j), max(i, j)]])
    angles = _philox_angles(master_seed, num_angles, pairs)[0]
    angles.flags.writeable = False
    return angles


def _projected_ks_values(pt: np.ndarray, qt: np.ndarray, pair_i, pair_j, angles: np.ndarray) -> np.ndarray:
    """Mean KS over the projections of each pair, one value per row of ``angles``.

    ``pt`` and ``qt`` are the (D, N) and (D, M) transposed samples; row r of
    the (P, L) ``angles`` table holds the angles of pair (pair_i[r],
    pair_j[r]). All P*L projections go to one kernel call.
    """
    num_angles = angles.shape[1]
    flat = angles.ravel()
    cols_i = np.repeat(pair_i, num_angles)
    cols_j = np.repeat(pair_j, num_angles)
    cos, sin = np.cos(flat), np.sin(flat)
    rp = _project_rows(pt, cols_i, cols_j, cos, sin)
    rq = _project_rows(qt, cols_i, cols_j, cos, sin)
    return _ks_merged(rp.T, rq.T).reshape(-1, num_angles).mean(axis=1)


def _check_pair(p: Dataset, q: Dataset, i: int, j: int) -> tuple[int, int]:
    _check_same_columns(p, q)
    d = p.num_features
    i, j = _integer("i", i, 0, d - 1), _integer("j", j, 0, d - 1)
    if i == j:
        raise DataValidationError("projection requires distinct features")
    return i, j


def projected_ks(p: Dataset, q: Dataset, i: int, j: int, angles) -> float:
    """Mean KS statistic over the projections of feature pair (i, j) at ``angles``.

    ``angles`` is a non-empty 1-D array-like in [0, pi), such as
    ``pair_angles``'s. Deterministic given the angles; Monte-Carlo estimate
    of the expected projected KS distance when they are uniform draws.
    """
    i, j = _check_pair(p, q, i, j)
    arr = _angles(_array(angles, 1, "angle set"))
    return float(_projected_ks_values(p.values.T, q.values.T, [i], [j], arr[None])[0])


def projected_ks_grid(p: Dataset, q: Dataset, i: int, j: int, grid_size: int = 10_000) -> float:
    """Deterministic midpoint-grid quadrature of the projected KS distance.

    Reference value for validating the Monte-Carlo estimate at a chosen
    angle budget; cost grows linearly in ``grid_size``.
    """
    grid_size = _integer("grid_size", grid_size, 1)
    return projected_ks(p, q, i, j, (np.arange(grid_size) + 0.5) * (np.pi / grid_size))


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
    num_angles, master_seed = _angle_settings(num_angles, master_seed, angle_policy)
    jobs = _integer("jobs", jobs, 1)

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
        chunk = slice(start, start + step)
        values[chunk] = _projected_ks_values(pt, qt, pair_i[chunk], pair_j[chunk], angles[chunk])

    _fan_out(eval_chunk, range(0, num_pairs, step), jobs)
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
    raw = _read_bytes(path)
    # line 1 ends at "\n", "\r" or "\r\n", as in the text mode that reads the table
    meta = _META_RE.match(re.match(rb"[^\r\n]*", raw).group().decode("utf-8", "replace"))
    if meta is None:
        raise DataValidationError(f"{path}: line 1: expected '# ksdiff-matrix L=<L> seed=<seed> policy=<policy>'")
    names, entries = _read_table(raw, path, 2)
    if len(entries) != len(names):
        raise DataValidationError(f"{path}: expected {len(names)} matrix rows, found {len(entries)}")
    try:
        return EmpiricalKsMatrix(entries, names, int(meta.group(1)), int(meta.group(2)), meta.group(3))
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None
