"""Empirical distribution functions, the two-sample KS statistic, and its
projected (sliced) extension to feature pairs.

The KS statistic of two samples is the largest absolute gap between their
empirical distribution functions. Both EDFs are right-continuous step
functions, so the supremum is attained at a sample value; we compute it with
a single merged scan of the two sorted samples. For a feature pair, the
two-dimensional difference is measured by projecting the pair onto random
directions ``x_i*cos(t) + x_j*sin(t)`` with t uniform on [0, pi) and
averaging the 1-D statistic over the drawn angles.

The kernel works in row layout: each instance is one contiguous row of a
(K, N+M) pooled array, sample a in the first N columns. Projections are made
in that layout, so pooling them copies whole rows instead of transposing. A
gap between the EDFs is only valid at the end of a run of equal values, and
the mask that zeroes the other positions is needed only in rows whose largest
gap sits at such a position: zeroing gaps cannot lower a maximum at a run end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Sample1D, as_sample
from .errors import DataValidationError


def edf_eval(sample, x: float) -> float:
    """Fraction of sample values <= x (right-continuous EDF)."""
    s = as_sample(sample)
    if not np.isfinite(x):
        raise DataValidationError(f"EDF argument must be finite, got {x}")
    return float(np.searchsorted(s.sorted_values, x, side="right")) / len(s)


def _ks_merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise two-sample KS via a merged scan of both sorted samples.

    ``a`` is (N, K), ``b`` is (M, K); column k of each holds one instance.
    Both are copied into one C-contiguous (K, N+M) row-layout array, sample a
    first; when they are transposed views of row-layout arrays (as the
    projections are) the copy moves whole rows. After sorting each row, the
    running per-sample counts give both EDFs. A gap is only a valid EDF
    difference at the end of a run of equal values, so positions followed by
    an equal value are masked out, but only in rows whose argmax is such a
    position: elsewhere the argmax is a run end, and masking, which only
    zeroes gaps, leaves that maximum unchanged. The last position of a row is
    always a run end.
    """
    n, m = a.shape[0], b.shape[0]
    k, total = a.shape[1], n + m
    # the three (K, N+M) float arrays share one allocation and are filled in
    # place: the allocator keeps one block this large for the next call, while
    # three separate arrays are returned to the OS and page-faulted back in
    # on every call
    pooled, count_b, gaps = np.empty((3, k, total))
    pooled[:, :n] = a.T
    pooled[:, n:] = b.T
    # any sort order within a run of equal values yields the same run-end
    # counts, so the default (unstable) argsort is safe
    order = np.argsort(pooled, axis=1)
    # counts are integers, exact in float64 below 2**53; the gaps are formed
    # with the same two divisions as |count_a/n - count_b/m|
    np.greater_equal(order, n, out=count_b)
    np.cumsum(count_b, axis=1, out=count_b)
    np.subtract(np.arange(1, total + 1, dtype=np.float64), count_b, out=gaps)
    gaps /= n
    count_b /= m
    gaps -= count_b
    np.abs(gaps, out=gaps)

    rows = np.arange(k)
    top = gaps.argmax(axis=1)
    best = gaps[rows, top]
    after = np.minimum(top + 1, total - 1)
    tied = np.flatnonzero(
        (top < total - 1) & (pooled[rows, order[rows, top]] == pooled[rows, order[rows, after]])
    )
    if tied.size:
        ranked = np.take_along_axis(pooled[tied], order[tied], axis=1)
        masked = gaps[tied]
        masked[:, :-1][ranked[:, 1:] == ranked[:, :-1]] = 0.0
        best[tied] = masked.max(axis=1)
    return best


def ks_empirical(p, q) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, in [0, 1].

    Equals ``max_x |EDF_p(x) - EDF_q(x)|``; the maximum is taken over the
    union of both samples' values, which attains the supremum.
    """
    pv = as_sample(p).values
    qv = as_sample(q).values
    return float(_ks_merged(pv[:, None], qv[:, None])[0])


def ks_empirical_columns(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Column-wise KS statistics of two matrices with matching column counts."""
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
        raise DataValidationError("column-wise KS needs two 2-D arrays with equal column counts")
    return _ks_merged(p, q)


@dataclass(frozen=True)
class ProjectionAngleSet:
    """Projection angles for one feature pair, with the provenance to regenerate them.

    ``generate`` is keyed on (seed, pair) through a counter-based generator,
    so any pair's angles can be rebuilt in isolation and in any order.
    """

    angles: np.ndarray
    seed: int
    pair_id: tuple[int, int] | None = None

    def __post_init__(self):
        arr = np.asarray(self.angles, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise DataValidationError("angle set must hold at least one angle")
        if np.any(arr < 0.0) or np.any(arr >= np.pi):
            raise DataValidationError("angles must lie in [0, pi)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "angles", arr)

    def __len__(self) -> int:
        return self.angles.size

    @classmethod
    def generate(cls, seed: int, count: int, pair: tuple[int, int] | None = None) -> "ProjectionAngleSet":
        if count < 1:
            raise DataValidationError("angle count must be >= 1")
        if seed < 0:
            raise DataValidationError("seed must be a nonnegative integer")
        if pair is None:
            ss = np.random.SeedSequence(seed)
        else:
            ss = np.random.SeedSequence(seed, spawn_key=(int(pair[0]), int(pair[1])))
        rng = np.random.Generator(np.random.Philox(ss))
        return cls(rng.uniform(0.0, np.pi, size=count), seed, pair)


def _check_pair(ds: Dataset, i: int, j: int) -> None:
    d = ds.num_features
    if not (0 <= i < d and 0 <= j < d):
        raise DataValidationError(f"feature indices ({i}, {j}) out of range for {d} features")
    if i == j:
        raise DataValidationError("projection requires distinct features")


def project_pair(ds: Dataset, i: int, j: int, theta: float) -> Sample1D:
    """Project columns (i, j) onto the direction (cos theta, sin theta)."""
    _check_pair(ds, i, j)
    if not (0.0 <= theta < np.pi):
        raise DataValidationError(f"projection angle must lie in [0, pi), got {theta}")
    return Sample1D(ds.values[:, i] * np.cos(theta) + ds.values[:, j] * np.sin(theta))


def _project_rows(
    xt: np.ndarray, cols_i: np.ndarray, cols_j: np.ndarray, cos: np.ndarray, sin: np.ndarray
) -> np.ndarray:
    """Projections ``x_i*cos + x_j*sin`` of a (D, N) transposed sample, one per row.

    ``cols_i``, ``cols_j``, ``cos`` and ``sin`` hold one entry per instance;
    the result is a C-contiguous (K, N) array. The matrix build and the
    projected KS functions both project here, so their projections agree bit
    for bit.
    """
    rows = xt[cols_i]
    rows *= cos[:, None]
    other = xt[cols_j]
    other *= sin[:, None]
    rows += other
    return rows


def _projected_ks_values(p: Dataset, q: Dataset, i: int, j: int, angles: np.ndarray) -> np.ndarray:
    cols_i, cols_j = np.full(angles.size, i), np.full(angles.size, j)
    cos, sin = np.cos(angles), np.sin(angles)
    rp = _project_rows(p.values.T, cols_i, cols_j, cos, sin)
    rq = _project_rows(q.values.T, cols_i, cols_j, cos, sin)
    return _ks_merged(rp.T, rq.T)


def projected_ks(p: Dataset, q: Dataset, i: int, j: int, angles) -> float:
    """Mean KS statistic over the angle set's projections of feature pair (i, j).

    Deterministic given the angle set; Monte-Carlo estimate of the expected
    projected KS distance when the angles are uniform draws from [0, pi).
    """
    _check_pair(p, i, j)
    _check_pair(q, i, j)
    if isinstance(angles, ProjectionAngleSet):
        arr = angles.angles
    else:
        arr = ProjectionAngleSet(np.asarray(angles, dtype=np.float64), seed=0).angles
    return float(np.mean(_projected_ks_values(p, q, i, j, arr)))


def projected_ks_grid(p: Dataset, q: Dataset, i: int, j: int, grid_size: int = 10_000) -> float:
    """Deterministic midpoint-grid quadrature of the projected KS distance.

    Reference value for validating the Monte-Carlo estimate at a chosen
    angle budget; cost grows linearly in ``grid_size``.
    """
    _check_pair(p, i, j)
    _check_pair(q, i, j)
    if grid_size < 1:
        raise DataValidationError("grid size must be >= 1")
    grid = (np.arange(grid_size) + 0.5) * (np.pi / grid_size)
    return float(np.mean(_projected_ks_values(p, q, i, j, grid)))
