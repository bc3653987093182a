"""Empirical distribution functions, the two-sample KS statistic, and its
projected (sliced) extension to feature pairs.

The KS statistic of two samples is the largest absolute gap between their
empirical distribution functions. Both EDFs are right-continuous step
functions, so the supremum is attained at a sample value; we compute it with
a single merged scan of the two sorted samples. For a feature pair, the
two-dimensional difference is measured by projecting the pair onto random
directions ``x_i*cos(t) + x_j*sin(t)`` with t uniform on [0, pi) and
averaging the 1-D statistic over the drawn angles.

The angles of pair (i, j) are numpy's Philox stream keyed by
``SeedSequence(seed, spawn_key=(i, j))``: the values of
``Generator(Philox(...)).uniform(0, pi, L)``, bit for bit. Philox is counter
based, so the seed hash and the cipher are computed for all pairs at once as
uint32/uint64 array arithmetic, with no generator object per pair.

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

from .data import Dataset, Sample1D, _integer, as_sample
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


_U32, _U64 = np.uint32, np.uint64
_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash (a pool of four 32-bit words); every operation on
# arrays takes explicit uint32/uint64 scalars so nothing is promoted to float
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = _U32(0xCA01F9DD), _U32(0x4973F715), _U32(16)
# Philox4x64-10 round multipliers and Weyl key increments
_PHILOX_M = (_U64(0xD2E7470EE14C6C93), _U64(0xCA5A826395121157))
_PHILOX_W = (_U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B))
_LOW32, _SHIFT32 = _U64(_MASK32), _U64(32)
# rows of the angle table drawn at a time, which bounds the Philox temporaries
_ANGLE_BLOCK_ROWS = 512


def _philox_keys(seed: int, spawn: list[np.ndarray], rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Philox keys of ``SeedSequence(seed, spawn_key=...)``, one per row.

    ``spawn`` holds one uint32 array per spawn-key word (empty for no spawn
    key). The key is ``generate_state(2, uint64)``, split into two uint64
    arrays. The hash constants advance with the step alone, so they are
    scalars shared by all rows.
    """
    words = []
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    # zero words hash exactly like the pool slots numpy fills with hashmix(0),
    # and numpy pads to the pool size explicitly when there is a spawn key
    words += [0] * (4 - len(words))
    entropy = [np.full(rows, w, dtype=_U32) for w in words] + spawn
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ _U32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * _U32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ _U32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * _U32(hash_const)
        state.append((word ^ (word >> _XSHIFT)).astype(_U64))
    return state[0] | (state[1] << _SHIFT32), state[2] | (state[3] << _SHIFT32)


def _mulhi64(a: np.ndarray, m: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * m``, from 32-bit limbs."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    lo_lo = a_lo * m_lo
    hi_lo = a_hi * m_lo
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + a_lo * m_hi
    return a_hi * m_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32)


def _philox_angles(seed: int, count: int, pairs: np.ndarray | None = None) -> np.ndarray:
    """Angle table of ``Generator(Philox(SeedSequence(seed, spawn_key=pair))).uniform(0, pi, count)``.

    Row r holds the ``count`` angles of ``pairs[r]``, a (P, 2) array of
    feature indices; with ``pairs=None`` the table has one row, drawn with no
    spawn key. Philox is counter based, so all rows are computed at once:
    numpy increments the counter before each four-word block, so block b
    (from 0) encrypts counter ``b + 1``, and each word x becomes the angle
    ``pi * ((x >> 11) * 2**-53)``. Every value equals numpy's bit for bit.
    """
    if pairs is None:
        rows, spawn = 1, []
    else:
        pairs = np.asarray(pairs).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() > _MASK32):
            raise DataValidationError("pair indices must lie in [0, 2**32)")
        rows, spawn = len(pairs), [pairs[:, 0].astype(_U32), pairs[:, 1].astype(_U32)]
    key0, key1 = _philox_keys(seed, spawn, rows)
    blocks = -(-count // 4)
    counter = np.arange(1, blocks + 1, dtype=_U64)
    zeros = np.zeros(blocks, dtype=_U64)
    table = np.empty((rows, count))
    for start in range(0, rows, _ANGLE_BLOCK_ROWS):
        k0 = key0[start : start + _ANGLE_BLOCK_ROWS, None]
        k1 = key1[start : start + _ANGLE_BLOCK_ROWS, None]
        c0, c1, c2, c3 = counter, zeros, zeros, zeros
        for round_ in range(10):
            if round_:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhi64(c0, _PHILOX_M[0]), c0 * _PHILOX_M[0]
            hi1, lo1 = _mulhi64(c2, _PHILOX_M[1]), c2 * _PHILOX_M[1]
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
        words = words.reshape(len(k0), 4 * blocks)[:, :count] >> _U64(11)
        table[start : start + len(k0)] = np.pi * (words * (1.0 / 9007199254740992.0))
    return table


@dataclass(frozen=True)
class ProjectionAngleSet:
    """Projection angles for one feature pair, with the provenance to regenerate them.

    ``generate`` is keyed on (seed, pair) through a counter-based generator,
    so any pair's angles can be rebuilt in isolation and in any order; its
    angles are the row of ``_philox_angles`` that the matrix build uses.
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
        count = _integer("count", count, 1)
        seed = _integer("seed", seed, 0)
        pairs = None if pair is None else np.array([[int(pair[0]), int(pair[1])]], dtype=object)
        return cls(_philox_angles(seed, count, pairs)[0], seed, pair)


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
    grid_size = _integer("grid_size", grid_size, 1)
    grid = (np.arange(grid_size) + 0.5) * (np.pi / grid_size)
    return float(np.mean(_projected_ks_values(p, q, i, j, grid)))
