"""Empirical distribution functions, the two-sample KS statistic, and the
pieces of its projected (sliced) extension to feature pairs.

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
(K, N+M) array, sample a in the first N columns. Projections are made in that
layout, so pooling them copies whole rows instead of transposing. A gap
between the EDFs is only valid at the end of a run of equal values.

Each half of a row is sorted by numpy, and the statistic is found by one
merge scan in C (``ks_scan`` in ``_native.c``). On the first native call, not
at import, the source is compiled with the local ``cc`` into
``$XDG_CACHE_HOME/ksdiff``, or ``~/.cache/ksdiff`` when that is unset, and
later processes load it from there. Without a compiler or a writable cache,
and for samples with ``N*M >= 2**50``, the numpy kernel ``_ks_merged_numpy``
runs instead; both return the same bytes.

A sample passes the library's one array check, ``data._array`` (1-D, or
2-D for the column-wise statistic); angles also pass ``_angles`` (in
[0, pi)). ``_project_rows`` is the one projection; the pair statistic built
from it, ``projected_ks`` and the matrix build live in ``matrix``.
"""

from __future__ import annotations

import numpy as np

from . import _native
from .data import _array, _finite
from .errors import DataValidationError


def edf_eval(sample, x: float) -> float:
    """Fraction of sample values <= x (right-continuous EDF)."""
    s = np.sort(_array(sample, 1, "sample"))
    x = _finite("x", x)
    return float(np.searchsorted(s, x, side="right")) / s.size


# below this product of the sample sizes the integer gap |i*m - j*n| orders
# the float gaps |i/n - j/m| of any two positions whose integer gaps differ
_NATIVE_LIMIT = 2**50


def _ks_merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise two-sample KS: both samples sorted by numpy, then one C scan.

    ``a`` is (N, K), ``b`` is (M, K); column k of each holds one instance.
    Row k of one block holds instance k's sorted a, a slot the scan writes
    its stop value to, sorted b and one more such slot. The result is the
    same, bit for bit, as that of ``_ks_merged_numpy``, which runs instead
    when the native scan is unavailable or ``N*M >= 2**50``.
    """
    n, m, k = a.shape[0], b.shape[0], a.shape[1]
    scan = _native.ks_scan() if 0 < n * m < _NATIVE_LIMIT else None
    if scan is None:
        return _ks_merged_numpy(a, b)
    block = np.empty((k, n + m + 2))
    block[:, :n] = a.T
    block[:, n + 1 : -1] = b.T
    block[:, :n].sort(axis=1)
    block[:, n + 1 : -1].sort(axis=1)
    out = np.empty(k)
    scan(block.ctypes.data, n + m + 2, n, m, k, out.ctypes.data)
    return out


def _ks_merged_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise two-sample KS in numpy: the fallback of ``_ks_merged``.

    Same call form and result. Both samples are copied into one C-contiguous
    (K, N+M) row-layout array, sample a first; when they are transposed views
    of row-layout arrays (as the projections are) the copy moves whole rows.
    After sorting each row, the running per-sample counts give both EDFs. A
    gap is only a valid EDF difference at the end of a run of equal values,
    so positions followed by an equal value are masked out, but only in rows
    whose argmax is such a position: elsewhere the argmax is a run end, and
    masking, which only zeroes gaps, leaves that maximum unchanged. The last
    position of a row is always a run end.
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
    pv = _array(p, 1, "sample")
    qv = _array(q, 1, "sample")
    return float(_ks_merged(pv[:, None], qv[:, None])[0])


def ks_empirical_columns(p, q) -> np.ndarray:
    """Column-wise KS statistics of two matrices with matching column counts."""
    p, q = _array(p, 2, "sample"), _array(q, 2, "sample")
    if p.shape[1] != q.shape[1]:
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
    feature indices in [0, 2**32); with ``pairs=None`` the table has one row,
    drawn with no spawn key. Philox is counter based, so all rows are
    computed at once: numpy increments the counter before each four-word
    block, so block b (from 0) encrypts counter ``b + 1``, and each word x
    becomes the angle ``pi * ((x >> 11) * 2**-53)``. Every value equals
    numpy's bit for bit.
    """
    if pairs is None:
        rows, spawn = 1, []
    else:
        pairs = np.asarray(pairs).reshape(-1, 2)
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


def _angles(arr: np.ndarray) -> np.ndarray:
    """``arr``, a float array, rejected unless every angle lies in [0, pi).

    The test is written so that a NaN angle fails it.
    """
    if arr.size and not (arr.min() >= 0.0 and arr.max() < np.pi):
        raise DataValidationError("angles must lie in [0, pi)")
    return arr


def _project_rows(
    xt: np.ndarray, cols_i: np.ndarray, cols_j: np.ndarray, cos: np.ndarray, sin: np.ndarray
) -> np.ndarray:
    """Projections ``x_i*cos + x_j*sin`` of a (D, N) transposed sample, one per row.

    ``cols_i``, ``cols_j``, ``cos`` and ``sin`` hold one entry per instance;
    the result is a C-contiguous (K, N) array. Its one caller is the pair
    evaluator ``matrix._projected_ks_values``.
    """
    rows = xt[cols_i]
    rows *= cos[:, None]
    other = xt[cols_j]
    other *= sin[:, None]
    # a sum beyond the float range is +-inf, which both kernels rank exactly
    with np.errstate(over="ignore"):
        rows += other
    return rows
