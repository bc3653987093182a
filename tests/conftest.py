"""Shared test oracles: deliberately simple, independent re-implementations."""

from itertools import combinations

import numpy as np
import pytest

from ksdiff import _native


@pytest.fixture
def without_native(monkeypatch):
    """The native library made unavailable, as without a compiler: numpy and ``csv`` run."""
    monkeypatch.setattr(_native, "_tried", True)
    monkeypatch.setattr(_native, "_lib", None)


def ks_jump_oracle(p, q) -> float:
    """KS statistic by literal EDF evaluation at every jump point."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    best = 0.0
    for x in np.unique(np.concatenate([p, q])):
        gap = abs(np.count_nonzero(p <= x) / p.size - np.count_nonzero(q <= x) / q.size)
        if gap > best:
            best = gap
    return best


def random_sample_pair(rng, tie_heavy: bool):
    n = int(rng.integers(1, 60))
    m = int(rng.integers(1, 60))
    if tie_heavy:
        return (
            rng.integers(0, 6, size=n).astype(np.float64),
            rng.integers(0, 6, size=m).astype(np.float64),
        )
    p = rng.normal(size=n)
    q = rng.normal(loc=float(rng.normal()), size=m)
    return p, q


def brute_force_min(w: np.ndarray, k: int):
    """Pruning-free enumeration of the minimum complement objective."""
    best_val, best_comp = np.inf, ()
    for comp in combinations(range(w.shape[0]), k):
        idx = np.asarray(comp, dtype=np.intp)
        val = float(w[np.ix_(idx, idx)].sum()) if k else 0.0
        if val < best_val:
            best_val, best_comp = val, comp
    return best_val, tuple(best_comp)


def exact_min_oracle(w: np.ndarray, k: int):
    """Branch-and-bound minimum: (selected, objective) under exact_min's tie rule.

    Complements are explored in lexicographic order, folding each member in
    as ``partial + w[c, c] + 2.0 * cross[c]``; a partial complement is
    abandoned once it reaches the incumbent, so the first-found,
    lexicographically smallest complement of least folded value wins.
    """
    d = w.shape[0]
    best_value, best_complement, chosen = np.inf, [], []

    def descend(start, partial, cross):
        nonlocal best_value, best_complement
        if len(chosen) == k:
            if partial < best_value:
                best_value, best_complement = partial, list(chosen)
            return
        for nxt in range(start, d - (k - len(chosen)) + 1):
            added = partial + w[nxt, nxt] + 2.0 * cross[nxt]
            if added >= best_value:
                continue
            chosen.append(nxt)
            descend(nxt + 1, added, cross + w[nxt])
            chosen.pop()

    if k:
        descend(0, 0.0, np.zeros(d))
    idx = np.asarray(best_complement, dtype=np.intp)
    objective = float(w[np.ix_(idx, idx)].sum()) if k else 0.0
    return tuple(i for i in range(d) if i not in best_complement), objective


def margin_oracle(w: np.ndarray, selected, k: int) -> float:
    """Brute-force optimality margin: best competing complement minus the given one."""
    d = w.shape[0]
    baseline = tuple(sorted(set(range(d)) - {int(i) for i in selected}))

    def value(comp):
        idx = np.asarray(comp, dtype=np.intp)
        return float(w[np.ix_(idx, idx)].sum()) if comp else 0.0

    f_star = value(baseline)
    return float(min(value(comp) - f_star for comp in combinations(range(d), k) if comp != baseline))


def structured_instance(rng, d: int, k: int):
    """Weight matrix with an exactly-zero complement block and positive margin.

    Returns (matrix, changed_features): every changed feature has a positive
    diagonal and positive couplings, the unchanged block is zero, so the
    changed set is the unique minimizer's complement-complement.
    """
    changed = sorted(int(i) for i in rng.choice(d, size=d - k, replace=False))
    w = np.zeros((d, d))
    for a in changed:
        w[a] = rng.uniform(0.2, 1.0, size=d)
        w[:, a] = w[a]
    w = np.triu(w) + np.triu(w, 1).T
    keep = np.zeros(d, dtype=bool)
    keep[changed] = True
    block = ~keep
    w[np.ix_(block, block)] = 0.0
    return w, changed
