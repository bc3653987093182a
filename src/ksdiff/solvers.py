"""Minimizers for the sparsest k-subgraph objective over a weight matrix.

For a symmetric nonnegative matrix H, the objective of a selection S is the
sum of H over the complement block, f(S) = sum_{i,j not in S} H[i][j]; its
minimum over size-k complements is densest-k-subgraph on the complement
(Feige, Kortsarz and Peleg 2001). Greedy peeling (after Charikar 2000)
removes the heaviest remaining feature each round: ``greedy_k`` runs D-k
rounds, ``greedy_score`` runs all D and scores each round's drop in f.
``exact_min`` and ``optimality_margin`` share one pruned, block-vectorised
enumerator of complements (``_scan``). Ties go to the smallest feature index
(greedy) or to the lexicographically first complement (exact), so every
solver is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Sequence

import numpy as np

from .data import _integer
from .errors import DataValidationError, SolverLimitError
from .matrix import as_weight_matrix

DEFAULT_EXACT_LIMIT = 25

_BLOCK = 4096  # suffix rows the enumerator evaluates in one numpy pass


@dataclass(frozen=True)
class SolverResult:
    """Selected features (in order of selection), objective value, optional scores."""

    selected: tuple[int, ...]
    objective: float
    method: str
    scores: np.ndarray | None = None


def complement_objective(h, complement: Sequence[int]) -> float:
    """Direct evaluation of f at a complement set."""
    w = as_weight_matrix(h)
    idx = np.asarray(sorted(complement), dtype=np.intp)
    if idx.size == 0:
        return 0.0
    return float(w[np.ix_(idx, idx)].sum())


def _peel(w: np.ndarray, rounds: int) -> tuple[list[int], list[float]]:
    """Removal order and drops in f of ``rounds`` greedy rounds, each O(D) via running row sums."""
    diag = np.diag(w).copy()
    row_sums = w.sum(axis=1)
    obj = float(w.sum())
    remaining = np.ones(w.shape[0], dtype=bool)
    order, drops = [], []
    for _ in range(rounds):
        candidates = np.where(remaining, obj - 2.0 * row_sums + diag, np.inf)
        chosen = int(np.argmin(candidates))
        drops.append(2.0 * row_sums[chosen] - diag[chosen])
        obj = float(candidates[chosen])
        remaining[chosen] = False
        order.append(chosen)
        row_sums -= w[chosen]
    return order, drops


def greedy_k(h, k: int) -> SolverResult:
    """Greedily select D-k features; the complement of the selection has size k."""
    w = as_weight_matrix(h)
    d = w.shape[0]
    _integer("k", k, 0, d)
    order, _ = _peel(w, d - k)
    return SolverResult(tuple(order), complement_objective(w, set(range(d)) - set(order)), "greedy-k")


def greedy_score(h) -> SolverResult:
    """Run the greedy loop to exhaustion and score each feature.

    The feature removed at round i receives its drop in f divided by the
    complement size at that round (D - i + 1). High scores mark features
    whose removal erased a lot of weight; thresholding is the caller's
    choice. Scores are always nonnegative.
    """
    w = as_weight_matrix(h)
    d = w.shape[0]
    order, drops = _peel(w, d)
    scores = np.zeros(d, dtype=np.float64)
    for i, (chosen, drop) in enumerate(zip(order, drops), start=1):
        scores[chosen] = drop / (d - i + 1)
    return SolverResult(selected=tuple(order), objective=0.0, method="greedy-score", scores=scores)


def greedy_score_objective(objective: Callable[[list[int]], float], d: int) -> np.ndarray:
    """Greedy scoring trace for an arbitrary objective over complements.

    ``objective`` maps a sorted list of complement indices to a value; the
    loop mirrors ``greedy_score`` but evaluates the objective directly, so it
    also serves non-quadratic objectives. Scores may be negative when the
    objective is not monotone.
    """
    if d < 1:
        raise DataValidationError("need at least one feature")
    complement = list(range(d))
    scores = np.zeros(d, dtype=np.float64)
    current = float(objective(complement))
    for i in range(1, d + 1):
        values = [float(objective([c for c in complement if c != cand])) for cand in complement]
        pos = int(np.argmin(values))
        chosen = complement[pos]
        scores[chosen] = (current - values[pos]) / (d - i + 1)
        current = values[pos]
        complement.pop(pos)
    return scores


@lru_cache(maxsize=64)
def _suffixes(n: int, r: int) -> np.ndarray:
    """All r-subsets of range(n), one per row, in lexicographic order (read-only)."""
    table = np.array(list(combinations(range(n), r)), dtype=np.intp).reshape(comb(n, r), r)
    table.flags.writeable = False
    return table


def _fold(w: np.ndarray, members: np.ndarray, partial=0.0, cross=0.0, limit=np.inf):
    """Add each row's members in turn, dropping rows whose value exceeds ``limit``.

    A member c adds ``w[c, c] + 2.0 * cross[c]`` to the value, then ``w[c]``
    to ``cross``. Returns the surviving row indices and their values.
    """
    diag = np.diag(w)
    alive = np.arange(len(members))
    value = np.full(alive.size, partial)
    cross = np.broadcast_to(cross, (alive.size, w.shape[0])).copy()
    for j in range(members.shape[1]):
        c = members[alive, j]
        value = value + diag[c] + 2.0 * cross[np.arange(alive.size), c]
        keep = value <= limit
        if not keep.all():
            alive, value, cross, c = alive[keep], value[keep], cross[keep], c[keep]
        if j + 1 < members.shape[1]:
            cross += w[c]
    return alive, value


def _scan(w: np.ndarray, k: int, limit: float, visit) -> None:
    """Pass size-k complements of w whose folded value stays <= limit to ``visit``.

    Prefixes are walked depth first, in lexicographic order, until their
    suffixes fit in one ``_fold`` block; values never decrease along a path.
    ``visit(leaves, values)`` returns the new limit, which must not be larger.
    """
    d = w.shape[0]

    def descend(prefix: list[int], start: int, partial, cross: np.ndarray, limit):
        slots = k - len(prefix)
        if comb(d - start, slots) <= _BLOCK:
            suffixes = _suffixes(d - start, slots) + start
            alive, values = _fold(w, suffixes, partial, cross, limit)
            if alive.size:
                head = np.broadcast_to(np.asarray(prefix, dtype=np.intp), (alive.size, len(prefix)))
                limit = visit(np.hstack([head, suffixes[alive]]), values)
            return limit
        for nxt in range(start, d - slots + 1):
            added = partial + w[nxt, nxt] + 2.0 * cross[nxt]
            if added <= limit:
                limit = descend(prefix + [nxt], nxt + 1, added, cross + w[nxt], limit)
        return limit

    descend([], 0, 0.0, np.zeros(d, dtype=np.float64), limit)


def exact_min(h, k: int, limit_d: int = DEFAULT_EXACT_LIMIT) -> SolverResult:
    """Global minimizer of f over complements of size k by pruned enumeration.

    The bound starts at greedy's complement, inclusive, so a tie with it still
    reaches the lexicographically first optimum; then only smaller values win.
    """
    w = as_weight_matrix(h)
    d = w.shape[0]
    if d > limit_d:
        raise SolverLimitError(f"exact solver size limit: D={d} exceeds {limit_d}")
    _integer("k", k, 0, d)
    best = [sorted(set(range(d)) - set(_peel(w, d - k)[0]))]

    def take(leaves, values):
        i = int(np.argmin(values))
        best[0] = [int(c) for c in leaves[i]]
        return np.nextafter(values[i], -np.inf)

    _scan(w, k, _fold(w, np.array(best, dtype=np.intp).reshape(1, k))[1][0], take)
    return SolverResult(tuple(i for i in range(d) if i not in best[0]), complement_objective(w, best[0]), "exact")


def optimality_margin(h, selected, k: int, limit_d: int = DEFAULT_EXACT_LIMIT) -> float:
    """Gap between the best competing size-k complement and the given selection.

    Positive iff the selection's complement is the unique minimizer; may be
    <= 0 otherwise. Limited to small D. Competitors within a relative 1e-9 of
    the least folded value (far above the rounding error of D^2 terms) are
    summed with ``complement_objective``, so none is missed.
    """
    w = as_weight_matrix(h)
    d = w.shape[0]
    if d > limit_d:
        raise SolverLimitError(f"margin enumeration size limit: D={d} exceeds {limit_d}")
    star = frozenset(int(i) for i in selected)
    if not star <= set(range(d)):
        raise DataValidationError("selected features out of range")
    complement_star = sorted(set(range(d)) - star)
    if (size := len(complement_star)) != k:
        raise DataValidationError(f"selection leaves a complement of size {size}, expected k={k}")
    if k in (0, d):
        raise DataValidationError("no competing complement of the requested size exists")
    base = np.asarray(complement_star, dtype=np.intp)
    # every single swap of one complement member for one selected feature
    kept = np.repeat([np.delete(base, i) for i in range(k)], d - k, axis=0)
    swaps = np.sort(np.column_stack([kept, np.tile(sorted(star), k)]), axis=1)
    lowest, best = _fold(w, swaps)[1].min(), np.inf

    def keep(leaves, values):
        nonlocal lowest, best
        other = (leaves != base).any(axis=1)
        lowest = min(lowest, values[other].min(initial=np.inf))
        limit = lowest * (1.0 + 1e-9)
        best = min([best] + [complement_objective(w, leaf) for leaf in leaves[other & (values <= limit)]])
        return limit

    _scan(w, k, lowest * (1.0 + 1e-9), keep)
    return float(best - complement_objective(w, complement_star))
