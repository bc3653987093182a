"""Gaussian baseline scorers: trace-objective (MT-style), partitioned-precision
change scores, and absolute covariance differences.

All three model both samples as Gaussians; ``hara15`` compares the plain
sample covariances. MT and ide09 use ridge precision estimates
(cov + kappa*I)^-1 with kappa picked from a fixed 11-point log-spaced grid
in [1e-4, 10] by three-fold cross validation on held-out Gaussian
log-likelihood. Everything is deterministic given the data: the
folds are three contiguous blocks of rows, in row order. Each fold inverts
its whole ridge grid in one stacked call, and MT solves each greedy round's
candidate blocks in one stacked call; when a stacked call meets a singular
matrix, that fold or round is redone item by item (a singular ridge scores
-inf, a singular block is retried with a tiny ridge). The scorers compute
with numpy's overflow and invalid-value warnings off: data whose second
moments overflow gives non-finite scores, which callers reject by method
name, and non-finite weights, which ``hara15_matrix`` rejects.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, _check_same_columns
from .errors import DataValidationError, KsdiffError
from .solvers import _greedy_trace, greedy_score

KAPPA_GRID = np.logspace(-4.0, 1.0, 11)

_LOG_2PI = float(np.log(2.0 * np.pi))


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _mean_cov(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    centered = x - mean
    return mean, _sym(centered.T @ centered / x.shape[0])


def _ridge_logliks(centered: np.ndarray, ridged: np.ndarray) -> list[float]:
    """Mean Gaussian log-likelihood of the centred test rows under each precision ``inv(ridged[k])``.

    One stacked inverse and one stacked log-determinant serve the whole
    stack; a singular item makes the stacked inverse raise.
    """
    d = ridged.shape[-1]
    precs = np.linalg.inv(ridged)
    signs, logdets = np.linalg.slogdet(precs)
    out = []
    for prec, sign, logdet in zip(precs, signs, logdets):
        if sign <= 0:
            out.append(-np.inf)
            continue
        quad = np.einsum("ij,jk,ik->i", centered, prec, centered)
        out.append(float(np.mean(0.5 * (logdet - d * _LOG_2PI - quad))))
    return out


def _heldout_logliks(train: np.ndarray, test: np.ndarray) -> list[float]:
    """Held-out log-likelihood of ``test`` under ``train``'s ridge fit, one value per kappa on the grid."""
    mean, cov = _mean_cov(train)
    centered = test - mean
    ridged = cov + KAPPA_GRID[:, None, None] * np.eye(train.shape[1])
    try:
        return _ridge_logliks(centered, ridged)
    except np.linalg.LinAlgError:  # some ridge too small to register against the covariance: item by item
        out = []
        for item in ridged:
            try:
                out += _ridge_logliks(centered, item[None])
            except np.linalg.LinAlgError:
                out.append(-np.inf)
        return out


def estimate_precision_cv(ds: Dataset) -> tuple[np.ndarray, float]:
    """Ridge-regularized precision matrix with cross-validated ridge strength.

    Returns ``((cov + kappa*I)^-1, kappa)``. The ridge keeps the estimate
    positive-definite even with constant columns. Ties on the grid resolve
    to the smallest kappa.
    """
    x = ds.values
    n = x.shape[0]
    if n < 3:
        raise DataValidationError(f"precision estimation needs at least 3 rows, got {n}")
    folds = np.array_split(np.arange(n), 3)
    fold_lls = [
        _heldout_logliks(x[np.concatenate([folds[g] for g in range(3) if g != f])], x[folds[f]])
        for f in range(3)
    ]
    best_ll, best_kappa = -np.inf, float(KAPPA_GRID[0])
    for k, kappa in enumerate(KAPPA_GRID):
        ll = 0.0
        for lls in fold_lls:
            ll += lls[k]
        ll /= 3.0
        if ll > best_ll:
            best_ll, best_kappa = ll, float(kappa)
    _, cov = _mean_cov(x)
    try:
        prec = _sym(np.linalg.inv(cov + best_kappa * np.eye(x.shape[1])))
    except np.linalg.LinAlgError:
        raise DataValidationError(
            f"precision estimation failed: the covariance plus ridge {best_kappa!r} is singular (the ridge is lost to rounding)"
        ) from None
    return prec, best_kappa


def _solve_submatrix(c_sub: np.ndarray, g_sub: np.ndarray, subset) -> np.ndarray:
    try:
        return np.linalg.solve(c_sub, g_sub)
    except np.linalg.LinAlgError:
        ridge = 1e-10 * max(float(np.trace(c_sub)) / c_sub.shape[0], 1.0)
        try:
            return np.linalg.solve(c_sub + ridge * np.eye(c_sub.shape[0]), g_sub)
        except np.linalg.LinAlgError:
            raise KsdiffError(f"singular submatrix for features {sorted(subset)}") from None


def _mt_scores_from(gamma: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Greedy-scoring trace of the trace-misfit objective.

    Objective of a complement C is ``| |C| - tr(Gamma_C @ inv(C_C)) |``; it
    vanishes when the second-moment matrix of the test data matches the
    reference model on the complement. Not monotone, so scores can be
    negative; callers rank on the raw values. Each greedy round gathers its
    candidates' blocks with one fancy index and solves them in one stacked
    call; if a block is singular, the round is solved block by block.
    """

    def round_values(complements: np.ndarray) -> np.ndarray:
        size = complements.shape[1]
        if size == 0:
            return np.zeros(complements.shape[0])
        rows, cols = complements[:, :, None], complements[:, None, :]
        c_sub, g_sub = c[rows, cols], gamma[rows, cols]
        try:
            solved = np.linalg.solve(c_sub, g_sub)
        except np.linalg.LinAlgError:
            solved = np.stack([_solve_submatrix(cb, gb, comp) for cb, gb, comp in zip(c_sub, g_sub, complements.tolist())])
        return np.abs(float(size) - np.trace(solved, axis1=1, axis2=2))

    return _greedy_trace(round_values, gamma.shape[0])


@np.errstate(over="ignore", invalid="ignore")
def mt_score(p: Dataset, q: Dataset) -> np.ndarray:
    """Score features by the trace misfit of Q's second moments about P's mean.

    Gamma is Q's scatter about P's mean; C is P's ridge-regularized
    covariance. A mean or variance change in a feature inflates the
    trace misfit whenever that feature stays in the complement.
    """
    _check_same_columns(p, q)
    mean_p, cov_p = _mean_cov(p.values)
    _, kappa_p = estimate_precision_cv(p)
    centered_q = q.values - mean_p
    gamma = _sym(centered_q.T @ centered_q / q.num_rows)
    c = cov_p + kappa_p * np.eye(p.num_features)
    return _mt_scores_from(gamma, c)


def _direction_score(prec_a: np.ndarray, inv_a: np.ndarray, prec_b: np.ndarray, d: int) -> float:
    # Partition with feature d moved to the last row/column: the precision's
    # last column holds the feature's conditional couplings (l, lambda), the
    # inverse's last column its marginal ones (w, sigma).
    dim = prec_a.shape[0]
    order = [i for i in range(dim) if i != d] + [d]
    pa = prec_a[np.ix_(order, order)]
    ia = inv_a[np.ix_(order, order)]
    pb = prec_b[np.ix_(order, order)]
    l_a, lam_a = pa[:-1, -1], pa[-1, -1]
    w_a, sig_a = ia[:-1, -1], ia[-1, -1]
    big_w_a = ia[:-1, :-1]
    l_b, lam_b = pb[:-1, -1], pb[-1, -1]
    first = float(w_a @ (l_b - l_a))
    second = 0.5 * (float(l_b @ big_w_a @ l_b) / lam_b - float(l_a @ big_w_a @ l_a) / lam_a)
    third = 0.5 * (float(np.log(lam_a / lam_b)) + sig_a * (lam_a - lam_b))
    return first + second + third


def ide09_scores_from_precisions(
    prec_p: np.ndarray, inv_p: np.ndarray, prec_q: np.ndarray, inv_q: np.ndarray
) -> np.ndarray:
    """Per-feature change scores from two precision matrices and their inverses.

    For each feature, both directions (model P scoring Q's parameters and
    vice versa) are evaluated on the partitioned precisions and the larger
    value is kept, which makes the score symmetric in the two datasets.
    """
    d = prec_p.shape[0]
    if d < 2:
        raise DataValidationError("partitioned-precision scoring needs at least 2 features")
    scores = np.empty(d, dtype=np.float64)
    for feat in range(d):
        pq = _direction_score(prec_p, inv_p, prec_q, feat)
        qp = _direction_score(prec_q, inv_q, prec_p, feat)
        scores[feat] = max(pq, qp)
    return scores


@np.errstate(over="ignore", invalid="ignore")
def ide09_score(p: Dataset, q: Dataset) -> np.ndarray:
    """Partitioned-precision change score per feature (max over both directions)."""
    _check_same_columns(p, q)
    _, cov_p = _mean_cov(p.values)
    _, cov_q = _mean_cov(q.values)
    prec_p, kappa_p = estimate_precision_cv(p)
    prec_q, kappa_q = estimate_precision_cv(q)
    eye = np.eye(p.num_features)
    # the ridge estimate's exact inverse is the regularized covariance
    inv_p = cov_p + kappa_p * eye
    inv_q = cov_q + kappa_q * eye
    return ide09_scores_from_precisions(prec_p, inv_p, prec_q, inv_q)


@np.errstate(over="ignore", invalid="ignore")
def hara15_matrix(p: Dataset, q: Dataset) -> np.ndarray:
    """Entrywise absolute difference of the two covariance matrices."""
    _check_same_columns(p, q)
    _, a = _mean_cov(p.values)
    _, b = _mean_cov(q.values)
    # both covariances are exactly symmetric, so their difference is too
    diff = np.abs(a - b)
    if not np.all(np.isfinite(diff)):
        raise DataValidationError("method 'hara15' produced non-finite weights: the covariances overflow")
    return diff


def hara15_score(p: Dataset, q: Dataset) -> np.ndarray:
    """Greedy scoring on the absolute covariance-difference matrix."""
    return greedy_score(hara15_matrix(p, q)).scores
