"""Executable checks of the method's identifiability and recovery guarantees.

The selection is uniquely recoverable exactly when the margin between the
true complement's objective and the best competing complement is positive.
These helpers evaluate the per-feature necessary and sufficient positivity
conditions on a matrix, compute that margin by exact enumeration, convert a
known margin into closed-form sample-size requirements, and stress-test
recovery under bounded matrix perturbations. One check serves every claimed
changed set S: it names at least one feature and no feature twice, and it
fixes the complement size ``k = D - |S|``. The margin and the recovery trials
enumerate complements exactly, so above ``solvers.DEFAULT_EXACT_LIMIT`` (25)
features they raise ``SolverLimitError``. A closed-form bivariate-Gaussian KL
bound used to relate matrix entries to distribution divergence is included
as a numeric check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import _finite, _integer
from .errors import ConfigFieldError, DataValidationError
from .solvers import as_weight_matrix, exact_min, optimality_margin

OMITTED_TERM_NOTE = (
    "second sample-size term is distribution-dependent (density bounds unavailable from data); omitted"
)


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-feature condition outcomes plus the exactly enumerated margin."""

    s_star: tuple[int, ...]
    k: int
    tolerance: float
    necessary_holds: dict[int, bool]
    sufficient_holds: dict[int, bool]
    margin: float

    @property
    def all_necessary(self) -> bool:
        return all(self.necessary_holds.values())

    @property
    def all_sufficient(self) -> bool:
        return all(self.sufficient_holds.values())

    def to_dict(self) -> dict:
        return {
            "s_star": list(self.s_star),
            "k": self.k,
            "tolerance": self.tolerance,
            "necessary_holds": {str(d): v for d, v in self.necessary_holds.items()},
            "sufficient_holds": {str(d): v for d, v in self.sufficient_holds.items()},
            "all_necessary": self.all_necessary,
            "all_sufficient": self.all_sufficient,
            "margin": self.margin,
        }


def _claimed_set(s_star, d: int) -> list[int]:
    """Sorted indices of a claimed changed-feature set that names at least one feature, none twice."""
    star = sorted(_integer("s_star", i, 0, d - 1) for i in s_star)
    if not star:
        raise DataValidationError("changed-feature set must name at least one feature")
    if len(set(star)) != len(star):
        raise DataValidationError(f"changed-feature set repeats a feature index: {star}")
    return star


def check_conditions(h, s_star, tol: float = 1e-9) -> ConsistencyReport:
    """Evaluate the identifiability conditions for each claimed changed feature.

    For feature d, the necessary condition asks for a positive diagonal entry
    or at least one positive off-diagonal entry in row d; the sufficient one
    asks for a positive diagonal entry or for the whole row to be positive.
    Positivity is strict inequality against ``tol``, since finite-sample
    matrices are never exactly zero. The margin is the exact minimum over all
    competing complements of the implied size, and 0.0 when S names every
    feature, since no complement competes.
    """
    w = as_weight_matrix(h)
    d = w.shape[0]
    if _finite("tol", tol) < 0:
        raise DataValidationError("tolerance must be nonnegative")
    star = _claimed_set(s_star, d)
    k = d - len(star)
    necessary: dict[int, bool] = {}
    sufficient: dict[int, bool] = {}
    for feat in star:
        diag_positive = w[feat, feat] > tol
        off = np.delete(w[feat], feat)
        necessary[feat] = bool(diag_positive or np.any(off > tol))
        sufficient[feat] = bool(diag_positive or np.all(off > tol))
    margin = optimality_margin(w, star, k) if k else 0.0  # only the empty complement exists at k = 0
    return ConsistencyReport(tuple(star), k, tol, necessary, sufficient, margin)


@dataclass(frozen=True)
class SampleBound:
    """Closed-form sample and angle budgets for a target failure probability."""

    n_required: int
    l_required: int
    k: int
    margin: float
    dim: int
    epsilon: float
    omitted_term: str = OMITTED_TERM_NOTE


def sample_bound(k: int, margin: float, dim: int, epsilon: float) -> SampleBound:
    """Sample sizes sufficient for recovery with failure probability <= epsilon.

    ``n_required = ceil(8 k^4 / margin^2 * ln(12 D / eps))`` and
    ``l_required = ceil(8 k^4 / margin^2 * ln(3 D (D-1) / eps))``. A second,
    distribution-dependent sample-size term exists but needs density bounds
    no data can supply; it is reported symbolically via ``omitted_term``.
    """
    if (margin := _finite("margin", margin)) <= 0:
        raise DataValidationError("margin must be positive: the changed set is not uniquely identifiable")
    if not 0 < (epsilon := _finite("epsilon", epsilon)) < 1:
        raise DataValidationError(f"epsilon must lie in (0, 1), got {epsilon}")
    k, dim = _integer("k", k, 1), _integer("dim", dim, 1)
    try:
        lead = 8.0 * k**4 / margin**2
        n_required = math.ceil(lead * math.log(12.0 * dim / epsilon))
        if dim >= 2:
            l_required = math.ceil(lead * math.log(3.0 * dim * (dim - 1) / epsilon))
        else:
            l_required = 1  # no feature pairs exist, any angle budget suffices
    except (OverflowError, ZeroDivisionError):
        # a bound past the float range: name the first of k, dim and epsilon
        # whose own factor is past it, else the margin
        big, spread = sys.float_info.max, max(12 * dim, 3 * dim * (dim - 1))
        field = "k" if 8 * k**4 > big else "dim" if spread > big else "epsilon" if spread / epsilon > big else "margin"
        raise ConfigFieldError(field, "takes the required sample size past the float range") from None
    return SampleBound(n_required, l_required, k, margin, dim, epsilon)


@dataclass(frozen=True)
class RecoveryTrialResult:
    success_rate: float
    margin: float
    guarantee_bound: float
    magnitude: float
    trials: int
    within_guarantee: bool


def recovery_trial(h, s_star, magnitude: float, trials: int, seed: int) -> RecoveryTrialResult:
    """Recovery rate of the exact solver under random bounded perturbations.

    The claimed set fixes the complement size, ``k = D - |s_star|``. Each
    trial adds a symmetric perturbation with entries uniform in
    [-magnitude, magnitude] (clamping the result at zero) and checks that
    the exact solver still returns the given complement. Whenever
    ``magnitude <= margin / (2 k^2)`` the guarantee applies and the rate must
    be 1.0; larger magnitudes are permitted but flagged, and recovery may
    fail.
    """
    w = as_weight_matrix(h)
    d = w.shape[0]
    _integer("trials", trials, 1)
    _integer("seed", seed, 0)
    if _finite("magnitude", magnitude) < 0:
        raise DataValidationError("magnitude must be nonnegative")
    if magnitude > sys.float_info.max / 2:  # the noise range [-magnitude, magnitude] must have a finite width
        raise ConfigFieldError("magnitude", f"must be at most half the float range, got {magnitude!r}")
    star = frozenset(_claimed_set(s_star, d))
    k = d - len(star)
    margin = optimality_margin(w, star, k)  # raises when the claim names every feature (k = 0)
    bound = margin / (2.0 * k * k)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    successes = 0
    for _ in range(trials):
        upper = np.triu(rng.uniform(-magnitude, magnitude, size=(d, d)))
        noise = upper + np.triu(upper, 1).T
        perturbed = np.clip(w + noise, 0.0, None)
        successes += frozenset(exact_min(perturbed, k).selected) == star
    return RecoveryTrialResult(
        success_rate=successes / trials,
        margin=margin,
        guarantee_bound=bound,
        magnitude=magnitude,
        trials=trials,
        within_guarantee=magnitude <= bound,
    )


@dataclass(frozen=True)
class KlBoundCheck:
    kl: float
    bound: float
    holds: bool


def kl_lower_bound_check(sigma_ij: float, gamma_ij: float) -> KlBoundCheck:
    """Bivariate-Gaussian KL divergence vs. its correlation-difference bound.

    For two unit-variance, zero-mean bivariate Gaussians with correlations
    ``sigma_ij`` and ``gamma_ij``, the KL divergence has the closed form
    ``0.5 * ((2 - 2 s g) / (1 - g^2) - ln((1 - s^2) / (1 - g^2)) - 2)`` and
    is bounded below by ``0.5 * |s - g| - 1/8``.
    """
    s, g = _finite("sigma_ij", sigma_ij), _finite("gamma_ij", gamma_ij)
    if not (abs(s) < 1.0 and abs(g) < 1.0):
        raise DataValidationError("correlations must have magnitude < 1 (singular covariance otherwise)")
    kl = 0.5 * ((2.0 - 2.0 * s * g) / (1.0 - g * g) - math.log((1.0 - s * s) / (1.0 - g * g)) - 2.0)
    bound = 0.5 * abs(s - g) - 0.125
    return KlBoundCheck(kl=kl, bound=bound, holds=kl >= bound)
