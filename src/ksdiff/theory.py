"""Executable checks of the method's identifiability and recovery guarantees.

The selection is uniquely recoverable exactly when the margin between the
true complement's objective and the best competing complement is positive.
These helpers evaluate the per-feature necessary and sufficient positivity
conditions on a matrix, compute that margin by exact enumeration, convert a
known margin into closed-form sample-size requirements, and stress-test
recovery under bounded matrix perturbations. A closed-form bivariate-Gaussian KL bound used to
relate matrix entries to distribution divergence is included as a numeric
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _finite, _integer
from .errors import DataValidationError
from .solvers import DEFAULT_EXACT_LIMIT, as_weight_matrix, exact_min, optimality_margin

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
    margin: float | None

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


def check_conditions(
    h,
    s_star,
    tol: float = 1e-9,
    compute_margin: bool = True,
    limit_d: int = DEFAULT_EXACT_LIMIT,
) -> ConsistencyReport:
    """Evaluate the identifiability conditions for each claimed changed feature.

    For feature d, the necessary condition asks for a positive diagonal entry
    or at least one positive off-diagonal entry in row d; the sufficient one
    asks for a positive diagonal entry or for the whole row to be positive.
    Positivity is strict inequality against ``tol``, since finite-sample
    matrices are never exactly zero. The margin is the exact minimum over all
    competing complements of the implied size.
    """
    w = as_weight_matrix(h)
    d = w.shape[0]
    if _finite("tol", tol) < 0:
        raise DataValidationError("tolerance must be nonnegative")
    star = sorted(int(i) for i in set(s_star))
    if not star or star[0] < 0 or star[-1] >= d:
        raise DataValidationError(f"changed-feature set {star} invalid for {d} features")
    k = d - len(star)
    necessary: dict[int, bool] = {}
    sufficient: dict[int, bool] = {}
    for feat in star:
        diag_positive = w[feat, feat] > tol
        off = np.delete(w[feat], feat)
        necessary[feat] = bool(diag_positive or np.any(off > tol))
        sufficient[feat] = bool(diag_positive or np.all(off > tol))
    margin = None
    if compute_margin:
        if 1 <= k <= d - 1:
            margin = optimality_margin(w, star, k, limit_d=limit_d)
        else:
            margin = 0.0  # only one complement of size 0 or D exists
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
    if _finite("margin", margin) <= 0:
        raise DataValidationError("margin must be positive: the changed set is not uniquely identifiable")
    if not 0 < epsilon < 1:
        raise DataValidationError(f"epsilon must lie in (0, 1), got {epsilon}")
    if k < 1 or dim < 1:
        raise DataValidationError("k and dim must be >= 1")
    lead = 8.0 * k**4 / margin**2
    n_required = math.ceil(lead * math.log(12.0 * dim / epsilon))
    if dim >= 2:
        l_required = math.ceil(lead * math.log(3.0 * dim * (dim - 1) / epsilon))
    else:
        l_required = 1  # no feature pairs exist, any angle budget suffices
    return SampleBound(n_required, l_required, k, margin, dim, epsilon)


@dataclass(frozen=True)
class RecoveryTrialResult:
    success_rate: float
    margin: float
    guarantee_bound: float
    magnitude: float
    trials: int
    within_guarantee: bool


def recovery_trial(
    h,
    s_star,
    k: int,
    magnitude: float,
    trials: int,
    seed: int,
    limit_d: int = DEFAULT_EXACT_LIMIT,
) -> RecoveryTrialResult:
    """Recovery rate of the exact solver under random bounded perturbations.

    Each trial adds a symmetric perturbation with entries uniform in
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
    star = frozenset(int(i) for i in s_star)
    margin = optimality_margin(w, star, k, limit_d=limit_d)
    bound = margin / (2.0 * k * k)
    complement_star = frozenset(range(d)) - star
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    successes = 0
    for _ in range(trials):
        upper = np.triu(rng.uniform(-magnitude, magnitude, size=(d, d)))
        noise = upper + np.triu(upper, 1).T
        perturbed = np.clip(w + noise, 0.0, None)
        result = exact_min(perturbed, k, limit_d=limit_d)
        recovered = frozenset(range(d)) - set(result.selected)
        successes += recovered == complement_star
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
    if not (abs(sigma_ij) < 1.0 and abs(gamma_ij) < 1.0):
        raise DataValidationError("correlations must have magnitude < 1 (singular covariance otherwise)")
    s, g = float(sigma_ij), float(gamma_ij)
    kl = 0.5 * ((2.0 - 2.0 * s * g) / (1.0 - g * g) - math.log((1.0 - s * s) / (1.0 - g * g)) - 2.0)
    bound = 0.5 * abs(s - g) - 0.125
    return KlBoundCheck(kl=kl, bound=bound, holds=kl >= bound)
