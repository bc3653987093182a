"""Seeded synthetic data generators and controlled single-feature perturbations.

Both generators draw a 20-feature Gaussian base: a random 20x20 matrix with
U(-1,1) entries is squared into a covariance and its diagonal normalized to
one. The first generator changes the covariance of feature 0 for the second
sample; the second pushes feature 0 through a two- vs three-component offset
mixture so the difference is invisible to mean-only views. All randomness
flows through counter-based generators keyed on the caller's seed; equal
seeds give bit-identical datasets.

Perturbations reproduce five canonical single-feature changes (mean shift,
variance inflation, three covariance-mixing variants) at a difference level
c in [0, 1], touching only the targeted columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _array, _finite, _integer, dataset_from_array, default_names
from .errors import DataValidationError

FEATURE_COUNT = 20
PSD_RETRY_CAP = 100
_PSD_EIG_FLOOR = 1e-10

PERTURBATION_KINDS = (
    "mean_shift",
    "variance_change",
    "cov_change",
    "cov_change_conditional",
    "cov_change_no_var",
)

_REFERENCE_KINDS = frozenset({"cov_change", "cov_change_conditional", "cov_change_no_var"})


@dataclass(frozen=True)
class GroundTruth:
    """Indices of the features whose distribution actually changed."""

    changed: frozenset[int]

    def __post_init__(self):
        changed = frozenset(_integer("changed", i, 0) for i in self.changed)
        if not changed:
            raise DataValidationError("ground truth must name at least one feature")
        object.__setattr__(self, "changed", changed)


def _rng(ss: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(ss))


def _base_covariance(rng: np.random.Generator) -> np.ndarray:
    theta = rng.uniform(-1.0, 1.0, size=(FEATURE_COUNT, FEATURE_COUNT))
    sigma = theta.T @ theta
    sigma = (sigma + sigma.T) / 2.0
    scale = np.sqrt(np.diag(sigma))
    return sigma / np.outer(scale, scale)


EXAMPLE1_MIX_RATE = 0.3


def example1_population(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The covariance pair behind ``gen_example1`` for a given seed.

    The second sample's feature 0 is the mixture
    ``x0 <- 0.7*x0 + 0.3*x1``, so its covariance is ``T S T^T`` for the
    corresponding row operation T: the variance becomes
    ``0.49*S[0,0] + 0.09*S[1,1] + 0.42*S[0,1]`` and every coupling becomes
    ``0.7*S[0,d] + 0.3*S[1,d]``; all other entries are untouched. The
    congruence keeps the matrix positive-definite, so the retry loop is a
    guard against degenerate draws only.
    """
    cov_ss, _ = np.random.SeedSequence(seed).spawn(2)
    rng = _rng(cov_ss)
    mix = np.eye(FEATURE_COUNT)
    mix[0, 0] = 1.0 - EXAMPLE1_MIX_RATE
    mix[0, 1] = EXAMPLE1_MIX_RATE
    for _ in range(PSD_RETRY_CAP):
        sigma = _base_covariance(rng)
        sigma_q = mix @ sigma @ mix.T
        sigma_q = (sigma_q + sigma_q.T) / 2.0
        # only row/column 0 is touched; reassert that exactly
        sigma_q[1:, 1:] = sigma[1:, 1:]
        if min(np.linalg.eigvalsh(sigma).min(), np.linalg.eigvalsh(sigma_q).min()) > _PSD_EIG_FLOOR:
            return sigma, sigma_q
    raise RuntimeError(f"no positive-definite covariance pair in {PSD_RETRY_CAP} attempts")


def _sample_gaussian(rng: np.random.Generator, n: int, cov: np.ndarray) -> np.ndarray:
    # one Cholesky factorization per covariance, reused for the whole draw
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((n, cov.shape[0])) @ chol.T


def gen_example1(n: int, seed: int) -> tuple[Dataset, Dataset, GroundTruth]:
    """Two zero-mean Gaussian samples differing only in feature 0's covariance.

    The second sample mixes feature 0 with feature 1 at rate 0.3, changing
    feature 0's variance and all of its couplings while leaving the joint
    law of the remaining features untouched.
    """
    n, seed = _integer("n", n, 2), _integer("seed", seed, 0)
    sigma, sigma_q = example1_population(seed)
    _, data_ss = np.random.SeedSequence(seed).spawn(2)
    rng = _rng(data_ss)
    p = _sample_gaussian(rng, n, sigma)
    q = _sample_gaussian(rng, n, sigma_q)
    names = default_names(FEATURE_COUNT)
    return dataset_from_array(p, names), dataset_from_array(q, names), GroundTruth(frozenset({0}))


MIXTURE_OFFSETS = (4.0 / 3.0, -4.0 / 3.0, 0.0)
MIXTURE_RATES_P = (0.5, 0.5, 0.0)
MIXTURE_RATES_Q = (0.35, 0.35, 0.3)


def _mixture_offsets(rng: np.random.Generator, n: int, rates) -> np.ndarray:
    component = rng.choice(len(MIXTURE_OFFSETS), size=n, p=np.asarray(rates, dtype=np.float64))
    return np.asarray(MIXTURE_OFFSETS, dtype=np.float64)[component]


def gen_example2(n: int, seed: int) -> tuple[Dataset, Dataset, GroundTruth]:
    """Offset-mixture pair: feature 0 is a scaled latent plus a +-4/3 offset.

    Sample one draws the offset from two equal-rate components; sample two
    adds a third zero-offset component at rates (0.35, 0.35, 0.30). The
    offsets are symmetric, so the mean of feature 0 is unchanged and only
    the shape of its distribution differs. Other features pass the latent
    Gaussian through untouched.
    """
    n, seed = _integer("n", n, 2), _integer("seed", seed, 0)
    cov_ss, data_ss = np.random.SeedSequence(seed).spawn(2)
    sigma = _base_covariance(_rng(cov_ss))
    rng = _rng(data_ss)
    u_p = _sample_gaussian(rng, n, sigma)
    u_q = _sample_gaussian(rng, n, sigma)
    p = u_p.copy()
    q = u_q.copy()
    p[:, 0] = u_p[:, 0] / 3.0 + _mixture_offsets(rng, n, MIXTURE_RATES_P)
    q[:, 0] = u_q[:, 0] / 3.0 + _mixture_offsets(rng, n, MIXTURE_RATES_Q)
    names = default_names(FEATURE_COUNT)
    return dataset_from_array(p, names), dataset_from_array(q, names), GroundTruth(frozenset({0}))


GENERATORS = {"example1": gen_example1, "example2": gen_example2}


@dataclass(frozen=True)
class PerturbationSpec:
    """One of the five single-feature changes, its level, and its wiring.

    ``targets`` are the changed features; covariance kinds additionally map
    each target to a distinct reference feature it mixes with. ``seed`` is
    only consumed by the noise-injection kind.
    """

    kind: str
    c: float
    targets: tuple[int, ...]
    references: dict[int, int] = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise DataValidationError(f"unknown perturbation kind {self.kind!r}")
        c = _finite("c", self.c)
        if not 0.0 <= c <= 1.0:
            raise DataValidationError(f"difference level c must lie in [0, 1], got {c}")
        targets = tuple(_integer("targets", t, 0) for t in self.targets)
        if not targets:
            raise DataValidationError("at least one target feature is required")
        if len(set(targets)) != len(targets):
            raise DataValidationError("target features must be distinct")
        references = {
            _integer("references", k, 0): _integer("references", v, 0) for k, v in self.references.items()
        }
        if self.kind in _REFERENCE_KINDS:
            missing = [t for t in targets if t not in references]
            if missing:
                raise DataValidationError(f"kind {self.kind!r} needs a reference for targets {missing}")
            overlap = set(targets) & set(references.values())
            if overlap:
                raise DataValidationError(f"targets and references overlap: {sorted(overlap)}")
        if self.seed is not None:
            object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        elif self.kind == "variance_change":
            raise DataValidationError("variance_change needs a seed for its noise draws")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "references", references)


def lower_quartile(values: np.ndarray) -> float:
    """Order-statistic 25% quantile: the ceil(N/4)-th smallest value."""
    ranked = np.sort(_array(values, 1, "sample"))
    return float(ranked[math.ceil(0.25 * ranked.size) - 1])


def perturb(ds: Dataset, spec: PerturbationSpec) -> Dataset:
    """Apply the spec's change to each target column; all other cells are untouched."""
    d = ds.num_features
    for index in (*spec.targets, *spec.references.values()):
        _integer("feature index", index, 0, d - 1)
    out = ds.values.copy()
    for target in spec.targets:
        col = ds.values[:, target]
        if spec.kind == "mean_shift":
            out[:, target] = col + spec.c
        elif spec.kind == "variance_change":
            noise_ss = np.random.SeedSequence(spec.seed, spawn_key=(target,))
            out[:, target] = col + spec.c * _rng(noise_ss).standard_normal(col.size)
        else:
            ref = ds.values[:, spec.references[target]]
            mixed = (1.0 - spec.c) * col + spec.c * ref
            if spec.kind == "cov_change":
                out[:, target] = mixed
            elif spec.kind == "cov_change_conditional":
                mask = ref <= lower_quartile(ref)
                out[mask, target] = mixed[mask]
            else:  # cov_change_no_var
                with np.errstate(over="ignore", invalid="ignore"):
                    var_before, var_after = float(np.var(col)), float(np.var(mixed))
                if not math.isfinite(var_before + var_after):
                    raise DataValidationError(
                        f"cannot preserve the variance of column {ds.names[target]}: it overflows before or after mixing"
                    )
                if var_after == 0.0:
                    if var_before != 0.0:
                        raise DataValidationError(
                            f"mixing collapsed column {target} to a constant; cannot preserve variance"
                        )
                    out[:, target] = mixed
                else:
                    out[:, target] = math.sqrt(var_before / var_after) * mixed
    return Dataset(ds.names, out)
