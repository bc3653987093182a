"""Ranking-quality scoring against ground truth, the seeded experiment runner and its writer.

AUROC here is the rank (Mann-Whitney) form: the probability that a changed
feature outranks an unchanged one under the method's scores, with tied pairs
counted one half. The runner sweeps (method, sample size, repetition) cells,
deriving one seed per (size, repetition) so all methods see the same data
and reruns are reproducible regardless of execution order or parallelism.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .baselines import hara15_score, ide09_score, mt_score
from .data import _array, _fan_out, _integer, _write_csv, _write_json
from .errors import ConfigFieldError, DataValidationError
from .matrix import DEFAULT_NUM_ANGLES, build_ks_matrix
from .solvers import greedy_score
from .synth import GENERATORS, GroundTruth


def auroc(scores, truth) -> float:
    """Probability that a changed feature scores above an unchanged one (ties half).

    NaN or infinite scores are rejected, not ranked.
    """
    s = _array(scores, 1, "scores")
    d = s.size
    changed = truth.changed if isinstance(truth, GroundTruth) else truth
    changed = frozenset(_integer("truth", i, 0, d - 1) for i in changed)
    if not 1 <= len(changed) < d:
        raise DataValidationError("degenerate ground truth: need both changed and unchanged features")
    mask = np.zeros(d, dtype=bool)
    mask[list(changed)] = True
    pos = s[mask][:, None]
    neg = s[~mask][None, :]
    wins = np.count_nonzero(pos > neg)
    ties = np.count_nonzero(pos == neg)
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def finite_scores(method: str, scores) -> np.ndarray:
    """Scores as a float array; NaN or infinite scores raise, naming the method."""
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise DataValidationError(f"method {method!r} produced non-finite scores")
    return s


METHODS = ("proposed", "mt", "ide09", "hara15")


def _method_registry(num_angles: int):
    return {
        "proposed": lambda p, q, seed: greedy_score(build_ks_matrix(p, q, num_angles, seed)).scores,
        "mt": lambda p, q, seed: mt_score(p, q),
        "ide09": lambda p, q, seed: ide09_score(p, q),
        "hara15": lambda p, q, seed: hara15_score(p, q),
    }


@dataclass(frozen=True)
class ExperimentRecord:
    """One repetition of one method; ``auroc`` is None exactly when ``error`` is set."""

    seed: int
    n: int
    auroc: float | None
    runtime_sec: float
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """All repetitions of one (method, sample size) cell plus its aggregates."""

    method: str
    n: int
    records: tuple[ExperimentRecord, ...]

    @property
    def successful(self) -> tuple[ExperimentRecord, ...]:
        return tuple(r for r in self.records if r.error is None)

    @property
    def mean_auroc(self) -> float | None:
        """Mean AUROC of the successful repetitions, or None when none succeeded."""
        ok = self.successful
        return float(np.mean([r.auroc for r in ok])) if ok else None

    @property
    def std_auroc(self) -> float:
        ok = self.successful
        if len(ok) < 2:
            return 0.0
        return float(np.std([r.auroc for r in ok], ddof=1))


def _items(field: str, value) -> tuple:
    items = tuple(value) if isinstance(value, (list, tuple, range, np.ndarray)) else ()
    if not items:
        raise ConfigFieldError(field, f"must be a non-empty list, got {value!r}")
    return items


@dataclass(frozen=True)
class ExperimentConfig:
    generator: str
    methods: tuple[str, ...]
    sample_sizes: tuple[int, ...]
    repetitions: int
    master_seed: int
    num_angles: int = DEFAULT_NUM_ANGLES
    jobs: int = 1

    def __post_init__(self):
        if not isinstance(self.generator, str) or self.generator not in GENERATORS:
            raise ConfigFieldError("generator", f"must be in {sorted(GENERATORS)}, got {self.generator!r}")
        methods = _items("methods", self.methods)
        if not all(isinstance(m, str) and m in METHODS for m in methods):
            raise ConfigFieldError("methods", f"must be a subset of {sorted(METHODS)}, got {list(methods)}")
        sizes = tuple(_integer("sample_sizes", n, 2) for n in _items("sample_sizes", self.sample_sizes))
        for field, items in (("methods", methods), ("sample_sizes", sizes)):
            if len(set(items)) < len(items):
                raise ConfigFieldError(field, f"must not repeat an entry, got {list(items)}")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "master_seed", _integer("master_seed", self.master_seed, 0, 2**64 - 1))
        for field in ("repetitions", "num_angles", "jobs"):
            object.__setattr__(self, field, _integer(field, getattr(self, field), 1))


def repetition_seed(master_seed: int, n: int, rep: int) -> int:
    """Seed of one (sample size, repetition) cell; shared by every method."""
    spawn_key = (_integer("n", n, 0), _integer("rep", rep, 0))
    ss = np.random.SeedSequence(_integer("master_seed", master_seed, 0), spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


def run_experiment(config: ExperimentConfig, registry=None) -> list[ExperimentReport]:
    """Run every (method, size, repetition) cell and aggregate per (method, size).

    Each repetition generates one dataset pair from its derived seed, then
    times each method on it (timing covers the method call only). A method
    failure is recorded on its cell record and the sweep continues.
    """
    methods = registry if registry is not None else _method_registry(config.num_angles)
    generate = GENERATORS[config.generator]

    def run_cell(cell: tuple[int, int]) -> dict[str, ExperimentRecord]:
        n, rep = cell
        seed = repetition_seed(config.master_seed, n, rep)
        p, q, truth = generate(n, seed)
        out = {}
        for name in config.methods:
            started = time.perf_counter()
            try:
                scores = methods[name](p, q, seed)
                elapsed = time.perf_counter() - started
                out[name] = ExperimentRecord(seed, n, auroc(finite_scores(name, scores), truth), elapsed)
            except Exception as exc:  # recorded, not fatal to the sweep
                elapsed = time.perf_counter() - started
                out[name] = ExperimentRecord(seed, n, None, elapsed, error=str(exc))
        return out

    cells = [(n, rep) for n in config.sample_sizes for rep in range(config.repetitions)]
    results = _fan_out(run_cell, cells, config.jobs)

    reports = []
    for name in config.methods:
        for n in config.sample_sizes:
            records = tuple(
                res[name] for (cn, _), res in zip(cells, results) if cn == n
            )
            reports.append(ExperimentReport(name, n, records))
    return reports


def write_experiment(reports: list[ExperimentReport], out_dir) -> None:
    """Write a sweep's four files into ``out_dir``, creating it.

    ``report.csv`` has method,N,rep_seed,auroc,runtime_sec per repetition, the
    auroc empty for a failed one; ``errors.csv`` has method,N,rep_seed,error
    per failed repetition (only the header when none failed);
    ``aggregate.json`` the count, failures, mean and std of each cell; and
    ``auroc_vs_N.csv`` method,N,mean_auroc,std, the mean empty (null in the
    JSON) when every repetition of the cell failed.
    """
    os.makedirs(out_dir, exist_ok=True)
    records = [(r.method, rec) for r in reports for rec in r.records]
    _write_csv(
        os.path.join(out_dir, "report.csv"),
        ("method", "N", "rep_seed", "auroc", "runtime_sec"),
        ((m, rec.n, rec.seed, rec.auroc, rec.runtime_sec) for m, rec in records),
    )
    _write_csv(
        os.path.join(out_dir, "errors.csv"),
        ("method", "N", "rep_seed", "error"),
        ((m, rec.n, rec.seed, rec.error) for m, rec in records if rec.error is not None),
    )
    cells = [
        {
            "method": r.method,
            "N": r.n,
            "repetitions": len(r.records),
            "failures": len(r.records) - len(r.successful),
            "mean_auroc": r.mean_auroc,
            "std_auroc": r.std_auroc,
        }
        for r in reports
    ]
    _write_json(os.path.join(out_dir, "aggregate.json"), {"cells": cells})
    _write_csv(
        os.path.join(out_dir, "auroc_vs_N.csv"),
        ("method", "N", "mean_auroc", "std"),
        ((r.method, r.n, r.mean_auroc, r.std_auroc) for r in reports),
    )
