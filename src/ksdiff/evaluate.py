"""Ranking-quality scoring against ground truth and the seeded experiment runner.

AUROC here is the rank (Mann-Whitney) form: the probability that a changed
feature outranks an unchanged one under the method's scores, with tied pairs
counted one half. The runner sweeps (method, sample size, repetition) cells,
deriving one seed per (size, repetition) so all methods see the same data
and reruns are reproducible regardless of execution order or parallelism.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import hara15_score, ide09_score, mt_score
from .data import Dataset, _integer
from .errors import ConfigFieldError, DataValidationError
from .matrix import build_ks_matrix
from .solvers import greedy_score
from .synth import GENERATORS, GroundTruth


def auroc(scores, truth) -> float:
    """Probability that a changed feature scores above an unchanged one (ties half)."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise DataValidationError(f"scores must be 1-D, got shape {s.shape}")
    d = s.size
    changed = truth.changed if isinstance(truth, GroundTruth) else frozenset(int(i) for i in truth)
    if any(i < 0 or i >= d for i in changed):
        raise DataValidationError(f"ground truth indices out of range for {d} features")
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


def proposed_score(p: Dataset, q: Dataset, num_angles: int, seed: int, jobs: int = 1) -> np.ndarray:
    """Greedy scores from the pairwise KS matrix (the method under study)."""
    return greedy_score(build_ks_matrix(p, q, num_angles, seed, jobs=jobs)).scores


def _method_registry(num_angles: int):
    return {
        "proposed": lambda p, q, seed: proposed_score(p, q, num_angles, seed),
        "mt": lambda p, q, seed: mt_score(p, q),
        "ide09": lambda p, q, seed: ide09_score(p, q),
        "hara15": lambda p, q, seed: hara15_score(p, q),
    }


@dataclass(frozen=True)
class ExperimentRecord:
    seed: int
    n: int
    auroc: float
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
    def mean_auroc(self) -> float:
        ok = self.successful
        return float(np.mean([r.auroc for r in ok])) if ok else float("nan")

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
    num_angles: int = 10
    jobs: int = 1

    def __post_init__(self):
        if not isinstance(self.generator, str) or self.generator not in GENERATORS:
            raise ConfigFieldError("generator", f"must be in {sorted(GENERATORS)}, got {self.generator!r}")
        methods, known = _items("methods", self.methods), set(_method_registry(1))
        if not all(isinstance(m, str) and m in known for m in methods):
            raise ConfigFieldError("methods", f"must be a subset of {sorted(known)}, got {list(methods)}")
        sizes = tuple(_integer("sample_sizes", n, 2) for n in _items("sample_sizes", self.sample_sizes))
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "master_seed", _integer("master_seed", self.master_seed, 0, 2**64 - 1))
        for field in ("repetitions", "num_angles", "jobs"):
            object.__setattr__(self, field, _integer(field, getattr(self, field), 1))


def repetition_seed(master_seed: int, n: int, rep: int) -> int:
    """Seed of one (sample size, repetition) cell; shared by every method."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(int(n), int(rep)))
    return int(ss.generate_state(1, np.uint64)[0])


def run_experiment(config: ExperimentConfig, registry=None) -> list[ExperimentReport]:
    """Run every (method, size, repetition) cell and aggregate per (method, size).

    Each repetition generates one dataset pair from its derived seed, then
    times each method on it (timing covers the method call only). A method
    failure is recorded on its cell record and the sweep continues.
    """
    methods = registry if registry is not None else _method_registry(config.num_angles)
    generate = GENERATORS[config.generator]

    def run_cell(n: int, rep: int) -> dict[str, ExperimentRecord]:
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
                out[name] = ExperimentRecord(seed, n, float("nan"), elapsed, error=str(exc))
        return out

    cells = [(n, rep) for n in config.sample_sizes for rep in range(config.repetitions)]
    if config.jobs == 1 or len(cells) < 2:
        results = [run_cell(n, rep) for n, rep in cells]
    else:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(lambda cell: run_cell(*cell), cells))

    reports = []
    for name in config.methods:
        for n in config.sample_sizes:
            records = tuple(
                res[name] for (cn, _), res in zip(cells, results) if cn == n
            )
            reports.append(ExperimentReport(name, n, records))
    return reports


def write_report_csv(reports: list[ExperimentReport], path) -> None:
    """Flat per-repetition table: method,N,rep_seed,auroc,runtime_sec."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("method,N,rep_seed,auroc,runtime_sec\n")
        for report in reports:
            for rec in report.records:
                fh.write(
                    f"{report.method},{rec.n},{rec.seed},{repr(rec.auroc)},{repr(rec.runtime_sec)}\n"
                )


def aggregate_dict(reports: list[ExperimentReport]) -> dict:
    return {
        "cells": [
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
    }


def write_aggregate_json(reports: list[ExperimentReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(aggregate_dict(reports), fh, indent=2)
        fh.write("\n")


def write_auroc_vs_n_csv(reports: list[ExperimentReport], path) -> None:
    """Plot-ready aggregate table: method,N,mean_auroc,std."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("method,N,mean_auroc,std\n")
        for r in reports:
            fh.write(f"{r.method},{r.n},{repr(r.mean_auroc)},{repr(r.std_auroc)}\n")
