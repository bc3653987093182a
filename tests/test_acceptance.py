"""Acceptance gate: one test per shipped criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 1-9 are hard
gates at their stated tolerances; criterion 10 is a timing property that is
measured and logged but does not fail the suite on slow hardware.
"""

import json
import math
import time
import warnings

import numpy as np

from ksdiff import (
    ExperimentConfig,
    PerturbationSpec,
    build_ks_matrix,
    dataset_from_array,
    gen_example1,
    greedy_k,
    kl_lower_bound_check,
    ks_empirical,
    optimality_margin,
    perturb,
    projected_ks_grid,
    recovery_trial,
    run_experiment,
    save_dataset_csv,
)
from ksdiff.cli import main
from ksdiff.matrix import _projected_ks_values

from conftest import brute_force_min, ks_jump_oracle, random_sample_pair, structured_instance


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _mean_auroc(reports, method, n):
    for r in reports:
        if r.method == method and r.n == n:
            return r.mean_auroc
    raise KeyError((method, n))


def test_criterion_1_mixture_example_reproduction():
    config = ExperimentConfig(
        generator="example2",
        methods=("proposed",),
        sample_sizes=(100, 1000),
        repetitions=20,
        master_seed=20_001,
        num_angles=10,
    )
    reports = run_experiment(config)
    at_1000 = _mean_auroc(reports, "proposed", 1000)
    at_100 = _mean_auroc(reports, "proposed", 100)
    ok = at_1000 >= 0.95 and at_1000 >= at_100
    assert _report(
        1,
        "mixture-change reproduction (proposed, L=10, 20 reps)",
        ok,
        f"mean@N=1000 {at_1000:.4f} (>=0.95), mean@N=100 {at_100:.4f}",
    )


def test_criterion_2_covariance_example_reproduction():
    big = run_experiment(
        ExperimentConfig(
            generator="example1",
            methods=("proposed",),
            sample_sizes=(5000,),
            repetitions=20,
            master_seed=20_002,
            num_angles=10,
        )
    )
    at_5000 = _mean_auroc(big, "proposed", 5000)
    both = run_experiment(
        ExperimentConfig(
            generator="example1",
            methods=("proposed", "hara15"),
            sample_sizes=(1000,),
            repetitions=20,
            master_seed=20_002,
            num_angles=10,
        )
    )
    proposed_1000 = _mean_auroc(both, "proposed", 1000)
    hara_1000 = _mean_auroc(both, "hara15", 1000)
    ok = at_5000 >= 0.95 and hara_1000 >= proposed_1000 - 0.05
    assert _report(
        2,
        "covariance-change reproduction (proposed@N=5000, parametric edge@N=1000)",
        ok,
        f"proposed@5000 {at_5000:.4f} (>=0.95); hara15@1000 {hara_1000:.4f} "
        f">= proposed@1000 {proposed_1000:.4f} - 0.05",
    )


def test_criterion_3_ks_oracle_equivalence():
    rng = np.random.default_rng(20_003)
    mismatches = 0
    for case in range(1000):
        p, q = random_sample_pair(rng, tie_heavy=case % 3 != 2)  # ~2/3 tie-heavy
        if ks_empirical(p, q) != ks_jump_oracle(p, q):
            mismatches += 1
    assert _report(
        3,
        "merged-scan KS equals jump-point oracle on 1000 instances",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_4_greedy_approximation_guarantee():
    rng = np.random.default_rng(20_004)
    factor = 1.0 - 1.0 / math.e
    violations = 0
    for _ in range(100):
        w = rng.uniform(0.0, 1.0, size=(10, 10))
        w = np.triu(w) + np.triu(w, 1).T
        total = float(w.sum())
        for k in range(1, 10):
            exact_value, _ = brute_force_min(w, k)
            greedy_value = greedy_k(w, k).objective
            # gain form of the objective: weight removed from the complement
            if total - greedy_value < factor * (total - exact_value) - 1e-12:
                violations += 1
    assert _report(
        4,
        "greedy gain >= (1-1/e) * exact gain on 100 matrices, k=1..9",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_5_recovery_under_bounded_perturbation():
    rng = np.random.default_rng(20_005)
    failures = 0
    for trial in range(100):
        d = int(rng.integers(5, 9))
        k = int(rng.integers(1, d - 1))
        w, changed = structured_instance(rng, d, k)
        margin = optimality_margin(w, changed, k)
        assert margin > 0
        result = recovery_trial(
            w, changed, magnitude=margin / (2 * k * k), trials=1, seed=30_000 + trial
        )
        failures += result.success_rate < 1.0
    assert _report(
        5,
        "exact recovery at perturbation magnitude margin/(2k^2), 100 instances",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_6_angle_sampling_concentration():
    rng = np.random.default_rng(20_006)
    p = dataset_from_array(rng.normal(size=(60, 2)))
    q = dataset_from_array(rng.normal(size=(60, 2)) + np.array([0.8, 0.0]))
    reference = projected_ks_grid(p, q, 0, 1, grid_size=10_000)
    delta, num_angles, num_sets = 0.3, 10, 10_000
    angles = rng.uniform(0.0, np.pi, size=(num_sets, num_angles))
    estimates = np.empty(num_sets)
    chunk = 1000
    zeros, ones = np.zeros(chunk, int), np.ones(chunk, int)
    for start in range(0, num_sets, chunk):
        sets = angles[start : start + chunk]
        estimates[start : start + chunk] = _projected_ks_values(p.values.T, q.values.T, zeros, ones, sets)
    exceed = float(np.mean(np.abs(estimates - reference) > delta))
    bound = 2.0 * math.exp(-2.0 * delta**2 * num_angles) + 0.01
    assert _report(
        6,
        "angle-sampling exceedance rate within concentration bound",
        exceed <= bound,
        f"rate {exceed:.5f} <= bound {bound:.5f}",
    )


def test_criterion_7_variance_preserving_perturbation():
    rng = np.random.default_rng(20_007)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(30, 400))
        d = int(rng.integers(2, 8))
        scale = rng.uniform(0.1, 5.0, size=d)
        ds = dataset_from_array(rng.normal(size=(n, d)) * scale)
        target = int(rng.integers(0, d))
        ref = int((target + 1) % d)
        spec = PerturbationSpec(
            "cov_change_no_var", float(rng.uniform(0.1, 0.9)), (target,), {target: ref}
        )
        out = perturb(ds, spec)
        before = float(np.var(ds.values[:, target]))
        after = float(np.var(out.values[:, target]))
        worst = max(worst, abs(after - before) / before)
    assert _report(
        7,
        "variance-preserving mix keeps sample variance (50 datasets)",
        worst <= 1e-10,
        f"worst relative error {worst:.3e}",
    )


def test_criterion_8_worker_count_determinism(tmp_path):
    rng = np.random.default_rng(20_008)
    p = dataset_from_array(rng.normal(size=(300, 8)))
    q = dataset_from_array(rng.normal(size=(300, 8)) * 1.3)
    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    save_dataset_csv(p, p_path)
    save_dataset_csv(q, q_path)

    matrix_files, report_files = [], []
    for jobs in (1, 4, 16):
        m_out = tmp_path / f"h{jobs}.csv"
        r_out = tmp_path / f"r{jobs}.json"
        assert main(["matrix", "--p", str(p_path), "--q", str(q_path), "--seed", "77",
                     "--jobs", str(jobs), "--out", str(m_out)]) == 0
        assert main(["select", "--p", str(p_path), "--q", str(q_path), "--seed", "77",
                     "--jobs", str(jobs), "--out", str(r_out)]) == 0
        matrix_files.append(m_out.read_bytes())
        report_files.append(r_out.read_bytes())

    spec = {"generator": "example2", "methods": ["proposed"], "N": [120],
            "repetitions": 3, "master_seed": 9, "L": 5}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    tables, aggregates, score_rows = [], [], []
    for jobs in (1, 4):
        out_dir = tmp_path / f"exp{jobs}"
        assert main(["experiment", "--spec", str(spec_path), "--out-dir", str(out_dir), "--jobs", str(jobs)]) == 0
        tables.append((out_dir / "auroc_vs_N.csv").read_bytes())
        aggregates.append((out_dir / "aggregate.json").read_bytes())
        rows = (out_dir / "report.csv").read_text().splitlines()
        # wall-clock column is inherently run-dependent; everything else must match
        score_rows.append([",".join(r.split(",")[:4]) for r in rows])

    ok = (
        matrix_files[0] == matrix_files[1] == matrix_files[2]
        and report_files[0] == report_files[1] == report_files[2]
        and tables[0] == tables[1]
        and aggregates[0] == aggregates[1]
        and score_rows[0] == score_rows[1]
    )
    assert _report(8, "byte-identical matrices and reports across 1/4/16 workers", ok)


def test_criterion_9_kl_bound_grid():
    grid = np.linspace(-0.99, 0.99, 99)
    violations = negatives = 0
    for s in grid:
        for g in grid:
            check = kl_lower_bound_check(float(s), float(g))
            violations += not check.holds
            negatives += check.kl < 0.0
    ok = violations == 0 and negatives == 0
    assert _report(
        9,
        "bivariate KL lower bound holds on the 99x99 correlation grid",
        ok,
        f"{violations} bound violations, {negatives} negative divergences",
    )


def test_criterion_10_build_time_scaling():
    num_angles = 10

    def best_build_time(n: int) -> float:
        p, q, _ = gen_example1(n, 20_010)
        times = []
        for _ in range(3):
            started = time.perf_counter()
            build_ks_matrix(p, q, num_angles, 5)
            times.append(time.perf_counter() - started)
        return min(times)

    t_small = best_build_time(10_000)
    t_large = best_build_time(20_000)
    ratio = t_large / t_small
    ok = ratio <= 2.6
    _report(
        10,
        "matrix build time ratio N=2e4 / N=1e4 (soft, logged)",
        ok,
        f"ratio {ratio:.2f} (target <= 2.6); {t_small:.2f}s -> {t_large:.2f}s",
    )
    if not ok:
        # timing is hardware-dependent: logged, not gating
        warnings.warn(f"build-time ratio {ratio:.2f} exceeded 2.6 on this machine")
