"""The benchmark wraps library functions by module and name; each must exist and stay on the path."""

import importlib
import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ksdiff import EmpiricalKsMatrix, ExperimentConfig, dataset_from_array, greedy_score, save_dataset_csv

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def traced(monkeypatch):
    """A span recorder with ``bench/run.py``'s wrappers installed, restored afterwards."""
    # bench/run.py imports its span recorder as a top-level module
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from spans import SpanRecorder

    rec = SpanRecorder()
    try:
        run.install_trace(rec)
        yield rec
    finally:
        rec.restore()


def test_every_traced_name_resolves(traced):
    assert traced.missing == []


def test_sweep_cell_records_every_baseline_span(traced):
    import ksdiff.evaluate

    # the shape of one benchmark sweep op: example2, all four methods, N = 100, L = 10
    config = ExperimentConfig("example2", ("proposed", "mt", "ide09", "hara15"), (100,), 1, 7, num_angles=10)
    reports = ksdiff.evaluate.run_experiment(config)
    assert all(rec.error is None for r in reports for rec in r.records)
    names = Counter(span[1] for span in traced.spans)
    # mt estimates one precision and ide09 two; hara15 in covariance mode none
    assert names["baselines.precision_cv"] == 3
    assert (names["baselines.mt"], names["baselines.ide09"], names["baselines.hara15"]) == (1, 1, 1)
    assert names["evaluate.cell"] == 1


def test_select_matrix_captured_once(tmp_path, monkeypatch):
    # the select workloads check the matrix that bench/workloads.py captures at ksdiff.cli.build_ks_matrix
    import ksdiff.cli

    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("workloads").SelectWorkload()
    for owner, attr, replacement in workload.hooks():
        monkeypatch.setattr(owner, attr, replacement)
    rng = np.random.default_rng(3)
    paths = [str(tmp_path / f"{side}.csv") for side in "pq"]
    for path in paths:
        save_dataset_csv(dataset_from_array(rng.normal(size=(30, 4))), path)
    out = tmp_path / "r.json"
    assert ksdiff.cli.main(["select", "--p", paths[0], "--q", paths[1], "--seed", "5", "--out", str(out)]) == 0
    assert len(workload.captured) == 1 and isinstance(workload.captured[0], EmpiricalKsMatrix)
    scores = [row["score"] for row in sorted(json.loads(out.read_text())["ranking"], key=lambda row: row["index"])]
    assert scores == greedy_score(workload.captured[0]).scores.tolist()


def test_check_conditions_records_one_margin_span(traced):
    # margin_counts binds optimality_margin's signature and reads its k
    import ksdiff.theory

    report = ksdiff.theory.check_conditions(np.diag([0.0, 0.0, 1.0]), [2])
    margins = [span for span in traced.spans if span[1] == "solvers.margin"]
    assert report.margin == 1.0
    assert [span[-1] for span in margins] == [{"complements": math.comb(3, 2)}]
