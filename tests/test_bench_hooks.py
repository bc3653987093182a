"""The benchmark wraps library functions by module and name; each must exist and stay on the path."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from ksdiff import ExperimentConfig

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
