"""The benchmark wraps library functions by module and name; each must exist."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_resolves(monkeypatch):
    # bench/run.py imports its span recorder as a top-level module
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from spans import SpanRecorder

    rec = SpanRecorder()
    try:
        run.install_trace(rec)
        assert rec.missing == []
    finally:
        rec.restore()
