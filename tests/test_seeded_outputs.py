"""The seeded-output digest tool agrees with itself across worker counts and kernels."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seeded_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("seeded_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_agree_across_jobs_and_without_native(request):
    tool = _tool()
    serial = tool.digests(jobs=1)
    assert len(serial) == 46
    assert tool.digests(jobs=2) == serial
    request.getfixturevalue("without_native")
    assert tool.digests(jobs=1) == serial
