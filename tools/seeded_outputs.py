"""Print one sha256 per seeded output of the ksdiff CLI, to compare two checkouts.

Usage:

    python3 tools/seeded_outputs.py SRC [--jobs N]

``SRC`` is the ``src`` directory of the checkout to run. The script writes
two seeded input pairs with the standard library only (D = 6, N = 120: a
covariance change in features 0 and 1, after ``example1``, and a mixture
in feature 2, after ``example2``) and then runs ``ksdiff.cli.main`` on them:

- ``perturb`` of the first sample with each of the five kinds;
- ``matrix`` for both pairs and both angle policies;
- ``select`` JSON and CSV reports for both pairs and every allowed method
  and solver;
- ``check --out`` on the first pair's matrix;
- ``experiment`` on a four-method spec whose N = 2 cells fail, with
  ``report.csv`` hashed without its ``runtime_sec`` column.

Every output but the wall-clock column is seeded, so two checkouts that
write the same files print the same lines, and ``diff`` of the two
printouts names each file that changed. ``--jobs`` is passed to every
command that takes it; the printout must not depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

ROWS, FEATURES = 120, 6
SOLVERS = {"proposed": ("greedy-score", "greedy-k", "exact"), "hara15": ("greedy-score", "greedy-k", "exact"),
           "mt": ("greedy-score",), "ide09": ("greedy-score",)}
PERTURBATIONS = {
    "mean_shift": [],
    "variance_change": ["--seed", "5"],
    "cov_change": ["--refs", "3"],
    "cov_change_conditional": ["--refs", "3"],
    "cov_change_no_var": ["--refs", "3"],
}
SPEC = {
    "generator": "example1",
    "methods": ["proposed", "mt", "ide09", "hara15"],
    "N": [2, 40],
    "repetitions": 2,
    "master_seed": 3,
    "L": 3,
}


def _write_sample(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(FEATURES)) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _inputs(tmp: Path) -> dict[str, tuple[str, str]]:
    """The two seeded sample pairs, by name, as (p path, q path)."""
    rng = random.Random(20170731)

    def draw() -> list[float]:
        return [rng.gauss(0.0, 1.0) for _ in range(FEATURES)]

    p = [draw() for _ in range(ROWS)]
    covariance = []
    for row in (draw() for _ in range(ROWS)):
        row[1] = 0.8 * row[0] + 0.6 * row[1]
        covariance.append(row)
    mixture = []
    for row in (draw() for _ in range(ROWS)):
        row[2] = rng.choice((-1.0, 1.0)) * math.sqrt(0.75) + 0.5 * row[2]
        mixture.append(row)
    _write_sample(tmp / "p.csv", p)
    _write_sample(tmp / "q_covariance.csv", covariance)
    _write_sample(tmp / "q_mixture.csv", mixture)
    return {name: (str(tmp / "p.csv"), str(tmp / f"q_{name}.csv")) for name in ("covariance", "mixture")}


def _without_runtime(path: Path) -> bytes:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:-1] for row in rows)
    return out.getvalue().encode()


def digests(jobs: int = 1) -> dict[str, str]:
    """sha256 of every seeded output, by file name, from ``ksdiff.cli.main``."""
    from ksdiff.cli import main

    def run(*argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"ksdiff {' '.join(map(str, argv))}: exit {code}")

    jobs_flag = ["--jobs", str(jobs)]
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        pairs = _inputs(tmp)
        outputs = []
        for kind, extra in PERTURBATIONS.items():
            outputs.append(tmp / f"perturb_{kind}.csv")
            run("perturb", "--input", tmp / "p.csv", "--kind", kind, "--c", "0.4", "--targets", "1", *extra, "--out", outputs[-1])
        for pair, (p, q) in pairs.items():
            for policy in ("per-pair", "shared"):
                outputs.append(tmp / f"matrix_{pair}_{policy}.csv")
                run("matrix", "--p", p, "--q", q, "--L", "10", "--seed", "7", "--policy", policy, *jobs_flag, "--out", outputs[-1])
            for method, solver in ((m, s) for m, solvers in SOLVERS.items() for s in solvers):
                k = [] if solver == "greedy-score" else ["--k", str(FEATURES - 2)]
                for fmt in ("json", "csv"):
                    outputs.append(tmp / f"select_{pair}_{method}_{solver}.{fmt}")
                    run("select", "--p", p, "--q", q, "--method", method, "--solver", solver, *k, "--seed", "7",
                        "--threshold", "0.1", "--format", fmt, *jobs_flag, "--out", outputs[-1])
        outputs.append(tmp / "check.json")
        run("check", "--matrix", tmp / "matrix_covariance_per-pair.csv", "--s-star", "0,1", "--out", outputs[-1])
        (tmp / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
        run("experiment", "--spec", tmp / "spec.json", "--out-dir", tmp / "experiment", *jobs_flag)
        outputs += [tmp / "experiment" / f for f in ("aggregate.json", "auroc_vs_N.csv", "errors.csv")]
        result = {path.relative_to(tmp).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs}
        report = _without_runtime(tmp / "experiment" / "report.csv")
        result["experiment/report.csv (without runtime_sec)"] = hashlib.sha256(report).hexdigest()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src directory of the checkout to run")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import ksdiff

    if Path(ksdiff.__file__).resolve().parent != src / "ksdiff":
        raise SystemExit(f"error: imported ksdiff from {ksdiff.__file__}, not from {src}")
    for name, digest in digests(args.jobs).items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
