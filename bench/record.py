"""Record one point of the bench trajectory.

Runs every workload untraced on the default seed and on a second seed, and
traced once on the default seed, then writes the results, with problem shape,
provenance and the load checks below, to ``bench/trajectory/<name>.json``:

    python3 bench/record.py BENCH_001 --seconds 20

The load checks confirm that each workload stresses the layers it was chosen
for, as shares of the mean traced op.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import DEFAULT_SEED, OUT, WORKLOAD_NAMES  # noqa: E402

SECOND_SEED = 1


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, cwd=BENCH.parent, stdout=subprocess.DEVNULL)
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        return json.load(fh)


def share(layers, *names):
    return sum(layers[n]["value"] for n in names) / layers["trace.op_s"]["value"]


def load_checks(traced):
    large, wide = traced["select-large-n"], traced["select-wide-d"]
    angles_large = share(large, "matrix.angles_s")
    angles_wide = share(wide, "matrix.angles_s")
    checks = {
        "select-large-n: ks.kernel_s share of op >= 0.5": share(large, "ks.kernel_s"),
        "identify: solvers.exact_s + solvers.margin_s share of op >= 0.9": share(
            traced["identify"], "solvers.exact_s", "solvers.margin_s"
        ),
        "sweep: baselines (mt, ide09, hara15) + synth.generate_s share of op >= 0.4": share(
            traced["sweep"], "baselines.mt_s", "baselines.ide09_s", "baselines.hara15_s", "synth.generate_s"
        ),
        "matrix.angles_s share, select-wide-d over select-large-n >= 10": angles_wide / angles_large,
    }
    limits = (0.5, 0.9, 0.4, 10.0)
    return {k: {"value": v, "holds": v >= limit} for (k, v), limit in zip(checks.items(), limits)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", help="file name of the trajectory point, without .json")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    point = {"seconds": args.seconds, "workloads": {}}
    traced = {}
    for workload in WORKLOAD_NAMES:
        runs = {
            f"seed{seed}": run(workload, seed, args.seconds, 0) for seed in (DEFAULT_SEED, SECOND_SEED)
        }
        runs["traced"] = run(workload, DEFAULT_SEED, args.seconds, 1)
        traced[workload] = runs["traced"]["result"]["metrics"]
        point["workloads"][workload] = runs
        for label, r in runs.items():
            d = r["details"]
            print(f"{workload} {label}: correct={r['result']['correct']} error_rate={d['error_rate']}")
    point["load_checks"] = load_checks(traced)
    for check, outcome in point["load_checks"].items():
        print(f"{check}: {outcome['value']:.3f} ({'holds' if outcome['holds'] else 'FAILS'})")

    path = BENCH / "trajectory" / f"{args.name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
