"""ksdiff benchmark: one seeded workload per process, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload select-large-n --seed 20170731 --seconds 15 --trace 0

Workloads (see ``bench/workloads.py`` for why each exists): ``select-large-n``,
``select-wide-d``, ``identify`` and ``sweep``. ``--seed`` defaults to
20170731; every input is derived from it, so the same seed gives the same
inputs. A later claim should be confirmed on a second seed, such as 1.

Each run imports ksdiff from ``src/`` next to this directory and fails with
exit code 2 when it is missing. Set-up (input generation, CSV and matrix
writes and one untimed warm-up op) is repeated and its median reported. The
timed phase then runs ops back to back for ``--seconds``, and afterwards
every output is checked with public ksdiff functions.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics. With ``--trace 1`` every other op of the timed phase
runs with the span recorder of ``bench/spans.py`` wrapped around the calls
that cross module boundaries, and the last line holds per-layer means per
traced op plus the tracing overhead against the untraced ops. Full results,
with problem shape, provenance and output digests, are written to
``bench/out/``; in traced runs the spans are written there too.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import SpanRecorder, SpanSummary, patch, unpatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 20170731
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("select-large-n", "select-wide-d", "identify", "sweep")

# (name, unit): what a user of the CLI or library sees
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("auroc_mean", "ratio"),
)

# (name, unit): per-op means from traced ops; busy times sum across threads
PER_LAYER = (
    ("cli.select_s", "s"),
    ("cli.self_s", "s"),
    ("data.load_csv_s", "s"),
    ("data.rows_loaded", "count"),
    ("data.rows_per_s", "1/s"),
    ("matrix.build_s", "s"),
    ("matrix.self_s", "s"),
    ("matrix.angles_s", "s"),
    ("matrix.angles_wall_s", "s"),
    ("matrix.angle_sets", "count"),
    ("matrix.pairs", "count"),
    ("matrix.chunks", "count"),
    ("matrix.pairs_per_chunk", "count"),
    ("matrix.jobs", "count"),
    ("ks.kernel_s", "s"),
    ("ks.kernel_wall_s", "s"),
    ("ks.kernel_calls", "count"),
    ("ks.instances", "count"),
    ("ks.elements", "count"),
    ("ks.elements_per_s", "1/s"),
    ("ks.bytes_computed", "B"),
    ("solvers.greedy_s", "s"),
    ("solvers.exact_s", "s"),
    ("solvers.margin_s", "s"),
    ("solvers.margin_complements", "count"),
    ("theory.check_s", "s"),
    ("baselines.mt_s", "s"),
    ("baselines.ide09_s", "s"),
    ("baselines.hara15_s", "s"),
    ("baselines.precision_cv_s", "s"),
    ("baselines.precision_cv_calls", "count"),
    ("synth.generate_s", "s"),
    ("evaluate.cell_s", "s"),
    ("evaluate.self_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_pct", "%"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ksdiff").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed):
    import ksdiff
    import numpy as np

    return {
        "workload_seed": seed,
        "git_commit": git_commit(),
        "src_digest": src_digest(),
        "ksdiff_version": ksdiff.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def install_trace(rec):
    """Wrap the calls that cross ksdiff's module boundaries, at the site that calls them."""
    import ksdiff.baselines
    import ksdiff.cli
    import ksdiff.evaluate
    import ksdiff.matrix
    import ksdiff.solvers
    import ksdiff.theory

    def bound(fn):
        sig = inspect.signature(fn)

        def arguments(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        return arguments

    build_args = bound(ksdiff.matrix.build_ks_matrix)
    margin_args = bound(ksdiff.solvers.optimality_margin)

    def build_counts(args, kwargs, result):
        a = build_args(args, kwargs)
        d = a["p"].num_features
        return {"pairs": d * (d - 1) // 2, "jobs": a.get("jobs", 1)}

    def kernel_counts(args, kwargs, result):
        a, b = args[0], args[1]
        k = a.shape[1]
        return {"instances": k, "elements": (a.shape[0] + b.shape[0]) * k, "bytes": a.nbytes + b.nbytes}

    def margin_counts(args, kwargs, result):
        a = margin_args(args, kwargs)
        h = a["h"]
        d = h.dim if hasattr(h, "dim") else len(h)
        return {"complements": math.comb(d, a["k"])}

    def rows(args, kwargs, result):
        return {"rows": result.num_rows}

    rec.wrap(ksdiff.cli, "main", "cli.select")
    rec.wrap(ksdiff.cli, "load_dataset_csv", "data.load_csv", rows)
    for owner in (ksdiff.cli, ksdiff.evaluate):
        rec.wrap(owner, "build_ks_matrix", "matrix.build", build_counts)
        rec.wrap(owner, "greedy_score", "solvers.greedy")
    rec.wrap(ksdiff.matrix, "pair_angles", "matrix.angles")
    rec.wrap(ksdiff.matrix, "_ks_merged", "ks.chunk", kernel_counts)
    rec.wrap(ksdiff.matrix, "ks_empirical_columns", "ks.columns", kernel_counts)
    rec.wrap(ksdiff.solvers, "exact_min", "solvers.exact")
    rec.wrap(ksdiff.theory, "check_conditions", "theory.check")
    rec.wrap(ksdiff.theory, "optimality_margin", "solvers.margin", margin_counts)
    rec.wrap(ksdiff.evaluate, "run_experiment", "evaluate.cell")
    for generator in sorted(ksdiff.evaluate.GENERATORS):
        rec.wrap(ksdiff.evaluate.GENERATORS, generator, "synth.generate")
    rec.wrap(ksdiff.evaluate, "mt_score", "baselines.mt")
    rec.wrap(ksdiff.evaluate, "ide09_score", "baselines.ide09")
    rec.wrap(ksdiff.evaluate, "hara15_score", "baselines.hara15")
    rec.wrap(ksdiff.baselines, "estimate_precision_cv", "baselines.precision_cv")


def per_layer(spans, traced_durations, untraced_durations):
    s = SpanSummary(spans)
    ops = len(traced_durations)

    def ratio(num, den):
        return num / den if den else 0.0

    kernel_s = s.busy["ks.chunk"] + s.busy["ks.columns"]
    kernel_elements = s.counts["ks.chunk.elements"] + s.counts["ks.columns.elements"]
    totals = {
        "cli.select_s": s.busy["cli.select"],
        "cli.self_s": s.self_time["cli.select"],
        "data.load_csv_s": s.busy["data.load_csv"],
        "data.rows_loaded": s.counts["data.load_csv.rows"],
        "matrix.build_s": s.busy["matrix.build"],
        "matrix.self_s": s.self_time["matrix.build"],
        "matrix.angles_s": s.busy["matrix.angles"],
        "matrix.angles_wall_s": s.wall("matrix.angles"),
        "matrix.angle_sets": s.calls["matrix.angles"],
        "matrix.pairs": s.counts["matrix.build.pairs"],
        "matrix.chunks": s.calls["ks.chunk"],
        "ks.kernel_s": kernel_s,
        "ks.kernel_wall_s": s.wall("ks.chunk", "ks.columns"),
        "ks.kernel_calls": s.calls["ks.chunk"] + s.calls["ks.columns"],
        "ks.instances": s.counts["ks.chunk.instances"] + s.counts["ks.columns.instances"],
        "ks.elements": kernel_elements,
        "ks.bytes_computed": s.counts["ks.chunk.bytes"] + s.counts["ks.columns.bytes"],
        "solvers.greedy_s": s.busy["solvers.greedy"],
        "solvers.exact_s": s.busy["solvers.exact"],
        "solvers.margin_s": s.busy["solvers.margin"],
        "solvers.margin_complements": s.counts["solvers.margin.complements"],
        "theory.check_s": s.self_time["theory.check"],
        "baselines.mt_s": s.busy["baselines.mt"],
        "baselines.ide09_s": s.busy["baselines.ide09"],
        "baselines.hara15_s": s.busy["baselines.hara15"],
        "baselines.precision_cv_s": s.busy["baselines.precision_cv"],
        "baselines.precision_cv_calls": s.calls["baselines.precision_cv"],
        "synth.generate_s": s.busy["synth.generate"],
        "evaluate.cell_s": s.busy["evaluate.cell"],
        "evaluate.self_s": s.self_time["evaluate.cell"],
        "trace.op_s": sum(traced_durations),
    }
    values = {name: ratio(value, ops) for name, value in totals.items()}
    values["data.rows_per_s"] = ratio(s.counts["data.load_csv.rows"], s.busy["data.load_csv"])
    values["matrix.pairs_per_chunk"] = ratio(s.counts["matrix.build.pairs"], s.calls["ks.chunk"])
    values["matrix.jobs"] = ratio(s.counts["matrix.build.jobs"], s.calls["matrix.build"])
    values["ks.elements_per_s"] = ratio(kernel_elements, kernel_s)
    untraced = statistics.median(untraced_durations)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_durations) - untraced) / untraced
    return values


def run(args):
    t_import = time.perf_counter()
    import numpy  # noqa: F401
    import ksdiff

    from workloads import WORKLOADS

    import_s = time.perf_counter() - t_import
    if Path(ksdiff.__file__).resolve().parent != SRC / "ksdiff":
        raise SystemExit(f"error: imported ksdiff from {ksdiff.__file__}, not from {SRC}")

    wl = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    outputs, errors = [], []
    undo = []
    for owner, attr, replacement in wl.hooks():
        patch(owner, attr, replacement, undo)
    try:
        # set-up, repeated so its median is steady; each repeat ends with one warm-up op
        setup_times = []
        for r in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            started = time.perf_counter()
            state = wl.setup(args.seed, str(workdir))
            outputs.append(wl.collect(state, 0, wl.op(state, 0)))
            setup_times.append(time.perf_counter() - started)

        # timed phase: one closed-loop client, next op starts when the last one ends
        rec = SpanRecorder() if args.trace else None
        durations, traced = [], []
        i = 0
        phase_start = time.perf_counter()
        while True:
            # every other op is traced; the parity flips each pass over the (even-sized)
            # pool, so each entry runs traced as often as untraced
            tracing = rec is not None and (i + i // wl.pool_size) % 2 == 1
            if tracing:
                rec.op = i
                install_trace(rec)
            started = time.perf_counter()
            try:
                raw = wl.op(state, i)
            except Exception:  # a failed op is counted, and the loop goes on
                raw = None
                errors.append(traceback.format_exc())
            elapsed = time.perf_counter() - started
            if tracing:
                rec.restore()
            durations.append(elapsed)
            traced.append(tracing)
            outputs.append(wl.collect(state, i, raw) if raw is not None else None)
            i += 1
            if time.perf_counter() - phase_start >= args.seconds and (rec is None or i >= 2):
                break
        phase_s = time.perf_counter() - phase_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # untimed: make sure every pool entry ran once, so quality covers the whole pool
        for n in range(i, wl.pool_size):
            outputs.append(wl.collect(state, n, wl.op(state, n)))
        ok, run_checks, aurocs, digests = wl.verify(state, [o for o in outputs if o is not None])
    finally:
        unpatch(undo)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outputs)
    failed = len(errors) + ok.count(False)
    for err in errors:
        print(err, file=sys.stderr)
    correct = failed == 0 and all(run_checks.values()) and len(aurocs) == wl.pool_size
    untraced = [d for d, t in zip(durations, traced) if not t]
    details = {
        "workload": wl.name,
        "why": wl.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_timed": len(durations),
        "op_samples": len(untraced),
        "op_durations_s": durations,
        "op_p90_s": statistics.quantiles(untraced, n=10)[-1] if len(untraced) >= 100 else None,
        "error_rate": failed / attempted,
        "run_checks": run_checks,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "auroc_by_entry": {str(k): v for k, v in sorted(aurocs.items())},
        "output_digests": {str(k): v for k, v in sorted(digests.items())},
        "shape": wl.shape(state),
        "provenance": provenance(args.seed),
    }
    if args.trace:
        details["unwrapped"] = rec.missing
        values = per_layer(rec.spans, [d for d, t in zip(durations, traced) if t], untraced)
        units = PER_LAYER
    else:
        values = {
            "ops_per_s": len(durations) / phase_s,
            "op_p50_s": statistics.median(untraced),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "auroc_mean": statistics.fmean(aurocs.values()) if aurocs else 0.0,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rec.dump(OUT / f"spans-{stem}.json")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
        fh.write("\n")

    print(f"workload {wl.name} seed {args.seed}: {len(durations)} ops timed in {phase_s:.2f} s, "
          f"{attempted} checked, {failed} failed, error_rate {details['error_rate']}")
    print("shape " + json.dumps(details["shape"]))
    print("provenance " + json.dumps(details["provenance"]))
    combined = hashlib.sha256(json.dumps(details["output_digests"], sort_keys=True).encode())
    print(f"output digest {combined.hexdigest()[:16]} (non-gating; per entry in bench/out/{stem}.json)")
    if details["op_p90_s"] is not None:
        print(f"op_p90_s {details['op_p90_s']:.6g} s ({len(untraced)} samples)")
    for name, unit in units:
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ksdiff" / "__init__.py").is_file():
        print(f"error: no ksdiff sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # one client, at most two threads: only --jobs 2 may run a second thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
