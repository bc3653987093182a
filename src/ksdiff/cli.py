"""Command-line interface.

Subcommands: ``select`` (rank features that differ between two CSVs),
``matrix`` (build and save the pairwise KS matrix), ``perturb`` (inject a
controlled change into a CSV), ``experiment`` (seeded multi-repetition AUROC
sweep from a JSON spec; failed cells go to ``errors.csv``), ``check``
(identifiability report for a saved matrix). Exit codes: 0 success, 2 usage
or input error, 3 solver size limit. Seeds are always explicit; no
subcommand mutates its input files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import evaluate
from .baselines import hara15_matrix, ide09_score, mt_score
from .data import _check_same_columns, _finite, _integer, _write_csv, _write_json, load_dataset_csv, save_dataset_csv, standardize
from .errors import DataValidationError, KsdiffError, SolverLimitError
from .matrix import ANGLE_POLICIES, DEFAULT_NUM_ANGLES, build_ks_matrix, load_matrix, save_matrix
from .solvers import exact_min, greedy_k, greedy_score
from .synth import PERTURBATION_KINDS, PerturbationSpec, perturb
from .theory import check_conditions

_MAX_SEED = 2**64 - 1

SOLVERS = ("greedy-score", "greedy-k", "exact")


# argparse names a ``type=`` callable in its message when it raises
# ValueError, so these raise ArgumentTypeError with the expected form instead
def _seed(value: str) -> int:
    try:
        return _integer("seed", int(value), 0, _MAX_SEED)
    except (ValueError, DataValidationError):
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**64 - 1], got {value!r}") from None


def _threshold(value: str) -> float:
    try:
        return _finite("threshold", float(value))
    except (ValueError, DataValidationError):
        raise argparse.ArgumentTypeError(f"threshold must be a finite number, got {value!r}") from None


def _index_list(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in value.split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}") from None


def _load_pair(p_path, q_path):
    p = load_dataset_csv(p_path)
    q = load_dataset_csv(q_path)
    try:
        _check_same_columns(p, q)
    except DataValidationError as exc:
        raise DataValidationError(f"{p_path} and {q_path}: {exc}") from None
    return p, q


def _ranking(names, scores):
    order = sorted(range(len(names)), key=lambda i: (-scores[i], i))
    return [
        {"name": names[i], "index": i, "score": float(scores[i]), "rank": rank}
        for rank, i in enumerate(order, start=1)
    ]


def _cmd_select(args) -> int:
    if args.solver in ("greedy-k", "exact") and args.k is None:
        raise KsdiffError(f"solver {args.solver!r} requires --k")
    if args.solver == "greedy-score" and args.k is not None:
        raise KsdiffError("--k only applies to the greedy-k and exact solvers")
    if args.method in ("mt", "ide09") and args.solver != "greedy-score":
        raise KsdiffError(f"method {args.method!r} only supports the greedy-score solver")
    p, q = _load_pair(args.p, args.q)
    # checked for every method, also one that does not use them
    _integer("num_angles", args.L, 1)
    _integer("jobs", args.jobs, 1)

    report = {
        "method": args.method,
        "solver": args.solver,
        "seed": args.seed,
        "L": args.L,
        "k": args.k,
    }
    if args.method == "proposed":
        weight = build_ks_matrix(p, q, args.L, args.seed, jobs=args.jobs)
    elif args.method == "hara15":
        weight = hara15_matrix(p, q)
    else:
        weight = None

    if weight is not None:
        if args.solver == "greedy-score":
            scores = greedy_score(weight).scores
        else:
            solve = greedy_k if args.solver == "greedy-k" else exact_min
            result = solve(weight, args.k)
            scores = np.zeros(p.num_features)
            scores[list(result.selected)] = 1.0
            report["selected"] = sorted(result.selected)
            report["objective"] = result.objective
    elif args.method == "mt":
        scores = mt_score(p, q)
    else:
        scores = ide09_score(p, q)

    report["ranking"] = _ranking(p.names, evaluate.finite_scores(args.method, scores))
    if args.threshold is not None:
        report["threshold"] = args.threshold
        report["over_threshold"] = [
            row["name"] for row in report["ranking"] if row["score"] > args.threshold
        ]
    if args.format == "json":
        _write_json(args.out, report)
    else:
        columns = ("name", "index", "score", "rank")
        _write_csv(args.out, columns, ([row[c] for c in columns] for row in report["ranking"]))
    return 0


def _cmd_matrix(args) -> int:
    p, q = _load_pair(args.p, args.q)
    m = build_ks_matrix(p, q, args.L, args.seed, angle_policy=args.policy, jobs=args.jobs)
    save_matrix(m, args.out)
    return 0


def _cmd_perturb(args) -> int:
    ds = load_dataset_csv(args.input)
    if args.standardize:
        ds = standardize(ds)
    refs = args.refs if args.refs is not None else ()
    if refs and len(refs) != len(args.targets):
        raise KsdiffError(f"{len(args.targets)} targets but {len(refs)} references")
    spec = PerturbationSpec(
        kind=args.kind,
        c=args.c,
        targets=args.targets,
        references=dict(zip(args.targets, refs)),
        seed=args.seed,
    )
    save_dataset_csv(perturb(ds, spec), args.out)
    return 0


def _cmd_check(args) -> int:
    payload = check_conditions(load_matrix(args.matrix), args.s_star, tol=args.tol).to_dict()
    print(json.dumps(payload, indent=2))
    if args.out:
        _write_json(args.out, payload)
    return 0


# experiment spec key -> ExperimentConfig field; a key is optional when its field has a default
_SPEC_FIELDS = {
    "generator": "generator",
    "methods": "methods",
    "N": "sample_sizes",
    "repetitions": "repetitions",
    "master_seed": "master_seed",
    "L": "num_angles",
}


def _cmd_experiment(args) -> int:
    # --jobs is the one way to set the worker count; checked before the spec is read
    jobs = _integer("jobs", args.jobs, 1)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise KsdiffError(f"cannot read experiment spec {args.spec}: {exc}") from None
    if not isinstance(raw, dict):
        raise KsdiffError("experiment spec must be a JSON object")
    defaults = {f.name for f in dataclasses.fields(evaluate.ExperimentConfig) if f.default is not dataclasses.MISSING}
    missing = sorted(key for key, field in _SPEC_FIELDS.items() if field not in defaults and key not in raw)
    if missing:
        raise KsdiffError(f"experiment spec missing keys: {missing}")
    unknown = sorted(raw.keys() - _SPEC_FIELDS.keys())
    if unknown:
        raise KsdiffError(f"experiment spec has unknown keys: {unknown}")
    try:
        config = evaluate.ExperimentConfig(jobs=jobs, **{_SPEC_FIELDS[key]: value for key, value in raw.items()})
    except evaluate.ConfigFieldError as exc:
        key = next(key for key, field in _SPEC_FIELDS.items() if field == exc.field)
        raise KsdiffError(f"experiment spec key {key!r}: {exc}") from None
    evaluate.write_experiment(evaluate.run_experiment(config), args.out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksdiff",
        description="Locate the features on which two sampled distributions differ.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    select = sub.add_parser("select", help="rank features that differ between two CSV samples")
    select.add_argument("--p", required=True, help="first sample CSV")
    select.add_argument("--q", required=True, help="second sample CSV")
    select.add_argument("--method", choices=evaluate.METHODS, default="proposed")
    select.add_argument("--solver", choices=SOLVERS, default="greedy-score")
    select.add_argument("--k", type=int, default=None, help="complement size for greedy-k/exact")
    select.add_argument("--L", type=int, default=DEFAULT_NUM_ANGLES, help="projection angles per feature pair")
    select.add_argument("--seed", type=_seed, required=True)
    select.add_argument("--threshold", type=_threshold, default=None)
    select.add_argument("--out", required=True)
    select.add_argument("--format", choices=("json", "csv"), default="json")
    select.add_argument("--jobs", type=int, default=1)
    select.set_defaults(handler=_cmd_select)

    matrix = sub.add_parser("matrix", help="build and save the pairwise KS matrix")
    matrix.add_argument("--p", required=True)
    matrix.add_argument("--q", required=True)
    matrix.add_argument("--L", type=int, default=DEFAULT_NUM_ANGLES)
    matrix.add_argument("--seed", type=_seed, required=True)
    matrix.add_argument("--policy", choices=ANGLE_POLICIES, default="per-pair")
    matrix.add_argument("--jobs", type=int, default=1)
    matrix.add_argument("--out", required=True)
    matrix.set_defaults(handler=_cmd_matrix)

    pert = sub.add_parser("perturb", help="apply a controlled change to target columns of a CSV")
    pert.add_argument("--input", required=True)
    pert.add_argument("--kind", choices=PERTURBATION_KINDS, required=True)
    pert.add_argument("--c", type=float, required=True, help="difference level in [0, 1]")
    pert.add_argument("--targets", type=_index_list, required=True, help="comma-separated 0-based indices")
    pert.add_argument("--refs", type=_index_list, default=None, help="reference feature per target")
    pert.add_argument("--seed", type=_seed, default=None)
    pert.add_argument("--standardize", action="store_true", help="zero-mean/unit-variance columns first")
    pert.add_argument("--out", required=True)
    pert.set_defaults(handler=_cmd_perturb)

    check = sub.add_parser("check", help="identifiability report for a saved matrix")
    check.add_argument("--matrix", required=True)
    check.add_argument("--s-star", dest="s_star", type=_index_list, required=True)
    check.add_argument("--tol", type=float, default=1e-9)
    check.add_argument("--out", default=None)
    check.set_defaults(handler=_cmd_check)

    exp = sub.add_parser("experiment", help="run a seeded AUROC sweep from a JSON spec")
    exp.add_argument("--spec", required=True)
    exp.add_argument("--out-dir", required=True)
    exp.add_argument("--jobs", type=int, default=1)
    exp.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SolverLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KsdiffError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
