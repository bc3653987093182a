"""The benchmark's four workloads.

Each workload derives its inputs from the workload seed alone, runs one
operation per call of ``op`` against the public API or the in-process CLI,
and checks every output with public functions in ``verify``. The reason each
workload exists is kept next to its definition, in ``why``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zlib

import numpy as np

import ksdiff
import ksdiff.cli
import ksdiff.evaluate
import ksdiff.matrix
import ksdiff.solvers
import ksdiff.theory

NUM_ANGLES = 10


def pool_seeds(seed: int, name: str, count: int) -> list[int]:
    """``count`` 64-bit seeds derived from the workload seed and the workload name."""
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode())])
    return [int(s) for s in ss.generate_state(count, np.uint64)]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Check:
    """Collects failed output checks; an op fails if any of its checks fails."""

    def __init__(self):
        self.problems = []

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)
        return bool(ok)


def check_matrix(check, h, p, q, label):
    e = h.entries
    check.expect(np.array_equal(e, e.T), f"{label}: matrix not symmetric")
    check.expect(bool(np.all((e >= 0.0) & (e <= 1.0))), f"{label}: entry outside [0,1]")
    diag = ksdiff.ks_empirical_columns(p.values, q.values)
    check.expect(np.array_equal(np.diag(e), diag), f"{label}: diagonal differs from ks_empirical_columns")


class Workload:
    """A fixed, seed-derived pool of inputs; op ``i`` runs on pool entry ``i % pool_size``."""

    pool_size = 2

    def hooks(self):
        """(owner, attribute, replacement) patches kept in place for the whole run."""
        return []

    def collect(self, state, i, raw):
        """Turn an op's return value into the record ``verify`` checks; runs untimed."""
        return {"entry": i % self.pool_size, "raw": raw}

    def verify(self, state, outputs):
        """Check every output; return per-output pass flags, run-level checks,
        quality per pool entry and a digest per pool entry."""
        ok, seen, quality, digests = [], {}, {}, {}
        for out in outputs:
            n, check = out["entry"], Check()
            result = self.check_output(state, out, check, f"entry {n}")
            if result is not None:
                key, quality[n] = result
                check.expect(seen.setdefault(n, key) == key, f"entry {n}: output differs between repeats")
                digests[n] = digest(key.encode())
            ok.append(not check.problems)
            if check.problems:
                print(f"check failed: {check.problems}")
        return ok, self.run_checks(state, outputs), quality, digests

    def run_checks(self, state, outputs):
        return {}


class SelectWorkload(Workload):
    """``ksdiff select`` through ``ksdiff.cli.main``: proposed method, greedy-score, L=10."""

    jobs = 1

    def make_pair(self, seed):
        raise NotImplementedError

    def setup(self, seed, workdir):
        pool = []
        for n, s in enumerate(pool_seeds(seed, self.name, self.pool_size)):
            p, q, truth = self.make_pair(s)
            paths = [os.path.join(workdir, f"{n}-{side}.csv") for side in "pq"]
            ksdiff.save_dataset_csv(p, paths[0])
            ksdiff.save_dataset_csv(q, paths[1])
            argv = [
                "select", "--p", paths[0], "--q", paths[1], "--method", "proposed",
                "--solver", "greedy-score", "--L", str(NUM_ANGLES), "--seed", str(s),
                "--jobs", str(self.jobs), "--out", os.path.join(workdir, f"{n}-report.json"),
            ]
            pool.append({"p": p, "q": q, "truth": truth, "seed": s, "argv": argv})
        return {"pool": pool}

    def hooks(self):
        """Keep every matrix the CLI builds, so the op's own matrix can be checked."""
        captured = self.captured = []
        build = ksdiff.cli.build_ks_matrix

        def capture(*args, **kwargs):
            m = build(*args, **kwargs)
            captured.append(m)
            return m

        return [(ksdiff.cli, "build_ks_matrix", capture)]

    def op(self, state, i):
        return ksdiff.cli.main(state["pool"][i % self.pool_size]["argv"])

    def collect(self, state, i, code):
        entry = state["pool"][i % self.pool_size]
        with open(entry["argv"][-1], "rb") as fh:
            report = fh.read()
        matrix = self.captured.pop() if self.captured else None
        self.captured.clear()
        return {"entry": i % self.pool_size, "code": code, "report": report, "matrix": matrix}

    def check_output(self, state, out, check, label):
        entry = state["pool"][out["entry"]]
        if not (
            check.expect(out["code"] == 0, f"{label}: exit code {out['code']}")
            and check.expect(out["matrix"] is not None, f"{label}: no matrix was built")
        ):
            return None
        m = out["matrix"]
        check_matrix(check, m, entry["p"], entry["q"], label)
        scores = np.empty(m.dim)
        for row in json.loads(out["report"])["ranking"]:
            scores[row["index"]] = row["score"]
        check.expect(bool(np.all(np.isfinite(scores))), f"{label}: non-finite score")
        check.expect(
            np.array_equal(scores, ksdiff.greedy_score(m).scores),
            f"{label}: report scores differ from greedy_score of the matrix",
        )
        key = digest(m.entries.tobytes()) + digest(out["report"])
        return key, ksdiff.auroc(scores, entry["truth"])

    def shape(self, state):
        entry = state["pool"][0]
        d = entry["p"].num_features
        n_p, n_q = entry["p"].num_rows, entry["q"].num_rows
        pairs = d * (d - 1) // 2
        per_chunk_fn = getattr(ksdiff.matrix, "_pairs_per_chunk", None)
        per_chunk = per_chunk_fn(n_p + n_q, NUM_ANGLES) if per_chunk_fn else None
        return {
            "N_p": n_p, "N_q": n_q, "D": d, "L": NUM_ANGLES, "pairs": pairs,
            "pairs_per_chunk": per_chunk,
            "chunks": math.ceil(pairs / per_chunk) if per_chunk else None,
            "jobs": self.jobs, "pool": self.pool_size,
        }


class SelectLargeN(SelectWorkload):
    name = "select-large-n"
    why = (
        "Kernel- and data-bound: N=10,000, D=20, --jobs 1; almost all time is the KS sort "
        "kernel and CSV loading, so per-pair and solver changes should leave it unchanged."
    )
    rows = 10_000

    def make_pair(self, seed):
        return ksdiff.gen_example1(self.rows, seed)


class SelectWideD(SelectWorkload):
    name = "select-wide-d"
    why = (
        "Per-pair Python, chunking and the thread pool: N=200, D=120 (six example-2 pairs side "
        "by side, 7,140 pairs), --jobs 2; many small kernel calls compete for the GIL."
    )
    rows = 200
    blocks = 6
    jobs = 2

    def make_pair(self, seed):
        parts = [ksdiff.gen_example2(self.rows, s) for s in pool_seeds(seed, "blocks", self.blocks)]
        width = parts[0][0].num_features
        p = ksdiff.dataset_from_array(np.hstack([part[0].values for part in parts]))
        q = ksdiff.dataset_from_array(np.hstack([part[1].values for part in parts]))
        changed = {b * width + c for b, part in enumerate(parts) for c in part[2].changed}
        return p, q, ksdiff.GroundTruth(frozenset(changed))

    def run_checks(self, state, outputs):
        # criterion 8: the --jobs 2 matrix of the op equals a --jobs 1 build byte for byte
        first = next((o for o in outputs if o["entry"] == 0 and o["matrix"] is not None), None)
        if first is None:
            return {"jobs_byte_identical": False}
        entry = state["pool"][0]
        serial = ksdiff.build_ks_matrix(entry["p"], entry["q"], NUM_ANGLES, entry["seed"], jobs=1)
        return {"jobs_byte_identical": serial.entries.tobytes() == first["matrix"].entries.tobytes()}


class Identify(Workload):
    name = "identify"
    why = (
        "Solver and identifiability only: exact_min(k=14) plus check_conditions on saved D=20 "
        "matrices, whose margin enumerates C(20,14)=38,760 complements; kernel changes should "
        "leave it unchanged."
    )
    rows = 1000
    k = 14
    generators = (ksdiff.gen_example1, ksdiff.gen_example2)

    def setup(self, seed, workdir):
        pool = []
        for n, (gen, s) in enumerate(zip(self.generators, pool_seeds(seed, self.name, self.pool_size))):
            p, q, truth = gen(self.rows, s)
            path = os.path.join(workdir, f"{n}-matrix.csv")
            ksdiff.save_matrix(ksdiff.build_ks_matrix(p, q, NUM_ANGLES, s), path)
            pool.append({"h": ksdiff.load_matrix(path), "truth": truth})
        return {"pool": pool}

    def op(self, state, i):
        h = state["pool"][i % self.pool_size]["h"]
        result = ksdiff.solvers.exact_min(h, self.k)
        return result, ksdiff.theory.check_conditions(h, result.selected)

    def check_output(self, state, out, check, label):
        entry = state["pool"][out["entry"]]
        h, (result, report) = entry["h"], out["raw"]
        complement = sorted(set(range(h.dim)) - set(result.selected))
        check.expect(len(complement) == self.k, f"{label}: complement size {len(complement)}")
        check.expect(math.isfinite(result.objective), f"{label}: non-finite objective")
        check.expect(
            result.objective == ksdiff.complement_objective(h, complement),
            f"{label}: objective differs from complement_objective",
        )
        check.expect(
            report.margin is not None and report.margin >= 0.0,
            f"{label}: negative margin {report.margin}, exact result is not optimal",
        )
        # quality: AUROC of the exact selection as a 0/1 score against the ground truth
        indicator = np.zeros(h.dim)
        indicator[list(result.selected)] = 1.0
        key = json.dumps([list(result.selected), repr(result.objective), repr(report.margin)])
        return key, ksdiff.auroc(indicator, entry["truth"])

    def shape(self, state):
        d = state["pool"][0]["h"].dim
        return {
            "N_p": self.rows, "N_q": self.rows, "D": d, "L": NUM_ANGLES, "k": self.k,
            "margin_complements": math.comb(d, self.k), "jobs": 1, "pool": self.pool_size,
        }


class Sweep(Workload):
    name = "sweep"
    why = (
        "The paper's reproduction path: one run_experiment cell (example2, all four methods, "
        "N=100, L=10) per op; the only load on baselines, synth and evaluate, and the only "
        "workload with enough ops for a 90th percentile."
    )
    # large enough that the mean AUROC over the pool varies little from seed to seed
    pool_size = 128
    rows = 100
    methods = ("proposed", "mt", "ide09", "hara15")

    def setup(self, seed, workdir):
        configs = [
            ksdiff.ExperimentConfig("example2", self.methods, (self.rows,), 1, s, num_angles=NUM_ANGLES)
            for s in pool_seeds(seed, self.name, self.pool_size)
        ]
        return {"pool": configs}

    def op(self, state, i):
        return ksdiff.evaluate.run_experiment(state["pool"][i % self.pool_size])

    def check_output(self, state, out, check, label):
        records = {r.method: r.records for r in out["raw"]}
        if not check.expect(sorted(records) == sorted(self.methods), f"{label}: methods {sorted(records)}"):
            return None
        for method, recs in records.items():
            for rec in recs:
                check.expect(rec.error is None, f"{label}: {method} failed: {rec.error}")
                check.expect(0.0 <= rec.auroc <= 1.0, f"{label}: {method} AUROC {rec.auroc}")
        key = json.dumps({m: [repr(r.auroc) for r in recs] for m, recs in sorted(records.items())})
        return key, records["proposed"][0].auroc

    def shape(self, state):
        return {
            "N_p": self.rows, "N_q": self.rows, "D": 20, "L": NUM_ANGLES, "pairs": 190,
            "jobs": 1, "methods": list(self.methods), "pool": self.pool_size,
        }


WORKLOADS = {w.name: w for w in (SelectLargeN(), SelectWideD(), Identify(), Sweep())}
