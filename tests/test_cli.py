import csv
import json

import numpy as np
import pytest

from ksdiff import (
    EmpiricalKsMatrix,
    dataset_from_array,
    evaluate,
    gen_example2,
    load_matrix,
    save_dataset_csv,
    save_matrix,
)
from ksdiff.cli import main


@pytest.fixture
def csv_pair(tmp_path):
    rng = np.random.default_rng(0)
    p = dataset_from_array(rng.normal(size=(80, 4)))
    q = dataset_from_array(rng.normal(size=(80, 4)))
    p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
    save_dataset_csv(p, p_path)
    save_dataset_csv(q, q_path)
    return str(p_path), str(q_path)


class TestSelect:
    def test_identical_inputs_score_zero(self, csv_pair, tmp_path):
        p_path, _ = csv_pair
        out = tmp_path / "report.json"
        code = main([
            "select", "--p", p_path, "--q", p_path,
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert all(row["score"] == 0.0 for row in report["ranking"])

    def test_mismatched_headers_exit_2(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("x,y\n1.0,2.0\n")
        b.write_text("x,z\n1.0,2.0\n")
        code = main(["select", "--p", str(a), "--q", str(b), "--seed", "1", "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_header_mismatch_names_first_differing_columns(self, tmp_path, capsys):
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        a.write_text("x,y\n1.0,2.0\n")
        b.write_text("x,z\n1.0,2.0\n")
        c.write_text("x\n1.0\n")
        out = str(tmp_path / "r.json")
        assert main(["select", "--p", str(a), "--q", str(b), "--seed", "1", "--out", out]) == 2
        assert "'y' vs 'z'" in capsys.readouterr().err
        assert main(["select", "--p", str(a), "--q", str(c), "--seed", "1", "--out", out]) == 2
        assert "'y' vs '<none>'" in capsys.readouterr().err

    def test_byte_order_mark_does_not_split_headers(self, csv_pair, tmp_path):
        p_path, q_path = csv_pair
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + open(p_path, "rb").read())
        plain_out, bom_out = tmp_path / "plain.json", tmp_path / "bom.json"
        assert main(["select", "--p", p_path, "--q", q_path, "--seed", "1", "--out", str(plain_out)]) == 0
        assert main(["select", "--p", str(bom), "--q", q_path, "--seed", "1", "--out", str(bom_out)]) == 0
        assert bom_out.read_bytes() == plain_out.read_bytes()

    @pytest.mark.parametrize(
        "content",
        [b"a,b\n1.0,2.0\xe9\n3.0,4.0\n", b"a,b\n" + b"1" * 200_000 + b",2.0\n3.0,4.0\n"],
        ids=["not-utf8", "field-over-csv-limit"],
    )
    def test_unreadable_table_exit_2_naming_file_and_line(self, csv_pair, tmp_path, capsys, content):
        _, q_path = csv_pair
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        assert main(["select", "--p", str(bad), "--q", q_path, "--seed", "1", "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 2: ") and "Traceback" not in err

    def test_non_finite_scores_exit_2_naming_method(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        paths = []
        for side in "pq":
            path = tmp_path / f"{side}.csv"
            save_dataset_csv(dataset_from_array(rng.normal(size=(50, 4)) * 1e300), path)
            paths.append(str(path))
        expected = {
            "mt": "method 'mt' produced non-finite scores",
            "ide09": "method 'ide09' produced non-finite scores",
            "hara15": "method 'hara15' produced non-finite weights: the covariances overflow",
        }
        for method, message in expected.items():
            out = tmp_path / f"{method}.json"
            args = ["select", "--p", paths[0], "--q", paths[1], "--method", method, "--seed", "1", "--out", str(out)]
            assert main(args) == 2
            # the whole of stderr: no numpy warning precedes the message
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("method", ["mt", "ide09"])
    def test_ridge_lost_to_rounding_exit_2(self, tmp_path, capsys, method):
        # two equal columns at 1e150: the ridge on the grid cannot make the covariance invertible
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 5))
        x[:, 0] = x[:, 1] = rng.normal(size=60) * 1e150
        paths = [str(tmp_path / "p.csv"), str(tmp_path / "q.csv")]
        save_dataset_csv(dataset_from_array(x), paths[0])
        save_dataset_csv(dataset_from_array(x[::-1] * 1.5), paths[1])
        out = tmp_path / "r.json"
        args = ["select", "--p", paths[0], "--q", paths[1], "--method", method, "--seed", "1", "--out", str(out)]
        assert main(args) == 2
        # the whole of stderr: one error line, no traceback or numpy warning
        assert capsys.readouterr().err == (
            "error: precision estimation failed: the covariance plus ridge 0.0001 is singular"
            " (the ridge is lost to rounding)\n"
        )
        assert not out.exists()

    def test_projection_overflow_is_silent(self, tmp_path, capsys):
        # finite values whose projected sums exceed the float range become
        # +-inf, which the KS kernel ranks exactly, so no warning reaches stderr
        rng = np.random.default_rng(4)
        paths = [tmp_path / "p.csv", tmp_path / "q.csv"]
        for path in paths:
            save_dataset_csv(dataset_from_array(rng.uniform(0.9e308, 1.7e308, size=(50, 3))), path)
        out = tmp_path / "r.json"
        code = main(["select", "--p", str(paths[0]), "--q", str(paths[1]), "--seed", "1", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert all(0.0 <= row["score"] for row in json.loads(out.read_text())["ranking"])

    def test_missing_file_exit_2(self, tmp_path):
        code = main([
            "select", "--p", str(tmp_path / "none.csv"), "--q", str(tmp_path / "none.csv"),
            "--seed", "1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_mixture_example_ranks_changed_feature_first(self, tmp_path):
        p, q, _ = gen_example2(1000, 424)
        p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
        save_dataset_csv(p, p_path)
        save_dataset_csv(q, q_path)
        out = tmp_path / "report.json"
        code = main([
            "select", "--p", str(p_path), "--q", str(q_path),
            "--seed", "11", "--L", "10", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ranking"][0]["name"] == "x1"

    def test_exact_solver_over_limit_exit_3(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = dataset_from_array(rng.normal(size=(6, 26)))
        path = tmp_path / "wide.csv"
        save_dataset_csv(ds, path)
        code = main([
            "select", "--p", str(path), "--q", str(path), "--method", "proposed",
            "--solver", "exact", "--k", "3", "--L", "2",
            "--seed", "1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3

    def test_k_contract(self, csv_pair, tmp_path):
        p_path, q_path = csv_pair
        out = str(tmp_path / "r.json")
        assert main(["select", "--p", p_path, "--q", q_path, "--solver", "greedy-k",
                     "--seed", "1", "--out", out]) == 2
        assert main(["select", "--p", p_path, "--q", q_path, "--k", "2",
                     "--seed", "1", "--out", out]) == 2

    def test_threshold_and_csv_format(self, csv_pair, tmp_path):
        p_path, q_path = csv_pair
        out = tmp_path / "r.csv"
        code = main([
            "select", "--p", p_path, "--q", q_path, "--seed", "9",
            "--threshold", "0.05", "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[0] == "name,index,score,rank"

    def test_csv_report_is_standard_csv(self, tmp_path):
        # a name may hold a quote; the CSV report quotes it, and reads back as the JSON report's
        rng = np.random.default_rng(6)
        names = ('say "hi"', "b", "c")
        paths = [str(tmp_path / "p.csv"), str(tmp_path / "q.csv")]
        for path in paths:
            save_dataset_csv(dataset_from_array(rng.normal(size=(40, 3)), names), path)
        reports = {}
        for fmt in ("json", "csv"):
            reports[fmt] = tmp_path / f"r.{fmt}"
            argv = ["select", "--p", paths[0], "--q", paths[1], "--seed", "3", "--format", fmt, "--out", str(reports[fmt])]
            assert main(argv) == 0
        assert '"say ""hi"""' in reports["csv"].read_text()
        with open(reports["csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        ranking = json.loads(reports["json"].read_text())["ranking"]
        assert rows == [["name", "index", "score", "rank"]] + [
            [row["name"], str(row["index"]), repr(row["score"]), str(row["rank"])] for row in ranking
        ]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_exit_2(self, csv_pair, tmp_path, capsys, value):
        p_path, q_path = csv_pair
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "select", "--p", p_path, "--q", q_path, "--seed", "9",
                "--threshold", value, "--out", str(out),
            ])
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value, expected",
        [("--threshold", "abc", "finite number"), ("--seed", "1e3", "integer in [0, 2**64 - 1]")],
        ids=["threshold", "seed"],
    )
    def test_unparseable_option_names_option_and_form(
        self, csv_pair, tmp_path, capsys, option, value, expected
    ):
        p_path, q_path = csv_pair
        argv = ["select", "--p", p_path, "--q", q_path, "--seed", "9", "--out", str(tmp_path / "r.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: " in err and expected in err
        assert "_threshold" not in err and "_seed" not in err

    def test_greedy_k_reports_selection(self, csv_pair, tmp_path):
        p_path, q_path = csv_pair
        out = tmp_path / "r.json"
        code = main([
            "select", "--p", p_path, "--q", q_path, "--solver", "greedy-k", "--k", "2",
            "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["selected"]) == 2
        assert "objective" in report

    def test_baseline_methods_run(self, csv_pair, tmp_path):
        p_path, q_path = csv_pair
        for method in ("mt", "ide09", "hara15"):
            out = tmp_path / f"{method}.json"
            assert main([
                "select", "--p", p_path, "--q", q_path, "--method", method,
                "--seed", "2", "--out", str(out),
            ]) == 0

    @pytest.mark.parametrize("method", ["mt", "ide09", "hara15"])
    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--L", "-5", "num_angles must be an integer >= 1, got -5 (out of range)"),
            ("--jobs", "0", "jobs must be an integer >= 1, got 0 (out of range)"),
        ],
        ids=["L", "jobs"],
    )
    def test_unused_option_still_checked(self, csv_pair, tmp_path, capsys, method, option, value, message):
        # the baselines use neither --L nor --jobs, which must not let a bad value into the report
        p_path, q_path = csv_pair
        out = tmp_path / "r.json"
        argv = ["select", "--p", p_path, "--q", q_path, "--method", method, "--seed", "2", "--out", str(out)]
        assert main(argv + [option, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_score_only_methods_reject_other_solvers(self, csv_pair, tmp_path):
        p_path, q_path = csv_pair
        code = main([
            "select", "--p", p_path, "--q", q_path, "--method", "mt",
            "--solver", "exact", "--k", "2", "--seed", "2", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2


class TestMatrixCommand:
    def test_identical_inputs_zero_matrix(self, csv_pair, tmp_path):
        p_path, _ = csv_pair
        out = tmp_path / "h.csv"
        code = main(["matrix", "--p", p_path, "--q", p_path, "--seed", "3", "--out", str(out)])
        assert code == 0
        m = load_matrix(out)
        assert np.array_equal(m.entries, np.zeros((4, 4)))
        assert out.read_text().splitlines()[0] == "# ksdiff-matrix L=10 seed=3 policy=per-pair"

    def test_inputs_not_mutated(self, csv_pair, tmp_path):
        p_path, q_path = csv_pair
        before = open(p_path, "rb").read(), open(q_path, "rb").read()
        main(["matrix", "--p", p_path, "--q", q_path, "--seed", "3", "--out", str(tmp_path / "h.csv")])
        assert (open(p_path, "rb").read(), open(q_path, "rb").read()) == before


class TestPerturbCommand:
    def test_zero_level_mean_shift_is_byte_identical(self, csv_pair, tmp_path):
        p_path, _ = csv_pair
        out = tmp_path / "out.csv"
        code = main([
            "perturb", "--input", p_path, "--kind", "mean_shift", "--c", "0.0",
            "--targets", "0", "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == open(p_path, "rb").read()

    def test_reference_wiring(self, csv_pair, tmp_path):
        p_path, _ = csv_pair
        out = tmp_path / "out.csv"
        code = main([
            "perturb", "--input", p_path, "--kind", "cov_change", "--c", "0.5",
            "--targets", "0,1", "--refs", "2,3", "--out", str(out),
        ])
        assert code == 0
        code = main([
            "perturb", "--input", p_path, "--kind", "cov_change", "--c", "0.5",
            "--targets", "0,1", "--refs", "2", "--out", str(out),
        ])
        assert code == 2

    def test_standardize_overflowing_variance_exit_2(self, tmp_path, capsys):
        path, out = tmp_path / "p.csv", tmp_path / "out.csv"
        save_dataset_csv(dataset_from_array(np.column_stack([np.linspace(1e300, 5e300, 20), np.arange(20.0)])), path)
        code = main([
            "perturb", "--input", str(path), "--kind", "mean_shift", "--c", "0.5",
            "--targets", "1", "--standardize", "--out", str(out),
        ])
        assert code == 2
        # the whole of stderr: no numpy warning precedes the message
        assert capsys.readouterr().err == "error: cannot standardize column(s) of zero or overflowing variance: x1\n"
        assert not out.exists()


    def test_no_var_mix_of_overflowing_column_exit_2(self, tmp_path, capsys):
        path, out = tmp_path / "p.csv", tmp_path / "out.csv"
        columns = [np.linspace(1e300, 5e300, 20), np.linspace(-3e300, 2e300, 20)]
        save_dataset_csv(dataset_from_array(np.column_stack(columns)), path)
        code = main([
            "perturb", "--input", str(path), "--kind", "cov_change_no_var", "--c", "0.5",
            "--targets", "0", "--refs", "1", "--out", str(out),
        ])
        assert code == 2
        # the whole of stderr: no numpy overflow warning precedes the message
        assert capsys.readouterr().err == (
            "error: cannot preserve the variance of column x1: it overflows before or after mixing\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [("--targets", "0,x"), ("--refs", "1.5")])
    def test_non_integer_index_exit_2(self, csv_pair, tmp_path, capsys, option, value):
        p_path, _ = csv_pair
        argv = ["perturb", "--input", p_path, "--kind", "cov_change", "--c", "0.5", "--targets", "0", "--refs", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, value, "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert f"argument {option}: expected comma-separated integers, got {value!r}" in capsys.readouterr().err


class TestCheckCommand:
    def test_margin_reported_for_diagonal_matrix(self, tmp_path, capsys):
        m = EmpiricalKsMatrix(np.diag([0.0, 0.0, 1.0]), ("a", "b", "c"), 10, 4, "per-pair")
        path = tmp_path / "h.csv"
        save_matrix(m, path)
        code = main(["check", "--matrix", str(path), "--s-star", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["margin"] == 1.0
        assert report["sufficient_holds"]["2"] is True

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exit_2(self, tmp_path, capsys, tol):
        m = EmpiricalKsMatrix(np.diag([0.0, 0.0, 1.0]), ("a", "b", "c"), 10, 4, "per-pair")
        path = tmp_path / "h.csv"
        save_matrix(m, path)
        assert main(["check", "--matrix", str(path), "--s-star", "2", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "tol must be a finite number" in captured.err

    def test_undecodable_matrix_exit_2_naming_file_and_line(self, tmp_path, capsys):
        m = EmpiricalKsMatrix(np.diag([0.0, 0.0, 1.0]), ("a", "b", "c"), 10, 4, "per-pair")
        path = tmp_path / "h.csv"
        save_matrix(m, path)
        lines = path.read_bytes().split(b"\n")
        lines[3] += b"\xe9"
        path.write_bytes(b"\n".join(lines))
        assert main(["check", "--matrix", str(path), "--s-star", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: line 4: not UTF-8 text (invalid continuation byte)\n"


class TestExperimentCommand:
    def _spec(self, tmp_path, **overrides):
        spec = {
            "generator": "example2",
            "methods": ["proposed"],
            "N": [60],
            "repetitions": 1,
            "master_seed": 5,
            "L": 3,
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_minimal_sweep_produces_all_files(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["experiment", "--spec", self._spec(tmp_path), "--out-dir", str(out_dir)])
        assert code == 0
        report = (out_dir / "report.csv").read_text().splitlines()
        assert report[0] == "method,N,rep_seed,auroc,runtime_sec"
        assert len(report) == 2
        table = (out_dir / "auroc_vs_N.csv").read_text().splitlines()
        assert table[0] == "method,N,mean_auroc,std"
        json.loads((out_dir / "aggregate.json").read_text())

    def test_failed_cells_go_to_errors_csv(self, tmp_path, monkeypatch):
        spec = self._spec(tmp_path, methods=["proposed", "mt"], repetitions=2)
        clean = tmp_path / "clean"
        assert main(["experiment", "--spec", spec, "--out-dir", str(clean)]) == 0
        assert (clean / "errors.csv").read_text() == "method,N,rep_seed,error\n"

        working = evaluate._method_registry

        def registry(num_angles):
            def boom(p, q, seed):
                raise RuntimeError("mt failed")

            return {**working(num_angles), "mt": boom}

        monkeypatch.setattr(evaluate, "_method_registry", registry)
        failed = tmp_path / "failed"
        assert main(["experiment", "--spec", spec, "--out-dir", str(failed)]) == 0
        seeds = [line.split(",")[2] for line in (clean / "report.csv").read_text().splitlines()[1:3]]
        assert (failed / "errors.csv").read_text().splitlines() == [
            "method,N,rep_seed,error",
            *(f"mt,60,{seed},mt failed" for seed in seeds),
        ]
        # the failure's auroc field is empty; its message is in errors.csv only
        report = (failed / "report.csv").read_text().splitlines()
        assert report[0] == "method,N,rep_seed,auroc,runtime_sec" and len(report) == 5
        for seed, row in zip(seeds, report[3:]):
            *fields, runtime = row.split(",")
            assert fields == ["mt", "60", seed, ""] and float(runtime) >= 0.0, row
        for name in ("report.csv", "errors.csv", "aggregate.json", "auroc_vs_N.csv"):
            assert "nan" not in (failed / name).read_text().lower()

    def test_rerun_aggregates_identical(self, tmp_path):
        spec = self._spec(tmp_path, repetitions=2)
        first, second = tmp_path / "r1", tmp_path / "r2"
        assert main(["experiment", "--spec", spec, "--out-dir", str(first)]) == 0
        assert main(["experiment", "--spec", spec, "--out-dir", str(second)]) == 0
        assert (first / "auroc_vs_N.csv").read_bytes() == (second / "auroc_vs_N.csv").read_bytes()
        assert (first / "aggregate.json").read_bytes() == (second / "aggregate.json").read_bytes()

    def test_malformed_spec_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["experiment", "--spec", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"generator": "example2"}))
        assert main(["experiment", "--spec", str(missing), "--out-dir", str(tmp_path / "o")]) == 2

    def test_missing_spec_keys_named(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"generator": "example2", "L": 3}))
        assert main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: experiment spec missing keys: ['N', 'master_seed', 'methods', 'repetitions']\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["spec", "option"])
    def test_bad_jobs_names_the_jobs_key(self, tmp_path, capsys, where):
        # --jobs is the one way to set the worker count; a spec's jobs is an unknown key
        spec = self._spec(tmp_path, jobs=2) if where == "spec" else self._spec(tmp_path)
        argv = ["experiment", "--spec", spec, "--out-dir", str(tmp_path / "o")]
        argv += ["--jobs", "2" if where == "spec" else "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == {
            "spec": "error: experiment spec has unknown keys: ['jobs']\n",
            "option": "error: jobs must be an integer >= 1, got 0 (out of range)\n",
        }[where]
        assert not (tmp_path / "o").exists()

    def test_bad_jobs_option_checked_where_the_spec_sets_jobs(self, tmp_path, capsys):
        # --jobs is checked before the spec is read, so the spec's unknown key goes unreported
        argv = ["experiment", "--spec", self._spec(tmp_path, jobs=2), "--out-dir", str(tmp_path / "o"), "--jobs", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: jobs must be an integer >= 1, got 0 (out of range)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["{not json", '{"generator": "example2"}', "[1, 2]"], ids=["malformed", "missing", "array"])
    def test_bad_jobs_option_checked_before_the_spec_is_read(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        argv = ["experiment", "--spec", str(path), "--out-dir", str(tmp_path / "o"), "--jobs", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: jobs must be an integer >= 1, got 0 (out of range)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("methods", ["hara15", "hara15"], "methods must not repeat an entry, got ['hara15', 'hara15']"),
            ("N", [50, 50], "sample_sizes must not repeat an entry, got [50, 50]"),
        ],
        ids=["methods", "N"],
    )
    def test_repeated_spec_entry_names_the_key(self, tmp_path, capsys, key, value, message):
        spec = self._spec(tmp_path, **{"methods": ["hara15"], "N": [50], key: value})
        assert main(["experiment", "--spec", spec, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: experiment spec key {key!r}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '"spec"', "null", "3"])
    def test_spec_not_an_object_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["experiment", "--spec", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: experiment spec must be a JSON object\n"

    def test_unknown_spec_keys_exit_2(self, tmp_path, capsys):
        # a misspelt "L" must not run silently with the default L = 10
        spec = self._spec(tmp_path, l=3, num_angles=7, reps=9)
        assert main(["experiment", "--spec", spec, "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: experiment spec has unknown keys: ['l', 'num_angles', 'reps']\n"
        assert not (tmp_path / "o").exists()
        # the one optional key is L
        spec = self._spec(tmp_path, L=2)
        assert main(["experiment", "--spec", spec, "--out-dir", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "key, value",
        [("N", "100"), ("L", 1.7), ("repetitions", 1.5), ("master_seed", 2**70)],
    )
    def test_mistyped_spec_value_exit_2(self, tmp_path, capsys, key, value):
        spec = self._spec(tmp_path, **{key: value})
        assert main(["experiment", "--spec", spec, "--out-dir", str(tmp_path / "o")]) == 2
        assert f"experiment spec key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
