import csv
import json

import numpy as np
import pytest

from ksdiff import (
    DataValidationError,
    ExperimentConfig,
    GroundTruth,
    auroc,
    dataset_from_array,
    hara15_score,
    repetition_seed,
    run_experiment,
)
from ksdiff.errors import ConfigFieldError
from ksdiff.evaluate import write_experiment


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc([3.0, 2.0, 1.0], {0}) == 1.0

    def test_inverted_ranking(self):
        assert auroc([1.0, 2.0, 3.0], {0}) == 0.0

    def test_all_ties_give_half(self):
        assert auroc([1.0, 1.0, 1.0, 1.0], {1, 3}) == 0.5

    def test_degenerate_truth_rejected(self):
        with pytest.raises(DataValidationError, match="degenerate"):
            auroc([1.0, 2.0], {0, 1})
        with pytest.raises(DataValidationError, match="degenerate"):
            auroc([1.0, 2.0], set())

    def test_out_of_range_truth_rejected(self):
        with pytest.raises(DataValidationError, match="out of range"):
            auroc([1.0, 2.0], {5})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(DataValidationError, match="finite"):
            auroc([bad, 0.1, 0.2], {0})

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.normal(size=12)
            truth = set(rng.choice(12, size=3, replace=False).tolist())
            base = auroc(scores, truth)
            assert auroc(np.exp(scores), truth) == base
            assert auroc(3 * scores + 1, truth) == base

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=10)
        truth = {2, 5}
        assert auroc(scores, truth) + auroc(-scores, truth) == pytest.approx(1.0)

    def test_accepts_ground_truth_object(self):
        assert auroc([5.0, 1.0, 1.0], GroundTruth(frozenset({0}))) == 1.0


def _tiny_config(**overrides):
    base = dict(
        generator="example2",
        methods=("proposed",),
        sample_sizes=(60,),
        repetitions=2,
        master_seed=7,
        num_angles=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunner:
    def test_smallest_configuration(self):
        reports = run_experiment(_tiny_config(repetitions=1))
        assert len(reports) == 1
        assert len(reports[0].records) == 1
        assert 0.0 <= reports[0].records[0].auroc <= 1.0

    def test_reruns_identical_except_wall_time(self):
        first = run_experiment(_tiny_config())
        second = run_experiment(_tiny_config())
        for a, b in zip(first, second):
            assert a.method == b.method and a.n == b.n
            assert [r.auroc for r in a.records] == [r.auroc for r in b.records]
            assert [r.seed for r in a.records] == [r.seed for r in b.records]

    def test_parallel_execution_matches_serial(self):
        serial = run_experiment(_tiny_config(repetitions=4))
        threaded = run_experiment(_tiny_config(repetitions=4, jobs=4))
        for a, b in zip(serial, threaded):
            assert [r.auroc for r in a.records] == [r.auroc for r in b.records]

    def test_method_failure_recorded_not_fatal(self):
        def boom(p, q, seed):
            raise RuntimeError("scoring failed")

        registry = {"proposed": boom}
        reports = run_experiment(_tiny_config(), registry=registry)
        assert all(r.error == "scoring failed" and r.auroc is None for r in reports[0].records)
        assert reports[0].mean_auroc is None

    def test_all_methods_share_the_same_data_seed(self):
        reports = run_experiment(_tiny_config(methods=("proposed", "hara15")))
        by_method = {r.method: [rec.seed for rec in r.records] for r in reports}
        assert by_method["proposed"] == by_method["hara15"]

    def test_repetition_seed_is_stable(self):
        assert repetition_seed(7, 60, 0) == repetition_seed(7, 60, 0)
        assert repetition_seed(7, 60, 0) != repetition_seed(7, 60, 1)

    def test_config_validation(self):
        with pytest.raises(DataValidationError, match="generator"):
            _tiny_config(generator="example9")
        with pytest.raises(DataValidationError, match="methods"):
            _tiny_config(methods=("nope",))
        with pytest.raises(DataValidationError, match="repetitions"):
            _tiny_config(repetitions=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_sizes", (100.7,)),
            ("sample_sizes", (True,)),
            ("sample_sizes", "100"),
            ("sample_sizes", ("100",)),
            ("repetitions", 1.5),
            ("repetitions", True),
            ("repetitions", "2"),
            ("num_angles", 3.0),
            ("num_angles", False),
            ("num_angles", "3"),
            ("jobs", 1.5),
            ("jobs", True),
            ("jobs", "1"),
            ("master_seed", 7.0),
            ("master_seed", True),
            ("master_seed", "7"),
            ("master_seed", -1),
            ("master_seed", 2**64),
            ("master_seed", 2**70),
        ],
    )
    def test_config_rejects_non_integer_or_out_of_range(self, field, value):
        with pytest.raises(DataValidationError, match=field) as exc:
            _tiny_config(**{field: value})
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("methods", ("hara15", "hara15"), "methods must not repeat an entry, got ['hara15', 'hara15']"),
            ("sample_sizes", (50, 60, 50), "sample_sizes must not repeat an entry, got [50, 60, 50]"),
        ],
        ids=["methods", "sample_sizes"],
    )
    def test_config_rejects_repeated_entries(self, field, value, message):
        # a repeated method or size would write the same cell twice
        with pytest.raises(ConfigFieldError) as exc:
            _tiny_config(**{field: value})
        assert exc.value.field == field and str(exc.value) == message

    def test_config_keeps_integer_values(self):
        config = _tiny_config(sample_sizes=[np.int64(60)], master_seed=2**64 - 1, jobs=np.int32(2))
        assert config.sample_sizes == (60,) and type(config.sample_sizes[0]) is int
        assert config.master_seed == 2**64 - 1 and config.jobs == 2

    def test_non_finite_scores_recorded_as_failure(self):
        registry = {"proposed": lambda p, q, seed: np.full(p.num_features, np.nan)}
        reports = run_experiment(_tiny_config(), registry=registry)
        errors = [r.error for r in reports[0].records]
        assert errors == ["method 'proposed' produced non-finite scores"] * 2
        assert reports[0].mean_auroc is None

    def test_overflowing_hara15_recorded_as_failure(self):
        def scaled(ds):
            return dataset_from_array(ds.values * 1e300, ds.names)

        registry = {"hara15": lambda p, q, seed: hara15_score(scaled(p), scaled(q))}
        reports = run_experiment(_tiny_config(methods=("hara15",)), registry=registry)
        errors = [r.error for r in reports[0].records]
        assert errors == ["method 'hara15' produced non-finite weights: the covariances overflow"] * 2


class TestWriters:
    @pytest.fixture
    def reports(self):
        return run_experiment(_tiny_config(repetitions=2))

    def test_report_csv_schema(self, reports, tmp_path):
        write_experiment(reports, tmp_path)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "method,N,rep_seed,auroc,runtime_sec"
        assert len(lines) == 3

    def test_aggregate_json_round_trips(self, reports, tmp_path):
        write_experiment(reports, tmp_path)
        payload = json.loads((tmp_path / "aggregate.json").read_text())
        cell = payload["cells"][0]
        assert cell["method"] == "proposed"
        assert cell["repetitions"] == 2
        assert 0.0 <= cell["mean_auroc"] <= 1.0

    def test_auroc_table_is_deterministic(self, reports, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_experiment(reports, a)
        write_experiment(run_experiment(_tiny_config(repetitions=2)), b)
        assert (a / "auroc_vs_N.csv").read_bytes() == (b / "auroc_vs_N.csv").read_bytes()
        assert (a / "auroc_vs_N.csv").read_text().splitlines()[0] == "method,N,mean_auroc,std"

    def test_errors_csv_lists_failed_cells(self, reports, tmp_path):
        def boom(p, q, seed):
            raise RuntimeError(f'scoring failed, seed "{seed}"\nsee log')

        registry = {"mt": boom, "proposed": lambda p, q, seed: np.arange(p.num_features, dtype=float)}
        failing = run_experiment(_tiny_config(methods=("mt", "proposed")), registry=registry)
        write_experiment(failing, tmp_path / "failing")
        with open(tmp_path / "failing" / "errors.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        seeds = [rec.seed for rec in failing[0].records]
        assert rows == [["method", "N", "rep_seed", "error"]] + [
            ["mt", "60", str(seed), f'scoring failed, seed "{seed}"\nsee log'] for seed in seeds
        ]
        write_experiment(reports, tmp_path / "clean")
        assert (tmp_path / "clean" / "errors.csv").read_text() == "method,N,rep_seed,error\n"

    def test_all_failed_cell_writes_no_non_finite_number(self, tmp_path):
        # N = 2 is below the 3 rows the ridge CV needs, so every repetition fails
        failed = run_experiment(ExperimentConfig("example2", ("mt",), (2,), 1, 0))
        assert failed[0].successful == () and failed[0].mean_auroc is None
        write_experiment(failed, tmp_path)

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        cell = json.loads((tmp_path / "aggregate.json").read_text(), parse_constant=reject)["cells"][0]
        assert cell["mean_auroc"] is None and cell["failures"] == 1
        assert (tmp_path / "auroc_vs_N.csv").read_text() == "method,N,mean_auroc,std\nmt,2,,0.0\n"
        seed, runtime = failed[0].records[0].seed, failed[0].records[0].runtime_sec
        assert (tmp_path / "report.csv").read_text() == f"method,N,rep_seed,auroc,runtime_sec\nmt,2,{seed},,{runtime!r}\n"

    def test_json_writer_refuses_non_finite_numbers(self, tmp_path):
        from ksdiff.data import _write_json

        path = tmp_path / "out.json"
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                _write_json(path, {"x": value})
            assert not path.exists()
