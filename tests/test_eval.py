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
from ksdiff.evaluate import write_aggregate_json, write_auroc_vs_n_csv, write_report_csv


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
        assert all(r.error == "scoring failed" for r in reports[0].records)
        assert np.isnan(reports[0].mean_auroc)

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

    def test_config_keeps_integer_values(self):
        config = _tiny_config(sample_sizes=[np.int64(60)], master_seed=2**64 - 1, jobs=np.int32(2))
        assert config.sample_sizes == (60,) and type(config.sample_sizes[0]) is int
        assert config.master_seed == 2**64 - 1 and config.jobs == 2

    def test_non_finite_scores_recorded_as_failure(self):
        registry = {"proposed": lambda p, q, seed: np.full(p.num_features, np.nan)}
        reports = run_experiment(_tiny_config(), registry=registry)
        errors = [r.error for r in reports[0].records]
        assert errors == ["method 'proposed' produced non-finite scores"] * 2
        assert np.isnan(reports[0].mean_auroc)

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
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,N,rep_seed,auroc,runtime_sec"
        assert len(lines) == 3

    def test_aggregate_json_round_trips(self, reports, tmp_path):
        path = tmp_path / "aggregate.json"
        write_aggregate_json(reports, path)
        payload = json.loads(path.read_text())
        cell = payload["cells"][0]
        assert cell["method"] == "proposed"
        assert cell["repetitions"] == 2
        assert 0.0 <= cell["mean_auroc"] <= 1.0

    def test_auroc_table_is_deterministic(self, reports, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_auroc_vs_n_csv(reports, a)
        write_auroc_vs_n_csv(run_experiment(_tiny_config(repetitions=2)), b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "method,N,mean_auroc,std"
