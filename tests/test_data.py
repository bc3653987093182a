import numpy as np
import pytest

from ksdiff import (
    DataValidationError,
    Dataset,
    GroundTruth,
    PerturbationSpec,
    auroc,
    check_conditions,
    dataset_from_array,
    edf_eval,
    gen_example1,
    gen_example2,
    load_dataset_csv,
    kl_lower_bound_check,
    optimality_margin,
    pair_angles,
    projected_ks,
    projected_ks_grid,
    recovery_trial,
    repetition_seed,
    sample_bound,
    save_dataset_csv,
    standardize,
)
from ksdiff.errors import ConfigFieldError


class TestDataset:
    def test_rejects_non_finite_with_location(self):
        arr = np.ones((3, 2))
        arr[2, 1] = np.nan
        with pytest.raises(DataValidationError, match="row 2, column 1"):
            dataset_from_array(arr)

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataValidationError, match="duplicate"):
            Dataset(("a", "a"), np.ones((2, 2)))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(DataValidationError):
            Dataset(("a",), np.ones((2, 2)))


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20, 4)) * 1e-7
        values[0] = [-0.0, 5e-324, np.finfo(np.float64).max, -1e300]
        ds = dataset_from_array(values)
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert back.names == ds.names
        assert back.values.tobytes() == ds.values.tobytes()

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataValidationError, match="line 3"):
            load_dataset_csv(path)

    def test_nan_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,nan\n")
        with pytest.raises(DataValidationError, match="line 2"):
            load_dataset_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(DataValidationError, match="expected 2 values"):
            load_dataset_csv(path)

    def test_first_defect_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,nan\n1.0\n")
        with pytest.raises(DataValidationError) as exc:
            load_dataset_csv(path)
        assert str(exc.value) == f"{path}: line 2: non-finite value in column 'b'"
        path.write_text("a,b\n1.0,2.0\ninf,1.0\n1.0,oops\n")
        with pytest.raises(DataValidationError, match="line 3: non-finite value in column 'a'"):
            load_dataset_csv(path)

    def test_overflow_to_inf_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1e400,3.0\n")
        with pytest.raises(DataValidationError) as exc:
            load_dataset_csv(path)
        assert str(exc.value) == f"{path}: line 3: non-finite value in column 'a'"

    def test_non_finite_after_blank_lines_reports_file_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n\n1.0,2.0\n\n\n3.0,-inf\n")
        with pytest.raises(DataValidationError) as exc:
            load_dataset_csv(path)
        assert str(exc.value) == f"{path}: line 6: non-finite value in column 'b'"

    def test_utf8_byte_order_mark_is_dropped(self, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
        bom.write_text("a,b\n1.0,2.0\n", encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        with_bom, without = load_dataset_csv(bom), load_dataset_csv(plain)
        assert with_bom.names == without.names == ("a", "b")
        assert with_bom.values.tobytes() == without.values.tobytes()


def test_standardize_zero_mean_unit_variance():
    rng = np.random.default_rng(1)
    ds = dataset_from_array(rng.normal(loc=3.0, scale=2.5, size=(500, 3)))
    out = standardize(ds)
    assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.values.std(axis=0), 1.0, atol=1e-12)


def test_standardize_rejects_constant_column():
    ds = dataset_from_array(np.column_stack([np.ones(5), np.arange(5.0)]))
    with pytest.raises(DataValidationError, match="x1"):
        standardize(ds)


_UNIT_DATASET = dataset_from_array(np.random.default_rng(2).normal(size=(30, 3)))


@pytest.mark.parametrize(
    "function, args, field",
    [
        (gen_example1, (100.5, 1), "n"),
        (gen_example1, (100, 1.5), "seed"),
        (gen_example2, (100, -1), "seed"),
        (gen_example2, (True, 1), "n"),
        (repetition_seed, (1.5, 10, 1), "master_seed"),
        (repetition_seed, (1, 10.0, 1), "n"),
        (projected_ks_grid, (_UNIT_DATASET, _UNIT_DATASET, 0, 1, 10.0), "grid_size"),
        (sample_bound, (1.5, 0.5, 10, 0.1), "k"),
        (sample_bound, (2, 0.5, 10.0, 0.1), "dim"),
        (optimality_margin, (np.zeros((3, 3)), [2], 2.0), "k"),
    ],
    ids=lambda value: value.__name__ if callable(value) else None,
)
def test_integer_parameters_rejected_with_field_named(function, args, field):
    with pytest.raises(ConfigFieldError, match=f"^{field} must be an integer") as info:
        function(*args)
    assert info.value.field == field


_WEIGHTS = np.array([[0.5, 0.1, 0.2], [0.1, 0.0, 0.1], [0.2, 0.1, 0.0]])


@pytest.mark.parametrize(
    "function, args, field",
    [
        (check_conditions, (_WEIGHTS, [0.7]), "s_star"),
        (optimality_margin, (_WEIGHTS, [0.7], 2), "selected"),
        (recovery_trial, (_WEIGHTS, [0.7], 2, 0.0, 1, 0), "s_star"),
        (GroundTruth, (frozenset({1.5}),), "changed"),
        (auroc, ([0.1, 0.2, 0.3], [1.5]), "truth"),
        (PerturbationSpec, ("mean_shift", 0.5, (1.7,)), "targets"),
        (PerturbationSpec, ("mean_shift", True, (0,)), "c"),
        (PerturbationSpec, ("mean_shift", "0.3", (0,)), "c"),
        (PerturbationSpec, ("variance_change", 0.5, (0,), {}, 1.5), "seed"),
        (edf_eval, ([1.0, 2.0], "1.5"), "x"),
        (sample_bound, (1, 0.5, 10, "0.1"), "epsilon"),
        (kl_lower_bound_check, ("0.1", 0.2), "sigma_ij"),
        (projected_ks, (_UNIT_DATASET, _UNIT_DATASET, 0.7, 1, [0.1]), "i"),
        (pair_angles, (1, 4, 1.5, 2, "per-pair"), "pair indices"),
    ],
    ids=[
        "check_conditions-index",
        "optimality_margin-index",
        "recovery_trial-index",
        "GroundTruth-index",
        "auroc-index",
        "PerturbationSpec-target",
        "PerturbationSpec-bool-level",
        "PerturbationSpec-str-level",
        "PerturbationSpec-seed",
        "edf_eval-point",
        "sample_bound-epsilon",
        "kl_lower_bound_check-correlation",
        "projected_ks-index",
        "pair_angles-pair",
    ],
)
def test_indices_and_reals_rejected_not_coerced(function, args, field):
    with pytest.raises(ConfigFieldError, match=f"^{field} must be") as info:
        function(*args)
    assert info.value.field == field
