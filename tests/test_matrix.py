import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksdiff import (
    DataValidationError,
    EmpiricalKsMatrix,
    build_ks_matrix,
    dataset_from_array,
    ks_empirical,
    load_dataset_csv,
    load_matrix,
    pair_angles,
    save_matrix,
)

from conftest import ks_jump_oracle


def _random_pair(rng, n=120, m=90, d=4):
    p = dataset_from_array(rng.normal(size=(n, d)))
    q = dataset_from_array(rng.normal(size=(m, d)) + 0.2)
    return p, q


class TestBuild:
    def test_identical_datasets_give_zero_matrix(self):
        rng = np.random.default_rng(0)
        p, _ = _random_pair(rng)
        m = build_ks_matrix(p, p, 10, 7)
        assert np.array_equal(m.entries, np.zeros((4, 4)))

    def test_single_feature(self):
        p = dataset_from_array([[0.0], [1.0], [2.0]])
        q = dataset_from_array([[5.0], [6.0], [7.0]])
        for policy in ("per-pair", "shared"):
            m = build_ks_matrix(p, q, 10, 7, angle_policy=policy)
            assert m.entries.shape == (1, 1)
            assert m.entries[0, 0] == ks_empirical(p.values[:, 0], q.values[:, 0])

    def test_matches_sequential_jump_point_oracle_exactly(self):
        # independent re-evaluation: scalar jump-point KS per angle, plain mean
        rng = np.random.default_rng(42)
        p = dataset_from_array(rng.normal(size=(200, 3)))
        q = dataset_from_array(rng.normal(size=(200, 3)) * 1.4)
        seed, num_angles = 11, 10
        m = build_ks_matrix(p, q, num_angles, seed)
        for i in range(3):
            assert m.entries[i, i] == ks_jump_oracle(p.values[:, i], q.values[:, i])
            for j in range(i + 1, 3):
                angles = pair_angles(seed, num_angles, i, j, "per-pair").angles
                per_angle = np.array(
                    [
                        ks_jump_oracle(
                            p.values[:, i] * np.cos(t) + p.values[:, j] * np.sin(t),
                            q.values[:, i] * np.cos(t) + q.values[:, j] * np.sin(t),
                        )
                        for t in angles
                    ]
                )
                assert m.entries[i, j] == np.mean(per_angle)
                assert m.entries[j, i] == m.entries[i, j]

    def test_deterministic_across_worker_counts(self):
        # D = 40 gives 780 pairs in 49 chunks of at most 16, the last one ragged
        rng = np.random.default_rng(1)
        p, q = _random_pair(rng, d=40)
        for policy in ("per-pair", "shared"):
            reference = build_ks_matrix(p, q, 10, 99, angle_policy=policy, jobs=1).entries.tobytes()
            for jobs in (2, 4, 16):
                m = build_ks_matrix(p, q, 10, 99, angle_policy=policy, jobs=jobs)
                assert m.entries.tobytes() == reference

    def test_shared_policy_uses_one_angle_set(self):
        rng = np.random.default_rng(2)
        p, q = _random_pair(rng, d=3)
        m = build_ks_matrix(p, q, 10, 5, angle_policy="shared")
        shared = pair_angles(5, 10, 0, 1, "shared").angles
        assert np.array_equal(pair_angles(5, 10, 1, 2, "shared").angles, shared)
        per_angle = [
            ks_jump_oracle(
                p.values[:, 0] * np.cos(t) + p.values[:, 2] * np.sin(t),
                q.values[:, 0] * np.cos(t) + q.values[:, 2] * np.sin(t),
            )
            for t in shared
        ]
        assert m.entries[0, 2] == np.mean(per_angle)

    def test_name_mismatch_rejected(self):
        p = dataset_from_array(np.zeros((2, 2)), names=("a", "b"))
        q = dataset_from_array(np.zeros((2, 2)), names=("a", "c"))
        with pytest.raises(DataValidationError, match="column names"):
            build_ks_matrix(p, q, 10, 0)

    def test_bad_arguments_rejected(self):
        rng = np.random.default_rng(3)
        p, q = _random_pair(rng, d=2)
        with pytest.raises(DataValidationError):
            build_ks_matrix(p, q, 0, 1)
        with pytest.raises(DataValidationError):
            build_ks_matrix(p, q, 10, -1)
        with pytest.raises(DataValidationError):
            build_ks_matrix(p, q, 10, 1, angle_policy="zigzag")

    @pytest.mark.parametrize(
        "field, value",
        [("jobs", 1.5), ("jobs", True), ("num_angles", 10.0), ("master_seed", 1.5)],
    )
    def test_non_integer_parameters_rejected(self, field, value):
        p, q = _random_pair(np.random.default_rng(3), d=2)
        args = {"num_angles": 10, "master_seed": 1, field: value}
        with pytest.raises(DataValidationError, match=f"{field} must be an integer"):
            build_ks_matrix(p, q, **args)


class TestFileRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        p, q = _random_pair(rng, d=5)
        m = build_ks_matrix(p, q, 10, 314159)
        path = tmp_path / "h.csv"
        save_matrix(m, path)
        back = load_matrix(path)
        assert np.array_equal(back.entries, m.entries)
        assert back.names == m.names
        assert back.num_angles == m.num_angles
        assert back.master_seed == m.master_seed
        assert back.angle_policy == m.angle_policy

    def test_metadata_comment_line(self, tmp_path):
        p = dataset_from_array(np.zeros((2, 2)))
        m = build_ks_matrix(p, p, 10, 21, angle_policy="shared")
        path = tmp_path / "h.csv"
        save_matrix(m, path)
        assert path.read_text().splitlines()[0] == "# ksdiff-matrix L=10 seed=21 policy=shared"

    def test_out_of_range_entry_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# ksdiff-matrix L=10 seed=0 policy=per-pair\na,b\n0.0,1.5\n1.5,0.0\n")
        with pytest.raises(DataValidationError, match=r"out of \[0,1\]"):
            load_matrix(path)

    def test_asymmetric_matrix_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# ksdiff-matrix L=10 seed=0 policy=per-pair\na,b\n0.0,0.5\n0.25,0.0\n")
        with pytest.raises(DataValidationError, match="not symmetric"):
            load_matrix(path)

    def test_malformed_cell_reports_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# ksdiff-matrix L=10 seed=0 policy=per-pair\na,b\n0.0,0.5\n0.5,zzz\n")
        with pytest.raises(DataValidationError, match="line 4"):
            load_matrix(path)

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n0.0,0.5\n0.5,0.0\n")
        with pytest.raises(DataValidationError, match="line 1"):
            load_matrix(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "# ksdiff-matrix L=10 seed=3 policy=shared\na,b\n0.0,0.5\n0.5,0.0\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        with_bom, without = load_matrix(bom), load_matrix(plain)
        assert with_bom.entries.tobytes() == without.entries.tobytes()
        assert with_bom.names == without.names == ("a", "b")
        assert (with_bom.num_angles, with_bom.master_seed, with_bom.angle_policy) == (10, 3, "shared")

    def test_non_finite_entry_names_line_and_column(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# ksdiff-matrix L=10 seed=0 policy=per-pair\na,b\n0.0,0.5\n\n0.5,nan\n")
        with pytest.raises(DataValidationError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}: line 5: non-finite value in column 'b'"

    def test_missing_header_names_line_2(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# ksdiff-matrix L=10 seed=0 policy=per-pair\n")
        with pytest.raises(DataValidationError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}: line 2: missing feature-name header"

    def test_too_few_rows_reported_as_row_count(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# ksdiff-matrix L=10 seed=0 policy=per-pair\na,b\n0.0,0.5\n")
        with pytest.raises(DataValidationError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}: expected 2 matrix rows, found 1"


_EDGE_ENTRIES = (-0.0, 5e-324, 0.0, 1.0)


@st.composite
def _ks_matrices(draw):
    d = draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from(_EDGE_ENTRIES), st.floats(0.0, 1.0))
    upper = np.triu(np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d))).reshape(d, d))
    entries = upper + np.triu(upper, 1).T
    num_angles = draw(st.integers(1, 1000))
    seed = draw(st.integers(0, 2**70))
    return EmpiricalKsMatrix(entries, tuple(f"f{i}" for i in range(d)), num_angles, seed, "per-pair")


@settings(max_examples=100, deadline=None)
@given(_ks_matrices())
@example(EmpiricalKsMatrix(np.array([[-0.0, 5e-324], [5e-324, 1.0]]), ("a", "b"), 1, 0, "shared"))
@example(
    EmpiricalKsMatrix(
        np.array([[0.0, 1.0, -0.0], [1.0, 5e-324, 0.0], [-0.0, 0.0, 1.0]]), ("a", "b", "c"), 7, 2**64 - 1, "per-pair"
    )
)
def test_matrix_file_is_provenance_line_plus_dataset_csv(m):
    with tempfile.TemporaryDirectory() as tmp:
        path, body = Path(tmp) / "h.csv", Path(tmp) / "body.csv"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.entries.tobytes() == m.entries.tobytes()
        assert (back.names, back.num_angles, back.master_seed, back.angle_policy) == (
            m.names, m.num_angles, m.master_seed, m.angle_policy,
        )
        body.write_bytes(path.read_bytes().split(b"\n", 1)[1])
        table = load_dataset_csv(body)
        assert table.names == m.names
        assert table.values.tobytes() == m.entries.tobytes()


class TestMatrixType:
    def test_validates_symmetry_and_range(self):
        with pytest.raises(DataValidationError, match="not symmetric"):
            EmpiricalKsMatrix(np.array([[0.0, 0.1], [0.2, 0.0]]), ("a", "b"), 1, 0, "per-pair")
        with pytest.raises(DataValidationError, match=r"out of \[0,1\]"):
            EmpiricalKsMatrix(np.array([[2.0]]), ("a",), 1, 0, "per-pair")

    def test_rejects_non_integer_provenance(self):
        with pytest.raises(DataValidationError, match="num_angles must be an integer"):
            EmpiricalKsMatrix(np.zeros((1, 1)), ("a",), 10.0, 0, "per-pair")
        with pytest.raises(DataValidationError, match="master_seed must be an integer"):
            EmpiricalKsMatrix(np.zeros((1, 1)), ("a",), 10, 1.5, "per-pair")


def test_diagonal_deviation_rate_shrinks_with_sample_size():
    # convergence trend of the per-feature statistic: exceedance frequency of
    # |KS_N - KS_ref| > delta against a large-N reference is nonincreasing in N
    rng = np.random.default_rng(2024)
    ref_p = rng.normal(size=200_000)
    ref_q = rng.normal(loc=0.5, size=200_000)
    reference = ks_empirical(ref_p, ref_q)
    delta = 0.06
    rates = []
    for n in (50, 200, 800):
        hits = 0
        reps = 120
        for _ in range(reps):
            d = ks_empirical(rng.normal(size=n), rng.normal(loc=0.5, size=n))
            hits += abs(d - reference) > delta
        rates.append(hits / reps)
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[0] > rates[2]
