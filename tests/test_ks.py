import logging
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ksdiff import (
    DataValidationError,
    build_ks_matrix,
    dataset_from_array,
    edf_eval,
    ks_empirical,
    ks_empirical_columns,
    load_dataset_csv,
    lower_quartile,
    pair_angles,
    projected_ks,
    projected_ks_grid,
    save_dataset_csv,
)

from ksdiff import _native
from ksdiff.ks import _ks_merged, _ks_merged_numpy, _philox_angles, _project_rows
from ksdiff.matrix import _projected_ks_values

from conftest import ks_jump_oracle, random_sample_pair


class TestEdf:
    def test_counts_values_at_or_below(self):
        assert edf_eval([1.0, 2.0, 3.0], 2.0) == pytest.approx(2 / 3)

    def test_below_all_samples(self):
        assert edf_eval([5.0], 4.9) == 0.0

    def test_duplicates_both_counted(self):
        assert edf_eval([1.0, 1.0, 2.0], 1.0) == pytest.approx(2 / 3)

    def test_right_continuous_step(self):
        s = [1.0, 2.0]
        assert edf_eval(s, 1.0 - 1e-12) == 0.0
        assert edf_eval(s, 1.0) == 0.5

    def test_empty_sample_rejected(self):
        with pytest.raises(DataValidationError, match="empty sample"):
            edf_eval([], 0.0)

    def test_non_finite_query_rejected(self):
        with pytest.raises(DataValidationError):
            edf_eval([1.0], np.nan)


class TestSampleChecks:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ([], "empty sample"),
            ([1.0, np.nan, 2.0], "non-finite value at position 1"),
            ([1.0, np.inf, 2.0], "non-finite value at position 1"),
            ([1.0, -np.inf, 2.0], "non-finite value at position 1"),
            ([[1.0, 2.0]], "must be 1-D"),
            (["1.0", "2.0"], "must be numeric"),
            ([1.0 + 1j, 2.0], "must be numeric, got dtype complex128"),
            ([[1.0], [2.0, 3.0]], "rectangular array of numbers"),
        ],
        ids=["empty", "nan", "inf", "-inf", "2-D", "strings", "complex", "ragged"],
    )
    def test_rejected_by_edf_and_ks(self, bad, message):
        with pytest.raises(DataValidationError, match=message):
            edf_eval(bad, 0.0)
        with pytest.raises(DataValidationError, match=message):
            lower_quartile(bad)
        with pytest.raises(DataValidationError, match=message):
            ks_empirical(bad, [1.0])
        with pytest.raises(DataValidationError, match=message):
            ks_empirical([1.0], bad)


class TestKsEmpirical:
    def test_identical_samples(self):
        assert ks_empirical([0.0], [0.0]) == 0.0

    def test_disjoint_supports(self):
        assert ks_empirical([1, 2, 3], [4, 5, 6]) == 1.0

    def test_shifted_overlap(self):
        # frozen from the jump-point oracle: gaps 1/3, 1/3, |2/3-1/3|, 0
        expected = ks_jump_oracle([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert expected == 0.33333333333333337
        assert ks_empirical([1, 2, 3], [2, 3, 4]) == expected

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            ks_empirical([], [1.0])

    def test_matches_jump_oracle_exactly(self):
        rng = np.random.default_rng(1234)
        for case in range(300):
            p, q = random_sample_pair(rng, tie_heavy=case % 3 == 0)
            assert ks_empirical(p, q) == ks_jump_oracle(p, q)

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q = random_sample_pair(rng, tie_heavy=False)
            assert ks_empirical(p, q) == pytest.approx(
                stats.ks_2samp(p, q).statistic, abs=1e-12
            )

    def test_range_symmetry_and_self_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, q = random_sample_pair(rng, tie_heavy=True)
            d = ks_empirical(p, q)
            assert 0.0 <= d <= 1.0
            assert d == ks_empirical(q, p)
            assert ks_empirical(p, p) == 0.0

    def test_monotone_transform_invariance_exact(self):
        rng = np.random.default_rng(11)
        transforms = [lambda x: x**3 + 2 * x, np.exp, lambda x: 5 * x - 7]
        for i in range(60):
            p, q = random_sample_pair(rng, tie_heavy=i % 2 == 0)
            phi = transforms[i % len(transforms)]
            assert ks_empirical(p, q) == ks_empirical(phi(p), phi(q))


# column kinds for the multi-row kernel: distinct values (no ties anywhere in
# the pooled column), small integers (long runs of ties), signed zeros
# (-0.0 == 0.0, so they tie with each other) and infinities, which projections
# of finite values beyond the float range become
_COLUMN_VALUES = {
    "continuous": st.floats(-1e6, 1e6, allow_nan=False),
    "integer": st.integers(0, 3).map(float),
    "signed-zero": st.sampled_from([-0.0, 0.0, 1.0]),
    "infinite": st.sampled_from([-np.inf, -1.0, 0.0, 1.0, np.inf]),
}


@st.composite
def _mixed_column_pair(draw):
    n = draw(st.integers(1, 25))
    m = draw(st.integers(1, 25))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_VALUES)), min_size=2, max_size=6))
    columns = []
    for kind in kinds:
        values = st.lists(
            _COLUMN_VALUES[kind], min_size=n + m, max_size=n + m, unique=kind == "continuous"
        )
        columns.append(draw(values))
    pooled = np.array(columns, dtype=np.float64).T
    return pooled[:n], pooled[n:]


class TestKsEmpiricalColumns:
    @settings(max_examples=200, deadline=None)
    @given(_mixed_column_pair())
    def test_every_column_matches_jump_oracle_exactly(self, pair):
        a, b = pair
        # the public function takes finite samples; the kernel also ranks the
        # infinities that projections of finite values can become
        values = _ks_merged(a, b)
        if np.all(np.isfinite(a)) and np.all(np.isfinite(b)):
            assert ks_empirical_columns(a, b).tobytes() == values.tobytes()
        else:
            with pytest.raises(DataValidationError, match="non-finite value at position"):
                ks_empirical_columns(a, b)
        assert values.shape == (a.shape[1],)
        for col in range(a.shape[1]):
            assert values[col] == ks_jump_oracle(a[:, col], b[:, col])


class TestKsEmpiricalColumnsChecks:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ([[1.0, np.nan], [2.0, 3.0]], "non-finite value at position 0, 1"),
            ([[1.0, 2.0], [-np.inf, 3.0]], "non-finite value at position 1, 0"),
            (np.empty((0, 2)), "empty sample"),
            ([["1.0", "2.0"]], "must be numeric"),
            ([[1.0, 2.0], [3.0]], "rectangular array of numbers"),
            ([1.0, 2.0], "must be 2-D"),
            ([[1.0, 2.0, 3.0]], "equal column counts"),
        ],
        ids=["nan", "-inf", "empty", "strings", "ragged", "1-D", "column-count"],
    )
    def test_rejected_as_samples_are(self, bad, message):
        good = np.array([[0.5, 1.5], [2.5, 3.5]])
        with pytest.raises(DataValidationError, match=message):
            ks_empirical_columns(bad, good)
        with pytest.raises(DataValidationError, match=message):
            ks_empirical_columns(good, bad)

    def test_nested_lists_read_as_arrays(self):
        a, b = [[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]], [[2.5, 1.0], [0.0, 9.0]]
        assert ks_empirical_columns(a, b).tobytes() == ks_empirical_columns(np.array(a), np.array(b)).tobytes()


def _columns(a, b):
    return np.array(a, dtype=np.float64)[:, None], np.array(b, dtype=np.float64)[:, None]


class TestNativeKernel:
    @settings(max_examples=300, deadline=None)
    @given(_mixed_column_pair())
    # two run ends share the largest integer gap, and their float gaps differ
    # by one ulp: 0.25 at one and 0.24999999999999994 at the other
    @example(_columns([3, 3, 0, 1, 0, 2, 1, 3, 0, 1, 0, 0], [0, 0, 2, 0, 2, 0]))
    # +inf in both samples: a scan that relies on a +inf pad to stop takes the pad
    @example(_columns([np.inf, 1.0], [np.inf]))
    @example(_columns([np.inf, np.inf], [-np.inf, 0.0, np.inf]))
    def test_native_scan_equals_numpy_kernel_bytes(self, pair):
        a, b = pair
        if _native.ks_scan() is None:
            pytest.skip("the native kernel could not be built")
        assert _ks_merged(a, b).tobytes() == _ks_merged_numpy(a, b).tobytes()

    def test_large_gaussian_rows_equal_numpy_kernel_bytes(self):
        rng = np.random.default_rng(8)
        rows = np.round(rng.normal(size=(7, 3001)), 2)
        a, b = rows[:, :1400].T, rows[:, 1400:].T
        assert _ks_merged(a, b).tobytes() == _ks_merged_numpy(a, b).tobytes()


def _fresh_loader(monkeypatch, cache_home):
    """Make the next native call load the library again, caching under ``cache_home``."""
    monkeypatch.setattr(_native, "_tried", False)
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))


def _no_compiler(*args, **kwargs):
    raise FileNotFoundError("cc")


class TestNativeLoader:
    def test_without_compiler_matrix_is_byte_identical_and_silent(self, monkeypatch, tmp_path, caplog):
        rng = np.random.default_rng(9)
        p = dataset_from_array(np.round(rng.normal(size=(90, 4)), 1))
        q = dataset_from_array(np.round(rng.normal(size=(70, 4)), 1))
        expected = build_ks_matrix(p, q, 6, 11).entries
        table = tmp_path / "p.csv"
        save_dataset_csv(p, table)
        _fresh_loader(monkeypatch, tmp_path / "cache")
        monkeypatch.setattr(_native.subprocess, "run", _no_compiler)
        with warnings.catch_warnings(), caplog.at_level(logging.DEBUG, logger="ksdiff"):
            warnings.simplefilter("error")
            loaded = load_dataset_csv(table)
            fallback = build_ks_matrix(loaded, q, 6, 11).entries
        assert _native.ks_scan() is None
        assert _native.parse_table() is None
        assert loaded.values.tobytes() == p.values.tobytes()
        assert fallback.tobytes() == expected.tobytes()
        # tried once per process, so logged once
        assert [r.levelno for r in caplog.records if r.name == "ksdiff"] == [logging.DEBUG]

    def test_warm_cache_does_not_run_compiler(self, monkeypatch, tmp_path):
        _fresh_loader(monkeypatch, tmp_path)
        if _native.ks_scan() is None:
            pytest.skip("the native kernel could not be built")
        cache = tmp_path / "ksdiff"
        assert cache.stat().st_mode & 0o777 == 0o700
        assert len(list(cache.glob("_native-*.so"))) == 1
        _fresh_loader(monkeypatch, tmp_path)
        monkeypatch.setattr(_native.subprocess, "run", _no_compiler)
        assert _native.parse_table() is not None
        assert _native.ks_scan() is not None

    def test_concurrent_first_calls_compile_once(self, monkeypatch, tmp_path):
        a, b = _columns(np.arange(40.0) % 7, np.arange(30.0) % 5)
        expected = _ks_merged_numpy(a, b).tobytes()
        table = tmp_path / "p.csv"
        ds = dataset_from_array(np.arange(40.0).reshape(10, 4) / 7)
        save_dataset_csv(ds, table)
        _fresh_loader(monkeypatch, tmp_path / "cache")
        compiles = []
        run = _native.subprocess.run

        def counted_run(*args, **kwargs):
            compiles.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(_native.subprocess, "run", counted_run)
        threads = 8
        barrier = threading.Barrier(threads)

        # half the threads first reach the library through the scan, half through the parser
        def first_call(t):
            barrier.wait(timeout=60)
            if t % 2:
                return load_dataset_csv(table).values.tobytes()
            return _ks_merged(a, b).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(first_call, range(threads)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected, ds.values.tobytes()] * (threads // 2)
        assert len(compiles) == 1
        if _native.ks_scan() is not None:
            assert _native.parse_table() is not None

    def test_unwritable_cache_falls_back_to_numpy(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        _fresh_loader(monkeypatch, blocker)
        a, b = _columns([1.0, 2.0, 2.0, np.inf], [2.0, 5.0])
        assert _ks_merged(a, b).tobytes() == _ks_merged_numpy(a, b).tobytes()
        assert _native.ks_scan() is None
        table = tmp_path / "p.csv"
        table.write_text("a,b\n1.5,-2e3\n0.1,7\n")
        assert load_dataset_csv(table).values.tobytes() == np.array([[1.5, -2e3], [0.1, 7.0]]).tobytes()
        assert _native.parse_table() is None

    def test_cache_writable_by_others_is_not_loaded(self, monkeypatch, tmp_path):
        (tmp_path / "ksdiff").mkdir(mode=0o777)
        (tmp_path / "ksdiff").chmod(0o777)
        _fresh_loader(monkeypatch, tmp_path)
        assert _native.ks_scan() is None


def _project(ds, i, j, theta):
    return _project_rows(ds.values.T, np.array([i]), np.array([j]), np.cos([theta]), np.sin([theta]))[0]


class TestProjection:
    @pytest.fixture
    def ds(self):
        rng = np.random.default_rng(3)
        return dataset_from_array(rng.normal(size=(50, 4)))

    def test_angle_zero_is_first_column(self, ds):
        assert np.array_equal(_project(ds, 1, 2, 0.0), ds.values[:, 1])

    def test_angle_quarter_turn_is_second_column(self, ds):
        # cos(pi/2) is ~6e-17 in floats, not exactly zero
        proj = _project(ds, 1, 2, np.pi / 2)
        assert np.allclose(proj, ds.values[:, 2], atol=1e-12)

    def test_diagonal_direction(self):
        ds = dataset_from_array([[3.0, 4.0]])
        assert _project(ds, 0, 1, np.pi / 4)[0] == pytest.approx(7 / np.sqrt(2))

    def test_same_feature_rejected(self, ds):
        with pytest.raises(DataValidationError, match="distinct features"):
            projected_ks(ds, ds, 1, 1, [0.5])

    def test_angle_domain_enforced(self, ds):
        with pytest.raises(DataValidationError, match=r"\[0, pi\)"):
            projected_ks(ds, ds, 0, 1, [np.pi])


class TestAngleSet:
    def test_regeneration_is_identical(self):
        a = pair_angles(99, 32, 2, 5, "per-pair")
        assert np.array_equal(a, pair_angles(99, 32, 2, 5, "per-pair"))
        # a pair is keyed as (min, max), whatever the argument order
        assert np.array_equal(a, pair_angles(99, 32, 5, 2, "per-pair"))

    def test_distinct_pairs_differ(self):
        a = pair_angles(99, 32, 2, 5, "per-pair")
        b = pair_angles(99, 32, 2, 6, "per-pair")
        assert not np.array_equal(a, b)

    def test_domain(self):
        a = pair_angles(0, 10_000, 0, 1, "shared")
        assert np.all(a >= 0.0) and np.all(a < np.pi)

    def test_out_of_domain_rejected(self):
        ds = dataset_from_array(np.random.default_rng(8).normal(size=(20, 2)))
        for angles in ([0.1, np.pi], [-0.1]):
            with pytest.raises(DataValidationError, match=r"\[0, pi\)"):
                projected_ks(ds, ds, 0, 1, angles)

    @pytest.mark.parametrize("angles", [[np.nan], [0.3, np.nan]], ids=["nan", "0.3,nan"])
    def test_nan_angle_rejected(self, angles):
        ds = dataset_from_array(np.random.default_rng(8).normal(size=(20, 2)))
        with pytest.raises(DataValidationError, match="angle set contains non-finite value"):
            projected_ks(ds, ds, 0, 1, angles)

    @pytest.mark.parametrize(
        "angles, message",
        [([], "empty angle set"), ([[0.1, 0.2]], "angle set must be 1-D"), (0.1, "angle set must be 1-D")],
        ids=["empty", "2-D", "scalar"],
    )
    def test_angle_list_must_be_non_empty_and_1d(self, angles, message):
        ds = dataset_from_array(np.random.default_rng(8).normal(size=(20, 2)))
        with pytest.raises(DataValidationError, match=message):
            projected_ks(ds, ds, 0, 1, angles)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.integers(1, 40),
        pairs=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400)), min_size=1, max_size=6),
    )
    @example(seed=0, count=1, pairs=[(0, 1)])
    @example(seed=2**32 - 1, count=5, pairs=[(0, 0), (399, 2)])
    @example(seed=2**32, count=7, pairs=[(1, 2)])
    @example(seed=2**64 - 1, count=40, pairs=[(118, 119), (0, 400)])
    # seeds past 64 bits are accepted by build_ks_matrix; past 128 bits the
    # seed words outnumber SeedSequence's pool
    @example(seed=2**64, count=10, pairs=[(3, 9)])
    @example(seed=2**130 + 12345, count=3, pairs=[(5, 6)])
    def test_vectorised_draw_equals_numpy_philox(self, seed, count, pairs):
        def numpy_angles(**spawn):
            ss = np.random.SeedSequence(seed, **spawn)
            return np.random.Generator(np.random.Philox(ss)).uniform(0.0, np.pi, count)

        table = _philox_angles(seed, count, np.array(pairs))
        expected = np.stack([numpy_angles(spawn_key=pair) for pair in pairs])
        assert table.tobytes() == expected.tobytes()
        # the shared policy draws with no spawn key
        assert _philox_angles(seed, count).tobytes() == numpy_angles()[None].tobytes()
        assert pair_angles(seed, count, 7, 8, "shared").tobytes() == numpy_angles().tobytes()
        lo, hi = sorted(pairs[0])
        generated = pair_angles(seed, count, hi, lo, "per-pair")
        assert not generated.flags.writeable
        assert generated.tobytes() == _philox_angles(seed, count, np.array([[lo, hi]]))[0].tobytes()

    def test_non_integer_count_or_seed_rejected(self):
        with pytest.raises(DataValidationError, match="num_angles must be an integer"):
            pair_angles(1, 4.0, 0, 1, "per-pair")
        with pytest.raises(DataValidationError, match="master_seed must be an integer"):
            pair_angles(1.5, 4, 0, 1, "shared")

    def test_pair_indices_beyond_one_word_rejected(self):
        with pytest.raises(DataValidationError, match="pair indices"):
            pair_angles(1, 4, 2**32, 0, "per-pair")
        with pytest.raises(DataValidationError, match="pair indices"):
            pair_angles(1, 4, -1, 0, "per-pair")

    def test_unknown_policy_rejected(self):
        with pytest.raises(DataValidationError, match="unknown angle policy"):
            pair_angles(1, 4, 0, 1, "zigzag")


class TestProjectedKs:
    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(21)
        p = dataset_from_array(rng.normal(size=(120, 3)))
        q = dataset_from_array(rng.normal(size=(100, 3)) * np.array([1.0, 2.5, 1.0]))
        return p, q

    def test_identical_datasets_zero(self, pair):
        p, _ = pair
        angles = pair_angles(4, 25, 0, 1, "per-pair")
        assert projected_ks(p, p, 0, 1, angles) == 0.0

    def test_single_zero_angle_reduces_to_first_column(self, pair):
        p, q = pair
        assert projected_ks(p, q, 1, 2, [0.0]) == ks_empirical(p.values[:, 1], q.values[:, 1])

    def test_bounds_and_symmetry(self, pair):
        p, q = pair
        angles = pair_angles(8, 16, 0, 1, "per-pair")
        d = projected_ks(p, q, 0, 1, angles)
        assert 0.0 <= d <= 1.0
        assert d == projected_ks(q, p, 0, 1, angles)

    def test_common_affine_map_invariance_exact(self, pair):
        p, q = pair
        angles = pair_angles(123, 16, 0, 2, "per-pair")
        base = projected_ks(p, q, 0, 2, angles)
        # same positive scale and shift on both coordinates of both datasets
        p2 = dataset_from_array(3.5 * p.values + 1.25, p.names)
        q2 = dataset_from_array(3.5 * q.values + 1.25, q.names)
        assert projected_ks(p2, q2, 0, 2, angles) == base

    @pytest.mark.parametrize("other", ["five columns", "renamed copy"])
    def test_datasets_with_different_columns_rejected(self, pair, other):
        p, q = pair
        if other == "five columns":
            q = dataset_from_array(np.random.default_rng(5).normal(size=(40, 5)))
        else:
            q = dataset_from_array(q.values, ("a", "b", "c"))
        with pytest.raises(DataValidationError, match="column names differ"):
            projected_ks(p, q, 0, 2, [0.3])
        with pytest.raises(DataValidationError, match="column names differ"):
            projected_ks_grid(p, q, 0, 2, grid_size=7)

    def test_monte_carlo_agrees_with_grid_quadrature(self, pair):
        p, q = pair
        angles = pair_angles(77, 10_000, 0, 1, "per-pair")
        # one single-angle row per angle gives the per-angle statistics
        zeros, ones = np.zeros(angles.size, int), np.ones(angles.size, int)
        values = _projected_ks_values(p.values.T, q.values.T, zeros, ones, angles[:, None])
        estimate = float(values.mean())
        stderr = float(values.std(ddof=1) / np.sqrt(values.size))
        reference = projected_ks_grid(p, q, 0, 1, grid_size=10_000)
        assert abs(estimate - reference) <= 3 * stderr
