import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ksdiff import (
    DataValidationError,
    ProjectionAngleSet,
    dataset_from_array,
    edf_eval,
    ks_empirical,
    ks_empirical_columns,
    project_pair,
    projected_ks,
    projected_ks_grid,
)

from ksdiff.ks import _philox_angles

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
# the pooled column), small integers (long runs of ties) and signed zeros
# (-0.0 == 0.0, so they tie with each other)
_COLUMN_VALUES = {
    "continuous": st.floats(-1e6, 1e6, allow_nan=False),
    "integer": st.integers(0, 3).map(float),
    "signed-zero": st.sampled_from([-0.0, 0.0, 1.0]),
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
        values = ks_empirical_columns(a, b)
        assert values.shape == (a.shape[1],)
        for col in range(a.shape[1]):
            assert values[col] == ks_jump_oracle(a[:, col], b[:, col])


class TestProjection:
    @pytest.fixture
    def ds(self):
        rng = np.random.default_rng(3)
        return dataset_from_array(rng.normal(size=(50, 4)))

    def test_angle_zero_is_first_column(self, ds):
        assert np.array_equal(project_pair(ds, 1, 2, 0.0).values, ds.values[:, 1])

    def test_angle_quarter_turn_is_second_column(self, ds):
        # cos(pi/2) is ~6e-17 in floats, not exactly zero
        proj = project_pair(ds, 1, 2, np.pi / 2).values
        assert np.allclose(proj, ds.values[:, 2], atol=1e-12)

    def test_diagonal_direction(self):
        ds = dataset_from_array([[3.0, 4.0]])
        assert project_pair(ds, 0, 1, np.pi / 4).values[0] == pytest.approx(7 / np.sqrt(2))

    def test_same_feature_rejected(self, ds):
        with pytest.raises(DataValidationError, match="distinct features"):
            project_pair(ds, 1, 1, 0.5)

    def test_angle_domain_enforced(self, ds):
        with pytest.raises(DataValidationError):
            project_pair(ds, 0, 1, np.pi)


class TestAngleSet:
    def test_regeneration_is_identical(self):
        a = ProjectionAngleSet.generate(99, 32, pair=(2, 5))
        b = ProjectionAngleSet.generate(99, 32, pair=(2, 5))
        assert np.array_equal(a.angles, b.angles)

    def test_distinct_pairs_differ(self):
        a = ProjectionAngleSet.generate(99, 32, pair=(2, 5))
        b = ProjectionAngleSet.generate(99, 32, pair=(2, 6))
        assert not np.array_equal(a.angles, b.angles)

    def test_domain(self):
        a = ProjectionAngleSet.generate(0, 10_000)
        assert np.all(a.angles >= 0.0) and np.all(a.angles < np.pi)

    def test_out_of_domain_rejected(self):
        with pytest.raises(DataValidationError):
            ProjectionAngleSet(np.array([0.1, np.pi]), seed=0)

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
        generated = ProjectionAngleSet.generate(seed, count, pair=pairs[0]).angles
        assert generated.tobytes() == expected[0].tobytes()

    def test_non_integer_count_or_seed_rejected(self):
        with pytest.raises(DataValidationError, match="count must be an integer"):
            ProjectionAngleSet.generate(1, 4.0)
        with pytest.raises(DataValidationError, match="seed must be an integer"):
            ProjectionAngleSet.generate(1.5, 4)

    def test_pair_indices_beyond_one_word_rejected(self):
        with pytest.raises(DataValidationError, match="pair indices"):
            ProjectionAngleSet.generate(1, 4, pair=(2**32, 0))
        with pytest.raises(DataValidationError, match="pair indices"):
            ProjectionAngleSet.generate(1, 4, pair=(-1, 0))


class TestProjectedKs:
    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(21)
        p = dataset_from_array(rng.normal(size=(120, 3)))
        q = dataset_from_array(rng.normal(size=(100, 3)) * np.array([1.0, 2.5, 1.0]))
        return p, q

    def test_identical_datasets_zero(self, pair):
        p, _ = pair
        angles = ProjectionAngleSet.generate(4, 25, pair=(0, 1))
        assert projected_ks(p, p, 0, 1, angles) == 0.0

    def test_single_zero_angle_reduces_to_first_column(self, pair):
        p, q = pair
        assert projected_ks(p, q, 1, 2, [0.0]) == ks_empirical(p.values[:, 1], q.values[:, 1])

    def test_bounds_and_symmetry(self, pair):
        p, q = pair
        angles = ProjectionAngleSet.generate(8, 16, pair=(0, 1))
        d = projected_ks(p, q, 0, 1, angles)
        assert 0.0 <= d <= 1.0
        assert d == projected_ks(q, p, 0, 1, angles)

    def test_common_affine_map_invariance_exact(self, pair):
        p, q = pair
        angles = ProjectionAngleSet.generate(123, 16, pair=(0, 2))
        base = projected_ks(p, q, 0, 2, angles)
        # same positive scale and shift on both coordinates of both datasets
        p2 = dataset_from_array(3.5 * p.values + 1.25, p.names)
        q2 = dataset_from_array(3.5 * q.values + 1.25, q.names)
        assert projected_ks(p2, q2, 0, 2, angles) == base

    def test_monte_carlo_agrees_with_grid_quadrature(self, pair):
        p, q = pair
        angles = ProjectionAngleSet.generate(77, 10_000, pair=(0, 1))
        from ksdiff.ks import _projected_ks_values

        values = _projected_ks_values(p, q, 0, 1, angles.angles)
        estimate = float(values.mean())
        stderr = float(values.std(ddof=1) / np.sqrt(values.size))
        reference = projected_ks_grid(p, q, 0, 1, grid_size=10_000)
        assert abs(estimate - reference) <= 3 * stderr
