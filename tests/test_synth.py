import numpy as np
import pytest

from ksdiff import (
    DataValidationError,
    GroundTruth,
    PerturbationSpec,
    dataset_from_array,
    example1_population,
    gen_example1,
    gen_example2,
    ks_empirical,
    lower_quartile,
    perturb,
)
from ksdiff.synth import MIXTURE_RATES_Q, _mixture_offsets, _rng


class TestExample1:
    def test_reproducible(self):
        a = gen_example1(50, 123)
        b = gen_example1(50, 123)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)

    def test_population_unit_diagonal(self):
        sigma, _ = example1_population(9)
        assert np.allclose(np.diag(sigma), 1.0, atol=1e-12)

    def test_population_differs_only_in_row_and_column_zero(self):
        sigma, sigma_q = example1_population(9)
        changed = np.argwhere(sigma != sigma_q)
        assert changed.size > 0
        assert np.all((changed[:, 0] == 0) | (changed[:, 1] == 0))

    def test_population_is_positive_definite(self):
        for seed in range(5):
            sigma, sigma_q = example1_population(seed)
            assert np.linalg.eigvalsh(sigma).min() > 0
            assert np.linalg.eigvalsh(sigma_q).min() > 0

    def test_empirical_covariances_match_populations(self):
        n = 100_000
        p, q, _ = gen_example1(n, 77)
        sigma, sigma_q = example1_population(77)
        emp_p = p.values.T @ p.values / n
        emp_q = q.values.T @ q.values / n
        assert np.max(np.abs(emp_p - sigma)) < 0.02
        assert np.max(np.abs(emp_q - sigma_q)) < 0.02

    def test_ground_truth_is_feature_zero(self):
        _, _, truth = gen_example1(10, 0)
        assert truth.changed == frozenset({0})


class TestExample2:
    def test_reproducible(self):
        a = gen_example2(50, 5)
        b = gen_example2(50, 5)
        assert np.array_equal(a[1].values, b[1].values)

    def test_mixture_component_fractions(self):
        rng = _rng(np.random.SeedSequence(33))
        offsets = _mixture_offsets(rng, 100_000, MIXTURE_RATES_Q)
        fractions = [
            np.mean(offsets == 4.0 / 3.0),
            np.mean(offsets == -4.0 / 3.0),
            np.mean(offsets == 0.0),
        ]
        assert np.allclose(fractions, [0.35, 0.35, 0.30], atol=0.01)

    def test_feature_zero_mean_unchanged(self):
        p, q, _ = gen_example2(100_000, 8)
        # both means are 0 in the population (symmetric offsets, zero-mean latent)
        assert abs(p.values[:, 0].mean()) < 0.02
        assert abs(q.values[:, 0].mean()) < 0.02

    def test_other_features_share_the_same_law(self):
        p, q, _ = gen_example2(20_000, 13)
        for col in (1, 7, 19):
            assert ks_empirical(p.values[:, col], q.values[:, col]) < 0.02

    def test_feature_zero_distributions_differ(self):
        p, q, _ = gen_example2(20_000, 13)
        assert ks_empirical(p.values[:, 0], q.values[:, 0]) > 0.05


class TestPerturbationSpec:
    def test_overlapping_target_and_reference_rejected(self):
        with pytest.raises(DataValidationError, match="overlap"):
            PerturbationSpec("cov_change", 0.5, (0, 1), {0: 1, 1: 2})

    def test_missing_reference_rejected(self):
        with pytest.raises(DataValidationError, match="reference"):
            PerturbationSpec("cov_change", 0.5, (0,))

    def test_level_out_of_range_rejected(self):
        with pytest.raises(DataValidationError, match=r"\[0, 1\]"):
            PerturbationSpec("mean_shift", 1.5, (0,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataValidationError, match="kind"):
            PerturbationSpec("wiggle", 0.5, (0,))

    def test_noise_kind_requires_seed(self):
        with pytest.raises(DataValidationError, match="seed"):
            PerturbationSpec("variance_change", 0.5, (0,))

    @pytest.mark.parametrize(
        "targets, message",
        [((), "at least one target feature"), ((1, 0, 1), "target features must be distinct")],
        ids=["empty", "duplicate"],
    )
    def test_empty_or_repeated_targets_rejected(self, targets, message):
        with pytest.raises(DataValidationError, match=message):
            PerturbationSpec("mean_shift", 0.5, targets)


class TestPerturb:
    @pytest.fixture
    def ds(self):
        rng = np.random.default_rng(99)
        return dataset_from_array(rng.normal(size=(200, 5)))

    def test_mean_shift_adds_level(self, ds):
        out = perturb(ds, PerturbationSpec("mean_shift", 0.3, (1,)))
        assert np.array_equal(out.values[:, 1], ds.values[:, 1] + 0.3)

    def test_zero_level_mix_is_identity(self, ds):
        out = perturb(ds, PerturbationSpec("cov_change", 0.0, (1,), {1: 3}))
        assert np.array_equal(out.values, ds.values)

    def test_untargeted_cells_bit_identical(self, ds):
        out = perturb(ds, PerturbationSpec("variance_change", 0.7, (0, 2), seed=5))
        untouched = [1, 3, 4]
        assert np.array_equal(out.values[:, untouched], ds.values[:, untouched])
        assert not np.array_equal(out.values[:, 0], ds.values[:, 0])

    def test_conditional_mix_touches_only_quartile_rows(self, ds):
        spec = PerturbationSpec("cov_change_conditional", 0.5, (1,), {1: 3})
        out = perturb(ds, spec)
        cutoff = lower_quartile(ds.values[:, 3])
        selected = ds.values[:, 3] <= cutoff
        assert np.array_equal(out.values[~selected, 1], ds.values[~selected, 1])
        assert not np.array_equal(out.values[selected, 1], ds.values[selected, 1])

    def test_quartile_is_order_statistic(self):
        assert lower_quartile(np.array([4.0, 1.0, 3.0, 2.0])) == 1.0
        assert lower_quartile(np.arange(1.0, 101.0)) == 25.0

    def test_variance_preserving_mix(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            ds = dataset_from_array(rng.normal(size=(150, 4)) * rng.uniform(0.5, 3.0))
            spec = PerturbationSpec("cov_change_no_var", 0.6, (0,), {0: 2})
            out = perturb(ds, spec)
            before = np.var(ds.values[:, 0])
            after = np.var(out.values[:, 0])
            assert abs(after - before) / before < 1e-10
            assert not np.array_equal(out.values[:, 0], ds.values[:, 0])

    @pytest.mark.parametrize(
        "target, ref, message",
        [
            (np.arange(20.0), np.ones(20), "mixing collapsed column 0 to a constant"),
            (
                np.linspace(1e300, 5e300, 20),
                np.linspace(-3e300, 2e300, 20),
                "^cannot preserve the variance of column x1: it overflows before or after mixing$",
            ),
        ],
        ids=["collapse", "overflow"],
    )
    def test_variance_preserving_mix_rejects_unpreservable_column(self, target, ref, message):
        # numpy's overflow warning is an error under the test settings, so none is raised here
        ds = dataset_from_array(np.column_stack([target, ref]))
        with pytest.raises(DataValidationError, match=message):
            perturb(ds, PerturbationSpec("cov_change_no_var", 1.0, (0,), {0: 1}))

    def test_noise_kind_reproducible(self, ds):
        spec = PerturbationSpec("variance_change", 0.4, (2,), seed=77)
        assert np.array_equal(perturb(ds, spec).values, perturb(ds, spec).values)

    def test_out_of_range_indices_rejected(self, ds):
        with pytest.raises(DataValidationError, match="out of range"):
            perturb(ds, PerturbationSpec("mean_shift", 0.1, (9,)))


def test_ground_truth_requires_nonempty():
    with pytest.raises(DataValidationError):
        GroundTruth(frozenset())
