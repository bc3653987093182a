import math
import re
import warnings

import numpy as np
import pytest

from ksdiff import (
    DataValidationError,
    SolverLimitError,
    build_ks_matrix,
    check_conditions,
    exact_min,
    gen_example2,
    kl_lower_bound_check,
    optimality_margin,
    recovery_trial,
    sample_bound,
)
from ksdiff.errors import ConfigFieldError, KsdiffError

from conftest import structured_instance


class TestCheckConditions:
    def test_zero_matrix_nothing_holds(self):
        report = check_conditions(np.zeros((4, 4)), [0, 1])
        assert not any(report.necessary_holds.values())
        assert not any(report.sufficient_holds.values())
        assert report.margin == 0.0

    def test_single_positive_diagonal_is_sufficient(self):
        # only the changed feature carries weight: margin equals its diagonal
        h = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        report = check_conditions(h, [0])
        assert report.k == 5
        assert report.sufficient_holds[0] and report.necessary_holds[0]
        assert report.margin == 1.0

    def test_positive_row_without_diagonal_is_sufficient(self):
        h = np.zeros((4, 4))
        h[0, 1:] = 0.3
        h[1:, 0] = 0.3
        report = check_conditions(h, [0])
        assert report.sufficient_holds[0]
        assert report.margin > 0.0

    def test_one_positive_pair_is_necessary_but_not_sufficient(self):
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = 0.4
        report = check_conditions(h, [0])
        assert report.necessary_holds[0]
        assert not report.sufficient_holds[0]

    def test_sufficient_conditions_imply_positive_margin(self):
        rng = np.random.default_rng(50)
        for _ in range(15):
            d = int(rng.integers(4, 8))
            k = int(rng.integers(1, d - 1))
            w, changed = structured_instance(rng, d, k)
            report = check_conditions(w, changed)
            assert report.all_sufficient
            assert report.margin > 0.0

    def test_tolerance_is_strict(self):
        h = np.diag([0.02, 0.0, 0.0])
        assert not check_conditions(h, [0], tol=0.02).sufficient_holds[0]
        assert check_conditions(h, [0], tol=0.019).sufficient_holds[0]

    def test_invalid_feature_set(self):
        with pytest.raises(DataValidationError):
            check_conditions(np.zeros((3, 3)), [5])

    @pytest.mark.parametrize(
        "s_star, tol, message",
        [([2], -1e-9, "tolerance must be nonnegative"), ([], 1e-9, "must name at least one feature")],
        ids=["negative-tol", "empty-set"],
    )
    def test_negative_tolerance_or_empty_set_rejected(self, s_star, tol, message):
        with pytest.raises(DataValidationError, match=message):
            check_conditions(np.diag([0.0, 0.0, 1.0]), s_star, tol=tol)

    @pytest.mark.parametrize("d", [1, 3])
    def test_margin_is_zero_when_every_feature_is_claimed(self, d):
        # k = 0: the empty complement is the only one, so nothing competes
        report = check_conditions(np.eye(d), range(d))
        assert (report.k, report.margin) == (0, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 10**400, "1e-9"])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(DataValidationError, match="tol must be a finite number"):
            check_conditions(np.diag([0.0, 0.0, 1.0]), [2], tol=tol)

    def test_mixture_example_satisfies_conditions_at_scale(self):
        p, q, truth = gen_example2(10_000, 606)
        h = build_ks_matrix(p, q, 10, 606)
        report = check_conditions(h, sorted(truth.changed), tol=0.02)
        assert report.all_sufficient
        # the changed feature's row carries the largest off-diagonal mass
        row_mass = h.entries.sum(axis=1) - np.diag(h.entries)
        assert int(np.argmax(row_mass)) in truth.changed


# each theory entry point that takes a claimed changed set, on matrix h
_CLAIMS = {
    "check_conditions": lambda h, s_star: check_conditions(h, s_star),
    "recovery_trial": lambda h, s_star: recovery_trial(h, s_star, magnitude=0.0, trials=1, seed=0),
}


@pytest.mark.parametrize("entry", sorted(_CLAIMS))
class TestClaimedSet:
    @pytest.mark.parametrize(
        "s_star, message",
        [
            ([], "changed-feature set must name at least one feature"),
            ([2, 2], "changed-feature set repeats a feature index: [2, 2]"),
            ([1, 2, 0, 2], "changed-feature set repeats a feature index: [0, 1, 2, 2]"),
        ],
        ids=["empty", "repeat", "repeat-unsorted"],
    )
    def test_empty_or_repeating_set_rejected_alike(self, entry, s_star, message):
        with pytest.raises(DataValidationError, match="^" + re.escape(message) + "$"):
            _CLAIMS[entry](np.diag([0.0, 0.0, 1.0]), s_star)

    def test_set_naming_every_feature(self, entry):
        # k = 0: no complement competes, so the margin is 0.0; recovery_trial's bound divides by k^2
        h = np.diag([0.0, 0.0, 1.0])
        if entry == "check_conditions":
            report = check_conditions(h, [2, 0, 1])
            assert (report.s_star, report.k, report.margin) == ((0, 1, 2), 0, 0.0)
        else:
            with pytest.raises(DataValidationError, match="^no competing complement of the requested size exists$"):
                _CLAIMS[entry](h, [2, 0, 1])

    def test_past_the_exact_limit_raises(self, entry):
        with pytest.raises(SolverLimitError, match="^margin enumeration size limit: D=26 exceeds 25$"):
            _CLAIMS[entry](np.diag([1.0] + [0.0] * 25), [0])


class TestSampleBound:
    def test_frozen_closed_form_values(self):
        # ceil(32 * ln(4800)) and ceil(32 * ln(22800)), evaluated independently
        bound = sample_bound(k=1, margin=0.5, dim=20, epsilon=0.05)
        assert bound.n_required == 272
        assert bound.l_required == 322
        assert math.ceil(8 * 1 / 0.25 * math.log(12 * 20 / 0.05)) == 272
        assert math.ceil(8 * 1 / 0.25 * math.log(3 * 20 * 19 / 0.05)) == 322

    def test_larger_margin_needs_no_more_samples(self):
        margins = [0.1, 0.2, 0.4, 0.8]
        sizes = [sample_bound(2, m, 10, 0.01).n_required for m in margins]
        assert sizes == sorted(sizes, reverse=True)

    def test_logarithmic_growth_in_dimension(self):
        small = sample_bound(1, 0.5, 10, 0.05)
        large = sample_bound(1, 0.5, 20, 0.05)
        lead = 8 * 1 / 0.25
        expected_gap = lead * math.log(2.0)
        # two ceilings can land on either side of the real-valued gap
        assert abs((large.n_required - small.n_required) - expected_gap) < 1.0

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(DataValidationError, match="uniquely identifiable"):
            sample_bound(1, 0.0, 10, 0.05)

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(DataValidationError, match="margin must be a finite number"):
            sample_bound(1, margin, 10, 0.05)

    @pytest.mark.parametrize(
        "args, field",
        [((1, 1e-200, 10, 0.1), "margin"), ((1, 1e-160, 10, 0.1), "margin"), ((10**80, 0.5, 10, 0.1), "k")],
        ids=["margin-squared-underflows", "bound-overflows", "k-beyond-float"],
    )
    def test_bound_past_float_range_names_argument(self, args, field):
        with pytest.raises(ConfigFieldError, match=f"^{field} takes the required sample size past the float range$"):
            sample_bound(*args)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 2.0])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(DataValidationError, match=r"epsilon must lie in \(0, 1\)"):
            sample_bound(1, 0.5, 10, epsilon)

    def test_single_feature_needs_no_angles(self):
        assert sample_bound(1, 0.5, 1, 0.05).l_required == 1

    def test_omitted_term_is_reported(self):
        assert "omitted" in sample_bound(1, 0.5, 10, 0.05).omitted_term


class TestRecoveryTrial:
    def test_zero_magnitude_always_recovers(self):
        rng = np.random.default_rng(51)
        w, changed = structured_instance(rng, 6, 3)
        result = recovery_trial(w, changed, magnitude=0.0, trials=20, seed=1)
        assert result.success_rate == 1.0
        assert result.within_guarantee

    def test_recovery_at_the_guarantee_boundary(self):
        rng = np.random.default_rng(52)
        w, changed = structured_instance(rng, 6, 3)
        margin = optimality_margin(w, changed, 3)
        result = recovery_trial(w, changed, magnitude=margin / (2 * 9), trials=100, seed=2)
        assert result.within_guarantee
        assert result.success_rate == 1.0

    def test_oversized_perturbations_can_break_recovery(self):
        # f({0,1}) = 0.05 vs best competitor f({0,2}) = 1.0; noise at ten
        # times that gap routinely flips the optimum
        h = np.diag([0.0, 0.05, 1.0])
        margin = optimality_margin(h, [2], 2)
        assert margin == pytest.approx(0.95)
        result = recovery_trial(h, [2], magnitude=10 * margin, trials=200, seed=3)
        assert not result.within_guarantee
        assert result.success_rate < 1.0

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf])
    def test_non_finite_magnitude_rejected(self, magnitude):
        with pytest.raises(DataValidationError, match="magnitude must be a finite number"):
            recovery_trial(np.diag([0.0, 0.0, 1.0]), [2], magnitude=magnitude, trials=2, seed=1)

    @pytest.mark.parametrize(
        "magnitude, error, message",
        [
            (-0.1, DataValidationError, "^magnitude must be nonnegative$"),
            (1e308, ConfigFieldError, r"^magnitude must be at most half the float range, got 1e\+308$"),
        ],
        ids=["negative", "past-half-float-range"],
    )
    def test_out_of_range_magnitude_rejected(self, magnitude, error, message):
        # a noise range [-magnitude, magnitude] wider than the float range cannot be drawn
        with pytest.raises(error, match=message):
            recovery_trial(np.diag([1.0, 0.0, 0.0, 0.0]), [0], magnitude=magnitude, trials=2, seed=0)

    def test_perturbation_whose_sum_overflows_rejected_without_warnings(self):
        # the magnitude is just under half the float range, so the noise draws, but a perturbed sum overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(KsdiffError, match="twice its sum overflows the float range"):
                recovery_trial(np.diag([1.0, 0, 0, 0]), [0], 8.988465674311579e307, 2, 0)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_non_integer_or_negative_seed_rejected(self, seed):
        with pytest.raises(DataValidationError, match="seed must be an integer"):
            recovery_trial(np.diag([0.0, 0.0, 1.0]), [2], magnitude=0.1, trials=2, seed=seed)

    def test_flags_magnitude_beyond_bound(self):
        rng = np.random.default_rng(53)
        w, changed = structured_instance(rng, 5, 2)
        result = recovery_trial(w, changed, magnitude=1.0, trials=5, seed=4)
        assert not result.within_guarantee


class TestKlLowerBound:
    def test_equal_correlations_give_zero_divergence(self):
        check = kl_lower_bound_check(0.4, 0.4)
        assert check.kl == 0.0
        assert check.bound == pytest.approx(-0.125)
        assert check.holds

    def test_frozen_example(self):
        check = kl_lower_bound_check(0.5, 0.3)
        assert check.kl == pytest.approx(0.03075163055620389, rel=1e-12)
        assert check.holds

    def test_singular_correlation_rejected(self):
        with pytest.raises(DataValidationError):
            kl_lower_bound_check(1.0, 0.2)
        with pytest.raises(DataValidationError):
            kl_lower_bound_check(0.2, -1.0)


def test_misspecification_rate_decays_with_sample_size():
    # trend property on the mixture generator: the exact selection misses the
    # changed feature less often as samples grow
    sizes = (100, 1000, 10_000)
    reps = 50
    rates = []
    for n in sizes:
        misses = 0
        for rep in range(reps):
            seed = 9_000 + rep
            p, q, truth = gen_example2(n, seed)
            h = build_ks_matrix(p, q, 10, seed)
            result = exact_min(h.entries, k=19)
            misses += set(result.selected) != truth.changed
        rates.append(misses / reps)
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[0] > rates[2]
