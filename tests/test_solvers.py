import re
import warnings
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ksdiff.solvers
from ksdiff import (
    DataValidationError,
    KsdiffError,
    SolverLimitError,
    build_ks_matrix,
    complement_objective,
    exact_min,
    greedy_k,
    greedy_score,
    optimality_margin,
)
from ksdiff.synth import GENERATORS

from conftest import brute_force_min, exact_min_oracle, margin_oracle, structured_instance

EXAMPLE_3 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])


def _random_weights(rng, d):
    w = rng.uniform(0.0, 1.0, size=(d, d))
    return np.triu(w) + np.triu(w, 1).T


class TestGreedyK:
    def test_zero_matrix_ties_break_to_smallest_index(self):
        result = greedy_k(np.zeros((3, 3)), 2)
        assert result.selected == (0,)
        assert result.objective == 0.0

    def test_heavy_block_removed_first(self):
        # exhaustive check: min over size-2 complements is f = 1, greedy finds it
        assert brute_force_min(EXAMPLE_3, 2) == (1.0, (0, 1))
        result = greedy_k(EXAMPLE_3, 2)
        assert result.selected == (1,)
        assert result.objective == 1.0

    def test_k_equals_dim_runs_zero_iterations(self):
        w = _random_weights(np.random.default_rng(0), 5)
        result = greedy_k(w, 5)
        assert result.selected == ()
        assert result.objective == complement_objective(w, range(5))

    def test_k_zero_selects_everything(self):
        w = _random_weights(np.random.default_rng(1), 4)
        result = greedy_k(w, 0)
        assert sorted(result.selected) == [0, 1, 2, 3]
        assert result.objective == 0.0

    def test_objective_matches_direct_evaluation(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            w = _random_weights(rng, 8)
            k = int(rng.integers(0, 9))
            result = greedy_k(w, k)
            complement = sorted(set(range(8)) - set(result.selected))
            assert result.objective == complement_objective(w, complement)

    def test_k_out_of_range(self):
        with pytest.raises(DataValidationError):
            greedy_k(np.zeros((3, 3)), 4)

    def test_positive_scaling_preserves_selection(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = _random_weights(rng, 7)
            base = greedy_k(w, 3)
            scaled = greedy_k(2.5 * w, 3)
            assert scaled.selected == base.selected
            assert scaled.objective == pytest.approx(2.5 * base.objective, rel=1e-12)

    def test_selection_is_prefix_of_score_order(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            d = int(rng.integers(1, 10))
            w = np.round(_random_weights(rng, d), 1)
            order = greedy_score(w).selected
            for k in range(d + 1):
                assert greedy_k(w, k).selected == order[: d - k]

    def test_input_validation(self):
        with pytest.raises(DataValidationError, match="symmetric"):
            greedy_k(np.array([[0.0, 1.0], [0.5, 0.0]]), 1)
        with pytest.raises(DataValidationError, match="negative"):
            greedy_k(np.array([[0.0, -1.0], [-1.0, 0.0]]), 1)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 1)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(DataValidationError, match=rf"weight matrix must be square, got shape \({shape[0]}, {shape[1]}\)"):
            greedy_k(np.zeros(shape), 1)


class TestGreedyScore:
    def test_zero_matrix_gives_zero_scores(self):
        assert np.array_equal(greedy_score(np.zeros((4, 4))).scores, np.zeros(4))

    def test_two_feature_trace(self):
        # the heavy feature is removed first (it minimizes the remaining
        # objective), earning (1-0)/2; the empty final step earns 0
        result = greedy_score(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert result.selected == (0, 1)
        assert np.array_equal(result.scores, [0.5, 0.0])

    def test_scores_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores = greedy_score(_random_weights(rng, 9)).scores
            assert np.all(scores >= 0.0)

    def test_telescoping_recovers_total_weight(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = _random_weights(rng, 8)
            result = greedy_score(w)
            position = {f: i for i, f in enumerate(result.selected, start=1)}
            total = sum(result.scores[f] * (8 - position[f] + 1) for f in range(8))
            assert total == pytest.approx(w.sum(), rel=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        w = _random_weights(rng, 7)
        perm = rng.permutation(7)
        scores = greedy_score(w).scores
        permuted_scores = greedy_score(w[np.ix_(perm, perm)]).scores
        assert np.allclose(permuted_scores, scores[perm], atol=1e-12)

    def test_objective_trace_matches_generic_runner(self):
        rng = np.random.default_rng(7)
        w = _random_weights(rng, 6)

        def objective(complements):
            return w[complements[:, :, None], complements[:, None, :]].sum(axis=(1, 2))

        assert np.allclose(ksdiff.solvers._greedy_trace(objective, 6), greedy_score(w).scores, atol=1e-12)

    def test_matrix_whose_sum_overflows_rejected_without_warnings(self):
        # each entry is finite, but the objective's total is not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(KsdiffError, match="^weight matrix is too large: twice its sum overflows the float range$"):
                greedy_score(np.full((2, 2), 1e308))
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestIndexChecks:
    @pytest.mark.parametrize(
        "complement, message",
        [
            ([-1], "complement must be an integer in \\[0, 3\\], got -1"),
            ([7], "complement must be an integer in \\[0, 3\\], got 7"),
            ([1.5], "complement must be an integer in \\[0, 3\\], got 1.5"),
            ([True], "complement must be an integer"),
            ([1, 1], "complement repeats a feature index"),
        ],
        ids=["negative", "too-large", "float", "bool", "duplicate"],
    )
    def test_complement_indices_rejected_not_coerced(self, complement, message):
        with pytest.raises(DataValidationError, match=message):
            complement_objective(np.full((4, 4), 0.5), complement)

    def test_complement_of_numpy_indices_is_summed_once(self):
        w = _random_weights(np.random.default_rng(8), 4)
        assert complement_objective(w, np.array([2, 0])) == complement_objective(w, [0, 2]) == w[np.ix_([0, 2], [0, 2])].sum()


class TestExactMin:
    def test_zero_matrix_lexicographic_tie_break(self):
        result = exact_min(np.zeros((5, 5)), 2)
        assert sorted(set(range(5)) - set(result.selected)) == [0, 1]
        assert result.objective == 0.0

    def test_three_feature_example(self):
        result = exact_min(EXAMPLE_3, 2)
        assert sorted(set(range(3)) - set(result.selected)) == [0, 1]
        assert result.objective == 1.0

    def test_matches_plain_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            w = _random_weights(rng, 10)
            k = int(rng.integers(1, 10))
            expected_value, expected_complement = brute_force_min(w, k)
            result = exact_min(w, k)
            assert sorted(set(range(10)) - set(result.selected)) == list(expected_complement)
            assert result.objective == expected_value

    def test_positive_scaling_preserves_argmin(self):
        rng = np.random.default_rng(9)
        w = _random_weights(rng, 8)
        base = exact_min(w, 3)
        scaled = exact_min(0.125 * w, 3)
        assert scaled.selected == base.selected
        assert scaled.objective == pytest.approx(0.125 * base.objective, rel=1e-12)

    def test_size_limit(self):
        with pytest.raises(SolverLimitError, match="size limit"):
            exact_min(np.zeros((26, 26)), 3)
        exact_min(np.zeros((26, 26)), 3, limit_d=26)

    def test_margin_size_limit(self):
        with pytest.raises(SolverLimitError, match="^margin enumeration size limit: D=26 exceeds 25$"):
            optimality_margin(np.zeros((26, 26)), range(23), 3)
        assert optimality_margin(np.zeros((26, 26)), range(23), 3, limit_d=26) == 0.0

    @pytest.mark.parametrize("limit_d", ["25", None, 2.5, True, 0])
    def test_size_limit_checked(self, limit_d):
        with pytest.raises(DataValidationError, match="^" + re.escape(f"limit_d must be an integer >= 1, got {limit_d!r}")):
            exact_min(np.zeros((4, 4)), 2, limit_d=limit_d)

    @pytest.mark.parametrize("limit_d", ["25", None, 2.5, True, 0])
    def test_margin_size_limit_checked(self, limit_d):
        with pytest.raises(DataValidationError, match="^" + re.escape(f"limit_d must be an integer >= 1, got {limit_d!r}")):
            optimality_margin(np.zeros((4, 4)), [0, 1], 2, limit_d=limit_d)


class TestOptimalityMargin:
    def test_zero_matrix(self):
        assert optimality_margin(np.zeros((3, 3)), [2], 2) == 0.0

    def test_tied_second_best(self):
        # complements {0,1} and {0,2} both attain 1
        assert optimality_margin(EXAMPLE_3, [2], 2) == 0.0

    def test_unique_minimizer(self):
        assert optimality_margin(np.diag([0.0, 0.0, 1.0]), [2], 2) == 1.0

    def test_complement_size_mismatch(self):
        with pytest.raises(DataValidationError, match="complement"):
            optimality_margin(np.zeros((4, 4)), [0], 2)

    def test_structured_instances_have_positive_margin(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(4, 9))
            k = int(rng.integers(1, d - 1))
            w, changed = structured_instance(rng, d, k)
            assert optimality_margin(w, changed, k) > 0.0


def test_exact_recovers_consistent_instances():
    # a positive margin makes the changed set the unique exact minimizer
    # (greedy carries no such guarantee, only its approximation ratio)
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(4, 9))
        k = int(rng.integers(1, d - 1))
        w, changed = structured_instance(rng, d, k)
        assert sorted(exact_min(w, k).selected) == changed


_ENTRIES = {
    "uniform": st.floats(0.0, 1.0),
    "small-integer": st.integers(0, 3).map(float),
    "rounded": st.floats(0.0, 1.0).map(lambda v: round(v, 2)),
    "one-decimal": st.floats(0.0, 1.0).map(lambda v: round(v, 1)),
}

# one-decimal sums round differently in different orders: on the first matrix
# the least folded competitor is not the least summed one (the margin needs its
# slack), on the second a regrouped fold picks a different optimum
_ORDER_SENSITIVE = (
    [[0.0, 0.7, 1.0, 1.0, 0.6, 0.2], [0.7, 0.5, 0.2, 0.3, 0.0, 0.1], [1.0, 0.2, 0.2, 0.1, 0.7, 0.5],
     [1.0, 0.3, 0.1, 0.7, 0.8, 0.4], [0.6, 0.0, 0.7, 0.8, 0.6, 0.5], [0.2, 0.1, 0.5, 0.4, 0.5, 0.7]],
    [[0.2, 0.1, 0.0, 0.0, 0.4], [0.1, 0.7, 0.4, 0.5, 0.1], [0.0, 0.4, 0.8, 0.7, 0.6],
     [0.0, 0.5, 0.7, 0.6, 0.8], [0.4, 0.1, 0.6, 0.8, 0.9]],
)


@st.composite
def _weights_and_k(draw):
    d = draw(st.integers(1, 10))
    values = draw(st.lists(_ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))], min_size=d * d, max_size=d * d))
    upper = np.triu(np.reshape(values, (d, d)))
    return upper + np.triu(upper, 1).T, draw(st.integers(0, d))


def _ks_matrix(name):
    p, q, _ = GENERATORS[name](1000, 20170731)
    return build_ks_matrix(p, q, 10, 20170731).entries


def _check_against_oracles(w, k):
    d = w.shape[0]
    limit_d = max(25, d)
    selected, objective = exact_min_oracle(w, k)
    result = exact_min(w, k, limit_d=limit_d)
    assert result.selected == selected
    assert result.objective == objective
    if not 1 <= k <= d - 1:
        with pytest.raises(DataValidationError, match="no competing complement"):
            optimality_margin(w, result.selected, k, limit_d=limit_d)
        return
    if comb(d, k) > 50_000:  # the brute-force margin would take minutes
        assert optimality_margin(w, result.selected, k, limit_d=limit_d) > 0.0
        return
    # an optimal and, on small instances, a non-optimal selection
    for chosen in (result.selected, tuple(range(d - k)))[: 1 if comb(d, k) > 10_000 else 2]:
        margin = optimality_margin(w, chosen, k, limit_d=limit_d)
        assert repr(margin) == repr(margin_oracle(w, chosen, k))


@settings(max_examples=150, deadline=None)
@given(case=_weights_and_k(), block=st.sampled_from([1, 3, ksdiff.solvers._BLOCK]))
@example(case=(np.array(_ORDER_SENSITIVE[0]), 2), block=ksdiff.solvers._BLOCK)
@example(case=(np.array(_ORDER_SENSITIVE[1]), 3), block=ksdiff.solvers._BLOCK)
@example(case=(np.zeros((26, 26)), 3), block=ksdiff.solvers._BLOCK)
@example(case=(structured_instance(np.random.default_rng(12), 25, 12)[0], 12), block=ksdiff.solvers._BLOCK)
@example(case=(_ks_matrix("example1"), 14), block=ksdiff.solvers._BLOCK)
@example(case=(_ks_matrix("example2"), 14), block=ksdiff.solvers._BLOCK)
def test_enumerator_matches_oracles(case, block):
    # small blocks make D <= 10 instances walk the depth-first prefixes too
    w, k = case
    with mock.patch.object(ksdiff.solvers, "_BLOCK", block):
        _check_against_oracles(w, k)
