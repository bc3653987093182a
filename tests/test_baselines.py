import numpy as np
import pytest

from ksdiff import (
    DataValidationError,
    dataset_from_array,
    estimate_precision_cv,
    gen_example1,
    hara15_matrix,
    hara15_score,
    ide09_score,
    mt_score,
)
from ksdiff.baselines import KAPPA_GRID, _mt_scores_from, ide09_scores_from_precisions


class TestPrecisionCv:
    def test_recovers_identity_on_standard_normal(self):
        rng = np.random.default_rng(2718)
        ds = dataset_from_array(rng.normal(size=(10_000, 2)))
        prec, kappa = estimate_precision_cv(ds)
        assert np.linalg.norm(prec - np.eye(2)) < 0.1
        assert kappa in KAPPA_GRID

    def test_grid_is_eleven_log_spaced_points(self):
        assert len(KAPPA_GRID) == 11
        assert KAPPA_GRID[0] == pytest.approx(1e-4)
        assert KAPPA_GRID[-1] == pytest.approx(10.0)
        ratios = KAPPA_GRID[1:] / KAPPA_GRID[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_constant_column_still_positive_definite(self):
        rng = np.random.default_rng(5)
        ds = dataset_from_array(np.column_stack([np.ones(50), rng.normal(size=50)]))
        prec, _ = estimate_precision_cv(ds)
        assert np.all(np.linalg.eigvalsh(prec) > 0)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        ds = dataset_from_array(rng.normal(size=(60, 3)))
        first = estimate_precision_cv(ds)
        second = estimate_precision_cv(ds)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_too_few_rows(self):
        with pytest.raises(DataValidationError, match="3 rows"):
            estimate_precision_cv(dataset_from_array(np.zeros((2, 2))))

    def test_ridge_lost_to_rounding_rejected(self):
        # two equal columns at 1e150: cov + kappa*I is singular for every kappa on the grid
        x = np.random.default_rng(8).normal(size=(60, 3))
        x[:, 0] = x[:, 1] = x[:, 1] * 1e150
        with pytest.raises(DataValidationError, match=r"^precision estimation failed: .* ridge 0\.0001 is singular"):
            estimate_precision_cv(dataset_from_array(x))


class TestMtScore:
    def test_matched_moments_score_zero(self):
        # the objective is |{size} - trace(solve(C, C))| = 0 for every subset
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 4))
        c = a.T @ a + np.eye(4)
        assert np.allclose(_mt_scores_from(c.copy(), c), 0.0, atol=1e-8)

    def test_single_feature_closed_form(self):
        gamma = np.array([[3.0]])
        c = np.array([[2.0]])
        # one round: objective drops |1 - 3/2| -> 0, normalized by 1
        assert _mt_scores_from(gamma, c)[0] == pytest.approx(abs(1 - 3.0 / 2.0))

    def test_scores_may_be_negative(self):
        gamma = np.diag([5.0, 1.0])
        c = np.eye(2)
        scores = _mt_scores_from(gamma, c)
        assert scores.min() < 0 or scores.max() > 0  # raw, unclamped trace misfits

    def test_singular_submatrix_solved_with_a_small_ridge(self):
        c = np.ones((2, 2))
        # the pair block is singular, so its solve is retried with ridge 1e-10
        assert np.allclose(_mt_scores_from(c, c), _mt_scores_from(c, c + 1e-10 * np.eye(2)), rtol=0, atol=1e-6)

    def test_mean_shift_detected(self):
        hits = 0
        for rep in range(20):
            rng = np.random.default_rng(1000 + rep)
            p = rng.normal(size=(1000, 5))
            q = rng.normal(size=(1000, 5))
            q[:, 2] += 1.0
            scores = mt_score(dataset_from_array(p), dataset_from_array(q))
            hits += int(np.argmax(scores)) == 2
        assert hits >= 15


class TestIde09:
    def test_identical_precisions_score_zero(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 3))
        prec = a.T @ a + np.eye(3)
        inv = np.linalg.inv(prec)
        assert np.array_equal(ide09_scores_from_precisions(prec, inv, prec, inv), np.zeros(3))

    def test_two_feature_partition_matches_scalar_formula(self):
        prec_p = np.array([[2.0, -0.5], [-0.5, 1.5]])
        prec_q = np.array([[1.2, 0.3], [0.3, 2.5]])
        inv_p = np.linalg.inv(prec_p)
        inv_q = np.linalg.inv(prec_q)

        def direction(lam_a, ia, lam_b, d):
            o = [i for i in range(2) if i != d] + [d]
            pa, iaa, pb = lam_a[np.ix_(o, o)], ia[np.ix_(o, o)], lam_b[np.ix_(o, o)]
            l_a, la = pa[0, 1], pa[1, 1]
            w_a, sg, big_w = iaa[0, 1], iaa[1, 1], iaa[0, 0]
            l_b, lb = pb[0, 1], pb[1, 1]
            return (
                w_a * (l_b - l_a)
                + 0.5 * ((l_b * big_w * l_b) / lb - (l_a * big_w * l_a) / la)
                + 0.5 * (np.log(la / lb) + sg * (la - lb))
            )

        expected = [
            max(direction(prec_p, inv_p, prec_q, d), direction(prec_q, inv_q, prec_p, d))
            for d in range(2)
        ]
        got = ide09_scores_from_precisions(prec_p, inv_p, prec_q, inv_q)
        assert np.allclose(got, expected, atol=1e-12)

    def test_permutation_equivariance_of_formula(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 5))
        b = rng.normal(size=(8, 5))
        prec_p = a.T @ a + np.eye(5)
        prec_q = b.T @ b + np.eye(5)
        inv_p, inv_q = np.linalg.inv(prec_p), np.linalg.inv(prec_q)
        scores = ide09_scores_from_precisions(prec_p, inv_p, prec_q, inv_q)
        perm = rng.permutation(5)
        ix = np.ix_(perm, perm)
        permuted = ide09_scores_from_precisions(prec_p[ix], inv_p[ix], prec_q[ix], inv_q[ix])
        assert np.allclose(permuted, scores[perm], atol=1e-10)

    def test_symmetric_in_datasets(self):
        rng = np.random.default_rng(10)
        p = dataset_from_array(rng.normal(size=(200, 3)))
        q = dataset_from_array(rng.normal(size=(180, 3)) * 1.5)
        assert np.array_equal(ide09_score(p, q), ide09_score(q, p))

    def test_needs_two_features(self):
        ds = dataset_from_array(np.arange(12.0).reshape(-1, 1))
        with pytest.raises(DataValidationError, match="2 features"):
            ide09_score(ds, ds)


class TestHara15:
    def test_same_dataset_scores_zero(self):
        rng = np.random.default_rng(11)
        ds = dataset_from_array(rng.normal(size=(100, 4)))
        assert np.array_equal(hara15_score(ds, ds), np.zeros(4))

    def test_matrix_is_absolute_symmetric_difference(self):
        rng = np.random.default_rng(12)
        p = dataset_from_array(rng.normal(size=(300, 3)))
        q = dataset_from_array(rng.normal(size=(300, 3)) * 2.0)
        m = hara15_matrix(p, q)
        assert np.array_equal(m, m.T)
        assert np.all(m >= 0)

    def test_precision_mode(self):
        rng = np.random.default_rng(13)
        p = dataset_from_array(rng.normal(size=(200, 3)))
        q = dataset_from_array(rng.normal(size=(200, 3)))
        m = hara15_matrix(p, q, mode="precision")
        assert np.array_equal(m, m.T)
        with pytest.raises(DataValidationError, match="mode"):
            hara15_matrix(p, q, mode="nope")

    def test_covariance_change_ranked_first_on_large_samples(self):
        hits = 0
        for rep in range(20):
            p, q, truth = gen_example1(10_000, 4242 + rep)
            scores = hara15_score(p, q)
            hits += int(np.argmax(scores)) in truth.changed
        assert hits >= 18
