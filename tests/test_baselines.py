import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksdiff import (
    DataValidationError,
    KsdiffError,
    dataset_from_array,
    estimate_precision_cv,
    gen_example1,
    gen_example2,
    hara15_matrix,
    hara15_score,
    ide09_score,
    mt_score,
)
from ksdiff.baselines import KAPPA_GRID, _mean_cov, _mt_scores_from, _sym, ide09_scores_from_precisions


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

    def test_covariance_change_ranked_first_on_large_samples(self):
        hits = 0
        for rep in range(20):
            p, q, truth = gen_example1(10_000, 4242 + rep)
            scores = hara15_score(p, q)
            hits += int(np.argmax(scores)) in truth.changed
        assert hits >= 18


# Reference copies of the per-kappa CV loop and the per-candidate MT loop, each
# solving one matrix per call. The stacked code must equal them byte for byte.


def _reference_precision_cv(x):
    n, d = x.shape
    folds = np.array_split(np.arange(n), 3)
    best_ll, best_kappa = -np.inf, float(KAPPA_GRID[0])
    for kappa in KAPPA_GRID:
        ll = 0.0
        for f in range(3):
            train = x[np.concatenate([folds[g] for g in range(3) if g != f])]
            mean, cov = _mean_cov(train)
            try:
                prec = np.linalg.inv(cov + float(kappa) * np.eye(d))
            except np.linalg.LinAlgError:
                ll += -np.inf
                continue
            sign, logdet = np.linalg.slogdet(prec)
            if sign <= 0:
                ll += -np.inf
                continue
            centered = x[folds[f]] - mean
            quad = np.einsum("ij,jk,ik->i", centered, prec, centered)
            ll += float(np.mean(0.5 * (logdet - d * np.log(2.0 * np.pi) - quad)))
        ll /= 3.0
        if ll > best_ll:
            best_ll, best_kappa = ll, float(kappa)
    _, cov = _mean_cov(x)
    try:
        return _sym(np.linalg.inv(cov + best_kappa * np.eye(d))), best_kappa
    except np.linalg.LinAlgError:
        return None, best_kappa


def _reference_solve(c_sub, g_sub, subset):
    try:
        return np.linalg.solve(c_sub, g_sub)
    except np.linalg.LinAlgError:
        ridge = 1e-10 * max(float(np.trace(c_sub)) / c_sub.shape[0], 1.0)
        try:
            return np.linalg.solve(c_sub + ridge * np.eye(c_sub.shape[0]), g_sub)
        except np.linalg.LinAlgError:
            raise KsdiffError(f"singular submatrix for features {sorted(subset)}") from None


def _reference_mt_trace(gamma, c):
    def objective(complement):
        if not complement:
            return 0.0
        idx = np.asarray(complement, dtype=np.intp)
        solved = _reference_solve(c[np.ix_(idx, idx)], gamma[np.ix_(idx, idx)], complement)
        return abs(float(len(complement)) - float(np.trace(solved)))

    d = gamma.shape[0]
    complement = list(range(d))
    scores = np.zeros(d, dtype=np.float64)
    current = float(objective(complement))
    for i in range(1, d + 1):
        values = [float(objective([c for c in complement if c != cand])) for cand in complement]
        pos = int(np.argmin(values))
        chosen = complement[pos]
        scores[chosen] = (current - values[pos]) / (d - i + 1)
        current = values[pos]
        complement.pop(pos)
    return scores


@np.errstate(over="ignore", invalid="ignore")
def _reference_mt_score(p, q):
    mean_p, cov_p = _mean_cov(p)
    _, kappa_p = _reference_precision_cv(p)
    centered_q = q - mean_p
    gamma = _sym(centered_q.T @ centered_q / q.shape[0])
    return _reference_mt_trace(gamma, cov_p + kappa_p * np.eye(p.shape[1]))


def _outcome(fn, *args):
    """A call's result as bytes (arrays) or values, or its error as (type, message)."""
    try:
        result = fn(*args)
    except KsdiffError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):
        return tuple(r.tobytes() if isinstance(r, np.ndarray) else r for r in result)
    return result.tobytes()


@st.composite
def _sample_pairs(draw):
    """Two samples over 2-8 features with 3-60 rows each, some with constant or duplicated columns."""
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a duplicated column at 1e8 loses the smaller ridges to rounding, at 1e13 every ridge
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e8, 1e13]))
    integer = draw(st.booleans())
    samples = []
    for _ in range(2):
        x = rng.normal(size=(draw(st.integers(3, 60)), d)) * scale
        x = np.round(x) if integer else x
        if draw(st.booleans()):
            x[:, draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.0, 1.0, -2.5e3]))
        if draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
            x[:, j] = x[:, i]
        samples.append(x)
    return samples


class TestStackedLinearAlgebraMatchesPerItemLoops:
    @settings(max_examples=150, deadline=None)
    @given(_sample_pairs())
    def test_precision_cv_and_mt_scores_byte_identical(self, pair):
        p, q = pair
        ref_prec, ref_kappa = _reference_precision_cv(p)
        if ref_prec is None:
            got = _outcome(estimate_precision_cv, dataset_from_array(p))
            assert got[0] == "DataValidationError" and "is singular" in got[1]
        else:
            assert _outcome(estimate_precision_cv, dataset_from_array(p)) == (ref_prec.tobytes(), ref_kappa)
            assert _outcome(mt_score, dataset_from_array(p), dataset_from_array(q)) == _outcome(_reference_mt_score, p, q)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_twenty_features_byte_identical(self, seed):
        # 20 features: the greedy rounds' traces sum more than 8 diagonal entries
        p, q, _ = gen_example2(100, seed)
        assert _outcome(estimate_precision_cv, p) == _outcome(_reference_precision_cv, p.values)
        assert _outcome(mt_score, p, q) == _outcome(_reference_mt_score, p.values, q.values)

    def test_cv_fold_with_some_ridges_singular_falls_back_per_item(self):
        # a duplicated column with variance near 1e16: the smaller ridges vanish in rounding, the larger do not
        x = np.random.default_rng(11).normal(size=(60, 3)) * 1e8
        x[:, 2] = x[:, 0]
        _, cov = _mean_cov(x[20:])
        singular = []
        for kappa in KAPPA_GRID:
            try:
                np.linalg.inv(cov + kappa * np.eye(3))
                singular.append(False)
            except np.linalg.LinAlgError:
                singular.append(True)
        assert any(singular) and not all(singular)
        assert _outcome(estimate_precision_cv, dataset_from_array(x)) == _outcome(_reference_precision_cv, x)

    @pytest.mark.parametrize(
        "c",
        [np.ones((2, 2)), np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])],
        ids=["whole-block", "one-candidate-per-round"],
    )
    def test_singular_block_retried_with_ridge_as_per_block_loop(self, c):
        gamma = c + np.diag(np.arange(1.0, c.shape[0] + 1))
        assert _outcome(_mt_scores_from, gamma, c) == _outcome(_reference_mt_trace, gamma, c)

    def test_block_singular_after_ridge_raises_the_same_message(self):
        # the ridge 1e-10 exactly cancels the first diagonal entry, so the retried block is singular too
        c = np.diag([-1e-10, 0.0])
        expected = ("KsdiffError", "singular submatrix for features [0, 1]")
        assert _outcome(_reference_mt_trace, c, c) == expected
        assert _outcome(_mt_scores_from, c, c) == expected
