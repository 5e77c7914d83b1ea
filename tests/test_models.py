"""Datasets, forward ordering, and batch fitting of column-prefix candidates."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lama import models
from lama.models import Dataset, ModelFits, default_model_counts, fit_all, load_csv, order_by_cp
from lama.risk_theory import InputError

from conftest import make_fits
from oracles import forward_order


class TestDataset:
    def test_basic_validation(self):
        with pytest.raises(ValueError):
            Dataset(Y=np.ones(1), X=np.ones((1, 1)))  # n < 2
        with pytest.raises(ValueError):
            Dataset(Y=np.ones(3), X=np.ones((2, 1)))  # length mismatch
        with pytest.raises(ValueError):
            Dataset(Y=np.array([1.0, np.nan]), X=np.ones((2, 1)))
        with pytest.raises(ValueError):
            Dataset(Y=np.ones(2), X=np.array([[2.0], [2.0]]), has_intercept=True)
        with pytest.raises(ValueError):
            Dataset(Y=np.array([np.inf, 0.0]), X=np.ones((2, 2)))
        with pytest.raises(ValueError):
            Dataset(Y=np.ones(3), X=np.ones(3))  # 1-d design

    def test_shape_properties(self, rng):
        d = Dataset(Y=rng.standard_normal(7), X=rng.standard_normal((7, 3)))
        assert (d.n, d.p) == (7, 3)


class TestCandidateSizes:
    """fit_all's checks on the prefix sizes it is given."""

    def test_strictly_increasing_sizes_required(self, rng):
        data = Dataset(Y=rng.standard_normal(10), X=rng.standard_normal((10, 4)))
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_all(data, (2, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_all(data, (3, 1))

    def test_sizes_bounded_by_regressor_count(self, rng):
        data = Dataset(Y=rng.standard_normal(10), X=rng.standard_normal((10, 3)))
        with pytest.raises(ValueError, match="exceeds 3 regressors"):
            fit_all(data, (1, 5))

    def test_sizes_nonempty_and_positive(self, rng):
        data = Dataset(Y=rng.standard_normal(10), X=rng.standard_normal((10, 3)))
        with pytest.raises(ValueError, match="at least one"):
            fit_all(data, ())
        with pytest.raises(ValueError, match="at least 1"):
            fit_all(data, (0, 2))

    def test_bool_and_non_integral_sizes_rejected(self, rng):
        # Each would otherwise be truncated: [1.5, 2.9] to sizes [1, 2], [True, 3] to [1, 3].
        data = Dataset(Y=rng.standard_normal(10), X=rng.standard_normal((10, 5)))
        for sizes in ([1.5, 2.9, 4.2], [True, 3], np.array([False, True]), [1, np.inf]):
            with pytest.raises(ValueError, match="integers") as err:
                fit_all(data, sizes)
            assert err.value.field == "sizes"
        assert list(fit_all(data, [1.0, np.int32(3)]).sizes) == [1, 3]

    def test_valid_sizes(self, rng):
        data = Dataset(Y=rng.standard_normal(10), X=rng.standard_normal((10, 3)))
        sizes = [1, 3]
        fits = fit_all(data, sizes)
        assert fits.M == 2
        assert fits.sizes.dtype == np.int64 and list(fits.sizes) == [1, 3]
        sizes[0] = 2  # the fit keeps its own copy
        assert list(fits.sizes) == [1, 3]


class TestOrderByCp:
    def test_exact_predictor_selected_first(self, rng):
        # Response equals column 3 exactly; exhaustive single-term scores
        # provide the oracle for which column must lead the ordering.
        X = rng.standard_normal((30, 4))
        Y = X[:, 3].copy()
        data = Dataset(Y=Y, X=X)
        rss = [float(np.linalg.lstsq(X[:, [j]], Y, rcond=None)[1][0]) for j in range(4)]
        assert int(np.argmin(rss)) == 3
        assert order_by_cp(data)[0] == 3

    def test_single_regressor(self, rng):
        data = Dataset(Y=rng.standard_normal(10), X=rng.standard_normal((10, 1)))
        assert list(order_by_cp(data)) == [0]

    def test_duplicate_columns_tie_breaks_low_index(self, rng):
        x = rng.standard_normal(20)
        X = np.column_stack([x, x, rng.standard_normal(20)])
        data = Dataset(Y=x + 0.01 * rng.standard_normal(20), X=X)
        # The duplicate at index 1 loses the tie, then lies in the span: it is
        # never selected and follows in its original order.
        assert list(order_by_cp(data)) == [0, 2, 1]

    def test_intercept_seeded_first(self, rng):
        X = np.column_stack([np.ones(25), rng.standard_normal((25, 3))])
        data = Dataset(Y=rng.standard_normal(25), X=X, has_intercept=True)
        assert order_by_cp(data)[0] == 0

    def test_deterministic(self, rng):
        X = rng.standard_normal((40, 6))
        data = Dataset(Y=rng.standard_normal(40), X=X)
        assert np.array_equal(order_by_cp(data), order_by_cp(data))

    def test_unselected_columns_follow_in_original_order(self, rng):
        # n = 6 selects min(n - 2, p) = 4 of the 8 columns; the other four
        # keep their original order after them.
        data = Dataset(Y=rng.standard_normal(6), X=rng.standard_normal((6, 8)))
        ordering = order_by_cp(data)
        assert sorted(ordering) == list(range(8))
        assert list(ordering[4:]) == sorted(ordering[4:])

    def test_needs_three_observations(self, rng):
        with pytest.raises(ValueError, match="at least 3 observations"):
            order_by_cp(Dataset(Y=rng.standard_normal(2), X=rng.standard_normal((2, 3))))
        # Three rows are enough: one term is selected.
        data = Dataset(Y=rng.standard_normal(3), X=rng.standard_normal((3, 3)))
        assert sorted(order_by_cp(data)) == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_least_squares_oracle(self, seed):
        # Scales over four decades, an exact duplicate column in three designs of
        # ten (its bits must tie with its twin's wherever it sits) and an
        # intercept in half of them.
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(3, 41)), int(rng.integers(1, 61))
        X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2.0, 2.0, p)
        has_intercept = bool(rng.random() < 0.5)
        if has_intercept:
            X[:, 0] = 1.0
        if p > 1 and rng.random() < 0.3:
            a, b = sorted(rng.choice(p, size=2, replace=False))
            X[:, b] = X[:, a]
        signal = min(3, p)
        Y = X[:, :signal] @ rng.standard_normal(signal) + rng.standard_normal(n)
        expected = forward_order(X, Y, has_intercept)
        assert list(order_by_cp(Dataset(Y=Y, X=X, has_intercept=has_intercept))) == expected

    @pytest.mark.parametrize("seed", range(100))
    def test_collinear_columns_tie_and_ignore_the_scale_of_y(self, seed):
        # An intercept, every dummy of a 3-level factor, three Gaussian columns and two exact
        # combinations of them, in a shuffled order: pairs of columns tie in exact arithmetic
        # (two dummies once the third is in, a combination and the column it replaces), and
        # the tie rule, not roundoff, picks between them, at Y and at 3 Y alike.
        rng = np.random.default_rng(seed)
        n = 30
        level = rng.permutation(np.arange(n) % 3)
        gauss = rng.standard_normal((n, 3))
        cols = [np.eye(3)[level].T[l] for l in range(3)] + list(gauss.T)
        cols += [gauss[:, 0] + gauss[:, 1], 2.0 * gauss[:, 2] - gauss[:, 1]]
        X = np.column_stack([np.ones(n)] + [cols[i] for i in rng.permutation(len(cols))])
        Y = X @ rng.standard_normal(X.shape[1]) + rng.standard_normal(n)
        order = list(order_by_cp(Dataset(Y=Y, X=X, has_intercept=True)))
        assert order == forward_order(X, Y, True)
        assert list(order_by_cp(Dataset(Y=3.0 * Y, X=X, has_intercept=True))) == order


def _projector(X):
    return X @ np.linalg.pinv(X)


def _check_routes_agree(rng, sizes):
    """fit_all on a tall well-conditioned design against per-candidate solves."""
    X = rng.standard_normal((30, 8))
    Y = rng.standard_normal(30)
    fits = fit_all(Dataset(Y=Y, X=X), sizes)
    assert fits.coefs.shape == (sizes[-1], len(sizes))
    for q, k in enumerate(sizes):
        beta = np.linalg.lstsq(X[:, :k], Y, rcond=None)[0]
        assert np.allclose(fits.coefs[:k, q], beta, atol=1e-9)
        assert np.all(fits.coefs[k:, q] == 0.0)
        assert np.allclose(fits.residuals[:, q], Y - X[:, :k] @ beta, atol=1e-9)
        P = _projector(X[:, :k])
        assert np.allclose(fits.leverages[:, q], np.diag(P), atol=1e-9)


class TestFitAll:
    def test_single_full_model_matches_ols(self, rng):
        X = rng.standard_normal((20, 4))
        Y = rng.standard_normal(20)
        fits = fit_all(Dataset(Y=Y, X=X), (4,))
        resid_ols = Y - X @ np.linalg.solve(X.T @ X, X.T @ Y)
        assert np.allclose(fits.residuals[:, 0], resid_ols, atol=1e-9)
        assert fits.rss[0] == pytest.approx(float(resid_ols @ resid_ols))

    def test_pairwise_traces_are_min_sizes(self):
        # Nested spans give P_q P_l = P_min(q,l), so tr(P_q P_l) = min(r_q, r_l);
        # the projectors are formed explicitly as the independent route.
        fits, data, _ = make_fits(11, n=25, sizes=(2, 4, 9))
        P = [_projector(data.X[:, :k]) for k in fits.sizes]
        traces = np.array([[np.trace(Pq @ Pl) for Pl in P] for Pq in P])
        assert np.allclose(traces, np.minimum.outer([2, 4, 9], [2, 4, 9]), atol=1e-8)
        # Hence tr(P(w)^2) = w' min(r_q, r_l) w for P(w) = sum_q w_q P_q.
        w = np.array([0.2, 0.3, 0.5])
        Pw = sum(wq * Pq for wq, Pq in zip(w, P))
        assert np.trace(Pw @ Pw) == pytest.approx(w @ np.minimum.outer(fits.ranks, fits.ranks) @ w)

    def test_interpolating_candidate_zero_residual(self, rng):
        # A rank-n candidate interpolates, on the QR route (k = n), the Gram
        # route (k > n) and the SVD route alike: its residuals are exactly 0
        # and its leverages exactly 1, not roundoff away from them.
        X = rng.standard_normal((6, 9))
        Y = rng.standard_normal(6)
        for ratio in (models._PIVOT_RATIO, 1.0):
            fits = _forced(Dataset(Y=Y, X=X), (3, 6, 9), ratio)
            assert list(fits.ranks) == [3, 6, 6]
            assert np.all(fits.residuals[:, 1:] == 0.0) and np.all(fits.rss[1:] == 0.0)
            assert np.all(fits.leverages[:, 1:] == 1.0)
            assert fits.rss[0] > 0.0

    def test_fast_and_careful_routes_agree(self, rng):
        # Well-conditioned tall design takes the shared-factorization
        # shortcut; per-candidate direct solves provide the independent route.
        _check_routes_agree(rng, (2, 5, 8))

    def test_prefix_mask_with_sizes_skipping_one(self, rng):
        # Sizes (3, 4, 7) skip 1 and stop short of the 8 columns, so the
        # prefix mask and the k_M rows of coefs are both exercised.
        _check_routes_agree(rng, (3, 4, 7))

    def test_wide_candidates_use_min_norm(self, rng):
        # More columns than rows: ranks cap at n and residuals vanish.
        X = rng.standard_normal((10, 15))
        Y = rng.standard_normal(10)
        fits = fit_all(Dataset(Y=Y, X=X), (4, 12))
        assert list(fits.ranks) == [4, 10]
        assert np.allclose(fits.residuals[:, 1], 0.0, atol=1e-7)
        assert np.allclose(fits.coefs[:12, 1], np.linalg.lstsq(X[:, :12], Y, rcond=None)[0], atol=1e-8)

    def test_collinear_column_reduces_rank_and_trace(self, rng):
        X = rng.standard_normal((12, 3))
        X[:, 2] = X[:, 0] - X[:, 1]
        fits = fit_all(Dataset(Y=rng.standard_normal(12), X=X), (2, 3))
        assert list(fits.ranks) == [2, 2]
        assert np.trace(_projector(X[:, :2]) @ _projector(X)) == pytest.approx(2.0)
        # A dependent column leaves the span unchanged: both projectors coincide.
        X = X[:, :2].copy()
        X[:, 1] = 2.0 * X[:, 0]
        fits = fit_all(Dataset(Y=rng.standard_normal(12), X=X), (1, 2))
        assert list(fits.ranks) == [1, 1]
        assert np.trace(_projector(X[:, :1]) @ _projector(X)) == pytest.approx(1.0)

    def test_predict_reproduces_training_fit(self, rng):
        fits, data, _ = make_fits(12, n=18, sizes=(1, 4, 7))
        pred = fits.predict(data.X)
        assert np.allclose(pred, data.Y[:, None] - fits.residuals, atol=1e-9)
        with pytest.raises(ValueError):
            fits.predict(data.X[:, :3])  # too few columns

    def test_subset_restricts_consistently(self):
        fits, _, _ = make_fits(13, n=20, sizes=(2, 5, 8))
        sub = fits.subset(np.array([False, True, True]))
        assert list(sub.sizes) == [5, 8]
        assert np.allclose(sub.residuals, fits.residuals[:, 1:])
        assert np.array_equal(sub.coefs, fits.coefs[:, 1:])
        assert np.array_equal(sub.ranks, fits.ranks[1:])
        with pytest.raises(ValueError):
            fits.subset(np.zeros(3, dtype=bool))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_residual_norms_never_increase_with_size(self, seed):
        fits, _, _ = make_fits(seed, n=16, sizes=(1, 2, 5, 9, 13))
        assert np.all(np.diff(fits.rss) <= 1e-9)


def _forced(data, sizes, ratio):
    """fit_all under the pivot ratio ``ratio``.

    0.0 takes every fast route whose factorization exists, 1.0 none of them.
    """
    with mock.patch.object(models, "_PIVOT_RATIO", ratio):
        return fit_all(data, sizes)


def _assert_near_svd_route(fast, svd, data, q):
    """Candidate q of ``fast`` against the SVD route, to the accuracy its condition number kappa allows.

    For k <= n (QR route): residuals and leverages within 10 eps kappa, and
    coefficients within 100 times the least-squares perturbation bound
    eps (kappa + kappa^2 |r| / (s_max |beta|)).  For k > n (Gram route, which
    squares the condition number): both interpolate, so residuals and
    leverages are equal, and coefficients lie within 100 eps kappa^2 |beta|.
    """
    k = int(svd.sizes[q])
    s = np.linalg.svd(data.X[:, :k], compute_uv=False)
    kappa = s[0] / s[-1]
    eps = np.finfo(np.float64).eps
    beta = svd.coefs[:k, q]
    if k > data.n:
        np.testing.assert_array_equal(fast.residuals[:, q], svd.residuals[:, q])
        np.testing.assert_array_equal(fast.leverages[:, q], svd.leverages[:, q])
        bound = eps * kappa**2
    else:
        assert np.max(np.abs(fast.residuals[:, q] - svd.residuals[:, q])) <= 10 * eps * kappa * np.linalg.norm(data.Y)
        assert np.max(np.abs(fast.leverages[:, q] - svd.leverages[:, q])) <= 10 * eps * kappa
        bound = eps * (kappa + kappa**2 * np.linalg.norm(svd.residuals[:, q]) / (s[0] * np.linalg.norm(beta)))
    assert np.linalg.norm(fast.coefs[:k, q] - beta) <= 100 * bound * np.linalg.norm(beta)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), log_ratio=st.floats(min_value=-1.0, max_value=1.0))
def test_qr_fast_path_matches_the_svd_route_near_its_threshold(seed, log_ratio):
    # X = U R0 with one diagonal entry of R0 at 10^log_ratio * _PIVOT_RATIO
    # of the largest, so fit_all's route choice sits on either side of the
    # threshold.  Both routes are forced and compared, each candidate to the
    # accuracy its condition number allows.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    k = int(rng.integers(2, n + 1))
    U, _ = np.linalg.qr(rng.standard_normal((n, k)))
    R0 = np.triu(rng.standard_normal((k, k))) / np.sqrt(k)
    diag = rng.uniform(1.0, 2.0, k)
    diag[rng.integers(0, k)] = 10.0**log_ratio * models._PIVOT_RATIO * diag.max()
    R0[np.diag_indices(k)] = diag * rng.choice([-1.0, 1.0], k)
    X = U @ R0
    data = Dataset(Y=X @ rng.standard_normal(k) + rng.standard_normal(n), X=X)
    sizes = np.unique(np.concatenate([[k], rng.integers(1, k + 1, 3)]))
    qr, svd = _forced(data, sizes, 0.0), _forced(data, sizes, 1.0)
    np.testing.assert_array_equal(svd.ranks, sizes)
    for q in range(sizes.size):
        _assert_near_svd_route(qr, svd, data, q)


@pytest.mark.parametrize("seed", range(5))
def test_each_prefix_below_the_boundary_takes_its_own_route(seed):
    # Column j is an earlier column doubled, exactly, so R's pivot test fails from prefix
    # j + 1 on and passes before it: the SVD runs once for each candidate with k > j and
    # never for the narrower ones, and every candidate matches the forced SVD fit to the
    # accuracy its condition number allows.
    rng = np.random.default_rng(seed)
    n, p = 30, 10
    j = int(rng.integers(1, p))
    X = rng.standard_normal((n, p))
    X[:, j] = 2.0 * X[:, rng.integers(0, j)]
    data = Dataset(Y=rng.standard_normal(n), X=X)
    sizes = np.arange(1, p + 1)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd_calls:
        fits = fit_all(data, sizes)
    assert svd_calls.call_count == p - j
    np.testing.assert_array_equal(fits.ranks, sizes - (sizes > j))
    svd = _forced(data, sizes, 1.0)
    for q in range(p):
        _assert_near_svd_route(fits, svd, data, q)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), log_ratio=st.floats(min_value=-1.0, max_value=1.0))
def test_gram_route_matches_the_svd_route_near_its_threshold(seed, log_ratio):
    # X' = V R0 with V orthonormal (k_M x n), so the Gram of the widest
    # candidate is R0' R0 and its Cholesky pivots are diag(R0)^2; one of them
    # is 10^log_ratio * _PIVOT_RATIO of the largest, on either side of the
    # threshold.  With both routes forced, every candidate, on either side
    # of the boundary, matches the SVD route to the accuracy its condition
    # number allows.  At the default threshold the widest candidate takes
    # the Gram route above it and the SVD route below it (bit for bit the
    # forced fits), away from roundoff's reach of the threshold itself.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    kM = int(rng.integers(n + 1, 2 * n + 3))
    V, _ = np.linalg.qr(rng.standard_normal((kM, n)))
    R0 = np.triu(rng.standard_normal((n, n))) / np.sqrt(n)
    diag = rng.uniform(1.0, 2.0, n)
    j = rng.integers(0, n)
    diag[j] = np.sqrt(10.0**log_ratio * models._PIVOT_RATIO) * np.delete(diag, j).max()
    R0[np.diag_indices(n)] = diag
    X = (V @ R0).T
    data = Dataset(Y=rng.standard_normal(n), X=X)
    sizes = np.unique(np.concatenate([[kM], rng.integers(1, kM + 1, 4)]))
    gram, svd = _forced(data, sizes, 0.0), _forced(data, sizes, 1.0)
    np.testing.assert_array_equal(svd.ranks, np.minimum(sizes, n))
    for q in range(sizes.size):
        _assert_near_svd_route(gram, svd, data, q)
    if abs(log_ratio) > 0.1:
        chosen = fit_all(data, sizes).coefs[:, -1]
        route = gram if log_ratio > 0 else svd
        assert chosen.tobytes() == route.coefs[:, -1].tobytes()


def test_past_boundary_rank_below_n_takes_the_svd_route(rng):
    # Two equal rows cap the rank at n - 1, so every Gram past the boundary
    # is singular: each candidate takes the SVD route (bit for bit the forced
    # SVD fit) and reports rank n - 1.  The equal rows share one fitted
    # value, their mean response; every other row is fitted exactly.
    n = 8
    X = rng.standard_normal((n, 14))
    X[7] = X[3]
    Y = rng.standard_normal(n)
    data = Dataset(Y=Y, X=X)
    sizes = (9, 11, 14)
    fits, svd = fit_all(data, sizes), _forced(data, sizes, 1.0)
    assert list(fits.ranks) == [n - 1] * 3
    for field in ("coefs", "residuals", "leverages", "rss"):
        assert getattr(fits, field).tobytes() == getattr(svd, field).tobytes(), field
    half = (Y[3] - Y[7]) / 2.0
    expected = np.zeros(n)
    expected[3], expected[7] = half, -half
    for q in range(3):
        np.testing.assert_allclose(fits.residuals[:, q], expected, atol=1e-10)
        np.testing.assert_allclose(fits.leverages[[3, 7], q], 0.5, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), block=st.integers(min_value=1, max_value=4))
def test_gram_blocks_match_the_svd_route(seed, block):
    # With a block at most ``block`` columns wide, sizes with gaps past the
    # boundary fall into several blocks, each factoring only its widest Gram.
    # Columns of unequal scale spread the conditioning; every candidate, with
    # every fast route forced, matches the SVD route to the accuracy its
    # condition number allows, and at the default threshold the route chosen
    # for each one is, bit for bit, one of the two forced fits.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    kM = int(rng.integers(n + 2, 2 * n + 12))
    X = rng.standard_normal((n, kM)) * 10.0 ** rng.uniform(-1.0, 1.0, kM)
    data = Dataset(Y=rng.standard_normal(n), X=X)
    sizes = np.unique(np.concatenate([[kM], rng.integers(1, kM + 1, int(rng.integers(2, 12)))]))
    with mock.patch.object(models, "_BLOCK_COLUMNS", block):
        gram, svd, chosen = _forced(data, sizes, 0.0), _forced(data, sizes, 1.0), fit_all(data, sizes)
    np.testing.assert_array_equal(svd.ranks, np.minimum(sizes, n))
    for q in range(sizes.size):
        _assert_near_svd_route(gram, svd, data, q)
        assert chosen.coefs[:, q].tobytes() in (gram.coefs[:, q].tobytes(), svd.coefs[:, q].tobytes())


@pytest.mark.parametrize("seed", range(5))
def test_singular_narrowest_gram_leaves_the_widest_on_the_gram_route(seed):
    # The first n + 1 columns repeat two of their own, so they span n - 1
    # dimensions: the narrowest Gram of the block past the boundary is
    # singular and with it S.  Depending on roundoff, S's Cholesky fails or
    # leaves a pivot near eps; either way the narrower candidate takes the SVD
    # route (bit for bit the forced SVD fit, rank n - 1).  The two wider
    # columns restore rank n, so the widest Gram passes its own pivot test and
    # the widest candidate takes the Gram route (bit for bit the forced one).
    rng = np.random.default_rng(seed)
    n = 7
    X = rng.standard_normal((n, n + 3))
    X[:, 1] = X[:, 0]
    X[:, n] = X[:, 2]
    data = Dataset(Y=rng.standard_normal(n), X=X)
    sizes = (2, n + 1, n + 3)
    fits, gram, svd = fit_all(data, sizes), _forced(data, sizes, 0.0), _forced(data, sizes, 1.0)
    assert list(fits.ranks) == [1, n - 1, n]
    for field in ("coefs", "residuals", "leverages"):
        assert getattr(fits, field)[:, 1].tobytes() == getattr(svd, field)[:, 1].tobytes(), field
    assert fits.coefs[:, 2].tobytes() == gram.coefs[:, 2].tobytes()
    _assert_near_svd_route(fits, svd, data, 2)


def test_far_apart_sizes_past_the_boundary_fit_in_little_memory():
    # Sizes 10,000 columns apart never share a block: one S over the columns
    # between 22 and 10,001 would hold about 10^8 numbers (800 MB).  The fit
    # peaks far below that, near the size of its own copy of the design.
    rng = np.random.default_rng(5)
    n, sizes = 20, (21, 22, 10000, 10001)
    data = Dataset(Y=rng.standard_normal(n), X=rng.standard_normal((n, sizes[-1])))
    tracemalloc.start()
    try:
        fits = fit_all(data, sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert list(fits.ranks) == [n] * 4
    assert np.all(fits.residuals == 0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), wide=st.booleans())
def test_columns_past_the_largest_candidate_are_never_read(seed, wide):
    # Candidates are column prefixes: changing, appending or dropping columns
    # past k_M leaves every fitted array and every prediction bit for bit
    # unchanged, on the QR fast path (k_M <= n) and the SVD route (k_M > n).
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    kM = int(rng.integers(n + 1, 2 * n + 1)) if wide else int(rng.integers(1, n + 1))
    p = kM + int(rng.integers(1, 6))
    X = rng.standard_normal((n, p))
    Y = rng.standard_normal(n)
    sizes = np.unique(np.concatenate([[kM], rng.integers(1, kM + 1, 3)]))

    def past(A, rows):
        changed = A.copy()
        changed[:, kM:] = rng.standard_normal((rows, p - kM))
        appended = np.column_stack([A, rng.standard_normal((rows, 3))])
        return [changed, appended, A[:, :kM].copy(), np.asfortranarray(A)]

    base = fit_all(Dataset(Y=Y, X=X), sizes)
    X_new = rng.standard_normal((7, p))
    expected = base.predict(X_new)
    for variant in past(X, n):
        fits = fit_all(Dataset(Y=Y, X=variant), sizes)
        assert fits.n == base.n
        for field in ("sizes", "coefs", "residuals", "leverages", "rss", "ranks"):
            a, b = getattr(fits, field), getattr(base, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
        for X_other in past(X_new, 7):
            assert fits.predict(X_other).tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), wide=st.booleans())
def test_stacked_predict_is_each_fits_predict(seed, wide):
    # Fits of one n and sizes stacked on leading axes predict one matrix of rows per fit, bit for bit as
    # each fit's own predict, whatever the layout of the rows and the columns past k_M.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    kM = int(rng.integers(n + 1, 2 * n + 1)) if wide else int(rng.integers(1, n + 1))
    p, rows, S = kM + int(rng.integers(0, 4)), int(rng.integers(1, 9)), int(rng.integers(1, 7))
    sizes = np.unique(np.concatenate([[kM], rng.integers(1, kM + 1, 3)]))
    fits = [fit_all(Dataset(Y=rng.standard_normal(n), X=rng.standard_normal((n, p))), sizes) for _ in range(S)]
    stack = ModelFits(n, sizes, *(np.array([getattr(f, a.name) for f in fits])
                                  for a in dataclasses.fields(ModelFits)[2:]))
    X_new = rng.standard_normal((S, rows, p))
    for X_other in (X_new, np.asfortranarray(X_new), X_new.transpose(0, 2, 1).copy().transpose(0, 2, 1)):
        pred = stack.predict(X_other)
        assert pred.shape == (S, rows, sizes.size)
        for f, X_one, one in zip(fits, X_new, pred):
            assert one.tobytes() == f.predict(X_one).tobytes()
    paired = ModelFits(n, sizes, *(getattr(stack, a.name)[None] for a in dataclasses.fields(ModelFits)[2:]))
    assert paired.predict(X_new[None]).tobytes() == pred.tobytes()  # leading shape (1, S)
    with pytest.raises(ValueError, match="k_M columns"):
        stack.predict(X_new[0])  # one matrix of rows for a stack of fits


def test_default_model_counts_match_rounding_rule():
    assert default_model_counts(25) == (9, 13, 23)
    assert default_model_counts(50) == (11, 25, 45)
    assert default_model_counts(150) == (16, 75, 135)
    assert default_model_counts(300) == (20, 150, 270)


class TestLoadCsv:
    def test_roundtrip_with_comments(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("# provenance note\na,b,resp\n1,2,3\n4,5,6\n")
        data = load_csv(f, response="resp")
        assert data.has_intercept and data.n == 2 and data.p == 3
        assert np.allclose(data.X[:, 0], 1.0)
        assert np.allclose(data.Y, [3.0, 6.0])
        assert np.array_equal(data.X[:, 1:], [[1.0, 2.0], [4.0, 5.0]])  # regressors in file order

    def test_errors(self, tmp_path):
        f = tmp_path / "bad.csv"
        for text, response, field, match in [
            ("a,b\n1,2\n", "zzz", "response", "no column named"),
            ("a,b\n1,x\n2,3\n", "a", str(f), "non-numeric"),
            ("a,b\n1,2\n3\n", "a", str(f), "ragged rows"),  # not reported as a non-numeric cell
            ("a,b\n1,2\n3,4,5\n", "a", str(f), "ragged rows"),
            ("a,b\n", "a", str(f), "header row"),
        ]:
            f.write_text(text)
            with pytest.raises(InputError, match=match) as err:  # a usage error: the CLI exits 1
                load_csv(f, response=response)
            assert err.value.field == field
