"""Minimum-norm least squares in fit_all's fit routes: coefficients, projectors, residuals, traces.

Most cases force the per-candidate SVD route (``_svd_fit``) or reach it by
themselves through a rank-deficient design; the rest take whichever route
``fit_all`` picks.  Derived expectations are checked against independent
routes: the normal-equation solve for full-rank coefficients, numpy's
``lstsq`` and ``pinv`` for minimum-norm solutions and projectors, explicit
matrix products for projector traces, and numpy's own rank for deficient
designs.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lama import models
from lama.models import Dataset, fit_all

from conftest import make_fits


def _projector(X):
    return X @ np.linalg.pinv(X)


def _svd_fit(X, Y, sizes):
    """fit_all with the QR fast path switched off: every candidate takes the SVD route."""
    with mock.patch.object(models, "_PIVOT_RATIO", 1.0):
        return fit_all(Dataset(Y=Y, X=X), sizes)


class TestMinNormLs:
    """Coefficients on the SVD route, which any k_M > n or rank-deficient prefix takes."""

    def test_identity_design_returns_response(self):
        fits = _svd_fit(np.eye(2), np.array([1.0, 2.0]), (2,))
        assert np.allclose(fits.coefs[:, 0], [1.0, 2.0])

    def test_two_rows_split_equally(self):
        # Two equations, four unknowns: the shortest solution shares the load.
        X = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        fits = fit_all(Dataset(Y=np.array([2.0, 4.0]), X=X), (4,))
        assert np.allclose(fits.coefs[:, 0], [1.0, 1.0, 2.0, 2.0])

    def test_matches_normal_equations_on_full_rank(self, rng):
        X = rng.standard_normal((5, 2))
        Y = rng.standard_normal(5)
        fits = _svd_fit(X, Y, (1, 2))
        for q, k in enumerate((1, 2)):
            oracle = np.linalg.solve(X[:, :k].T @ X[:, :k], X[:, :k].T @ Y)
            assert np.allclose(fits.coefs[:k, q], oracle, atol=1e-10)

    def test_solution_lies_in_row_space(self, rng):
        # Rank-deficient design: the third column repeats the first.
        X = rng.standard_normal((8, 3))
        X[:, 2] = X[:, 0]
        beta = fit_all(Dataset(Y=rng.standard_normal(8), X=X), (3,)).coefs[:, 0]
        _, _, Vt = np.linalg.svd(X)
        row_basis = Vt[:2]  # rank 2
        off = beta - row_basis.T @ (row_basis @ beta)
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(beta)

    def test_minimum_norm_among_solutions(self, rng):
        X = rng.standard_normal((4, 7))  # wide: exact fit with a null space
        Y = rng.standard_normal(4)
        beta = fit_all(Dataset(Y=Y, X=X), (7,)).coefs[:, 0]
        assert np.allclose(X @ beta, Y, atol=1e-9)
        assert np.allclose(beta, np.linalg.lstsq(X, Y, rcond=None)[0], atol=1e-10)
        null = np.linalg.svd(X)[2][4:].T  # null-space basis
        for shift in rng.standard_normal((5, 3)):
            other = beta + null @ shift
            assert np.linalg.norm(other) >= np.linalg.norm(beta) - 1e-12

    def test_fitted_values_equal_projection(self, rng):
        X = rng.standard_normal((9, 4))
        Y = rng.standard_normal(9)
        fits = _svd_fit(X, Y, (2, 4))
        for q, k in enumerate((2, 4)):
            fitted = X[:, :k] @ fits.coefs[:k, q]
            assert np.allclose(fitted, _projector(X[:, :k]) @ Y, atol=1e-9)
            assert np.allclose(fitted, Y - fits.residuals[:, q], atol=1e-9)

    @pytest.mark.parametrize("shape", [(100, 3), (3, 100)], ids=["tall", "wide"])
    def test_rank_cutoff_scales_with_shape(self, shape):
        # Singular values (1, 1, t): the cutoff max(n, k_M) * eps = 100 eps
        # drops t = 30 eps and keeps t = 300 eps on either orientation.
        rng = np.random.default_rng(7)
        eps = np.finfo(np.float64).eps
        U = np.linalg.qr(rng.standard_normal((100, 3)))[0]
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        for t, rank in ((30 * eps, 2), (300 * eps, 3)):
            X = U @ np.diag([1.0, 1.0, t]) @ V.T
            X = X if shape == (100, 3) else X.T
            fits = fit_all(Dataset(Y=rng.standard_normal(shape[0]), X=X), (shape[1],))
            assert list(fits.ranks) == [rank]


class TestProjection:
    """Leverages, the diagonal of each candidate's projector, on the SVD route."""

    def test_trace_equals_rank_full_column_rank(self, rng):
        fits = _svd_fit(rng.standard_normal((10, 4)), rng.standard_normal(10), (4,))
        assert list(fits.ranks) == [4]
        assert abs(np.sum(fits.leverages[:, 0]) - 4.0) < 1e-10

    def test_duplicated_column_drops_rank(self, rng):
        X = rng.standard_normal((10, 3))
        X[:, 2] = X[:, 1]
        assert np.linalg.matrix_rank(X) == 2  # independent rank oracle
        fits = fit_all(Dataset(Y=rng.standard_normal(10), X=X), (3,))
        assert list(fits.ranks) == [2]
        assert abs(np.sum(fits.leverages[:, 0]) - 2.0) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        k=st.integers(min_value=1, max_value=14),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_leverages_lie_in_unit_interval(self, n, k, seed):
        # Leverages are the diagonal of the projector onto the span, whose
        # eigenvalues are 0 or 1, so each lies in [0, 1] and they sum to the rank.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, k))
        fits = _svd_fit(X, rng.standard_normal(n), (k,))
        h = fits.leverages[:, 0]
        assert h.min() >= -1e-9 and h.max() <= 1.0 + 1e-9
        assert np.allclose(h, np.diag(_projector(X)), atol=1e-9)
        assert fits.ranks[0] == min(n, k)
        assert abs(np.sum(h) - min(n, k)) < 1e-9


class TestResidualMatrix:
    """Candidate residual columns (I - P_q) Y, formed from explicit projectors
    and checked against the residuals stored by fit_all."""

    @staticmethod
    def _residuals(fits, data):
        return np.column_stack(
            [data.Y - _projector(data.X[:, :k]) @ data.Y for k in fits.sizes]
        )

    def test_interpolating_candidate_has_zero_residuals(self):
        fits, data, _ = make_fits(3, n=6, sizes=(2, 6), p=6)
        E = self._residuals(fits, data)
        assert np.allclose(E, fits.residuals, atol=1e-8)
        assert np.allclose(E[:, 1], 0.0, atol=1e-8)

    def test_nested_residual_norms_decrease(self):
        fits, data, _ = make_fits(4, n=30, sizes=(2, 5, 9, 14))
        norms = np.sum(self._residuals(fits, data) ** 2, axis=0)
        assert np.allclose(norms, fits.rss, rtol=1e-9)
        assert np.all(np.diff(norms) <= 1e-10)


class TestWeightedProjectionTrace:
    """tr(P(w)^2) for P(w) = sum_q w_q P_q, from materialized projectors."""

    @staticmethod
    def _trace2(X, fits, w):
        Pw = sum(wq * _projector(X[:, :k]) for wq, k in zip(w, fits.sizes))
        return float(np.trace(Pw @ Pw))

    def test_vertex_weight_gives_model_size(self):
        fits, data, _ = make_fits(5, n=20, sizes=(2, 5, 8))
        for q, k in enumerate((2, 5, 8)):
            w = np.zeros(3)
            w[q] = 1.0
            assert self._trace2(data.X, fits, w) == pytest.approx(k)

    def test_matches_explicit_matrix_product(self, rng):
        X = rng.standard_normal((15, 5))
        data = Dataset(Y=rng.standard_normal(15), X=X)
        fits = fit_all(data, (2, 5))
        w = np.array([0.5, 0.5])
        Pw = 0.5 * _projector(X[:, :2]) + 0.5 * _projector(X)
        assert self._trace2(X, fits, w) == pytest.approx(float(np.trace(Pw @ Pw)), abs=1e-9)
        # Closed form for nested full-rank spans: sum of pairwise minima.
        closed = w @ np.minimum.outer(fits.ranks, fits.ranks) @ w
        assert closed == pytest.approx(2.75)
        assert self._trace2(X, fits, w) == pytest.approx(closed, abs=1e-9)

    def test_identical_spans_collapse_to_common_rank(self, rng):
        X = np.empty((10, 2))
        X[:, 0] = rng.standard_normal(10)
        X[:, 1] = 2.0 * X[:, 0]  # second model adds a dependent column
        data = Dataset(Y=rng.standard_normal(10), X=X)
        fits = fit_all(data, (1, 2))
        assert self._trace2(X, fits, np.array([0.5, 0.5])) == pytest.approx(1.0)
