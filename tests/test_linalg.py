"""Kernels: minimum-norm least squares, projectors, residuals, traces.

Derived expectations are checked against independent routes: the
normal-equation solve for full-rank coefficients, explicit matrix products
for projector traces, and numpy's own rank for deficient designs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lama.linalg import default_rank_tol, min_norm_ls, projection
from lama.models import Dataset, build_nested, fit_all

from conftest import make_fits


class TestMinNormLs:
    def test_identity_design_returns_response(self):
        assert np.allclose(min_norm_ls(np.eye(2), [1.0, 2.0]), [1.0, 2.0])

    def test_single_row_splits_equally(self):
        # One equation, two unknowns: the shortest solution shares the load.
        assert np.allclose(min_norm_ls(np.array([[1.0, 1.0]]), [2.0]), [1.0, 1.0])

    def test_matches_normal_equations_on_full_rank(self, rng):
        X = rng.standard_normal((5, 2))
        Y = rng.standard_normal(5)
        oracle = np.linalg.solve(X.T @ X, X.T @ Y)
        assert np.allclose(min_norm_ls(X, Y), oracle, atol=1e-10)

    def test_solution_lies_in_row_space(self, rng):
        # Rank-deficient design: the third column repeats the first.
        X = rng.standard_normal((8, 3))
        X[:, 2] = X[:, 0]
        beta = min_norm_ls(X, rng.standard_normal(8))
        _, _, Vt = np.linalg.svd(X)
        row_basis = Vt[:2]  # rank 2
        off = beta - row_basis.T @ (row_basis @ beta)
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(beta)

    def test_minimum_norm_among_solutions(self, rng):
        X = rng.standard_normal((4, 7))  # wide: exact fit with a null space
        Y = rng.standard_normal(4)
        beta = min_norm_ls(X, Y)
        assert np.allclose(X @ beta, Y, atol=1e-9)
        null = np.linalg.svd(X)[2][4:].T  # null-space basis
        for shift in rng.standard_normal((5, 3)):
            other = beta + null @ shift
            assert np.linalg.norm(other) >= np.linalg.norm(beta) - 1e-12

    def test_fitted_values_equal_projection(self, rng):
        X = rng.standard_normal((9, 4))
        Y = rng.standard_normal(9)
        assert np.allclose(X @ min_norm_ls(X, Y), projection(X) @ Y, atol=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            min_norm_ls(np.eye(3), np.ones(2))
        with pytest.raises(ValueError):
            min_norm_ls(np.array([[np.nan, 1.0]]), [1.0])
        with pytest.raises(ValueError):
            min_norm_ls(np.ones((2, 2)), [np.inf, 0.0])
        with pytest.raises(ValueError):
            min_norm_ls(np.ones(3), np.ones(3))  # 1-d design


class TestProjection:
    def test_trace_equals_rank_full_column_rank(self, rng):
        P = projection(rng.standard_normal((10, 4)))
        assert abs(np.trace(P) - 4.0) < 1e-10

    def test_idempotent_and_symmetric(self, rng):
        P = projection(rng.standard_normal((12, 5)))
        assert np.allclose(P @ P, P, atol=1e-9)
        assert np.allclose(P, P.T, atol=1e-9)

    def test_duplicated_column_drops_rank(self, rng):
        X = rng.standard_normal((10, 3))
        X[:, 2] = X[:, 1]
        assert np.linalg.matrix_rank(X) == 2  # independent rank oracle
        assert abs(np.trace(projection(X)) - 2.0) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        k=st.integers(min_value=1, max_value=14),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_eigenvalues_lie_in_unit_interval(self, n, k, seed):
        X = np.random.default_rng(seed).standard_normal((n, k))
        eigs = np.linalg.eigvalsh(projection(X))
        assert eigs.min() >= -1e-9 and eigs.max() <= 1.0 + 1e-9


class TestResidualMatrix:
    """Candidate residual columns (I - P_q) Y, formed from explicit projectors
    and checked against the residuals stored by fit_all."""

    @staticmethod
    def _residuals(fits, data):
        return np.column_stack(
            [data.Y - projection(data.X[:, fits.ordering[:k]]) @ data.Y for k in fits.sizes]
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
        Pw = sum(wq * projection(X[:, fits.ordering[:k]]) for wq, k in zip(w, fits.sizes))
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
        fits = fit_all(data, build_nested(np.arange(5), (2, 5)))
        w = np.array([0.5, 0.5])
        Pw = 0.5 * projection(X[:, :2]) + 0.5 * projection(X)
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
        fits = fit_all(data, build_nested(np.arange(2), (1, 2)))
        assert self._trace2(X, fits, np.array([0.5, 0.5])) == pytest.approx(1.0)


def test_default_rank_tol_scales_with_shape():
    eps = np.finfo(np.float64).eps
    assert default_rank_tol(np.ones((100, 3))) == pytest.approx(100 * eps)
    assert default_rank_tol(np.ones((3, 100))) == pytest.approx(100 * eps)
