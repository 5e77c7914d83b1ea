"""Weight criteria: variance estimate, quadratic programs, score weights.

The leave-one-out program is checked against literal refit-and-predict
oracles, the large-model program against an independently coded
per-observation evaluation of the same criterion, and the scalar plugs are
hand-computed.  Hand-built candidate summaries pin exact numbers where the
formulas only need sizes and residual norms.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lama.criteria import (
    SIGMA_FLOOR,
    XI_CLAMP,
    QuadraticProgram,
    b_in_diag,
    info_criterion_weights,
    jma_program,
    lama_program,
    lama_vectors,
    loo_flagged,
    mma_program,
    sigma_hat,
    v_out_matrix,
    xi,
)
from lama.models import Dataset, fit_all
from lama.qp import NestedForm, solve_simplex_qp

from conftest import make_fits, summary_fits
from oracles import lama_criterion_value, matrix, value


class TestQuadraticProgram:
    def test_value_plug(self):
        # A zero nested form with ridge (1, 2) is diag(1, 2).
        prog = QuadraticProgram(A=NestedForm([0.0, 0.0], [0.0, 0.0], [1.0, 2.0]), b=np.array([1.0, 1.0]))
        assert value(prog, [1.0, 0.0]) == pytest.approx(2.0)
        assert value(prog, [0.0, 1.0]) == pytest.approx(3.0)

    def test_holds_only_the_forms_the_criteria_build(self):
        # A dense program goes to solve_simplex_qp, which judges and symmetrizes it.
        for A in (np.eye(2), [[1.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(TypeError, match="GramForm or NestedForm"):
                QuadraticProgram(A=A, b=np.zeros(2))
        assert solve_simplex_qp(np.array([[1.0, 1e-6], [0.0, 1.0]])).status == "converged"

    @pytest.mark.parametrize("sizes", [(1, 3, 6, 10), (2, 7, 15, 24), (4, 12, 30)])
    def test_every_built_program_is_exactly_symmetric(self, sizes):
        # Candidates below, at and past n = 24, excluded from jma and lama as
        # compute_weights excludes them.
        for seed in range(5):
            fits, _, _ = make_fits(seed, n=24, sizes=sizes)
            s2 = sigma_hat(fits)
            programs = (
                mma_program(fits, s2),
                jma_program(fits.subset(~loo_flagged(fits))),
                lama_program(*lama_vectors(fits.subset(fits.sizes < fits.n), s2), 0.5),
            )
            for prog in programs:
                A = matrix(prog.A)
                assert np.array_equal(A, A.T)


class TestSigmaHat:
    def test_matches_lstsq_oracle(self):
        # The reference candidate k=9 of n=30 keeps 21 residual degrees of freedom.
        fits, data, _ = make_fits(5, n=30, sizes=(2, 5, 9), p=9)
        beta, *_ = np.linalg.lstsq(data.X[:, :9], data.Y, rcond=None)
        rss = float(np.sum((data.Y - data.X[:, :9] @ beta) ** 2))
        assert sigma_hat(fits) == pytest.approx(rss / 21, rel=1e-10)

    def test_uses_largest_below_ninety_percent(self):
        fits, _, _ = make_fits(7, n=50, sizes=(2, 10, 45), p=45)
        assert sigma_hat(fits) == float(fits.rss[2]) / (50 - 45)

    def test_floor_binds_when_reference_collapses(self):
        # Reference candidate k=18 of n=20 nearly interpolates; the floor
        # hands back a fraction of the stable k=15 estimate.
        fits = summary_fits(20, (2, 15, 18), (40.0, 25.0, 1e-6))
        assert sigma_hat(fits) == pytest.approx(SIGMA_FLOOR * 25.0 / 5)
        # k=16 keeps 4 residual degrees of freedom, one short of the guard's 5.
        fits = summary_fits(20, (2, 15, 16), (40.0, 25.0, 1e-6))
        assert sigma_hat(fits) == pytest.approx(SIGMA_FLOOR * 25.0 / 5)

    def test_reference_wins_when_healthy(self):
        fits = summary_fits(20, (2, 15, 18), (40.0, 25.0, 8.0))
        assert sigma_hat(fits) == pytest.approx(8.0 / 2)

    def test_fallback_when_everything_crowds_the_boundary(self):
        fits = summary_fits(20, (19,), (3.0,))
        assert sigma_hat(fits) == pytest.approx(3.0)

    def test_no_degrees_of_freedom_anywhere_raises(self):
        fits = summary_fits(20, (20,), (0.0,))
        with pytest.raises(ValueError, match="degrees of freedom"):
            sigma_hat(fits)


class TestMmaProgram:
    def test_quadratic_and_linear_parts(self):
        fits, _, _ = make_fits(11, n=24, sizes=(1, 3, 6))
        prog = mma_program(fits, 1.5)
        E = fits.residuals
        np.testing.assert_allclose(matrix(prog.A), E.T @ E / 24, rtol=1e-12)
        np.testing.assert_allclose(prog.b, 2 * 1.5 * fits.sizes / 24)

    def test_vertex_value_is_model_selection_score(self):
        fits, _, _ = make_fits(13, n=24, sizes=(1, 3, 6))
        prog = mma_program(fits, 2.0)
        for q in range(3):
            w = np.zeros(3)
            w[q] = 1.0
            expected = fits.rss[q] / 24 + 2 * 2.0 * fits.sizes[q] / 24
            assert value(prog, w) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_variance(self):
        fits, _, _ = make_fits(13, n=24, sizes=(1, 3))
        with pytest.raises(ValueError):
            mma_program(fits, -1.0)
        with pytest.raises(ValueError):
            mma_program(fits, np.inf)


class TestResidualGramFromRss:
    """Nested spans give e_q'e_l = RSS_max(q,l), so the Mallows and large-model
    programs never read the residual matrix; it is the oracle here."""

    @staticmethod
    def _fits(seed, route):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 20))
        p = n + 6 if route == "svd" else n - 2
        X = rng.standard_normal((n, p))
        if route == "duplicate":
            X[:, 3] = X[:, 1]
        elif route == "collinear":
            X[:, 3] = X[:, 0] - 2.0 * X[:, 2]
        Y = X[:, :3] @ rng.standard_normal(3) + rng.standard_normal(n)
        # QR fast path when every prefix has full rank; the per-candidate
        # SVD route past k = n and for the dependent fourth column.
        sizes = np.unique(np.concatenate([[1, 3, 4, n - 3, p], rng.integers(1, p + 1, 3)]))
        return fit_all(Dataset(Y=Y, X=X), sizes)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["qr", "svd", "duplicate", "collinear"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_programs_match_explicit_residual_products(self, seed, route):
        fits = self._fits(seed, route)
        assert (fits.ranks == fits.sizes).all() == (route == "qr")
        gram = fits.residuals.T @ fits.residuals
        tol = 1e-12 * np.max(np.abs(gram))
        s2 = sigma_hat(fits)
        mma = mma_program(fits, s2)
        assert np.max(np.abs(fits.n * matrix(mma.A) - gram)) <= tol
        assert solve_simplex_qp(mma.A, mma.b).status == "converged"

        sub = fits.subset(fits.sizes < fits.n)
        sub_gram = gram[np.ix_(fits.sizes < fits.n, fits.sizes < fits.n)]
        # lama_vectors needs sigma2 > 0: the smallest normal float leaves
        # only the residual part of A.
        residual_part = matrix(lama_program(*lama_vectors(sub, np.finfo(float).tiny), 0.0).A)
        assert np.max(np.abs(residual_part - sub_gram)) <= tol
        x = xi(np.diag(v_out_matrix(sub, s2)), b_in_diag(sub, s2))
        lama = lama_program(*lama_vectors(sub, s2), x)
        assert solve_simplex_qp(lama.A, lama.b).status == "converged"


class TestLeaveOneOut:
    def test_matches_refit_oracle(self):
        fits, data, _ = make_fits(17, n=12, sizes=(1, 3, 5), p=5)
        prog = jma_program(fits)
        loo = np.empty((12, 3))
        for q, k in enumerate((1, 3, 5)):
            for i in range(12):
                keep = np.arange(12) != i
                beta = np.linalg.lstsq(data.X[keep, :k], data.Y[keep], rcond=None)[0]
                loo[i, q] = data.Y[i] - data.X[i, :k] @ beta
        implied = fits.residuals / (1.0 - fits.leverages)
        np.testing.assert_allclose(implied, loo, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(matrix(prog.A), loo.T @ loo / 12, rtol=1e-8)
        np.testing.assert_array_equal(prog.b, np.zeros(3))

    def test_single_candidate_value_is_mean_squared_loo(self):
        fits, data, _ = make_fits(19, n=15, sizes=(4,), p=4)
        prog = jma_program(fits)
        loo = fits.residuals[:, 0] / (1.0 - fits.leverages[:, 0])
        assert value(prog, [1.0]) == pytest.approx(float(np.mean(loo**2)))

    def test_quadratic_part_is_psd(self):
        fits, _, _ = make_fits(23, n=20, sizes=(2, 5, 9, 14))
        assert np.linalg.eigvalsh(matrix(jma_program(fits).A))[0] >= -1e-10

    def test_interpolating_candidate_is_flagged_and_fatal(self):
        fits, _, _ = make_fits(29, n=10, sizes=(2, 10), p=10, noise=0.5)
        np.testing.assert_array_equal(loo_flagged(fits), [False, True])
        with pytest.raises(ValueError, match="leverage at 1"):
            jma_program(fits)

    def test_clean_fits_are_unflagged(self):
        fits, _, _ = make_fits(29, n=24, sizes=(1, 3, 6))
        assert not np.any(loo_flagged(fits))


class TestXi:
    def test_dispersion_ratio_plugs(self):
        assert xi([1.0, 2.0], [1.0, 4.0]) == pytest.approx(0.5)
        assert xi([3.0, 3.0], [7.0, 7.0]) == pytest.approx(1.0)
        assert xi([1.0, 10.0], [2.0, 2.0]) == pytest.approx(10.0)

    def test_order_within_vectors_is_irrelevant(self):
        assert xi([10.0, 1.0], [2.0, 4.0]) == xi([1.0, 10.0], [4.0, 2.0])

    def test_clamping(self):
        assert xi([1.0, 1e12], [1.0, 1.0]) == XI_CLAMP[1]
        assert xi([1.0, 1.0], [1.0, 1e12]) == XI_CLAMP[0]

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            xi([], [])
        with pytest.raises(ValueError, match="equally long"):
            xi([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            xi([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            xi([1.0, np.inf], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("vector", ["v", "b"])
    def test_rejects_any_non_positive_or_non_finite_entry(self, bad, where, vector):
        # The check reads each vector's extremes alone: NaN must reach them
        # wherever it sits, and so must an infinity or a non-positive entry.
        v, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        (v if vector == "v" else b)[where] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            xi(v, b)


class TestVarianceAndBiasPlugins:
    def test_out_of_sample_variance_matrix_plug(self):
        fits = summary_fits(10, (1, 3), (4.0, 2.0))
        V = v_out_matrix(fits, 2.0)
        np.testing.assert_allclose(
            V, 2.0 * np.array([[1 / 9, 1 / 9], [1 / 9, 3 / 7]]), rtol=1e-12
        )

    def test_out_of_sample_variance_rejects_boundary(self):
        fits = summary_fits(10, (2, 10), (5.0, 0.0))
        with pytest.raises(ValueError, match="k < n"):
            v_out_matrix(fits, 1.0)

    def test_in_sample_bias_diagonal_plug(self):
        fits = summary_fits(10, (2, 5), (5.0, 3.0))
        np.testing.assert_allclose(b_in_diag(fits, 1.0), [0.7, 0.8], rtol=1e-12)


class TestLamaProgram:
    def test_single_candidate_plug(self):
        # n=10, k=2, rss=5, sigma2=1, xi=1:
        # 5 + (2 + 10*2/8) + 1*10*2/8 = 5 + 4.5 + 2.5 = 12.
        fits = summary_fits(10, (2,), (5.0,))
        E = np.zeros((10, 1))
        E[0, 0], E[1, 0] = 1.0, 2.0  # exact squared norm 5
        fits = dataclasses.replace(fits, residuals=E)
        prog = lama_program(*lama_vectors(fits, 1.0), 1.0)
        assert value(prog, [1.0]) == pytest.approx(12.0, abs=1e-12)

    def test_matches_per_observation_route_on_the_simplex(self, rng):
        # The program is assembled from matrices; the criterion value is
        # coded term by term.  Times n they must agree everywhere.
        for seed in range(10):
            fits, _, _ = make_fits(100 + seed, n=26, sizes=(1, 3, 6, 11))
            s2 = sigma_hat(fits)
            x = xi(np.diag(v_out_matrix(fits, s2)), b_in_diag(fits, s2))
            prog = lama_program(*lama_vectors(fits, s2), x)
            for _ in range(10):
                w = rng.dirichlet(np.ones(4))
                direct = 26 * lama_criterion_value(fits, s2, x, w)
                assert value(prog, w) == pytest.approx(direct, abs=1e-8)

    def test_penalty_dominates_plain_mallows(self):
        fits, _, _ = make_fits(31, n=24, sizes=(2, 6, 12))
        s2 = sigma_hat(fits)
        prog = lama_program(*lama_vectors(fits, s2), 0.7)
        E = fits.residuals
        sizes = fits.sizes.astype(float)
        mallows_scale = E.T @ E + s2 * (
            np.maximum.outer(sizes, sizes) + np.minimum.outer(sizes, sizes)
        )
        assert np.all(matrix(prog.A) - mallows_scale >= -1e-10)

    def test_zero_ridge_drops_the_diagonal_term(self):
        fits, _, _ = make_fits(37, n=24, sizes=(2, 6))
        base = lama_program(*lama_vectors(fits, 1.0), 0.0)
        ridged = lama_program(*lama_vectors(fits, 1.0), 2.0)
        extra = np.diag(matrix(ridged.A) - matrix(base.A))
        np.testing.assert_allclose(
            extra, 2.0 * 1.0 * 24 * fits.sizes / (24 - fits.sizes), rtol=1e-12
        )

    def test_validation(self):
        boundary = summary_fits(10, (2, 10), (5.0, 0.0))
        with pytest.raises(ValueError, match="k >= n"):
            lama_program(*lama_vectors(boundary, 1.0), 1.0)
        fits = summary_fits(10, (2, 5), (5.0, 3.0))
        with pytest.raises(ValueError, match="positive"):
            lama_program(*lama_vectors(fits, 0.0), 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            lama_program(*lama_vectors(fits, 1.0), -0.5)
        with pytest.raises(ValueError, match="length"):
            lama_criterion_value(fits, 1.0, 1.0, [1.0, 0.0, 0.0])


class TestInfoCriterionWeights:
    def test_hard_selection_minimizes_the_score(self):
        fits, _, _ = make_fits(41, n=24, sizes=(1, 3, 6, 10))
        for kind, mult in (("aic", 2.0), ("bic", np.log(24))):
            scores = 24 * np.log(fits.rss / 24) + mult * fits.sizes
            w = info_criterion_weights(fits, kind)
            assert w[int(np.argmin(scores))] == 1.0
            assert w.sum() == 1.0

    def test_penalty_strength_can_flip_the_choice(self):
        # Fit gain of the bigger model (30) sits between the extra AIC
        # penalty (18) and the extra BIC penalty (~41.4) at n=100.
        fits = summary_fits(100, (1, 10), (50.0 * np.exp(0.3), 50.0))
        np.testing.assert_array_equal(info_criterion_weights(fits, "aic"), [0.0, 1.0])
        np.testing.assert_array_equal(info_criterion_weights(fits, "bic"), [1.0, 0.0])

    def test_smoothed_weights_split_equal_scores_evenly(self):
        # Sizes 1 and 2 at n=10: equal scores need rss ratio exp(2/10).
        fits = summary_fits(10, (1, 2), (np.exp(0.2), 1.0))
        np.testing.assert_allclose(
            info_criterion_weights(fits, "saic"), [0.5, 0.5], atol=1e-9
        )

    def test_smoothed_weights_ignore_common_rss_scale(self):
        a = summary_fits(12, (1, 3, 5), (9.0, 5.0, 4.0))
        b = summary_fits(12, (1, 3, 5), (18.0, 10.0, 8.0))
        np.testing.assert_allclose(
            info_criterion_weights(a, "sbic"),
            info_criterion_weights(b, "sbic"),
            rtol=1e-10,
        )

    def test_smoothed_weights_follow_score_gaps(self):
        fits, _, _ = make_fits(43, n=24, sizes=(1, 3, 6))
        scores = 24 * np.log(fits.rss / 24) + 2.0 * fits.sizes
        z = np.exp(-(scores - scores.min()) / 2)
        np.testing.assert_allclose(
            info_criterion_weights(fits, "saic"), z / z.sum(), rtol=1e-10
        )

    def test_interpolating_candidates_are_rejected(self):
        # Dropping them is compute_weights's job; the scores reject RSS = 0.
        fits = summary_fits(10, (1, 10), (4.0, 0.0))
        for kind in ("aic", "bic", "saic", "sbic"):
            with pytest.raises(ValueError, match="RSS > 0"):
                info_criterion_weights(fits, kind)

    def test_all_interpolating_raises(self):
        fits = summary_fits(10, (9, 10), (0.0, 0.0))
        with pytest.raises(ValueError, match="RSS > 0"):
            info_criterion_weights(fits, "bic")

    def test_unknown_kind_raises(self):
        fits = summary_fits(10, (1,), (4.0,))
        with pytest.raises(ValueError, match="unknown"):
            info_criterion_weights(fits, "cp")
