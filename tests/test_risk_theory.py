"""Closed-form risk limits: entries, matrices, weights, and grid surfaces.

The limit matrices of the mask-built oracle (``oracles.theorem1_matrices``)
are pinned to hand-computed values, checked entrywise against the scalar
entry formulas kept here, and below the boundary against the
general-covariance limits at the identity covariance.  The library's row
borders are held to the oracle's quadratic form on grids at and around the
boundary; every surface cell is held to a per-cell rebuild, and every prefix
of a surface row to a brute-force quadratic form.  Those limits, their
Schur-complement strength and the variance-gap limit live here as oracles:
each is pinned to hand values (the strength also to an explicit
best-completion least-squares solve) before it checks the library.  Surface
shapes are asserted from exact evaluation of the limits (variance spikes past
the interpolation point, then a smooth descent).
"""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lama.experiments import validate_theorem1
from lama.risk_theory import BOUNDARY_DELTA, InputError, PowerLawProfile, _factors, _weighted_borders, risk_surface

from oracles import (
    RiskMatrices,
    asymptotic_risk,
    single_model_risk,
    theorem1_matrices,
    variance_penalized_weights,
)


def _on_boundary(c):
    return 1.0 - BOUNDARY_DELTA <= c <= 1.0 + BOUNDARY_DELTA


def _dv_entry(c_q, c_l, sigma2):
    """Scalar oracle: limiting out-of-sample variance entry of a candidate pair.

        sigma2 * c_q / (1 - c_q)    when c_q <= c_l < 1
        sigma2 * c_q / (c_l - c_q)  when c_q < 1 < c_l
        sigma2 / (c_l - 1)          when 1 < c_q <= c_l

    Arguments are order-free; ratios in [1 - BOUNDARY_DELTA, 1 + BOUNDARY_DELTA] give +inf.
    """
    lo, hi = min(c_q, c_l), max(c_q, c_l)
    if _on_boundary(lo) or _on_boundary(hi):
        return np.inf
    if hi < 1.0:
        return sigma2 * lo / (1.0 - lo)
    if lo > 1.0:
        return sigma2 / (hi - 1.0)
    return sigma2 * lo / (hi - lo)


def _db_entry(c_q, c_l, norm_q2, norm_l2, re_norm_l2):
    """Scalar oracle: limiting out-of-sample bias entry for c_q <= c_l.

    norm_q2 and norm_l2 are the squared signal norms the two models carry and
    re_norm_l2 the squared norm the larger one omits.
    """
    if _on_boundary(c_q) or _on_boundary(c_l):
        return np.inf
    if c_l < 1.0:
        return re_norm_l2 / (1.0 - c_q)
    if c_q > 1.0:
        return (
            (c_q - 1.0) / c_q * norm_q2
            + (norm_l2 - norm_q2)
            + c_l / (c_l - 1.0) * re_norm_l2
        )
    gap = c_l - c_q
    return (c_l - 1.0) / gap * (norm_l2 - norm_q2) + c_l / gap * re_norm_l2


def _phi(Sigma, theta, k_q):
    """Oracle: omitted-signal strength under a general covariance.

    The quadratic form of the omitted coefficients theta[k_q:] in the Schur
    complement of the leading k_q x k_q block of Sigma.  Equals the plain
    squared norm of the omitted block when Sigma is the identity, and zero
    when nothing is omitted.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    p = theta.shape[0]
    if Sigma.shape != (p, p):
        raise ValueError(f"Sigma must be {p}x{p} to match theta, got {Sigma.shape}")
    if not np.allclose(Sigma, Sigma.T, atol=1e-10):
        raise ValueError("Sigma must be symmetric")
    if not 0 <= k_q <= p:
        raise ValueError(f"k_q must be in [0, {p}], got {k_q}")
    if k_q == p:
        return 0.0
    t_re = theta[k_q:]
    if k_q == 0:
        return max(float(t_re @ Sigma @ t_re), 0.0)
    try:
        L = np.linalg.cholesky(Sigma[:k_q, :k_q])
    except np.linalg.LinAlgError as exc:
        raise ValueError("Sigma is not positive definite") from exc
    u = np.linalg.solve(L, Sigma[:k_q, k_q:] @ t_re)
    return max(float(t_re @ Sigma[k_q:, k_q:] @ t_re - u @ u), 0.0)


def _theorem2(c, phis, sigma2):
    """Oracle: (variance, bias) limits under a general covariance.

    Stated only for the fully under-parameterized regime (all ratios below
    1): entries sigma2 c_min / (1 - c_min) and phi_max / (1 - c_min), with
    phis[q] the omitted-signal strength of candidate q.  At the identity
    covariance phi_q is the omitted squared norm.
    """
    c = np.asarray(c, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if np.any(c >= 1.0 - BOUNDARY_DELTA):
        raise ValueError("general-covariance limits require all aspect ratios below 1")
    idx = np.arange(c.size)
    imin, imax = np.minimum.outer(idx, idx), np.maximum.outer(idx, idx)
    cmin = c[imin]
    return sigma2 * cmin / (1.0 - cmin), phis[imax] / (1.0 - cmin)


def _delta_v(w, c, sigma2):
    """Oracle: limit of the out-of-sample minus in-sample variance.

    sigma2 * sum_{q,l} w_q w_l min(c_q, c_l)^2 / (1 - min(c_q, c_l)); defined
    for ratios strictly inside (0, 1) and strictly positive on the simplex.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    if w.shape != c.shape:
        raise ValueError("w and c must have the same length")
    if np.any(c <= 0.0) or np.any(c >= 1.0):
        raise ValueError("all aspect ratios must lie strictly inside (0, 1)")
    cmin = np.minimum.outer(c, c)
    return sigma2 * float(w @ (cmin**2 / (1.0 - cmin)) @ w)


def _nested(sizes, n, theta):
    """(ratios, carried squared norms, total squared norm) of nested prefixes of theta."""
    sizes = np.asarray(sizes)
    sq = np.concatenate([[0.0], np.cumsum(np.asarray(theta, dtype=float) ** 2)])
    return sizes / float(n), sq[sizes], float(sq[-1])


def _limits(c, sigma2=1.0, carried=None, total=0.0):
    """Theorem-1 matrices of candidates with ratios c carrying the given norms."""
    carried = np.zeros(len(c)) if carried is None else carried
    return theorem1_matrices(c, carried, total, sigma2)


class TestVarianceEntry:
    def test_both_below_boundary(self):
        # sigma2 * c_min / (1 - c_min) = 0.5 / 0.5
        assert _limits([0.5]).variance[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_straddling_pair(self):
        # sigma2 * c_min / (c_max - c_min) = 0.5 / 1.5
        assert _limits([0.5, 2.0]).variance[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_both_above_boundary(self):
        # sigma2 / (c_max - 1) = 1 / 3
        assert _limits([2.0, 4.0]).variance[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_order_free(self):
        for c, sigma2 in (([0.5, 2.0], 1.3), ([0.2, 0.7], 2.0)):
            V = _limits(c, sigma2).variance
            assert V[1, 0] == V[0, 1]

    def test_scales_linearly_in_noise(self):
        assert _limits([0.3, 0.8], 3.0).variance[0, 1] == pytest.approx(
            3.0 * _limits([0.3, 0.8], 1.0).variance[0, 1]
        )

    def test_boundary_gives_inf(self):
        assert _limits([1.0]).variance[0, 0] == np.inf
        assert _limits([0.5, 1.0]).variance[0, 1] == np.inf
        assert _limits([1.0 + 0.5 * BOUNDARY_DELTA, 2.0]).variance[0, 1] == np.inf

    def test_diverges_approaching_boundary_from_below(self):
        vals = np.diag(_limits(np.linspace(0.5, 0.999, 40)).variance)
        assert np.all(np.diff(vals) > 0.0)
        assert vals[-1] > 500.0  # 0.999 / 0.001

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            _limits([0.0, 0.5])
        with pytest.raises(ValueError):
            _limits([0.5], sigma2=-1.0)
        with pytest.raises(ValueError):
            _limits([0.5, np.inf])


class TestBiasEntry:
    def test_both_below_boundary(self):
        # re_norm_l2 / (1 - c_min); carried norms are irrelevant here
        B = _limits([0.3, 0.6], carried=[1.0, 2.0], total=4.0).bias
        assert B[0, 1] == pytest.approx(2.0 / 0.7, abs=1e-12)

    def test_straddling_pair(self):
        # (c_l-1)/gap * (n_l - n_q) + c_l/gap * re_l = 1/1.5 + 2/1.5
        B = _limits([0.5, 2.0], carried=[1.0, 2.0], total=3.0).bias
        assert B[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_both_above_boundary(self):
        # (c_q-1)/c_q * n_q + (n_l - n_q) + c_l/(c_l-1) * re_l = 0.5 + 1 + 4
        B = _limits([2.0, 4.0], carried=[1.0, 2.0], total=5.0).bias
        assert B[0, 1] == pytest.approx(5.5, abs=1e-12)

    def test_order_free_with_norms_tied_to_ratios(self):
        B = _limits([0.5, 2.0], carried=[1.0, 2.0], total=3.0).bias
        assert B[1, 0] == B[0, 1]

    def test_rejects_norm_decreasing_with_size(self):
        with pytest.raises(ValueError, match="nesting"):
            _limits([0.3, 0.6], carried=[3.0, 2.0], total=4.0)

    def test_boundary_gives_inf(self):
        assert _limits([1.0, 2.0], carried=[1.0, 2.0], total=2.5).bias[0, 1] == np.inf
        assert _limits([0.5, 1.0], carried=[1.0, 2.0], total=2.5).bias[0, 1] == np.inf

    def test_rejects_negative_norms(self):
        with pytest.raises(ValueError):
            _limits([0.3, 0.6], carried=[-1.0, 2.0], total=3.0)
        with pytest.raises(ValueError):
            _limits([0.3, 0.6], carried=[1.0, 2.0], total=np.nan)


class TestSingleModelRisk:
    def test_below_boundary_is_pure_variance(self):
        assert single_model_risk(0.5, 7.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_above_boundary_adds_compression_bias(self):
        # 2*(1 - 1/2) + 1/(2 - 1)
        assert single_model_risk(2.0, 2.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_huge_ratio_tends_to_carried_norm(self):
        assert single_model_risk(1e9, 2.0, 1.0) == pytest.approx(2.0, rel=1e-8)

    def test_boundary_gives_inf(self):
        assert single_model_risk(1.0, 2.0, 1.0) == np.inf

    def test_boundary_is_the_one_used_by_theorem1(self):
        # Both ends of [1 - delta, 1 + delta] are on the boundary, and the
        # nearest floats outside them are not: the diagonal factors, the
        # Theorem-1 matrices and the scalar oracles all read the same interval.
        for edge in (1.0 - BOUNDARY_DELTA, 1.0 + BOUNDARY_DELTA):
            for c in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)):
                on = _on_boundary(c)
                mats = theorem1_matrices([c], [0.5], 1.0, 1.0)
                borders = _weighted_borders(np.array([c]), np.array([0.5]), np.array([0.5]), 1.0, np.ones(1))
                factors = _factors(np.array([c]), np.array([0.5]), np.array([0.5]), 1.0)[2:]
                for part in (*np.ravel(factors), mats.variance[0, 0], mats.bias[0, 0], *np.ravel(borders),
                             _dv_entry(c, c, 1.0), _db_entry(c, c, 0.5, 0.5, 0.5)):
                    assert np.isinf(part) == on
                assert np.isinf(single_model_risk(c, 0.5, 1.0)) == on

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            single_model_risk(-0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            single_model_risk(0.5, -1.0, 1.0)


class TestPhi:
    def test_identity_covariance_is_omitted_norm(self):
        theta = np.array([3.0, 2.0, 1.0, 0.5])
        assert _phi(np.eye(4), theta, 2) == pytest.approx(1.25, abs=1e-14)

    def test_nothing_omitted_is_zero(self):
        assert _phi(np.eye(3), [1.0, 2.0, 3.0], 3) == 0.0

    def test_empty_retained_block_is_full_quadratic_form(self):
        Sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        theta = np.array([1.0, 2.0])
        assert _phi(Sigma, theta, 0) == pytest.approx(float(theta @ Sigma @ theta))

    def test_two_dim_correlated_closed_form(self):
        # Schur complement of a 2x2 correlation matrix is 1 - rho^2.
        rho, t2 = 0.6, 1.7
        Sigma = np.array([[1.0, rho], [rho, 1.0]])
        got = _phi(Sigma, np.array([0.9, t2]), 1)
        assert got == pytest.approx(t2**2 * (1.0 - rho**2), abs=1e-14)

    def test_matches_best_completion_oracle(self, rng):
        # The Schur quadratic form equals the minimum of v' Sigma v over
        # completions v = (free, fixed-tail): solve for the free block.
        p, k = 7, 3
        G = rng.standard_normal((p, p))
        Sigma = G @ G.T + p * np.eye(p)
        theta = rng.standard_normal(p)
        free = -np.linalg.solve(Sigma[:k, :k], Sigma[:k, k:] @ theta[k:])
        v = np.concatenate([free, theta[k:]])
        assert _phi(Sigma, theta, k) == pytest.approx(float(v @ Sigma @ v), rel=1e-10)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="symmetric"):
            _phi(np.array([[1.0, 0.2], [0.0, 1.0]]), [1.0, 1.0], 1)
        with pytest.raises(ValueError, match="k_q"):
            _phi(np.eye(2), [1.0, 1.0], 3)
        with pytest.raises(ValueError, match="positive definite"):
            _phi(np.array([[-1.0, 0.0], [0.0, 1.0]]), [1.0, 1.0], 1)
        with pytest.raises(ValueError, match="2x2"):
            _phi(np.eye(3), [1.0, 1.0], 1)


def _scalar_matrices(c, carried, total, sigma2):
    """Entrywise rebuild of the limit matrices through the scalar formulas."""
    M = len(c)
    V = np.empty((M, M))
    B = np.empty((M, M))
    for q in range(M):
        for l in range(M):
            lo, hi = sorted((q, l))
            V[q, l] = _dv_entry(c[q], c[l], sigma2)
            B[q, l] = _db_entry(c[lo], c[hi], carried[lo], carried[hi], total - carried[hi])
    return V, B


class TestLimitMatrices:
    def test_vectorized_matches_scalar_entries(self, rng):
        # Sizes land on both sides of the boundary to hit every branch.
        c, carried, total = _nested([2, 5, 9, 14, 22, 30], 12, rng.standard_normal(30))
        mats = theorem1_matrices(c, carried, total, 1.7)
        V, B = _scalar_matrices(c, carried, total, 1.7)
        np.testing.assert_allclose(mats.variance, V, rtol=1e-13)
        np.testing.assert_allclose(mats.bias, B, rtol=1e-13)

    @pytest.mark.parametrize("grid", ["below", "above", "straddling", "near-boundary", "at-delta", "single"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), noiseless=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_weighted_borders_sum_to_the_matrix_form(self, grid, seed, noiseless):
        r = np.random.default_rng(seed)
        m = int(r.integers(2, 13))
        lo_edge, hi_edge = 1.0 - BOUNDARY_DELTA, 1.0 + BOUNDARY_DELTA
        c = {
            "below": lambda: r.uniform(0.01, 0.99, m),
            "above": lambda: r.uniform(1.01, 6.0, m),
            "straddling": lambda: r.uniform(0.05, 3.0, m),
            # One ratio inside the boundary band, the rest anywhere.
            "near-boundary": lambda: np.append(r.uniform(0.05, 3.0, m - 1), 1.0 + r.uniform(-1.0, 1.0) * BOUNDARY_DELTA),
            # Ratios exactly at 1 -/+ delta (boundary) and one float past each edge (not).
            "at-delta": lambda: np.append(
                r.uniform(0.05, 3.0, m - 1), [lo_edge, hi_edge, np.nextafter(lo_edge, 0.0), np.nextafter(hi_edge, 2.0)]
            ),
            "single": lambda: r.choice([0.3, lo_edge, 1.0, hi_edge, 2.5], size=1),
        }[grid]()
        c = np.unique(c)  # sorted, strictly increasing
        # Nondecreasing carried norms, with ties, and an omitted tail that may be empty.
        norms2 = np.sort(r.choice([0.0, 0.5, r.uniform(0.0, 3.0), r.uniform(0.0, 3.0)], size=c.size))
        total = float(norms2[-1]) + float(r.choice([0.0, r.uniform(0.0, 2.0)]))
        sigma2 = 0.0 if noiseless else float(r.uniform(0.1, 3.0))
        # A point of the simplex with exact zeros, which may fall on boundary candidates.
        w = r.dirichlet(np.ones(c.size)) * (r.uniform(size=c.size) < 0.6)
        if not w.any():
            w[r.integers(c.size)] = 1.0
        w /= w.sum()
        want = np.array(asymptotic_risk(w, theorem1_matrices(c, norms2, total, sigma2)))
        bv, bb = _weighted_borders(c, norms2, total - norms2, sigma2, w)
        got = np.array([bb.sum() + bv.sum(), bb.sum(), bv.sum()])
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_array_equal(got[~finite], want[~finite])
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * np.abs(want[finite]))

    def test_boundary_row_is_inf(self):
        mats = theorem1_matrices(*_nested([2, 5, 10], 10, np.ones(10)), 1.0)
        assert np.all(np.isinf(mats.variance[2, :]))
        assert np.all(np.isinf(mats.bias[:, 2]))
        assert np.all(np.isfinite(mats.variance[:2, :2]))

    def test_under_parameterized_variance_is_psd(self, rng):
        for _ in range(20):
            c = np.sort(rng.uniform(0.02, 0.95, size=rng.integers(2, 7)))
            c = np.unique(c)
            if c.size < 2:
                continue
            V = np.minimum.outer(c, c)
            V = V / (1.0 - V)
            assert np.linalg.eigvalsh(V)[0] >= -1e-10 * np.abs(V).max()
            np.testing.assert_allclose(theorem1_matrices(c, np.zeros(c.size), 0.0, 2.0).variance, 2.0 * V)

    def test_general_covariance_plugs(self):
        # Omitted squared norms 2 and 1 of a total 3 carried as 1 and 2.
        V, B = _theorem2([0.3, 0.6], [2.0, 1.0], 1.0)
        assert B[0, 0] == pytest.approx(2.0 / 0.7)
        assert V[0, 0] == pytest.approx(0.3 / 0.7)
        assert B[0, 1] == pytest.approx(1.0 / 0.7)
        assert V[1, 1] == pytest.approx(0.6 / 0.4)

    def test_general_covariance_reduces_to_isotropic(self, rng):
        sizes, theta = [2, 5, 9, 12], rng.standard_normal(12)
        c, carried, total = _nested(sizes, 20, theta)
        iso = theorem1_matrices(c, carried, total, 0.8)
        V, B = _theorem2(c, [_phi(np.eye(12), theta, k) for k in sizes], 0.8)
        np.testing.assert_allclose(iso.variance, V, atol=1e-12)
        np.testing.assert_allclose(iso.bias, B, atol=1e-12)

    def test_general_covariance_uses_schur_strengths(self):
        rho = 0.6
        Sigma = np.array([[1.0, rho], [rho, 1.0]])
        theta = np.array([1.0, 2.0])
        phis = [_phi(Sigma, theta, k) for k in (1, 2)]
        np.testing.assert_allclose(phis, [4.0 * (1 - rho**2), 0.0], atol=1e-14)
        _, B = _theorem2([0.1, 0.2], phis, 1.0)
        assert B[0, 0] == pytest.approx(4.0 * (1 - rho**2) / 0.9)
        assert B[1, 1] == pytest.approx(0.0, abs=1e-14)

    def test_general_covariance_rejects_boundary(self):
        with pytest.raises(ValueError, match="below 1"):
            _theorem2([0.2, 1.0], [1.0, 0.0], 1.0)

    def test_input_checks(self):
        with pytest.raises(ValueError, match="at least one"):
            theorem1_matrices([], [], 1.0, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            theorem1_matrices([0.5, 0.5], [1.0, 1.0], 1.0, 1.0)
        with pytest.raises(ValueError, match="one carried norm"):
            theorem1_matrices([0.2, 0.5], [1.0], 1.0, 1.0)
        with pytest.raises(ValueError, match="nesting"):
            theorem1_matrices([0.5], [4.0], 3.0, 1.0)  # carries more than the total
        with pytest.raises(ValueError, match="finite"):
            theorem1_matrices([0.2, 0.5], [np.nan, 1.0], 1.0, 1.0)
        with pytest.raises(ValueError, match="sigma2"):
            theorem1_matrices([0.5], [1.0], 1.0, np.nan)
        # Noiseless responses are allowed: the variance matrix is then zero.
        assert np.all(theorem1_matrices([0.2, 0.5], [1.0, 2.0], 3.0, 0.0).variance == 0.0)

    def test_matrix_container_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            RiskMatrices(
                variance=np.array([[1.0, 2.0], [3.0, 1.0]]), bias=np.zeros((2, 2))
            )
        with pytest.raises(ValueError, match="symmetric"):
            RiskMatrices(
                variance=np.array([[1.0, np.inf], [2.0, 1.0]]), bias=np.zeros((2, 2))
            )
        with pytest.raises(ValueError, match="symmetric"):  # the 1e-10 tolerances, as np.allclose
            RiskMatrices(variance=np.array([[1.0, 1.0 + 1e-9], [1.0, 1.0]]), bias=np.zeros((2, 2)))
        RiskMatrices(variance=np.array([[1.0, 1.0 + 1e-11], [1.0, 1.0]]), bias=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="nonnegative"):
            RiskMatrices(
                variance=np.array([[-1.0, 0.0], [0.0, 1.0]]), bias=np.zeros((2, 2))
            )
        with pytest.raises(ValueError, match="square"):
            RiskMatrices(variance=np.ones((2, 3)), bias=np.ones((2, 3)))

    def test_matrix_container_rejects_nan(self):
        # A NaN would make asymptotic_risk return NaN without an error;
        # +inf stays the boundary sentinel.
        nan_off = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="variance matrix has NaN"):
            RiskMatrices(variance=nan_off, bias=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="bias matrix has NaN"):
            RiskMatrices(variance=np.eye(2), bias=nan_off)
        with pytest.raises(ValueError, match="bias matrix has NaN"):
            RiskMatrices(variance=np.eye(2), bias=np.array([[np.nan, 0.0], [0.0, 0.0]]))
        inf_off = np.array([[1.0, np.inf], [np.inf, np.inf]])
        mats = RiskMatrices(variance=inf_off, bias=np.zeros((2, 2)))
        assert mats.variance[1, 1] == np.inf


class TestVariancePenalizedWeights:
    def test_inverse_variance_proportions(self):
        np.testing.assert_allclose(
            variance_penalized_weights([1.0, 3.0]), [0.75, 0.25]
        )

    def test_infinite_entries_get_zero(self):
        np.testing.assert_allclose(
            variance_penalized_weights([2.0, np.inf]), [1.0, 0.0]
        )

    def test_equal_variances_give_uniform(self):
        np.testing.assert_allclose(
            variance_penalized_weights([5.0, 5.0, 5.0]), np.full(3, 1 / 3)
        )

    def test_rejects_degenerate_diagonals(self):
        with pytest.raises(ValueError, match="infinite"):
            variance_penalized_weights([np.inf, np.inf])
        with pytest.raises(ValueError, match="positive"):
            variance_penalized_weights([1.0, 0.0])
        with pytest.raises(ValueError, match="at least one"):
            variance_penalized_weights([])


class TestAsymptoticRisk:
    def test_uniform_quadratic_form_plug(self):
        mats = RiskMatrices(
            variance=np.array([[1.0, 2.0], [2.0, 5.0]]), bias=np.zeros((2, 2))
        )
        risk, bias_part, var_part = asymptotic_risk([0.5, 0.5], mats)
        assert var_part == pytest.approx(2.5, abs=1e-15)
        assert bias_part == 0.0
        assert risk == pytest.approx(2.5, abs=1e-15)

    def test_vertex_matches_single_model_when_all_signal_carried(self):
        # Signal entirely inside the smallest candidate: no omitted-norm
        # coupling, so each vertex reproduces the lone-model closed form.
        c, carried, total = _nested([1, 3, 6], 4, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        mats = theorem1_matrices(c, carried, total, 1.5)
        for q in range(3):
            w = np.zeros(3)
            w[q] = 1.0
            risk, _, _ = asymptotic_risk(w, mats)
            assert risk == pytest.approx(single_model_risk(c[q], carried[q], 1.5), rel=1e-12)
            assert sum(map(np.sum, _weighted_borders(c, carried, total - carried, 1.5, w))) == pytest.approx(risk)

    def test_zero_weight_silences_infinite_entries(self):
        V = np.array([[1.0, np.inf], [np.inf, np.inf]])
        mats = RiskMatrices(variance=V, bias=np.zeros((2, 2)))
        risk, _, var_part = asymptotic_risk([1.0, 0.0], mats)
        assert risk == pytest.approx(1.0)
        assert np.isfinite(var_part)
        bv, _ = _weighted_borders(np.array([0.5, 1.0]), np.zeros(2), np.zeros(2), 1.0, np.array([1.0, 0.0]))
        assert bv.tolist() == [1.0, 0.0]

    def test_tiny_positive_weight_keeps_inf(self):
        V = np.array([[1.0, np.inf], [np.inf, np.inf]])
        mats = RiskMatrices(variance=V, bias=np.zeros((2, 2)))
        risk, _, _ = asymptotic_risk([1.0 - 1e-12, 1e-12], mats)
        assert risk == np.inf
        bv, _ = _weighted_borders(np.array([0.5, 1.0]), np.zeros(2), np.zeros(2), 1.0, np.array([1.0 - 1e-12, 1e-12]))
        assert bv[1] == np.inf


class TestSurfaceRowSums:
    @given(
        n_kind=st.sampled_from(["one", "two", "inside", "above"]),
        m_max=st.integers(min_value=2, max_value=24),
        # Truncation at 1 zeroes every omitted norm, so cells below the boundary have bias exactly 0.
        truncate=st.one_of(st.sampled_from([1, 2]), st.integers(min_value=3, max_value=30)),
        log_sigma2=st.floats(min_value=-6.0, max_value=2.0),
        exponent=st.floats(min_value=0.0, max_value=2.0),
        weighting=st.sampled_from(["equal", "variance_penalized"]),
        exclude=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_prefix_matches_a_brute_force_quadratic_form(
        self, n_kind, m_max, truncate, log_sigma2, exponent, weighting, exclude
    ):
        # Equal weights without exclusion put positive weight on the k = n candidate; the other
        # three rules give it weight 0.
        n = {"one": 1, "two": 2, "inside": max(3, m_max // 2), "above": m_max + 3}[n_kind]
        sigma2 = 10.0**log_sigma2
        profile = PowerLawProfile(exponent=exponent, scale=1.3, truncate=truncate)
        ks = np.arange(1, m_max + 1)
        # At n = 1 the cell M = 1 would have no candidate left.
        sizes = ks[1:] if n == 1 and (exclude or weighting == "variance_penalized") else ks
        surface = risk_surface([n], sizes, profile, sigma2=sigma2, weighting=weighting, exclude_singular=exclude)
        mats = theorem1_matrices(ks / n, profile.prefix_norm2(ks), profile.total_norm2(), sigma2)
        u = np.ones(m_max) if weighting == "equal" else 1.0 / np.diag(mats.variance)
        if exclude and n <= m_max:
            u[n - 1] = 0.0
        for i, M in enumerate(sizes):
            active = np.flatnonzero(u[:M] > 0.0)
            w = u[active] / u[active].sum()
            for got, A in ((surface.bias[i], mats.bias), (surface.variance[i], mats.variance)):
                block = A[np.ix_(active, active)]
                want = np.inf if np.any(np.isinf(block)) else float(w @ block @ w)
                if want == 0.0 or np.isinf(want):
                    assert got == want
                else:
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestDeltaVLimit:
    def test_single_candidate_plug(self):
        # c^2 / (1 - c) = 0.25 / 0.5
        assert _delta_v([1.0], [0.5], 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_two_candidate_plug(self):
        # pairwise min ratios (0.2, 0.2; 0.2, 0.5): 0.25*(3*0.05 + 0.5)
        got = _delta_v([0.5, 0.5], [0.2, 0.5], 1.0)
        assert got == pytest.approx(0.1625, abs=1e-15)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_positive_and_bounded_on_simplex(self, m, seed):
        r = np.random.default_rng(seed)
        w = r.dirichlet(np.ones(m))
        c = np.sort(r.uniform(0.01, 0.99, size=m))
        val = _delta_v(w, c, 2.0)
        assert val > 0.0
        assert val <= 2.0 * float(np.max(c**2 / (1.0 - c))) + 1e-12

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_is_the_out_of_sample_minus_in_sample_variance(self, m, seed):
        # Nested projections give an in-sample variance of exactly
        # sigma2 w' min(c_q, c_l) w, so the gap to the Theorem-1 variance
        # limit w' D_V w is the oracle's closed form.
        r = np.random.default_rng(seed)
        w = r.dirichlet(np.ones(m))
        c = np.unique(r.uniform(0.01, 0.99, size=m))
        w = w[: c.size] / w[: c.size].sum()
        V = theorem1_matrices(c, np.zeros(c.size), 0.0, 1.7).variance
        in_sample = 1.7 * float(w @ np.minimum.outer(c, c) @ w)
        assert float(w @ V @ w) - in_sample == pytest.approx(_delta_v(w, c, 1.7), rel=1e-10)

    def test_rejects_ratios_outside_open_interval(self):
        with pytest.raises(ValueError, match="inside"):
            _delta_v([1.0], [1.0], 1.0)
        with pytest.raises(ValueError, match="inside"):
            _delta_v([0.5, 0.5], [0.5, 1.2], 1.0)
        with pytest.raises(ValueError, match="length"):
            _delta_v([1.0], [0.3, 0.4], 1.0)


class TestPowerLawProfile:
    def test_half_variance_ratio_gives_harmonic_decay(self):
        profile = PowerLawProfile.from_r2(0.5, 0.5, 400)
        j = np.arange(1, 6, dtype=float)
        np.testing.assert_allclose(profile.coefficients(5), 1.0 / j, atol=1e-14)

    def test_snr_construction_pins_total_norm(self):
        profile = PowerLawProfile.from_snr(2.5, 0.6, sigma2=2.0)
        assert profile.total_norm2() == pytest.approx(5.0, rel=1e-12)

    def test_truncation_zeroes_the_tail(self):
        profile = PowerLawProfile(exponent=1.0, scale=1.0, truncate=3)
        coefs = profile.coefficients(6)
        np.testing.assert_allclose(coefs[:3], [1.0, 0.5, 1 / 3])
        assert np.all(coefs[3:] == 0.0)
        assert profile.prefix_norm2(10) == pytest.approx(profile.total_norm2())

    def test_prefix_norm_is_cumulative_and_monotone(self):
        profile = PowerLawProfile.from_snr(1.0, 0.6)
        ks = np.arange(0, 401)
        pre = profile.prefix_norm2(ks)
        assert pre[0] == 0.0
        assert np.all(np.diff(pre) >= 0.0)
        coefs = profile.coefficients(400)
        assert pre[7] == pytest.approx(float(np.sum(coefs[:7] ** 2)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLawProfile(exponent=1.0, scale=1.0, truncate=0)
        with pytest.raises(ValueError):
            PowerLawProfile(exponent=1.0, scale=-1.0)
        with pytest.raises(ValueError):
            PowerLawProfile.from_r2(1.0, 0.5, 400)
        with pytest.raises(ValueError):
            PowerLawProfile.from_r2(0.5, 0.0, 400)
        with pytest.raises(ValueError):
            PowerLawProfile.from_snr(0.0, 0.6)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: PowerLawProfile.from_snr(1.0, 0.6, truncate=0), "truncate"),
            (lambda: PowerLawProfile.from_snr(np.nan, 0.6), "snr"),
            (lambda: PowerLawProfile.from_snr(np.inf, 0.6), "snr"),
            (lambda: PowerLawProfile.from_snr(1.0, 0.6, sigma2=0.0), "sigma2"),
            (lambda: PowerLawProfile.from_snr(1.0, np.nan), "exponent"),
            (lambda: PowerLawProfile.from_r2(1.5, 0.5, 400), "r2"),
            (lambda: PowerLawProfile.from_r2(np.nan, 0.5, 400), "r2"),
            (lambda: PowerLawProfile.from_r2(0.5, np.inf, 400), "alpha"),
            (lambda: PowerLawProfile.from_r2(0.5, 0.5, 0), "p"),
            (lambda: PowerLawProfile(exponent=1.0, scale=np.nan), "scale"),
            # An overflowing scale is reported under the argument the caller gave.
            (lambda: PowerLawProfile.from_snr(1e308, 0.6, sigma2=1e308), "snr"),
            (lambda: PowerLawProfile.from_r2(0.5, 1e308, 400), "alpha"),
        ],
    )
    def test_bad_values_are_input_errors_naming_the_field(self, build, field):
        with pytest.raises(InputError) as err:
            build()
        assert err.value.field == field


@pytest.fixture(scope="module")
def snr_profile():
    return PowerLawProfile.from_snr(1.0, 0.6, sigma2=1.0, truncate=400)


class TestRiskSurface:
    def test_risk_splits_into_bias_plus_variance(self, snr_profile):
        surface = risk_surface([50], [10, 30, 49], snr_profile)
        np.testing.assert_allclose(
            surface.risk, surface.bias + surface.variance, atol=1e-10
        )
        assert np.all(np.isfinite(surface.risk))

    def test_single_cell_matches_scalar_rebuild(self, snr_profile):
        surface = risk_surface([40], [10], snr_profile, sigma2=1.3)
        theta = snr_profile.coefficients(snr_profile.truncate)
        V, B = _scalar_matrices(*_nested(np.arange(1, 11), 40, theta), 1.3)
        w = np.full(10, 0.1)
        expected = float(w @ (V + B) @ w)
        assert surface.risk[0] == pytest.approx(expected, rel=1e-12)

    def test_equal_weights_hit_inf_on_the_diagonal(self, snr_profile):
        surface = risk_surface([20], [10, 20], snr_profile)
        assert np.isfinite(surface.risk[0])
        assert surface.risk[1] == np.inf
        assert not surface.excluded_singular[1]

    def test_exclusion_drops_the_interpolating_candidate(self, snr_profile):
        surface = risk_surface([20], [10, 20, 30], snr_profile, exclude_singular=True)
        assert np.all(np.isfinite(surface.risk))
        np.testing.assert_array_equal(surface.excluded_singular, [False, True, True])

    def test_exclusion_with_nothing_left_raises(self, snr_profile):
        with pytest.raises(ValueError, match="no candidates"):
            risk_surface([1], [1], snr_profile, exclude_singular=True)
        with pytest.raises(ValueError, match=r"cell \(n=1, M=1\) has no candidates"):
            risk_surface([2, 1], [3, 1], snr_profile, weighting="variance_penalized", exclude_singular=True)
        # Without exclusion the lone boundary candidate gets inverse-variance weight 0.
        with pytest.raises(ValueError, match="all candidates have infinite variance"):
            risk_surface([1], [2, 1], snr_profile, weighting="variance_penalized")

    def test_variance_penalized_is_finite_through_the_boundary(self, snr_profile):
        surface = risk_surface(
            [20, 40], [10, 20, 40, 60], snr_profile, weighting="variance_penalized"
        )
        assert np.all(np.isfinite(surface.risk))
        assert surface.weighting == "variance_penalized"

    def test_single_weighting_uses_lone_model_closed_form(self, snr_profile):
        # The lone model is the Theorem-1 diagonal entry, omitted signal included.
        surface = risk_surface([20], [10, 20, 40], snr_profile, weighting="single")
        sizes = np.array([10, 20, 40])
        mats = theorem1_matrices(sizes / 20, snr_profile.prefix_norm2(sizes), snr_profile.total_norm2(), 1.0)
        assert surface.risk[0] == pytest.approx(mats.variance[0, 0] + mats.bias[0, 0], rel=1e-13)
        assert surface.risk[1] == np.inf
        assert surface.risk[2] == pytest.approx(mats.variance[2, 2] + mats.bias[2, 2], rel=1e-13)
        assert surface.bias[0] > 0.0

    def test_single_weighting_is_the_lone_model_form_when_all_signal_is_carried(self):
        # With truncate <= M the candidate omits nothing, and the lone-model oracle applies.
        profile = PowerLawProfile.from_snr(1.0, 0.6, truncate=5)
        ms = [5, 10, 20, 40, 80]
        surface = risk_surface([20], ms, profile, sigma2=1.7, weighting="single")
        for i, m in enumerate(ms):
            expected = single_model_risk(m / 20.0, float(profile.prefix_norm2(m)), 1.7)
            assert surface.risk[i] == pytest.approx(expected, rel=1e-13)
        assert surface.bias[1] == 0.0 < surface.bias[3]

    def test_single_weighting_columns_are_the_lone_model_parts(self, snr_profile):
        ms = [5, 10, 20, 40, 80]  # c = 0.25, 0.5, 1 (boundary), 2, 4 at n = 20
        surface = risk_surface([20], ms, snr_profile, sigma2=1.7, weighting="single")
        sizes = np.arange(1, 81)
        mats = theorem1_matrices(sizes / 20, snr_profile.prefix_norm2(sizes), snr_profile.total_norm2(), 1.7)
        for i, m in enumerate(ms):
            parts = (mats.bias[m - 1, m - 1], mats.variance[m - 1, m - 1])
            assert (surface.bias[i], surface.variance[i]) == pytest.approx(parts, rel=1e-13)
            assert surface.risk[i] == surface.bias[i] + surface.variance[i]
        assert surface.risk[2] == np.inf
        assert 0.0 < surface.bias[0]

    def test_rejects_unknown_weighting_and_empty_grid(self, snr_profile):
        with pytest.raises(ValueError, match="weighting"):
            risk_surface([20], [10], snr_profile, weighting="softmax")
        with pytest.raises(ValueError, match="non-empty"):
            risk_surface([], [10], snr_profile)
        with pytest.raises(ValueError, match="^n_values: .*at least 1"):
            risk_surface([0], [10], snr_profile)

    @pytest.mark.parametrize("weighting", ["equal", "variance_penalized"])
    def test_rejects_overflowing_squared_norms(self, weighting):
        # The inputs are checked once per call, not per n; the check must still run.
        profile = PowerLawProfile(exponent=0.0, scale=1e200, truncate=10)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="squared norms must be nonnegative and finite"):
                risk_surface([20, 40], [10], profile, weighting=weighting)

    @pytest.mark.parametrize(
        "n_values, m_values",
        # Unsorted and duplicated M, with M < n, M = n and M > n for both n; then a
        # 299 x 400 rectangle of pairs across the boundary, above one block of entries.
        [([12, 7], [15, 3, 12, 7, 3, 20, 1, 15]), ([300], [700, 299])],
        ids=["small", "past-one-block"],
    )
    @pytest.mark.parametrize("exclude", [False, True])
    @pytest.mark.parametrize("weighting", ["equal", "variance_penalized"])
    def test_every_cell_equals_a_per_cell_rebuild(self, snr_profile, weighting, exclude, n_values, m_values):
        # The surface sums each row's borders where the rebuild forms w'Aw, so the
        # finite cells agree up to summation order.
        surface = risk_surface(
            n_values, m_values, snr_profile, sigma2=1.3, weighting=weighting, exclude_singular=exclude
        )
        theta = snr_profile.coefficients(max(snr_profile.truncate, *m_values))  # zeros past the truncation
        cells = [(n, m) for n in n_values for m in m_values]
        for i, (n, m) in enumerate(cells):
            sizes = np.arange(1, m + 1)
            if exclude and m >= n:
                sizes = sizes[sizes != n]
            mats = theorem1_matrices(*_nested(sizes, n, theta), 1.3)
            if weighting == "equal":
                w = np.full(sizes.size, 1.0 / sizes.size)
            else:
                w = variance_penalized_weights(np.diag(mats.variance))
            assert (surface.n[i], surface.M[i], surface.excluded_singular[i]) == (
                n, m, exclude and m >= n
            )
            got = np.array([surface.risk[i], surface.bias[i], surface.variance[i]])
            want = np.array(asymptotic_risk(w, mats))
            finite = np.isfinite(want)
            np.testing.assert_array_equal(np.isfinite(got), finite)
            np.testing.assert_array_equal(got[~finite], want[~finite])
            assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * np.abs(want[finite]))
            if weighting == "equal" and not exclude and m >= n:
                assert surface.risk[i] == np.inf

    def test_largest_m_far_above_n_needs_no_m_by_m_array(self, snr_profile):
        # Every M x M array at M = 200,000 would take 320 GB; the row is running sums of vectors.
        surface = risk_surface([3], [1000, 200_000], snr_profile, weighting="variance_penalized")
        assert np.all(np.isfinite([surface.risk, surface.bias, surface.variance]))
        sizes = np.arange(1, 1001)
        mats = theorem1_matrices(sizes / 3.0, snr_profile.prefix_norm2(sizes), snr_profile.total_norm2(), 1.0)
        want = np.array(asymptotic_risk(variance_penalized_weights(np.diag(mats.variance)), mats))
        got = np.array([surface.risk[0], surface.bias[0], surface.variance[0]])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_a_row_needs_memory_linear_in_m(self, snr_profile):
        # At n = M / 2 the pairs across the boundary form a 1999 x 2000 rectangle, 32 MB as one
        # array; its column sums are taken a block at a time.
        tracemalloc.start()
        try:
            surface = risk_surface([2000], [4000], snr_profile, weighting="variance_penalized")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(surface.risk[0])
        assert peak < 8 * 2**20

    def test_csv_layout(self, snr_profile):
        surface = risk_surface([20], [10, 20], snr_profile, exclude_singular=True)
        buf = io.StringIO()
        surface.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n,M,weighting,risk,bias,variance,excluded_singular"
        first = lines[1].split(",")
        assert first[:3] == ["20", "10", "equal"]
        assert float(first[3]) == pytest.approx(surface.risk[0])
        assert first[6] == "false"
        assert lines[2].split(",")[6] == "true"


class TestLoneModelDiagonal:
    """A candidate alone is a vertex e_m of the Theorem-1 form: its limit is the diagonal entry."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), edges=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_factors_diagonal_is_the_vertex_of_the_form(self, seed, edges):
        r = np.random.default_rng(seed)
        lo_edge, hi_edge = 1.0 - BOUNDARY_DELTA, 1.0 + BOUNDARY_DELTA
        c = r.uniform(0.05, 3.0, int(r.integers(1, 12)))
        if edges:  # ratios exactly at 1 -/+ delta (boundary) and one float past each edge (not)
            c = np.append(c, [lo_edge, hi_edge, np.nextafter(lo_edge, 0.0), np.nextafter(hi_edge, 2.0)])
        c = np.unique(c)
        norms2 = np.sort(r.choice([0.0, 0.5, r.uniform(0.0, 3.0), r.uniform(0.0, 3.0)], size=c.size))
        total = float(norms2[-1]) + float(r.choice([0.0, r.uniform(0.0, 2.0)]))
        sigma2 = float(r.uniform(0.1, 3.0))
        re2 = total - norms2
        # The lone-model parts as risk_surface reads them for "single" cells.
        lo, _, variance, p, q = _factors(c, norms2, re2, sigma2)
        bias = p + q
        bias[lo] = p[lo] * q[lo]
        mats = theorem1_matrices(c, norms2, total, sigma2)
        on = np.array([_on_boundary(x) for x in c])
        for m in range(c.size):
            bv, bb = _weighted_borders(c, norms2, re2, sigma2, np.eye(c.size)[m])
            assert (bias[m], variance[m]) == (bb.sum(), bv.sum())
            for got, want in ((bias[m], mats.bias[m, m]), (variance[m], mats.variance[m, m])):
                assert got == want if on[m] else abs(got - want) <= 1e-13 * abs(want)
        np.testing.assert_array_equal(np.isinf(bias) | np.isinf(variance), on)
        assert np.all(bias[on] == np.inf) and np.all(variance[on] == np.inf)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_single_cells_are_the_diagonal_and_equal_at_one_candidate(self, seed):
        r = np.random.default_rng(seed)
        profile = PowerLawProfile.from_snr(float(r.uniform(0.2, 5.0)), float(r.uniform(0.2, 1.5)),
                                           truncate=int(r.integers(1, 90)))
        sigma2 = float(r.uniform(0.1, 3.0))
        ns = r.choice(np.arange(1, 61), size=4, replace=False)
        ms = np.append(r.choice(np.arange(2, 121), size=5, replace=False), 1)
        single = risk_surface(ns, ms, profile, sigma2=sigma2, weighting="single")
        equal = risk_surface(ns, [1], profile, sigma2=sigma2)
        np.testing.assert_array_equal(single.risk[single.M == 1], equal.risk)
        sizes = np.arange(1, ms.max() + 1)
        norms2, total = profile.prefix_norm2(sizes), profile.total_norm2()
        for i, (n, m) in enumerate(zip(single.n, single.M)):
            mats = theorem1_matrices(sizes / n, norms2, total, sigma2)
            bv, bb = _weighted_borders(sizes / n, norms2, total - norms2, sigma2, np.eye(sizes.size)[m - 1])
            assert (single.bias[i], single.variance[i]) == (bb.sum(), bv.sum())
            assert single.risk[i] == pytest.approx(mats.bias[m - 1, m - 1] + mats.variance[m - 1, m - 1], rel=1e-13)
            assert (single.risk[i] == np.inf) == (m == n)

    @pytest.mark.parametrize("m", [100, 300])
    def test_single_cell_matches_monte_carlo(self, m):
        # The CLI's default profile at n = 200, on both sides of the boundary, within criterion 2's 10%.
        profile = PowerLawProfile.from_snr(1.0, 0.6)
        limit = risk_surface([200], [m], profile, weighting="single").risk[0]
        report = validate_theorem1(200, [m], profile.coefficients(400), 1.0, reps=40, seed=0, w=[1.0])
        assert abs(limit - report["empirical_risk"]) <= 0.10 * report["empirical_risk"]


class TestSurfaceShape:
    """Exact limit evaluations pin the spike-then-descent geometry."""

    def test_risk_jumps_approaching_the_boundary(self, snr_profile):
        surface = risk_surface([100], [50, 99], snr_profile, exclude_singular=True)
        risk_50, risk_99 = surface.risk
        assert risk_99 > risk_50
        assert risk_50 == pytest.approx(0.5356, abs=2e-4)
        assert risk_99 == pytest.approx(1.2741, abs=2e-4)

    def test_spike_peaks_past_the_boundary_then_descends(self, snr_profile):
        ms = np.arange(100, 201, 5)
        surface = risk_surface([100], ms, snr_profile, exclude_singular=True)
        peak = int(ms[np.argmax(surface.risk)])
        assert 100 < peak < 200
        assert peak == 130
        after = surface.risk[ms >= peak]
        assert np.all(np.diff(after) < 0.0)
        assert np.all(np.isfinite(surface.risk))
        assert surface.risk[ms == 130][0] == pytest.approx(1.7708, abs=2e-4)

    def test_descent_stays_above_the_well_posed_regime(self, snr_profile):
        surface = risk_surface([100], [50, 200], snr_profile, exclude_singular=True)
        assert surface.risk[1] > surface.risk[0]
