"""Values the library does not compute, coded term by term as test oracles.

Each oracle evaluates its formula directly, apart from the library's program
assembly and row borders, so that agreement with them is evidence rather
than a restatement.  The forward ordering is here as one least-squares fit
per step and candidate column; the library sweeps residuals instead.  The
Theorem-1 limit is here as whole M x M matrices filled by boolean masks,
read as the quadratic form w'(D_V + D_B)w; the library only ever sums row
borders of it.  A nested or Gram program is here as the dense matrix its
``NestedForm`` or ``GramForm`` describes; the solver only reads the vectors
or the factor.  A small simplex program is solved here by enumerating its
faces; the solver walks an active set instead.  The finite-n expected risk
of a lone model, which the library does not compute, is here from the
inverse-Wishart trace moments.  A risk surface is here as it was once
built, one grid row at a time with each diagonal block taken by slices;
the library forms a block of rows at once.  A repeated-split evaluation is
here as it was once run, one ``fit_all`` and one ``compute_weights`` per
split and method; the library fits a chunk of splits from one stacked QR and
weighs its mma and lama programs as one stack.
"""

from dataclasses import dataclass
from itertools import combinations

import warnings

import numpy as np

from lama import experiments as xp
from lama.models import Dataset, fit_all
from lama.qp import GramForm, NestedForm
import lama.risk_theory as rt
from lama.risk_theory import BOUNDARY_DELTA, _theorem1_inputs


def forward_order(X, Y, has_intercept: bool) -> list[int]:
    """Greedy forward selection by residual sum of squares, each fit by ``np.linalg.lstsq``.

    An intercept (column 0) is seeded first.  Each step skips the columns whose
    residual against the selected ones has norm at most 1e-12 max(||x_j||, 1)
    and takes the largest RSS drop, the lowest index on exact ties.  It stops at
    min(n - 2, p) terms or when no column is left; the rest follow in order.
    """
    n, p = X.shape

    def residual(cols, v):
        return v - X[:, cols] @ np.linalg.lstsq(X[:, cols], v, rcond=None)[0] if cols else v

    selected = [0] if has_intercept else []
    while len(selected) < min(n - 2, p):
        base, spans = residual(selected, Y), residual(selected, X)
        best, best_drop = None, -np.inf
        for j in range(p):
            if j in selected or np.linalg.norm(spans[:, j]) <= 1e-12 * max(np.linalg.norm(X[:, j]), 1.0):
                continue
            rest = residual(selected + [j], Y)
            drop = base @ base - rest @ rest
            if drop > best_drop:
                best, best_drop = j, drop
        if best is None:
            break
        selected.append(best)
    return selected + [j for j in range(p) if j not in selected]


def matrix(A) -> np.ndarray:
    """The dense A of a program: A(q,l) = g[max(q,l)] + h[min(q,l)] + 1{q=l} r_q
    for a ``NestedForm``, B'B for a ``GramForm``, else A itself."""
    if isinstance(A, GramForm):
        return A.B.T @ A.B
    if not isinstance(A, NestedForm):
        return np.asarray(A, dtype=np.float64)
    i = np.arange(len(A.g))
    dense = A.g[np.maximum.outer(i, i)] + A.h[np.minimum.outer(i, i)]
    if A.r is not None:
        dense[np.diag_indices_from(dense)] += A.r
    return dense


def simplex_minimum(A, b) -> tuple[np.ndarray, float]:
    """(weights, objective) minimizing w'Aw + b'w over the simplex, for a convex program with M <= 7.

    Every support S gives the bordered KKT system [2 A_SS, c1; c1', 0] [w_S; lam] = [-b_S; c],
    solved by ``np.linalg.lstsq``; each solution with w_S >= 0 is clipped onto the simplex, and
    the least objective among them is the minimum.  A vertex of the optimal set is the unique
    minimizer on its own support's affine hull, so that system is nonsingular and yields it.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    M = b.size
    if M > 7:
        raise ValueError("the face enumeration is for programs with at most 7 candidates")
    c = max(1.0, float(np.max(np.abs(A))))
    best, best_value = None, np.inf
    for k in range(1, M + 1):
        for S in map(list, combinations(range(M), k)):
            K = np.zeros((k + 1, k + 1))
            K[:k, :k] = 2.0 * A[np.ix_(S, S)]
            K[:k, k] = K[k, :k] = c
            wS = np.linalg.lstsq(K, np.append(-b[S], c), rcond=None)[0][:k]
            if wS.min() < -1e-9:
                continue
            w = np.zeros(M)
            w[S] = np.maximum(wS, 0.0)
            w /= w.sum()
            objective = float(w @ A @ w + b @ w)
            if objective < best_value:
                best, best_value = w, objective
    return best, best_value


def value(program, w) -> float:
    """w'Aw + b'w of a ``QuadraticProgram``."""
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    return float(w @ matrix(program.A) @ w + program.b @ w)


def lama_criterion_value(fits, sigma2_hat: float, xi_value: float, w) -> float:
    """Per-observation large-model criterion evaluated term by term.

    Residual quadratic form / n, plus 2 sigma2 sum w_q k_q / n, plus the
    variance-correction gap w'Vw - sigma2 w' k_min w / n with the plug-in
    V = sigma2 k_min / (n - k_min), plus the xi ridge on diag(V).  It reads
    the residuals themselves, not the residual sums of squares: times n, it
    must equal ``lama_program(*lama_vectors(fits, sigma2_hat), xi_value)`` on
    the simplex.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape[0] != fits.M:
        raise ValueError("weight length does not match candidates")
    n = fits.n
    sizes = fits.sizes.astype(np.float64)
    r = fits.residuals @ w
    fit_term = float(r @ r) / n
    penalty = 2.0 * sigma2_hat * float(w @ sizes) / n
    kmin = np.minimum.outer(sizes, sizes)
    V = sigma2_hat * kmin / (n - kmin)
    delta_v = float(w @ V @ w) - sigma2_hat * float(w @ kmin @ w) / n
    ridge = xi_value * float(w @ (np.diag(V) * w))
    return fit_term + penalty + delta_v + ridge


def single_model_risk(c: float, norm2: float, sigma2: float) -> float:
    """Limiting out-of-sample risk of one min-norm least-squares fit that carries all the signal.

    This is the Theorem-1 diagonal entry in the special case of no omitted signal (re2 = 0):
    sigma2 c / (1 - c) below the boundary (no bias contribution there);
    norm2 (1 - 1/c) + sigma2 / (c - 1) above it, where norm2 is the squared
    norm of the coefficients the model carries.  +inf for c in
    [1 - BOUNDARY_DELTA, 1 + BOUNDARY_DELTA].
    """
    c, norm2, sigma2 = float(c), float(norm2), float(sigma2)
    if not (np.isfinite(c) and c > 0.0 and np.isfinite(sigma2) and sigma2 > 0.0):
        raise ValueError(f"c and sigma2 must be positive and finite, got {c}, {sigma2}")
    if not (np.isfinite(norm2) and norm2 >= 0.0):
        raise ValueError(f"norm2 must be nonnegative and finite, got {norm2}")
    if 1.0 - BOUNDARY_DELTA <= c <= 1.0 + BOUNDARY_DELTA:
        return np.inf
    if c < 1.0:
        return sigma2 * c / (1.0 - c)
    return norm2 * (1.0 - 1.0 / c) + sigma2 / (c - 1.0)


def finite_single_model_risk(n: int, k: int, head2: float, tail2: float, sigma2: float) -> float:
    """Expected out-of-sample risk at finite n of one min-norm least-squares fit of k isotropic Gaussian columns.

    head2 and tail2 are the squared norms of the coefficients the fit carries and omits; the omitted
    columns reach the response as noise, so the fit sees noise variance s = sigma2 + tail2.  Below the
    boundary E tr((X'X)^-1) = k / (n - k - 1) (Breiman & Freedman 1983), so the risk is
    s k / (n - k - 1) + tail2.  Above it the fit keeps the projection of the carried coefficients on the
    row space, a share n / k of head2 in expectation, and E tr((XX')^-1) = n / (k - n - 1) (Belkin, Hsu &
    Xu 2020): head2 (1 - n / k) + s n / (k - n - 1) + tail2.  +inf for |k - n| <= 1.
    """
    s = sigma2 + tail2
    if abs(k - n) <= 1:
        return np.inf
    if k < n:
        return s * k / (n - k - 1) + tail2
    return head2 * (1.0 - n / k) + s * n / (k - n - 1) + tail2


@dataclass(frozen=True)
class RiskMatrices:
    """Symmetric variance and bias matrices; +inf marks boundary entries."""

    variance: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.variance, dtype=np.float64)
        B = np.asarray(self.bias, dtype=np.float64)
        if V.ndim != 2 or V.shape[0] != V.shape[1] or B.shape != V.shape:
            raise ValueError("variance and bias must be square matrices of equal shape")
        for name, A in (("variance", V), ("bias", B)):
            if np.isnan(A).any():
                raise ValueError(f"{name} matrix has NaN entries")
            finite = np.isfinite(A)
            symmetric = np.array_equal(finite, finite.T) and np.allclose(A[finite], A.T[finite], atol=1e-10, rtol=1e-10)
            if not symmetric:
                raise ValueError(f"{name} matrix must be symmetric")
        if np.any(V[np.isfinite(V)] < 0.0):
            raise ValueError("variance entries must be nonnegative")
        object.__setattr__(self, "variance", V)
        object.__setattr__(self, "bias", B)


def _mask_entries(c, norms2, re2, sigma2):
    """The (variance, bias) limit matrices by boolean masks over whole M x M arrays.

    re2 is the omitted norm total_norm2 - norms2; every pair reads its
    smaller ratio and norm as min and the larger as max.
    """
    M = c.shape[0]
    cmin, cmax = np.minimum.outer(c, c), np.maximum.outer(c, c)
    n2min, n2max = np.minimum.outer(norms2, norms2), np.maximum.outer(norms2, norms2)
    remax = np.minimum.outer(re2, re2)

    DV = np.full((M, M), np.inf)
    DB = np.full((M, M), np.inf)
    under = cmax < 1.0 - BOUNDARY_DELTA
    over = cmin > 1.0 + BOUNDARY_DELTA
    mixed = (cmin < 1.0 - BOUNDARY_DELTA) & (cmax > 1.0 + BOUNDARY_DELTA)

    DV[under] = sigma2 * cmin[under] / (1.0 - cmin[under])
    DV[mixed] = sigma2 * cmin[mixed] / (cmax[mixed] - cmin[mixed])
    DV[over] = sigma2 / (cmax[over] - 1.0)

    DB[under] = remax[under] / (1.0 - cmin[under])
    gap = cmax[mixed] - cmin[mixed]
    DB[mixed] = (cmax[mixed] - 1.0) / gap * (n2max[mixed] - n2min[mixed]) + cmax[mixed] / gap * remax[mixed]
    DB[over] = (
        (cmin[over] - 1.0) / cmin[over] * n2min[over]
        + (n2max[over] - n2min[over])
        + cmax[over] / (cmax[over] - 1.0) * remax[over]
    )
    return DV, DB


def theorem1_matrices(c, norms2, total_norm2: float, sigma2: float) -> RiskMatrices:
    """Variance and bias limit matrices under an isotropic design.

    c holds the strictly increasing aspect ratios k_q / n of the nested
    candidates; norms2[q] is the squared signal norm candidate q carries and
    total_norm2 that of the whole coefficient sequence, so candidate q omits
    total_norm2 - norms2[q].  sigma2 may be zero (noiseless responses).
    """
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"sigma2 must be nonnegative and finite, got {sigma2}")
    c, norms2 = _theorem1_inputs(c, norms2, total_norm2)
    return RiskMatrices(*_mask_entries(c, norms2, total_norm2 - norms2, sigma2))


def asymptotic_risk(w, matrices: RiskMatrices) -> tuple[float, float, float]:
    """(risk, bias part, variance part) of the limit w'(V + B)w over the entries with w > 0.

    Infinite entries met with zero weight contribute nothing; any infinite
    entry with positive weight on both sides makes the part +inf.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    active = w > 0.0
    wa = w[active]
    parts = []
    for A in (matrices.bias, matrices.variance):
        Aa = A[np.ix_(active, active)]
        parts.append(np.inf if np.any(np.isinf(Aa)) else float(wa @ Aa @ wa))
    bias_part, var_part = parts
    return bias_part + var_part, bias_part, var_part


def variance_penalized_weights(dv_diag) -> np.ndarray:
    """Weights proportional to inverse limiting variance.

    Candidates with infinite variance get weight exactly 0; at least one
    entry must be finite, and every entry positive.
    """
    d = np.asarray(dv_diag, dtype=np.float64).reshape(-1)
    if d.size == 0:
        raise ValueError("need at least one candidate")
    if np.any(np.isnan(d)) or np.any(d <= 0.0):
        raise ValueError("variance diagonal must be positive (or +inf)")
    inv = 1.0 / d
    if inv.sum() == 0.0:
        raise ValueError("all candidates have infinite variance")
    return inv / inv.sum()


def _row_factors(c, norms2, re2, sigma2):
    """One row's slices (lo, hi) below and above the boundary and its Theorem-1 factors (v, p, q)."""
    lo, hi = slice(0, int(np.sum(c < 1.0 - BOUNDARY_DELTA))), slice(int(np.sum(c <= 1.0 + BOUNDARY_DELTA)), c.size)
    v, p, q = np.full((3, c.size), np.inf)
    cl, ch = c[lo], c[hi]
    v[lo], p[lo], q[lo] = sigma2 * cl / (1.0 - cl), 1.0 / (1.0 - cl), re2[lo]
    v[hi], p[hi], q[hi] = sigma2 / (ch - 1.0), (ch - 1.0) / ch * norms2[hi], ch / (ch - 1.0) * re2[hi]
    return lo, hi, v, p, q


def _row_borders(u, p, q) -> np.ndarray:
    up = u * p
    return u * q * (2.0 * np.cumsum(up) - up)


def _row_weighted_borders(c, norms2, re2, sigma2, u, factors):
    """One row's borders (bv, bb), each block by slices and the rectangle in blocks of rows below."""
    lo, hi, v, p, q = factors
    cl, ch, nl, n2, ul, uh = c[lo], c[hi], norms2[lo], norms2[hi], u[lo], u[hi]
    bv = np.where(u > 0.0, np.inf, 0.0)
    bb = bv.copy()
    bv[lo] = _row_borders(ul, v[lo], 1.0)
    bb[lo] = _row_borders(ul, p[lo], q[lo])
    sv = sb = 0.0
    step, cmax = max(1, rt._BLOCK_ENTRIES // max(1, ch.size)), ch[None, :]
    for start in range(0, cl.size, step):
        rows = slice(start, start + step)
        cmin = cl[rows, None]
        gap = cmax - cmin
        sv = sv + ul[rows] @ (sigma2 * cmin / gap)
        sb = sb + ul[rows] @ ((cmax - 1.0) / gap * (n2 - nl[rows, None]) + cmax / gap * re2[hi])
    gaps = np.zeros(uh.size)
    np.cumsum(np.diff(n2) * np.cumsum(uh)[:-1], out=gaps[1:])
    bv[hi] = _row_borders(uh, 1.0, v[hi]) + 2.0 * uh * sv
    bb[hi] = _row_borders(uh, p[hi], 1.0) + _row_borders(uh, 1.0, q[hi]) + 2.0 * uh * (gaps + sb)
    return bv, bb


def per_row_surface(n_values, m_values, profile, sigma2: float, weighting: str, exclude_singular: bool):
    """(bias, variance) of every cell of a valid (n, M) grid, row-major, built one n at a time.

    Each n takes its factors and row borders by slices, and one running sum of the borders gives
    every M of the row; the rectangle across the boundary is summed a block of at most
    ``risk_theory._BLOCK_ENTRIES`` entries at a time, as the library does.
    """
    n_values, m_values = np.asarray(n_values).reshape(-1), np.asarray(m_values).reshape(-1)
    bias, variance = np.empty((2, n_values.size, m_values.size))
    sizes = np.arange(1, m_values.max() + 1)
    norms2, total = profile.prefix_norm2(sizes), profile.total_norm2()
    re2 = total - norms2
    ms, cell = np.unique(m_values, return_inverse=True)
    for row, n in enumerate(n_values):
        if weighting == "single":
            lo, _, v, p, q = _row_factors(ms / n, norms2[ms - 1], re2[ms - 1], sigma2)
            lone = np.concatenate([p[lo] * q[lo], p[lo.stop:] + q[lo.stop:]])
            bias[row], variance[row] = lone[cell], v[cell]
            continue
        c = sizes / n
        factors = _row_factors(c, norms2, re2, sigma2)
        u = np.ones(sizes.size) if weighting == "equal" else 1.0 / factors[2]
        if exclude_singular and n <= sizes.size:
            u[n - 1] = 0.0
        U = np.cumsum(u)[m_values - 1]
        bv, bb = _row_weighted_borders(c, norms2, re2, sigma2, u, factors)
        bias[row] = np.cumsum(bb)[m_values - 1] / U**2
        variance[row] = np.cumsum(bv)[m_values - 1] / U**2
    return bias.reshape(-1), variance.reshape(-1)


def per_split_evaluation(data, n_train: int, reps: int, seed: int, methods, max_models=None) -> list[dict]:
    """``evaluate_real``'s rows, each split fitted by its own ``fit_all``.

    Each split draws from its own ``rng_for(seed, "real-split", n_train, rep)``
    stream, redrawing a constant training response at most 99 times, and is
    dropped when it stays constant or its fit or a weight choice raises.
    """
    X, sizes = xp._nested_candidates(data, n_train, max_models)
    Y, N = data.Y, data.n
    kept, dropped, redraws = [], 0, 0
    for rep in range(reps):
        rng = xp.rng_for(seed, "real-split", n_train, rep)
        for draw in range(100):
            idx = rng.permutation(N)
            if np.ptp(Y[idx[:n_train]]) > 0.0:
                break
        redraws += draw
        tr, te = idx[:n_train], idx[n_train:]
        if np.ptp(Y[tr]) == 0.0:
            dropped += 1
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fits = fit_all(Dataset(Y=Y[tr], X=X[tr]), sizes)
                choices = {m: xp.compute_weights(fits, m) for m in methods}
        except (ValueError, np.linalg.LinAlgError):
            dropped += 1
            continue
        pred = fits.predict(X[te])
        kept.append({m: float(((pred @ c.weights - Y[te]) ** 2).sum()) / (N - n_train) for m, c in choices.items()})
    rows = []
    for method in methods:
        mean, var = xp._mean_var([errors[method] for errors in kept])
        rows.append({"method": method, "n_train": n_train, "test_err_mean": mean, "test_err_var": var,
                     "reps": len(kept), "excluded": dropped, "redraws": redraws})
    return rows
