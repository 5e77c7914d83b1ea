"""Values the library does not compute, coded term by term as test oracles.

Each oracle evaluates its formula directly, apart from the library's program
assembly and row borders, so that agreement with them is evidence rather
than a restatement.  The Theorem-1 limit is here as whole M x M matrices
filled by boolean masks, read as the quadratic form w'(D_V + D_B)w; the
library only ever sums row borders of it.  A nested or Gram program is here
as the dense matrix its ``NestedForm`` or ``GramForm`` describes; the solver
only reads the vectors or the factor.
"""

from dataclasses import dataclass

import numpy as np

from lama.qp import GramForm, NestedForm
from lama.risk_theory import BOUNDARY_DELTA, _theorem1_inputs


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
    must equal ``lama_program`` on the simplex.
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
