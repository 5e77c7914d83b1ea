"""Values the library does not compute, coded term by term as test oracles.

Each oracle evaluates its formula directly, apart from the library's program
assembly and block builders, so that agreement with them is evidence rather
than a restatement.
"""

import numpy as np

from lama.risk_theory import BOUNDARY_DELTA


def value(program, w) -> float:
    """w'Aw + b'w of a ``QuadraticProgram``."""
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    return float(w @ program.A @ w + program.b @ w)


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
    """Limiting out-of-sample risk of one min-norm least-squares fit.

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
