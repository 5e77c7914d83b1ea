"""Weight-choice criteria over the simplex, assembled as quadratic programs.

Three quadratic criteria are provided.  The Mallows criterion penalizes the
residual quadratic form by twice the estimated variance times model size.
The jackknife criterion is the quadratic form of leave-one-out residuals,
obtained from leverages without refitting.  The large-model criterion starts
from the Mallows form and adds (a) the closed-form gap between out-of-sample
and in-sample variance, which is what keeps near-interpolating candidates
honest, and (b) a variance-weighted ridge on the weights whose strength xi
is set analytically from the dispersion of the per-candidate variance and
bias diagnostics.  Information-criterion scores (AIC/BIC, plus smoothed
variants) round out the baselines.

The nesting does the work of the residual quadratic form: projections onto
nested spans satisfy (I - P_q)(I - P_l) = I - P_max(q,l), so
e_q'e_l = RSS_max(q,l).  The Mallows and large-model programs are therefore
each described by four vectors over the candidates, a max-type part g, a
min-type part h, a linear term b and a ridge r (``lama.qp.NestedForm``):
Mallows is (RSS/n, 0, 2 sigma2 k/n, none) and the large model
(RSS + sigma2 k, h, 0, xi h), where h = n sigma2 c/(1 - c) at c = k/n is n
times the Theorem-1 variance entry below the boundary.  These programs hold
their ``NestedForm`` as A, and ``lama.qp`` solves and certifies them from
the vectors in O(M), without forming the M x M matrix.  Only the jackknife
program reads the n x M residuals: its leave-one-out residuals
e_iq / (1 - h_iq) have no such reduction, and it holds B = E~/sqrt(n) as
A = B'B (``lama.qp.GramForm``), which the solver reads without forming A.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .models import ModelFits
from .qp import GramForm, NestedForm
from .risk_theory import below_boundary_variance

__all__ = [
    "QuadraticProgram",
    "SingularLooError",
    "XI_CLAMP",
    "SIGMA_FLOOR",
    "sigma_hat",
    "mma_program",
    "jma_program",
    "loo_flagged",
    "xi",
    "lama_vectors",
    "v_out_matrix",
    "b_in_diag",
    "lama_program",
    "info_criterion_weights",
]

LEVERAGE_GUARD = 1e-8
XI_CLAMP = (1e-6, 1e6)
SIGMA_FLOOR = 0.2


class SingularLooError(ValueError):
    """Raised when a candidate's leverage reaches 1 and leave-one-out
    residuals are undefined; ``flagged`` lists the offending candidates."""

    def __init__(self, flagged):
        self.flagged = tuple(int(i) for i in flagged)
        super().__init__(
            f"candidates {self.flagged} have leverage at 1 (interpolating); "
            "exclude them before building the leave-one-out program"
        )


@dataclass(frozen=True)
class QuadraticProgram:
    """Criterion w'Aw + b'w over M candidates; A is an M x M array (checked for
    symmetry) or the ``GramForm`` or ``NestedForm`` that describes it, and the solver takes each."""

    A: np.ndarray | GramForm | NestedForm
    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if not isinstance(self.A, (GramForm, NestedForm)):
            A = np.asarray(self.A, dtype=np.float64)
            if A.shape != (b.size, b.size):
                raise ValueError("A must be square and b must match its size")
            # np.allclose at the same tolerances, less its broadcasting and
            # special-value handling: a NaN or infinite entry fails the test.
            if not np.all(np.abs(A - A.T) <= 1e-12 + 1e-12 * np.abs(A.T)):
                raise ValueError("A must be finite and symmetric to 1e-12")
            object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


def sigma_hat(fits: ModelFits) -> float:
    """Residual variance estimate RSS_K / (n - k_K), floored.

    The reference candidate K is the largest with k <= floor(0.9 n), or, if
    none qualifies, the largest with k < n; without one, ``ValueError``.
    The estimate is floored at ``SIGMA_FLOOR`` times the same ratio at the
    largest candidate with k <= floor(0.9 n) that also keeps 5 residual
    degrees of freedom (K itself if none does).  A near-interpolating
    reference candidate can push RSS_K / (n - k_K) toward zero on a lucky
    draw, which would disable every variance-scaled penalty; the floor keeps
    the estimate a positive fraction of a stable one.
    """
    sizes, n = fits.sizes, fits.n
    below = sizes <= math.floor(0.9 * n)
    ref = np.flatnonzero(below) if np.any(below) else np.flatnonzero(sizes < n)
    if ref.size == 0:
        raise ValueError("no candidate has positive residual degrees of freedom")
    guarded = np.flatnonzero(below & (sizes <= n - 5))
    K = ref[-1]
    G = guarded[-1] if guarded.size else K
    ref_ratio, guard_ratio = (float(fits.rss[q]) / (n - int(sizes[q])) for q in (K, G))
    return max(ref_ratio, SIGMA_FLOOR * guard_ratio)


def mma_program(fits: ModelFits, sigma2_hat: float) -> QuadraticProgram:
    """Mallows criterion: w' (e'e/n) w + 2 sigma2_hat sum_q w_q k_q / n."""
    if sigma2_hat < 0.0 or not np.isfinite(sigma2_hat):
        raise ValueError("sigma2_hat must be finite and nonnegative")
    return QuadraticProgram(NestedForm(fits.rss / fits.n, np.zeros(fits.M)), 2.0 * sigma2_hat * fits.sizes / fits.n)


def loo_flagged(fits: ModelFits) -> np.ndarray:
    """Mask of candidates whose leave-one-out residuals are undefined:
    some leverage within ``LEVERAGE_GUARD`` of 1."""
    return np.max(fits.leverages, axis=0) >= 1.0 - LEVERAGE_GUARD


def jma_program(fits: ModelFits) -> QuadraticProgram:
    """Leave-one-out criterion: w' (E~'E~/n) w with e~_iq = e_iq / (1 - h_iq), held as
    the ``GramForm`` of B = E~/sqrt(n), so A = B'B is never formed."""
    flagged = loo_flagged(fits)
    if np.any(flagged):
        raise SingularLooError(np.flatnonzero(flagged))
    B = fits.residuals / ((1.0 - fits.leverages) * math.sqrt(fits.n))
    return QuadraticProgram(GramForm(B), np.zeros(fits.M))


def xi(v_diag: np.ndarray, b_diag: np.ndarray) -> float:
    """Ridge strength: variance dispersion over bias dispersion.

    (max v / min v) / (max b / min b) across candidates, clamped to XI_CLAMP
    to guard degenerate dispersion ratios on tiny candidate sets.
    """
    v = np.asarray(v_diag, dtype=np.float64).reshape(-1)
    bd = np.asarray(b_diag, dtype=np.float64).reshape(-1)
    if v.size == 0 or v.shape != bd.shape:
        raise ValueError("diagnostic vectors must be non-empty and equally long")
    if np.any(v <= 0.0) or np.any(bd <= 0.0) or not (
        np.all(np.isfinite(v)) and np.all(np.isfinite(bd))
    ):
        raise ValueError("diagnostic entries must be positive and finite")
    val = (v.max() / v.min()) / (bd.max() / bd.min())
    return float(min(max(val, XI_CLAMP[0]), XI_CLAMP[1]))


def lama_vectors(fits: ModelFits, sigma2_hat: float) -> tuple[np.ndarray, np.ndarray]:
    """The large-model program's max-type g = RSS + sigma2 k and min-type h = n sigma2 c / (1 - c), c = k/n.

    h is n times the Theorem-1 variance entry below the boundary.  h/n and g/n
    are the out-of-sample variance and in-sample bias diagonals, so
    ``xi(h, g)`` is the program's ridge strength.
    """
    if np.any(fits.sizes >= fits.n):
        raise ValueError("the large-model criterion needs every k < n; drop the candidates with k >= n first")
    return fits.rss + sigma2_hat * fits.sizes, fits.n * below_boundary_variance(fits.sizes / fits.n, sigma2_hat)


def v_out_matrix(fits: ModelFits, sigma2_hat: float) -> np.ndarray:
    """Plug-in out-of-sample variance matrix sigma2 k_min / (n - k_min), all k < n."""
    v = lama_vectors(fits, sigma2_hat)[1] / fits.n
    return np.minimum.outer(v, v)  # v grows with k


def b_in_diag(fits: ModelFits, sigma2_hat: float) -> np.ndarray:
    """Diagonal of the in-sample bias quadratic form: RSS_q/n + sigma2 k_q/n, all k < n."""
    return lama_vectors(fits, sigma2_hat)[0] / fits.n


def lama_program(fits: ModelFits, sigma2_hat: float, xi_value: float) -> QuadraticProgram:
    """Large-model criterion at sample scale (n times the per-observation value):

        A(q,l) = RSS_max(q,l) + sigma2 k_max(q,l) + h_min(q,l) + 1{q=l} xi h_q,   b = 0,

    the nested program (g, h, 0, xi h) of ``lama_vectors``.  Requires every
    candidate strictly below the interpolation boundary.
    """
    if not np.isfinite(sigma2_hat) or sigma2_hat <= 0.0:
        raise ValueError("sigma2_hat must be positive")
    if not np.isfinite(xi_value) or xi_value < 0.0:
        raise ValueError("xi must be nonnegative and finite")
    g, h = lama_vectors(fits, sigma2_hat)
    return QuadraticProgram(NestedForm(g, h, xi_value * h), np.zeros(fits.M))


def info_criterion_weights(fits: ModelFits, kind: str) -> np.ndarray:
    """AIC/BIC selection weights or their smoothed (softmax) variants.

    Scores: AIC_q = n log(RSS_q/n) + 2 k_q, BIC_q = n log(RSS_q/n) + k_q log n.
    "aic"/"bic" put mass 1 on the minimizer; "saic"/"sbic" use weights
    proportional to exp(-score/2).  Interpolating candidates (RSS = 0) are
    excluded with a warning since their score is undefined.
    """
    kind = kind.lower()
    if kind not in {"aic", "bic", "saic", "sbic"}:
        raise ValueError(f"unknown information criterion {kind!r}")
    n = fits.n
    usable = fits.rss > 0.0
    if not np.all(usable):
        warnings.warn(
            f"excluding {int(np.sum(~usable))} interpolating candidate(s) "
            f"from {kind.upper()} (zero residual sum of squares)",
            RuntimeWarning,
            stacklevel=2,
        )
    if not np.any(usable):
        raise ValueError("all candidates interpolate; information criteria undefined")
    scores = np.full(fits.M, np.inf)
    mult = 2.0 if kind in {"aic", "saic"} else math.log(n)
    scores[usable] = n * np.log(fits.rss[usable] / n) + mult * fits.sizes[usable]
    w = np.zeros(fits.M)
    if kind in {"aic", "bic"}:
        w[int(np.argmin(scores))] = 1.0
    else:
        z = np.exp(-(scores[usable] - scores[usable].min()) / 2.0)
        w[usable] = z / z.sum()
    return w
