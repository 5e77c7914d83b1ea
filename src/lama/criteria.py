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

Each builder scores every candidate it is given and raises ``ValueError`` on one it
cannot score: leverage at 1 (``jma_program``), k >= n (``lama_vectors``) or RSS <= 0
(``info_criterion_weights``).  ``lama.experiments.compute_weights`` drops those first.

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

Fits stacked on leading axes (``ModelFits``), with one sigma2 and xi per fit, give
``sigma_hat`` and the Mallows and large-model builders one value or program per fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ModelFits
from .qp import GramForm, NestedForm
from .risk_theory import below_boundary_variance

__all__ = [
    "QuadraticProgram",
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


@dataclass(frozen=True, eq=False)
class QuadraticProgram:
    """Criterion w'Aw + b'w over M candidates, compared by identity; A is the ``GramForm`` or ``NestedForm``
    that describes it (``TypeError`` otherwise); a dense M x M program goes to ``lama.qp.solve_simplex_qp``."""

    A: GramForm | NestedForm
    b: np.ndarray

    def __post_init__(self):
        if not isinstance(self.A, (GramForm, NestedForm)):
            raise TypeError(f"A must be a GramForm or NestedForm, got {type(self.A).__name__}")
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))


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
    ref = below.nonzero()[0] if below.any() else (sizes < n).nonzero()[0]
    if ref.size == 0:
        raise ValueError("no candidate has positive residual degrees of freedom")
    guarded = (below & (sizes <= n - 5)).nonzero()[0]
    K = ref[-1]
    G = guarded[-1] if guarded.size else K
    ref_ratio, guard_ratio = fits.rss[..., K] / (n - int(sizes[K])), fits.rss[..., G] / (n - int(sizes[G]))
    return np.maximum(ref_ratio, SIGMA_FLOOR * guard_ratio)


def mma_program(fits: ModelFits, sigma2_hat: float) -> QuadraticProgram:
    """Mallows criterion: w' (e'e/n) w + 2 sigma2_hat sum_q w_q k_q / n."""
    if not all(0.0 <= s < math.inf for s in np.ravel(sigma2_hat).tolist()):
        raise ValueError("sigma2_hat must be finite and nonnegative")
    b = 2.0 * np.asarray(sigma2_hat)[..., None] * fits.sizes / fits.n
    return QuadraticProgram(NestedForm(fits.rss / fits.n, np.zeros(fits.rss.shape)), b)


def loo_flagged(fits: ModelFits) -> np.ndarray:
    """Mask of candidates whose leave-one-out residuals are undefined:
    some leverage within ``LEVERAGE_GUARD`` of 1."""
    return fits.leverages.max(axis=-2) >= 1.0 - LEVERAGE_GUARD


def jma_program(fits: ModelFits) -> QuadraticProgram:
    """Leave-one-out criterion: w' (E~'E~/n) w with e~_iq = e_iq / (1 - h_iq), held as
    the ``GramForm`` of B = E~/sqrt(n), so A = B'B is never formed.  A candidate that ``loo_flagged``
    marks raises ``ValueError``: its leave-one-out residuals are undefined."""
    if loo_flagged(fits).any():
        raise ValueError("a candidate with leverage at 1 has no leave-one-out residuals; drop it first")
    B = fits.residuals / ((1.0 - fits.leverages) * math.sqrt(fits.n))
    return QuadraticProgram(GramForm(B), np.zeros(fits.rss.shape))


def xi(v_diag: np.ndarray, b_diag: np.ndarray) -> float:
    """Ridge strength: variance dispersion over bias dispersion.

    (max v / min v) / (max b / min b) across candidates, clamped to XI_CLAMP
    to guard degenerate dispersion ratios on tiny candidate sets.
    """
    v, bd = np.atleast_1d(np.asarray(v_diag, dtype=np.float64), np.asarray(b_diag, dtype=np.float64))
    if v.size == 0 or v.shape != bd.shape:
        raise ValueError("diagnostic vectors must be non-empty and equally long")
    # NaN propagates through min and max, so the four extremes check every entry.
    v_lo, v_hi, b_lo, b_hi = v.min(-1), v.max(-1), bd.min(-1), bd.max(-1)
    if not ((v_lo > 0.0) & (b_lo > 0.0) & (v_hi < math.inf) & (b_hi < math.inf)).all():
        raise ValueError("diagnostic entries must be positive and finite")
    return np.minimum(np.maximum((v_hi / v_lo) / (b_hi / b_lo), XI_CLAMP[0]), XI_CLAMP[1])


def lama_vectors(fits: ModelFits, sigma2_hat: float) -> tuple[np.ndarray, np.ndarray]:
    """The large-model program's max-type g = RSS + sigma2 k and min-type h = n sigma2 c / (1 - c), c = k/n.

    h is n times the Theorem-1 variance entry below the boundary.  h/n and g/n
    are the out-of-sample variance and in-sample bias diagonals, so
    ``xi(h, g)`` is the program's ridge strength.
    """
    if not all(0.0 < s < math.inf for s in np.ravel(sigma2_hat).tolist()):
        raise ValueError("sigma2_hat must be positive")
    if (fits.sizes >= fits.n).any():
        raise ValueError("the large-model criterion needs every k < n; drop the candidates with k >= n first")
    s2 = np.asarray(sigma2_hat)[..., None]  # one per fit of a stack
    return fits.rss + s2 * fits.sizes, fits.n * below_boundary_variance(fits.sizes / fits.n, s2)


def v_out_matrix(fits: ModelFits, sigma2_hat: float) -> np.ndarray:
    """Plug-in out-of-sample variance matrix sigma2 k_min / (n - k_min), all k < n."""
    v = lama_vectors(fits, sigma2_hat)[1] / fits.n
    return np.minimum.outer(v, v)  # v grows with k


def b_in_diag(fits: ModelFits, sigma2_hat: float) -> np.ndarray:
    """Diagonal of the in-sample bias quadratic form: RSS_q/n + sigma2 k_q/n, all k < n."""
    return lama_vectors(fits, sigma2_hat)[0] / fits.n


def lama_program(g: np.ndarray, h: np.ndarray, xi_value: float) -> QuadraticProgram:
    """Large-model criterion at sample scale (n times the per-observation value):

        A(q,l) = g_max(q,l) + h_min(q,l) + 1{q=l} xi h_q,   b = 0,

    the nested program (g, h, 0, xi h) of the vectors ``lama_vectors`` returns,
    with g = RSS + sigma2 k and h = n sigma2 c / (1 - c).
    """
    if not all(0.0 <= x < math.inf for x in np.ravel(xi_value).tolist()):
        raise ValueError("xi must be nonnegative and finite")
    return QuadraticProgram(NestedForm(g, h, np.asarray(xi_value)[..., None] * h), np.zeros(np.shape(g)))


def info_criterion_weights(fits: ModelFits, kind: str) -> np.ndarray:
    """AIC/BIC selection weights or their smoothed (softmax) variants.

    Scores: AIC_q = n log(RSS_q/n) + 2 k_q, BIC_q = n log(RSS_q/n) + k_q log n.
    "aic"/"bic" put mass 1 on the first minimizer; "saic"/"sbic" use weights
    proportional to exp(-score/2).  The score of an interpolating candidate
    (RSS = 0) is undefined, so any RSS <= 0 raises ``ValueError``.
    """
    kind = kind.lower()
    if kind not in {"aic", "bic", "saic", "sbic"}:
        raise ValueError(f"unknown information criterion {kind!r}")
    if not (fits.rss > 0.0).all():
        raise ValueError("information criteria need every RSS > 0; drop the interpolating candidates first")
    mult = 2.0 if kind in {"aic", "saic"} else math.log(fits.n)
    scores = fits.n * np.log(fits.rss / fits.n) + mult * fits.sizes
    if kind in {"saic", "sbic"}:
        z = np.exp(-(scores - scores.min()) / 2.0)
        return z / z.sum()
    w = np.zeros(fits.M)
    w[int(np.argmin(scores))] = 1.0
    return w
