"""Closed-form limits of the out-of-sample risk of nested-model averages.

The asymptotic regime is n and all model sizes k_q growing together with
k_q / n -> c_q.  For an average with weights w over nested candidates the
out-of-sample risk converges to w' (D_V + D_B) w, where the variance matrix
D_V and the bias matrix D_B have piecewise entries in the aspect ratios c_q
and the signal norms carried by each model.  Entries diverge as a ratio hits
1, which is the interpolation boundary; those are mapped to +inf sentinels
rather than large floats so that "zero weight on a singular candidate" can be
handled exactly (0 * inf = 0 by convention, only for weights that are exactly
zero).

A second family of limits covers a general positive definite population
covariance in the fully under-parameterized regime, where the omitted-signal
strength appears through the Schur-complement form phi_q.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "BOUNDARY_DELTA",
    "TheoreticalRiskModel",
    "RiskMatrices",
    "RiskSurface",
    "PowerLawProfile",
    "single_model_risk",
    "phi",
    "theorem1_matrices",
    "theorem2_matrices",
    "variance_penalized_weights",
    "asymptotic_risk",
    "delta_v_limit",
    "risk_surface",
]

# Aspect ratios within this distance of 1 are treated as sitting on the
# interpolation boundary and produce the +inf sentinel.
BOUNDARY_DELTA = 1e-8


class InputError(ValueError):
    """A bad argument or config value: ``InputError(field, problem)``.

    ``field`` names the argument or config field at fault; the CLI exits 1
    on these and 2 on every other ``ValueError``.
    """

    @property
    def field(self) -> str:
        return self.args[0]

    def __str__(self) -> str:
        return f"{self.args[0]}: {self.args[1]}"


def _positive(x: float, name: str) -> float:
    x = float(x)
    if not np.isfinite(x) or x <= 0.0:
        raise InputError(name, f"must be a positive finite number, got {x}")
    return x


def single_model_risk(c: float, norm2: float, sigma2: float) -> float:
    """Limiting out-of-sample risk of one min-norm least-squares fit.

    sigma2 * c / (1 - c) below the boundary (no bias contribution there);
    norm2 * (1 - 1/c) + sigma2 / (c - 1) above it, where norm2 is the squared
    norm of the coefficients the model carries.  +inf within BOUNDARY_DELTA
    of c = 1.
    """
    c = _positive(c, "c")
    sigma2 = _positive(sigma2, "sigma2")
    if not np.isfinite(norm2) or norm2 < 0.0:
        raise ValueError(f"norm2 must be nonnegative and finite, got {norm2}")
    bias, variance = _single_parts(c, norm2, sigma2)
    return bias + variance


def _single_parts(c: float, norm2: float, sigma2: float) -> tuple[float, float]:
    """(bias, variance) limits of one min-norm fit; both +inf at the boundary."""
    if abs(c - 1.0) <= BOUNDARY_DELTA:
        return np.inf, np.inf
    if c < 1.0:
        return 0.0, sigma2 * c / (1.0 - c)
    return norm2 * (1.0 - 1.0 / c), sigma2 / (c - 1.0)


def phi(Sigma: np.ndarray, theta: np.ndarray, k_q: int) -> float:
    """Omitted-signal strength under a general covariance.

    The quadratic form of the omitted coefficients theta[k_q:] in the Schur
    complement of the leading k_q x k_q block of Sigma.  Equals the plain
    squared norm of the omitted block when Sigma is the identity, and zero
    when nothing is omitted.
    """
    Sigma = np.asarray(Sigma, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
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
        val = float(t_re @ Sigma @ t_re)
    else:
        try:
            chol = cho_factor(Sigma[:k_q, :k_q], lower=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Sigma is not positive definite") from exc
        v = Sigma[:k_q, k_q:] @ t_re
        val = float(t_re @ Sigma[k_q:, k_q:] @ t_re - v @ cho_solve(chol, v))
    return max(val, 0.0)


@dataclass(frozen=True)
class TheoreticalRiskModel:
    """Inputs to the risk limits for one nested candidate sequence.

    c holds the strictly increasing aspect ratios; theta_norms2[q] and
    re_norms2[q] are the squared signal norms carried and omitted by
    candidate q.  When Sigma is supplied, phis holds the Schur-complement
    strengths used by the general-covariance limits.
    """

    c: np.ndarray
    sigma2: float
    theta_norms2: np.ndarray
    re_norms2: np.ndarray
    total_norm2: float
    Sigma: np.ndarray | None = None
    phis: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64).reshape(-1)
        tn = np.asarray(self.theta_norms2, dtype=np.float64).reshape(-1)
        rn = np.asarray(self.re_norms2, dtype=np.float64).reshape(-1)
        if c.size == 0:
            raise ValueError("need at least one candidate")
        if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
            raise ValueError("aspect ratios must be positive and finite")
        if np.any(np.diff(c) <= 0.0):
            raise ValueError("aspect ratios must be strictly increasing")
        _positive(self.sigma2, "sigma2")
        if tn.shape != c.shape or rn.shape != c.shape:
            raise ValueError("norm arrays must match the number of candidates")
        if not (np.all(tn >= 0.0) and np.all(rn >= 0.0)):
            raise ValueError("squared norms must be nonnegative")
        if np.any(np.diff(tn) < 0.0):
            raise ValueError("nesting violated: a larger model carries less signal norm")
        if self.Sigma is None:
            bad = np.abs(tn + rn - self.total_norm2) > 1e-10 * max(1.0, self.total_norm2)
            if np.any(bad):
                raise ValueError("carried + omitted norms must equal the total norm")
        if self.phis is not None:
            ph = np.asarray(self.phis, dtype=np.float64).reshape(-1)
            if ph.shape != c.shape or np.any(ph < 0.0):
                raise ValueError("phis must be nonnegative, one per candidate")
            object.__setattr__(self, "phis", ph)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "theta_norms2", tn)
        object.__setattr__(self, "re_norms2", rn)

    @property
    def M(self) -> int:
        return self.c.shape[0]

    @classmethod
    def from_sizes(
        cls,
        sizes,
        n: int,
        theta: np.ndarray,
        sigma2: float,
        Sigma: np.ndarray | None = None,
        check_Sigma: bool = True,
    ) -> "TheoreticalRiskModel":
        """Build from integer model sizes, a sample size, and the full
        coefficient sequence (long enough to cover the largest model; entries
        past it form the omitted tail)."""
        sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        if sizes.size and sizes[-1] > theta.shape[0]:
            raise ValueError("theta must cover the largest candidate size")
        sq = np.concatenate([[0.0], np.cumsum(theta**2)])
        total = float(sq[-1])
        tn = sq[sizes]
        rn = total - tn
        phis = None
        if Sigma is not None:
            Sigma = np.asarray(Sigma, dtype=np.float64)
            if check_Sigma:
                if not np.allclose(Sigma, Sigma.T, atol=1e-10):
                    raise ValueError("Sigma must be symmetric")
                if np.linalg.eigvalsh(Sigma)[0] <= 0.0:
                    raise ValueError("Sigma must be positive definite")
            phis = np.array([phi(Sigma, theta, int(k)) for k in sizes])
        return cls(
            c=sizes / float(n),
            sigma2=float(sigma2),
            theta_norms2=tn,
            re_norms2=rn,
            total_norm2=total,
            Sigma=Sigma,
            phis=phis,
        )


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
            finite = np.isfinite(A)
            if not np.array_equal(finite, finite.T) or not np.allclose(
                A[finite & finite.T], A.T[finite & finite.T], atol=1e-10, rtol=1e-10
            ):
                raise ValueError(f"{name} matrix must be symmetric")
        if np.any(V[np.isfinite(V)] < 0.0):
            raise ValueError("variance entries must be nonnegative")
        object.__setattr__(self, "variance", V)
        object.__setattr__(self, "bias", B)


def _theorem1_entries(
    c: np.ndarray, norms2: np.ndarray, re2: np.ndarray, sigma2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized variance/bias limit matrices; c must be strictly increasing."""
    M = c.shape[0]
    idx = np.arange(M)
    imin = np.minimum.outer(idx, idx)
    imax = np.maximum.outer(idx, idx)
    cmin, cmax = c[imin], c[imax]
    n2min, n2max = norms2[imin], norms2[imax]
    remax = re2[imax]

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
    DB[mixed] = (cmax[mixed] - 1.0) / gap * (n2max[mixed] - n2min[mixed]) + cmax[
        mixed
    ] / gap * remax[mixed]
    DB[over] = (
        (cmin[over] - 1.0) / cmin[over] * n2min[over]
        + (n2max[over] - n2min[over])
        + cmax[over] / (cmax[over] - 1.0) * remax[over]
    )
    return DV, DB


def theorem1_matrices(model: TheoreticalRiskModel) -> RiskMatrices:
    """Variance and bias limit matrices under an isotropic design."""
    DV, DB = _theorem1_entries(model.c, model.theta_norms2, model.re_norms2, model.sigma2)
    return RiskMatrices(variance=DV, bias=DB)


def theorem2_matrices(model: TheoreticalRiskModel) -> RiskMatrices:
    """Variance and bias limit matrices under a general covariance.

    Stated only for the fully under-parameterized regime (all ratios below
    1); the entries are phi_max / (1 - c_min) and sigma2 c_min / (1 - c_min).
    Without an explicit covariance the identity is assumed, in which case
    phi_q is just the omitted squared norm and the result matches the
    isotropic matrices entrywise.
    """
    if np.any(model.c >= 1.0 - BOUNDARY_DELTA):
        raise ValueError("general-covariance limits require all aspect ratios below 1")
    phis = model.phis if model.phis is not None else model.re_norms2
    M = model.M
    idx = np.arange(M)
    imin = np.minimum.outer(idx, idx)
    imax = np.maximum.outer(idx, idx)
    cmin = model.c[imin]
    B = phis[imax] / (1.0 - cmin)
    V = model.sigma2 * cmin / (1.0 - cmin)
    return RiskMatrices(variance=V, bias=B)


def variance_penalized_weights(dv_diag: np.ndarray) -> np.ndarray:
    """Weights proportional to inverse limiting variance.

    Candidates with infinite variance get weight exactly 0; at least one
    entry must be finite.
    """
    d = np.asarray(dv_diag, dtype=np.float64).reshape(-1)
    if d.size == 0:
        raise ValueError("need at least one candidate")
    if np.any(np.isnan(d)) or np.any(d <= 0.0):
        raise ValueError("variance diagonal must be positive (or +inf)")
    inv = np.zeros_like(d)
    finite = np.isfinite(d)
    inv[finite] = 1.0 / d[finite]
    total = inv.sum()
    if total == 0.0:
        raise ValueError("all candidates have infinite variance")
    return inv / total


def asymptotic_risk(w: np.ndarray, matrices: RiskMatrices) -> tuple[float, float, float]:
    """(risk, bias part, variance part) of the limit w' (V + B) w.

    Infinite entries met with exactly zero weight contribute nothing; any
    infinite entry with positive weight on both sides makes the part +inf.
    """
    return _risk_parts(w, matrices.variance, matrices.bias, np.arange(matrices.variance.shape[0]))


def _risk_parts(w, V, B, rows: np.ndarray) -> tuple[float, float, float]:
    """asymptotic_risk of weights ``w`` on rows and columns ``rows`` of V and B."""
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape[0] != rows.shape[0]:
        raise ValueError("weight length does not match matrices")
    if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-8:
        raise ValueError("weights must lie on the probability simplex")
    active = w > 0.0
    wa = w[active]
    idx = rows[active]
    parts = []
    for A in (B, V):
        # Rows, then columns, then C order: the A[np.ix_(idx, idx)] array, gathered faster.
        Aa = np.ascontiguousarray(A[idx][:, idx])
        parts.append(np.inf if np.any(np.isinf(Aa)) else float(wa @ Aa @ wa))
    bias_part, var_part = parts
    return bias_part + var_part, bias_part, var_part


def delta_v_limit(w: np.ndarray, c: np.ndarray, sigma2: float) -> float:
    """Limit of the gap between out-of-sample and in-sample variance.

    sigma2 * sum_{q,l} w_q w_l min(c_q, c_l)^2 / (1 - min(c_q, c_l)); defined
    for ratios strictly inside (0, 1) and strictly positive on the simplex.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    sigma2 = _positive(sigma2, "sigma2")
    if w.shape != c.shape:
        raise ValueError("w and c must have the same length")
    if np.any(c <= 0.0) or np.any(c >= 1.0):
        raise ValueError("all aspect ratios must lie strictly inside (0, 1)")
    cmin = np.minimum.outer(c, c)
    return sigma2 * float(w @ (cmin**2 / (1.0 - cmin)) @ w)


@dataclass(frozen=True)
class PowerLawProfile:
    """Coefficient decay rule theta_j = scale * j**(-exponent), j = 1..truncate.

    Coefficients beyond the truncation index are zero, so the total signal
    norm is finite and prefix/tail norms are exact sums.
    """

    exponent: float
    scale: float
    truncate: int = 400

    def __post_init__(self):
        if self.truncate < 1:
            raise InputError("truncate", f"must be at least 1, got {self.truncate}")
        if not np.isfinite(self.exponent):
            raise InputError("exponent", f"must be finite, got {self.exponent}")
        if not (np.isfinite(self.scale) and self.scale >= 0.0):
            raise InputError("scale", f"coefficient scale must be nonnegative and finite, got {self.scale}")

    @classmethod
    def from_snr(cls, snr: float, exponent: float, sigma2: float = 1.0, truncate: int = 400):
        """Scale chosen so the total squared norm equals snr * sigma2."""
        target = _positive(snr, "snr") * _positive(sigma2, "sigma2")
        # Check exponent and truncate first: truncate < 1 would make base 0.
        cls(exponent=exponent, scale=0.0, truncate=truncate)
        j = np.arange(1, truncate + 1, dtype=np.float64)
        base = float(np.sum(j ** (-2.0 * exponent)))
        return cls(exponent=exponent, scale=float(np.sqrt(target / base)), truncate=truncate)

    @classmethod
    def from_r2(cls, r2: float, alpha: float, p: int):
        """Decay theta_j = g * sqrt(2 alpha) * j**(-alpha - 1/2) with the
        constant g chosen so that the population R-squared g^2/(1+g^2)
        equals r2 (unit noise)."""
        if not 0.0 < r2 < 1.0:
            raise InputError("r2", f"must lie in (0, 1), got {r2}")
        alpha = _positive(alpha, "alpha")
        if p < 1:
            raise InputError("p", f"must be at least 1, got {p}")
        g = np.sqrt(r2 / (1.0 - r2))
        return cls(exponent=alpha + 0.5, scale=float(g * np.sqrt(2.0 * alpha)), truncate=p)

    def coefficients(self, count: int) -> np.ndarray:
        """First ``count`` coefficients (zeros beyond the truncation index)."""
        j = np.arange(1, count + 1, dtype=np.float64)
        out = self.scale * j ** (-self.exponent)
        out[self.truncate :] = 0.0
        return out

    @lru_cache(maxsize=None)
    def _sq_prefix(self) -> np.ndarray:
        # _sq_prefix()[k] = sum of theta_j^2 for j <= k
        sq = self.coefficients(self.truncate) ** 2
        return np.concatenate([[0.0], np.cumsum(sq)])

    def total_norm2(self) -> float:
        return float(self._sq_prefix()[-1])

    def prefix_norm2(self, k) -> np.ndarray:
        """Squared norm carried by a model of size k (array-friendly)."""
        k = np.minimum(np.asarray(k, dtype=np.int64), self.truncate)
        return self._sq_prefix()[k]


@dataclass(frozen=True)
class RiskSurface:
    """Flattened (n, M) grid of limiting risks, row-major over the grid."""

    n: np.ndarray
    M: np.ndarray
    weighting: str
    risk: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    excluded_singular: np.ndarray

    def to_csv(self, fh) -> None:
        """Fixed header: n,M,weighting,risk,bias,variance,excluded_singular."""
        fh.write("n,M,weighting,risk,bias,variance,excluded_singular\n")
        for i in range(self.n.shape[0]):
            fh.write(
                f"{int(self.n[i])},{int(self.M[i])},{self.weighting},"
                f"{float(self.risk[i])!r},{float(self.bias[i])!r},{float(self.variance[i])!r},"
                f"{str(bool(self.excluded_singular[i])).lower()}\n"
            )

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def risk_surface(
    n_values,
    m_values,
    profile: PowerLawProfile,
    sigma2: float = 1.0,
    weighting="equal",
    exclude_singular: bool = False,
) -> RiskSurface:
    """Limiting risk over an (n, M) grid of nested candidate sets k_q = q.

    ``weighting`` is one of:
      * "equal": uniform weights over the candidates kept in the cell;
      * "variance_penalized": weights inversely proportional to the limiting
        variance diagonal (singular candidates get weight zero);
      * "single": no averaging at all, the closed-form risk of the lone
        model with k = M (the bias column then reports its over-parameterized
        compression bias, zero below the boundary);
      * a callable mapping (c, RiskMatrices) -> weight vector.

    With ``exclude_singular`` the k = n candidate is dropped from cells where
    M >= n, which is the conventional way to plot equal-weight surfaces that
    would otherwise diverge on the diagonal.

    The limit matrices are built and validated once per n, at the largest M;
    each cell reads their leading M x M block (less row and column n when
    excluded), equal entry for entry to a per-cell build.
    """
    n_values = np.asarray(n_values, dtype=np.int64).reshape(-1)
    m_values = np.asarray(m_values, dtype=np.int64).reshape(-1)
    sigma2 = _positive(sigma2, "sigma2")
    for name, values in (("n_values", n_values), ("m_values", m_values)):
        if values.size == 0:
            raise InputError(name, "grid must be non-empty")
        if np.any(values < 1):
            raise InputError(name, f"grid values must be positive, got {int(values.min())}")

    tag = weighting if isinstance(weighting, str) else getattr(weighting, "__name__", "custom")
    out_n = np.repeat(n_values, m_values.size)
    out_m = np.tile(m_values, n_values.size)
    excl = (out_m >= out_n) & (bool(exclude_singular) and weighting != "single")
    parts = np.empty((out_n.size, 3))  # risk, bias, variance of each cell
    sizes = np.arange(1, int(m_values.max()) + 1)
    for i, (n, m) in enumerate(zip(out_n, out_m)):
        if weighting == "single":
            b, v = _single_parts(m / float(n), float(profile.prefix_norm2(m)), sigma2)
            parts[i] = b + v, b, v
            continue
        if i % m_values.size == 0:  # first cell of this n: its matrices at the largest M
            c = sizes / float(n)
            norms2 = profile.prefix_norm2(sizes)
            DV, DB = _theorem1_entries(c, norms2, profile.total_norm2() - norms2, sigma2)
            RiskMatrices(variance=DV, bias=DB)  # validates every cell's block at once
        rows = np.arange(m)
        if excl[i]:
            rows = rows[rows != n - 1]
            if rows.size == 0:
                raise ValueError(f"cell (n={n}, M={m}) has no candidates left")
        if weighting == "equal":
            w = np.full(rows.shape[0], 1.0 / rows.shape[0])
        elif weighting == "variance_penalized":
            w = variance_penalized_weights(DV[rows, rows])
        elif callable(weighting):
            cell = np.ix_(rows, rows)
            w = weighting(c[rows], RiskMatrices(variance=DV[cell], bias=DB[cell]))
        else:
            raise ValueError(f"unknown weighting rule {weighting!r}")
        parts[i] = _risk_parts(w, DV, DB, rows)

    return RiskSurface(
        n=out_n, M=out_m, weighting=tag, risk=parts[:, 0], bias=parts[:, 1], variance=parts[:, 2],
        excluded_singular=excl,
    )
