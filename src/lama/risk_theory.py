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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BOUNDARY_DELTA",
    "RiskMatrices",
    "RiskSurface",
    "PowerLawProfile",
    "theorem1_matrices",
    "variance_penalized_weights",
    "asymptotic_risk",
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


def _sides(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the ratios below and above the boundary [1 - BOUNDARY_DELTA, 1 + BOUNDARY_DELTA]."""
    return c < 1.0 - BOUNDARY_DELTA, c > 1.0 + BOUNDARY_DELTA


def below_boundary_variance(c, sigma2):
    """The Theorem-1 variance entry sigma2 c / (1 - c) of a pair whose smaller ratio c is below the boundary."""
    return sigma2 * c / (1.0 - c)


def _single_parts(c, norm2, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """(bias, variance) limits of lone min-norm fits, elementwise; both +inf at the boundary."""
    c = np.asarray(c, dtype=np.float64)
    below, above = _sides(c)
    with np.errstate(divide="ignore"):  # c = 1 exactly, which the boundary overwrites
        bias = np.where(below, 0.0, norm2 * (1.0 - 1.0 / c))
        variance = np.where(below, below_boundary_variance(c, sigma2), sigma2 / (c - 1.0))
    on = ~(below | above)
    return np.where(on, np.inf, bias), np.where(on, np.inf, variance)


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
            both = finite & finite.T
            upper, lower = A[both], A.T[both]
            # np.allclose(upper, lower, atol=1e-10, rtol=1e-10) on finite entries, less its overhead
            if not np.array_equal(finite, finite.T) or not np.all(
                np.abs(upper - lower) <= 1e-10 + 1e-10 * np.abs(lower)
            ):
                raise ValueError(f"{name} matrix must be symmetric")
        if np.any(V[np.isfinite(V)] < 0.0):
            raise ValueError("variance entries must be nonnegative")
        object.__setattr__(self, "variance", V)
        object.__setattr__(self, "bias", B)


def theorem1_matrices(c, norms2, total_norm2: float, sigma2: float) -> RiskMatrices:
    """Variance and bias limit matrices under an isotropic design.

    c holds the strictly increasing aspect ratios k_q / n of the nested
    candidates; norms2[q] is the squared signal norm candidate q carries and
    total_norm2 that of the whole coefficient sequence, so candidate q omits
    total_norm2 - norms2[q].  sigma2 may be zero (noiseless responses).
    """
    c, norms2 = _theorem1_inputs(c, norms2, total_norm2, sigma2)
    return RiskMatrices(*_theorem1_entries(c, norms2, total_norm2 - norms2, sigma2))


def _theorem1_inputs(c, norms2, total_norm2: float, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """c and norms2 as flat float arrays, once they pass the checks of ``theorem1_matrices``."""
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    norms2 = np.asarray(norms2, dtype=np.float64).reshape(-1)
    if c.size == 0:
        raise ValueError("need at least one candidate")
    if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
        raise ValueError("aspect ratios must be positive and finite")
    if np.any(np.diff(c) <= 0.0):
        raise ValueError("aspect ratios must be strictly increasing")
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"sigma2 must be nonnegative and finite, got {sigma2}")
    if norms2.shape != c.shape:
        raise ValueError("need one carried norm per candidate")
    if not (np.all(np.isfinite(norms2)) and np.isfinite(total_norm2) and np.all(norms2 >= 0.0)):
        raise ValueError("squared norms must be nonnegative and finite")
    if np.any(np.diff(norms2) < 0.0) or norms2[-1] > total_norm2:
        raise ValueError("nesting violated: a larger model carries less signal norm")
    return c, norms2


def _theorem1_vectors(c, norms2, re2, sigma2):
    """The Theorem-1 entries as per-candidate vectors, unchecked; re2 is the omitted norm total_norm2 - norms2.

    Entry (q, l) reads the smaller model q as [min] and the larger l as [max].  As c increases, the pairs
    below the boundary, above it and across it are two diagonal blocks and a rectangle (rows below); the
    boundary rows and columns between them are +inf.  Returns the block slices lo and hi, then
      below (v, 1 - c, re2): D_V = v[min], v = below_boundary_variance(c); D_B = re2[max] / (1 - c)[min];
      above (dv, a, norms2, b): D_V = dv[max], dv = sigma2 / (c - 1); D_B = a[min] + (norms2[max] -
        norms2[min]) + b[max], a = (c - 1) / c * norms2, b = c / (c - 1) * re2;
      across: the (D_V, D_B) rectangle itself.
    """
    below, above = _sides(c)
    lo, hi = slice(0, int(below.sum())), slice(c.size - int(above.sum()), c.size)
    cl, ch, n2 = c[lo], c[hi], norms2[hi]
    cmin, cmax = cl[:, None], ch[None, :]
    gap = cmax - cmin
    across = sigma2 * cmin / gap, (cmax - 1.0) / gap * (n2 - norms2[lo, None]) + cmax / gap * re2[hi]
    return (lo, hi, (below_boundary_variance(cl, sigma2), 1.0 - cl, re2[lo]),
            (sigma2 / (ch - 1.0), (ch - 1.0) / ch * n2, n2, ch / (ch - 1.0) * re2[hi]), across)


def _theorem1_entries(c, norms2, re2, sigma2) -> tuple[np.ndarray, np.ndarray]:
    """The (variance, bias) matrices of ``theorem1_matrices``: ``_theorem1_vectors`` placed by min/max index.

    Each entry takes the operations of the elementwise formula in the same order, so no bit moves.
    """
    lo, hi, (v, omc, re2l), (dv, a, n2, b), (RV, RB) = _theorem1_vectors(c, norms2, re2, sigma2)
    DV, DB = np.full((2, c.size, c.size), np.inf)
    q, l = _min_max(v.size)
    DV[lo, lo], DB[lo, lo] = v[q], re2l[l] / omc[q]
    q, l = _min_max(dv.size)
    DV[hi, hi], DB[hi, hi] = dv[l], a[q] + (n2[l] - n2[q]) + b[l]
    DV[lo, hi], DB[lo, hi] = RV, RB
    DV[hi, lo], DB[hi, lo] = RV.T, RB.T
    return DV, DB


def _min_max(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Index matrices of the smaller and the larger member of every pair among ``size`` candidates."""
    i = np.arange(size)
    return np.minimum.outer(i, i), np.maximum.outer(i, i)


def _borders(u, p, q) -> np.ndarray:
    """Row borders u_m q_m (2 sum_{i<m} u_i p_i + u_m p_m) of sum_{i,j} u_i u_j p[min] q[max]; u = 0 adds 0."""
    up = u * p
    return u * q * (2.0 * np.cumsum(up) - up)


def _inverse_variance(dv_diag) -> np.ndarray:
    """1 / d of a positive variance diagonal d: exactly 0 where d is +inf."""
    d = np.asarray(dv_diag, dtype=np.float64).reshape(-1)
    if d.size == 0:
        raise ValueError("need at least one candidate")
    if np.any(np.isnan(d)) or np.any(d <= 0.0):
        raise ValueError("variance diagonal must be positive (or +inf)")
    return 1.0 / d


def variance_penalized_weights(dv_diag: np.ndarray) -> np.ndarray:
    """Weights proportional to inverse limiting variance.

    Candidates with infinite variance get weight exactly 0; at least one entry must be finite.
    """
    inv = _inverse_variance(dv_diag)
    total = inv.sum()
    if total == 0.0:
        raise ValueError("all candidates have infinite variance")
    return inv / total


def asymptotic_risk(w: np.ndarray, matrices: RiskMatrices) -> tuple[float, float, float]:
    """(risk, bias part, variance part) of the limit w' (V + B) w.

    Infinite entries met with exactly zero weight contribute nothing; any infinite entry with positive
    weight on both sides makes the part +inf.  Weights that are not a finite point of the probability
    simplex, one per candidate, raise ``InputError`` naming ``w``.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape[0] != len(matrices.variance):
        raise InputError("w", f"weight length {w.shape[0]} does not match the {len(matrices.variance)} candidates")
    # Both comparisons are false for NaN, so this one test also stops non-finite weights.
    if not (np.all(w >= -1e-12) and abs(w.sum() - 1.0) <= 1e-8):
        problem = "must lie on the probability simplex" if np.all(np.isfinite(w)) else "must be finite"
        raise InputError("w", f"weights {problem}, got {w.tolist()}")
    active = w > 0.0
    wa = w[active]
    parts = []
    for A in (matrices.bias, matrices.variance):
        Aa = np.ascontiguousarray(A[active][:, active])
        parts.append(np.inf if np.any(np.isinf(Aa)) else float(wa @ Aa @ wa))
    bias_part, var_part = parts
    return bias_part + var_part, bias_part, var_part


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
        scale = float(np.sqrt(target / base))
        if not np.isfinite(scale):  # base >= 1 (its j = 1 term), so only snr * sigma2 overflows
            raise InputError("snr", f"snr * sigma2 overflows the coefficient scale, got {snr} * {sigma2}")
        return cls(exponent=exponent, scale=scale, truncate=truncate)

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
        scale = float(g * np.sqrt(2.0 * alpha))
        if not np.isfinite(scale):
            raise InputError("alpha", f"overflows the coefficient scale, got {alpha}")
        return cls(exponent=alpha + 0.5, scale=scale, truncate=p)

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
        rows = zip(self.n.tolist(), self.M.tolist(), self.risk.tolist(), self.bias.tolist(),
                   self.variance.tolist(), self.excluded_singular.tolist())
        fh.write("n,M,weighting,risk,bias,variance,excluded_singular\n" + "".join(
            f"{n},{m},{self.weighting},{r!r},{b!r},{v!r},{'true' if e else 'false'}\n" for n, m, r, b, v, e in rows
        ))


def risk_surface(
    n_values,
    m_values,
    profile: PowerLawProfile,
    sigma2: float = 1.0,
    weighting: str = "equal",
    exclude_singular: bool = False,
) -> RiskSurface:
    """Limiting risk over an (n, M) grid of nested candidate sets k_q = q.

    ``weighting`` is one of:
      * "equal": uniform weights over the candidates kept in the cell;
      * "variance_penalized": weights inversely proportional to the limiting
        variance diagonal (singular candidates get weight zero);
      * "single": no averaging at all, the closed-form risk of the lone
        model with k = M (the bias column then reports its over-parameterized
        compression bias, zero below the boundary).

    With ``exclude_singular`` the k = n candidate is dropped from cells where
    M >= n, which is the conventional way to plot equal-weight surfaces that
    would otherwise diverge on the diagonal.

    The inputs are validated once and each n's ``_theorem1_vectors`` built once, at the largest M.
    Cell weights are proportional to u: 1 for "equal", the inverse variance for "variance_penalized", 0
    for an infinite variance or an excluded candidate.  A part of cell (n, M) is sum_{i,j<M} u_i u_j A_ij
    over (sum_{i<M} u_i)^2; one running sum of row borders gives every M of a row.  On a block with
    A_ij = p[min] q[max] the border of row m is u_m q_m (2 sum_{i<m} u_i p_i + u_m p_m); the norm gap
    above the boundary sums n2 steps times the weight before them, so nothing cancels and zeros stay
    exact; the rectangle adds one weighted column sum.  A row takes O(M + |below| |above|) time and
    memory, with no M x M array, and differs from a per-cell build only in summation order (1e-13).
    """
    n_values = np.asarray(n_values, dtype=np.int64).reshape(-1)
    m_values = np.asarray(m_values, dtype=np.int64).reshape(-1)
    sigma2 = _positive(sigma2, "sigma2")
    for name, values in (("n_values", n_values), ("m_values", m_values)):
        if values.size == 0:
            raise InputError(name, "grid must be non-empty")
        if np.any(values < 1):
            raise InputError(name, f"grid values must be positive, got {int(values.min())}")
    if weighting not in ("equal", "variance_penalized", "single"):
        raise ValueError(f"unknown weighting rule {weighting!r}")

    out_n = np.repeat(n_values, m_values.size)
    out_m = np.tile(m_values, n_values.size)
    excl = (out_m >= out_n) & (bool(exclude_singular) and weighting != "single")
    if weighting == "single":
        bias, variance = _single_parts(out_m / out_n, profile.prefix_norm2(out_m), sigma2)
    else:
        bias, variance = np.empty((2, n_values.size, m_values.size))
        sizes = np.arange(1, int(m_values.max()) + 1)
        norms2, total = profile.prefix_norm2(sizes), profile.total_norm2()
        # The ratios sizes / n are positive and increasing at every n, as at n = 1: one check covers
        # the grid, and the entries are symmetric, NaN-free and nonnegative by construction.
        _theorem1_inputs(sizes, norms2, total, sigma2)
        re2 = total - norms2
        for row, n in enumerate(n_values):
            lo, hi, (v, omc, re2l), (dv, a, n2, b), (RV, RB) = _theorem1_vectors(sizes / n, norms2, re2, sigma2)
            diag = np.full(sizes.size, np.inf)
            diag[lo], diag[hi] = v, dv
            u = np.ones(sizes.size) if weighting == "equal" else _inverse_variance(diag)
            if exclude_singular and n <= sizes.size:
                u[n - 1] = 0.0
            U = np.cumsum(u)[m_values - 1]
            if np.any(U == 0.0):  # n = 1: the lone candidate of M = 1 is on the boundary
                raise ValueError(f"cell (n={n}, M=1) has no candidates left" if exclude_singular
                                 else "all candidates have infinite variance")
            # Row borders of D_V and D_B; a boundary row with weight makes every later prefix +inf.
            bv = np.where(u > 0.0, np.inf, 0.0)
            bb, ul, uh = bv.copy(), u[lo], u[hi]
            bv[lo], bb[lo] = _borders(ul, v, 1.0), _borders(ul, 1.0 / omc, re2l)
            # sum_{i<m} u_i (n2_m - n2_i) as the running sum of n2 steps times the weight before them.
            gaps = np.zeros(uh.size)
            np.cumsum(np.diff(n2) * np.cumsum(uh)[:-1], out=gaps[1:])
            bv[hi] = _borders(uh, 1.0, dv) + 2.0 * uh * (ul @ RV)
            bb[hi] = _borders(uh, a, 1.0) + _borders(uh, 1.0, b) + 2.0 * uh * (gaps + ul @ RB)
            bias[row] = np.cumsum(bb)[m_values - 1] / U**2
            variance[row] = np.cumsum(bv)[m_values - 1] / U**2
        bias, variance = bias.reshape(-1), variance.reshape(-1)

    return RiskSurface(
        n=out_n, M=out_m, weighting=weighting, risk=bias + variance, bias=bias, variance=variance,
        excluded_singular=excl,
    )
