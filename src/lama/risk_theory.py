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

import io
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BOUNDARY_DELTA",
    "RiskMatrices",
    "RiskSurface",
    "PowerLawProfile",
    "single_model_risk",
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
    # Built in a helper so that its M x M temporaries are freed before the
    # symmetry check allocates its own: reusing that memory halves the page
    # faults of a 37 x 37 surface grid up to M = 200 (about 24k to 12k).
    return RiskMatrices(*_theorem1_entries(c, norms2, total_norm2 - norms2, sigma2))


def _theorem1_entries(c, norms2, re2, sigma2) -> tuple[np.ndarray, np.ndarray]:
    """The (variance, bias) limit matrices of ``theorem1_matrices``, unchecked.

    Entry (q, l) reads the smaller model's ratio and carried norm and the
    larger model's ratio, carried and omitted norms.  The nesting makes c and
    norms2 nondecreasing and re2 nonincreasing, so those are elementwise
    minima and maxima of the pair.
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
    DB[mixed] = (cmax[mixed] - 1.0) / gap * (n2max[mixed] - n2min[mixed]) + cmax[
        mixed
    ] / gap * remax[mixed]
    DB[over] = (
        (cmin[over] - 1.0) / cmin[over] * n2min[over]
        + (n2max[over] - n2min[over])
        + cmax[over] / (cmax[over] - 1.0) * remax[over]
    )
    return DV, DB


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
    """asymptotic_risk of weights ``w`` on rows and columns ``rows`` of V and B.

    Weights that are not a finite point of the probability simplex, one per
    row, raise ``InputError`` naming ``w``.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape[0] != rows.shape[0]:
        raise InputError("w", f"weight length {w.shape[0]} does not match the {rows.shape[0]} candidates")
    # Both comparisons are false for NaN, so this one test also stops non-finite weights.
    if not (np.all(w >= -1e-12) and abs(w.sum() - 1.0) <= 1e-8):
        problem = "must lie on the probability simplex" if np.all(np.isfinite(w)) else "must be finite"
        raise InputError("w", f"weights {problem}, got {w.tolist()}")
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
    if weighting not in ("equal", "variance_penalized", "single"):
        raise ValueError(f"unknown weighting rule {weighting!r}")

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
            mats = theorem1_matrices(c, profile.prefix_norm2(sizes), profile.total_norm2(), sigma2)
            DV, DB = mats.variance, mats.bias
        rows = np.arange(m)
        if excl[i]:
            rows = rows[rows != n - 1]
            if rows.size == 0:
                raise ValueError(f"cell (n={n}, M={m}) has no candidates left")
        if weighting == "equal":
            w = np.full(rows.shape[0], 1.0 / rows.shape[0])
        else:
            w = variance_penalized_weights(DV[rows, rows])
        parts[i] = _risk_parts(w, DV, DB, rows)

    return RiskSurface(
        n=out_n, M=out_m, weighting=weighting, risk=parts[:, 0], bias=parts[:, 1], variance=parts[:, 2],
        excluded_singular=excl,
    )
