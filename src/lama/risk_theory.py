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

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOUNDARY_DELTA",
    "RiskSurface",
    "PowerLawProfile",
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


def _exact(kind, value):
    """``kind(value)``, but a number must be no bool and convert without loss (ValueError otherwise)."""
    if kind in (str, bool):
        return kind(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(value)
    out = kind(value)
    if out != value and value == value:  # NaN is the one number unequal to its conversion
        raise ValueError(value)
    return out


def _counts(value, name: str, least: int = 1):
    """``value`` as int64 counts of at least ``least``: an int for a scalar, else an array of its shape.

    A value of integer dtype passes as it is; any other converts item by item through
    ``_exact(int, .)``, so 100.0 and np.int64(3) pass while 2.5, True, np.float64(2.5) and "3"
    raise ``InputError`` naming ``name``, as does a count below ``least``.
    """
    integral = np.dtype(getattr(value, "dtype", object)).kind in "iu"
    raw = np.asarray(value, dtype=None if integral else object)
    try:
        out = raw.astype(np.int64) if integral else np.array([_exact(int, v) for v in raw.flat], np.int64)
    except (TypeError, ValueError, OverflowError):
        raise InputError(name, f"must be integers within int64, got {value!r}") from None
    if out.size and out.min() < least:
        raise InputError(name, f"must be at least {least}, got {value!r}")
    return out.item() if raw.ndim == 0 else out.reshape(raw.shape)


def _positive(x: float, name: str) -> float:
    x = float(x)
    if not np.isfinite(x) or x <= 0.0:
        raise InputError(name, f"must be a positive finite number, got {x}")
    return x


def below_boundary_variance(c, sigma2):
    """The Theorem-1 variance entry sigma2 c / (1 - c) of a pair whose smaller ratio c is below the boundary."""
    return sigma2 * c / (1.0 - c)


def above_boundary_variance(c, sigma2):
    """The Theorem-1 variance entry sigma2 / (c - 1) of a pair whose larger ratio c is above the boundary."""
    return sigma2 / (c - 1.0)


def _factors(c, norms2, re2, sigma2):
    """Masks (lo, hi) of the ratios c below and above [1 - BOUNDARY_DELTA, 1 + BOUNDARY_DELTA], and the
    factors (v, p, q) of the Theorem-1 diagonal blocks, whose entries read the smaller candidate as [min]:
      below: D_V = v[min], D_B = p[min] q[max]; v = below_boundary_variance(c), p = 1 / (1 - c), q = re2;
      above: D_V = v[max], D_B = p[min] + (norms2[max] - norms2[min]) + q[max];
        v = above_boundary_variance(c), p = (c - 1) / c * norms2, q = c / (c - 1) * re2.
    c is a block of increasing grid rows, candidates on the last axis (1-D: one row), and norms2 and re2
    are per candidate, so lo is a prefix of each row and hi a suffix; each formula is evaluated on its own
    entries only.  A lone candidate is its diagonal entry: variance v, bias p q below and p + q above.
    Boundary candidates get v = p = q = +inf, so their lone limits are +inf and 1 / v is 0.
    """
    lo, hi = c < 1.0 - BOUNDARY_DELTA, c > 1.0 + BOUNDARY_DELTA
    n2, r2 = np.broadcast_to(norms2, c.shape), np.broadcast_to(re2, c.shape)
    v, p, q = np.full((3, *c.shape), np.inf)
    cl, ch = c[lo], c[hi]
    v[lo], p[lo], q[lo] = below_boundary_variance(cl, sigma2), 1.0 / (1.0 - cl), r2[lo]
    v[hi], p[hi], q[hi] = above_boundary_variance(ch, sigma2), (ch - 1.0) / ch * n2[hi], ch / (ch - 1.0) * r2[hi]
    return lo, hi, v, p, q


def _theorem1_inputs(c, norms2, total_norm2: float) -> tuple[np.ndarray, np.ndarray]:
    """c and norms2 as flat float arrays, once they describe nested candidates.

    c holds the strictly increasing aspect ratios k_q / n; norms2[q] is the squared signal norm
    candidate q carries and total_norm2 that of the whole coefficient sequence.
    """
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    norms2 = np.asarray(norms2, dtype=np.float64).reshape(-1)
    if c.size == 0:
        raise ValueError("need at least one candidate")
    if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
        raise ValueError("aspect ratios must be positive and finite")
    if np.any(np.diff(c) <= 0.0):
        raise ValueError("aspect ratios must be strictly increasing")
    if norms2.shape != c.shape:
        raise ValueError("need one carried norm per candidate")
    if not (np.all(np.isfinite(norms2)) and np.isfinite(total_norm2) and np.all(norms2 >= 0.0)):
        raise ValueError("squared norms must be nonnegative and finite")
    if np.any(np.diff(norms2) < 0.0) or norms2[-1] > total_norm2:
        raise ValueError("nesting violated: a larger model carries less signal norm")
    return c, norms2


# Entries of an array formed at once: grid rows, the across-boundary rectangle or an eval chunk's stacked designs.
_BLOCK_ENTRIES = 1 << 16


def _weighted_borders(c, norms2, re2, sigma2, u, factors=None) -> tuple[np.ndarray, np.ndarray]:
    """Row borders (bv, bb) of u' D_V u and u' D_B u for weights u >= 0 on rows c as in ``_factors``, unchecked.

    re2 is the omitted norm total_norm2 - norms2, and entry (q, l) reads the smaller model q as [min] and
    the larger l as [max].  As c increases, the pairs below the boundary, above it and across it are two
    diagonal blocks, whose entries are those of ``_factors`` (``factors`` if given), and a rectangle (rows
    below); the boundary rows and columns between them are +inf:
      across: D_V = sigma2 c[min] / gap, D_B = (c[max] - 1) / gap (norms2[max] - norms2[min]) +
        c[max] / gap re2[max], gap = c[max] - c[min].
    Border m is u_m (2 sum_{i<m} u_i A_im + u_m A_mm), so the first M borders sum to the leading M x M
    form; a boundary row is +inf with weight and 0 without.  On a block with A_ij = p[min] q[max] the
    border is u_m q_m (2 sum_{i<m} u_i p_i + u_m p_m); the norm gap above the boundary sums norms2 steps
    times the weight before them, so nothing cancels and zeros stay exact.  The diagonal blocks of all
    rows take one pass of array operations; a row's rectangle enters as its weighted column sums u_below' R,
    in blocks of at most _BLOCK_ENTRIES entries: O(M) memory per row and O(M + |below| |above|) time.
    """
    lo, hi, v, p, q = factors or _factors(c, norms2, re2, sigma2)
    below, above = np.count_nonzero(lo, axis=-1), np.count_nonzero(hi, axis=-1)
    # The columns where some row is below the boundary, and those where some row is above it.
    top = c.shape[-1] - above.max()
    L, H = (..., slice(0, below.max())), (..., slice(top, None))
    sv, sb = np.zeros((2, *hi[H].shape))
    for r in np.ndindex(below.shape):
        a, b = below[r], c.shape[-1] - above[r]
        cl, ch, nl, n2, ul = c[r][:a], c[r][b:], norms2[:a], norms2[b:], u[r][:a]
        step, cmax = max(1, _BLOCK_ENTRIES // max(1, ch.size)), ch[None, :]
        for start in range(0, a, step):
            rows = slice(start, start + step)
            cmin = cl[rows, None]
            gap = cmax - cmin
            sv[r][b - top :] += ul[rows] @ (sigma2 * cmin / gap)
            sb[r][b - top :] += ul[rows] @ ((cmax - 1.0) / gap * (n2 - nl[rows, None]) + cmax / gap * re2[b:])
    bv = np.where((u > 0.0) & ~(lo | hi), np.inf, 0.0)
    bb = bv.copy()
    # Weights off each block are an exact 0, and so is every factor they meet (never 0 * inf), so a
    # running sum over a suffix starts from 0 and adding a block's borders to a boundary entry leaves it.
    lo, hi = lo[L], hi[H]
    ul, uh = np.where(lo, u[L], 0.0), np.where(hi, u[H], 0.0)
    run = np.cumsum(uh, axis=-1)
    # sb gains sum_{i<m} u_i (n2_m - n2_i), the running sum of n2 steps times the weight before them.
    sb[..., 1:] += np.cumsum(np.diff(norms2[top:]) * run[..., :-1], axis=-1)
    run = 2.0 * run - uh  # now _runs(uh, 1.0, hi), from the running sum the gaps took
    bv[L] += ul * _runs(ul, v[L], lo)
    bb[L] += _on(lo, ul, q[L]) * _runs(ul, p[L], lo)
    bv[H] += _on(hi, uh, v[H]) * run + 2.0 * uh * sv
    bb[H] += uh * _runs(uh, p[H], hi) + _on(hi, uh, q[H]) * run + 2.0 * uh * sb
    return bv, bb


def _on(mask, a, b) -> np.ndarray:
    """a * b on the entries of ``mask`` and an exact 0 off them."""
    return np.multiply(a, b, out=np.zeros(mask.shape), where=mask)


def _runs(u, p, mask) -> np.ndarray:
    """2 sum_{i<m} u_i p_i + u_m p_m along each row, over the candidates in ``mask`` (a prefix or a suffix)."""
    up = _on(mask, u, p)
    return 2.0 * np.cumsum(up, axis=-1) - up


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
        object.__setattr__(self, "truncate", _counts(self.truncate, "truncate"))
        if not np.isfinite(self.exponent):
            raise InputError("exponent", f"must be finite, got {self.exponent}")
        if not (np.isfinite(self.scale) and self.scale >= 0.0):
            raise InputError("scale", f"coefficient scale must be nonnegative and finite, got {self.scale}")

    @classmethod
    def from_snr(cls, snr: float, exponent: float, sigma2: float = 1.0, truncate: int = 400):
        """Scale chosen so the total squared norm equals snr * sigma2."""
        target = _positive(snr, "snr") * _positive(sigma2, "sigma2")
        # Check exponent and truncate first: truncate < 1 would make base 0.
        truncate = cls(exponent=exponent, scale=0.0, truncate=truncate).truncate
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
        alpha, p = _positive(alpha, "alpha"), _counts(p, "p")
        g = np.sqrt(r2 / (1.0 - r2))
        scale = float(g * np.sqrt(2.0 * alpha))
        if not np.isfinite(scale):
            raise InputError("alpha", f"overflows the coefficient scale, got {alpha}")
        return cls(exponent=alpha + 0.5, scale=scale, truncate=p)

    def coefficients(self, count: int) -> np.ndarray:
        """First ``count`` coefficients (zeros beyond the truncation index)."""
        j = np.arange(1, _counts(count, "count", 0) + 1, dtype=np.float64)
        out = self.scale * j ** (-self.exponent)
        out[self.truncate :] = 0.0
        return out

    def _sq_prefix(self) -> np.ndarray:
        # _sq_prefix()[k] = sum of theta_j^2 for j <= k
        sq = self.coefficients(self.truncate) ** 2
        return np.concatenate([[0.0], np.cumsum(sq)])

    def total_norm2(self) -> float:
        return float(self._sq_prefix()[-1])

    def prefix_norm2(self, k) -> np.ndarray:
        """Squared norm carried by a model of size k (array-friendly)."""
        k = np.minimum(_counts(k, "k", 0), self.truncate)
        return self._sq_prefix()[k]


@dataclass(frozen=True, eq=False)
class RiskSurface:
    """Flattened (n, M) grid of limiting risks, row-major over the grid; it compares by identity."""

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
      * "single": no averaging at all, the Theorem-1 diagonal entry at
        k = M, the limiting risk of the lone model with k = M; its bias
        includes the signal the model omits.

    With ``exclude_singular`` the k = n candidate is dropped from cells where
    M >= n, which is the conventional way to plot equal-weight surfaces that
    would otherwise diverge on the diagonal.

    The inputs are validated once, and the n grid is walked a block of rows at a time, with at most
    _BLOCK_ENTRIES entries per array (one row at least); a block takes the ``_factors`` of its candidates
    once, and a "single" cell reads their diagonal.  Other cell weights are proportional to u: 1 for
    "equal", 1 / v for "variance_penalized", 0 for an infinite variance or an excluded candidate.
    A part of cell (n, M) is sum_{i,j<M} u_i u_j A_ij over (sum_{i<M} u_i)^2, so one call of
    ``_weighted_borders`` per block, at the largest M, and a running sum of each row's borders give every
    cell.  A row takes O(M) memory and O(M + |below| |above|) time, with no M x M array; the numbers are
    bit for bit those of a per-row build and differ from a per-cell build in summation order (1e-13).
    """
    n_values = np.reshape(_counts(n_values, "n_values"), -1)
    m_values = np.reshape(_counts(m_values, "m_values"), -1)
    sigma2 = _positive(sigma2, "sigma2")
    for name, values in (("n_values", n_values), ("m_values", m_values)):
        if values.size == 0:
            raise InputError(name, "grid must be non-empty")
    if weighting not in ("equal", "variance_penalized", "single"):
        raise ValueError(f"unknown weighting rule {weighting!r}")

    out_n = np.repeat(n_values, m_values.size)
    out_m = np.tile(m_values, n_values.size)
    excl = (out_m >= out_n) & (bool(exclude_singular) and weighting != "single")
    bias, variance = np.empty((2, n_values.size, m_values.size))
    sizes = np.arange(1, m_values.max() + 1)
    norms2, total = profile.prefix_norm2(sizes), profile.total_norm2()
    # The ratios sizes / n are positive and increasing at every n, as at n = 1: one check covers
    # the grid, and the entries are symmetric, NaN-free and nonnegative by construction.
    _theorem1_inputs(sizes, norms2, total)
    re2 = total - norms2
    ms, cell = np.unique(m_values, return_inverse=True)
    step = max(1, _BLOCK_ENTRIES // (ms.size if weighting == "single" else sizes.size))
    for start in range(0, n_values.size, step):
        rows, n = slice(start, start + step), n_values[start : start + step, None]
        if weighting == "single":  # the lone models of the grid's M alone, in increasing order
            lo, _, v, p, q = _factors(ms / n, norms2[ms - 1], re2[ms - 1], sigma2)
            bias[rows], variance[rows] = np.where(lo, p * q, p + q)[:, cell], v[:, cell]
            continue
        c = sizes / n
        factors = _factors(c, norms2, re2, sigma2)
        u = np.ones(c.shape) if weighting == "equal" else 1.0 / factors[2]
        if exclude_singular:
            u[sizes == n] = 0.0
        U = np.cumsum(u, axis=-1)[:, m_values - 1]
        if np.any(U == 0.0):  # only at n = 1, whose lone candidate of M = 1 is on the boundary
            raise ValueError("cell (n=1, M=1) has no candidates left" if exclude_singular
                             else "all candidates have infinite variance")
        # A boundary row with weight makes every later prefix +inf.
        bv, bb = _weighted_borders(c, norms2, re2, sigma2, u, factors)
        bias[rows] = np.cumsum(bb, axis=-1)[:, m_values - 1] / U**2
        variance[rows] = np.cumsum(bv, axis=-1)[:, m_values - 1] / U**2
    bias, variance = bias.reshape(-1), variance.reshape(-1)

    return RiskSurface(
        n=out_n, M=out_m, weighting=weighting, risk=bias + variance, bias=bias, variance=variance,
        excluded_singular=excl,
    )
