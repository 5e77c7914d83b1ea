"""Minimize w'Aw + b'w over the probability simplex.

``solve_simplex_qp(A, b)`` is the one entry point, for A an M x M array, a
``GramForm`` or a ``NestedForm``.  Every answer has the same certificate:
``status`` and ``kkt_residual``, the projected-gradient fixed-point residual.

Three of the four paths run one primal active-set loop (Nocedal & Wright,
*Numerical Optimization*, Alg. 16.3), ``_active_set``.  Each step goes
toward the minimizer of the current face (the simplex with the bound
indices held at zero) and stops at the first bound it meets, which then
leaves the support.  At a face minimizer, the bound index with the lowest
gradient entry enters if that entry lies below the free entries' common
value; else the point is optimal.  Ties go to the lowest index.  The paths
differ only in how they solve a face and where they start:

* A dense A (a user's program, and the reference the tests hold the other
  paths to) solves the bordered KKT system of the face densely, by SVD,
  from the best vertex.  A singular system is a zero-curvature direction,
  walked downhill to the next bound.  The method needs convexity on the
  simplex: the centred matrix (I - 11'/M) A (I - 11'/M) may have no
  negative eigenvalue beyond roundoff, else ``ValueError``.

* A ``GramForm`` (the jackknife program) describes A = B'B by B (n x M):
  convex by construction, with objective and gradient in O(nM).  From the
  best vertex, each face is a least-squares problem solved from a QR factor
  of B_F updated by one column per step (Lawson & Hanson 1974, ch. 23).

* A ``NestedForm`` (the Mallows and large-model programs) describes
  A(q,l) = g_max(q,l) + h_min(q,l) + 1{q=l} r_q by its vectors.  It is
  banded in the cumulative weights C_i = w_0 + ... + w_i (C_{M-1} = 1): the
  max-type part is g_{M-1} - sum_i (g_{i+1} - g_i) C_i^2, the min-type part
  h_0 + sum_i (h_{i+1} - h_i) (1 - C_i)^2, b'w is
  b_{M-1} - sum_i (b_{i+1} - b_i) C_i and the ridge couples only neighbours,
  r_q (C_q - C_{q-1})^2.  So the program is

      g_{M-1} + h_{M-1} + b_{M-1} + sum_{i<M-1} d_i C_i^2 + e_i C_i + sum_q r_q w_q^2
      over 0 <= C_0 <= ... <= C_{M-2} <= 1,

  with d = diff(h) - diff(g) and e = -2 diff(h) - diff(b)
  (``NestedForm.cumulative``).  The solver never forms A: the objective, the
  gradient (up to a common shift) and max|A| (``NestedForm.max_abs``) take
  O(M) time and memory.

  With the ridge r (large-model) the Hessian in C is tridiagonal.  The
  active-set loop solves each face by a tridiagonal (Thomas) solve in the
  face's own cumulative weights.  It starts from the full support at
  uniform weights, not from a vertex, because the ridge keeps nearly every
  candidate: a vertex start would add them one face solve at a time.
  Convexity is certified once, by the LDL' pivots of the full tridiagonal
  Hessian being positive (else ``ValueError``), which makes the minimizer
  unique and every face system positive definite.

  Without the ridge (Mallows) it is weighted isotonic regression of
  t_i = -e_i / (2 d_i) with weights d_i, clipped to [0, 1], solved exactly
  by pool-adjacent-violators (Best & Chakravarti 1990) instead.  A step with
  |d_i| <= 1e-12 max|A| is a tie: its curvature is roundoff, and its linear
  term (Mallows has e_i <= 0) pushes C_i up, so it merges into the next block
  (a block of ties alone sits at C = 1).  A d_i below -1e-12 max|A| is
  negative curvature and raises ``ValueError``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["GramForm", "NestedForm", "SolveReport", "simplex_project", "solve_simplex_qp"]

_MAX_ITER = 10_000


@dataclass(frozen=True)
class SolveReport:
    weights: np.ndarray
    objective: float
    iterations: int
    status: str  # converged | max-iter | degenerate
    kkt_residual: float


@dataclass(frozen=True)
class GramForm:
    """A = B'B of a Gram program, for an n x M array B; the solver never forms A."""

    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", np.asarray(self.B, dtype=np.float64))
        if self.B.ndim != 2:
            raise ValueError("a Gram form needs a two-dimensional B")

    def diagonal(self) -> np.ndarray:
        """diag(A), the squared column norms of B; by Cauchy-Schwarz its maximum is max|A|."""
        return np.einsum("ij,ij->j", self.B, self.B)


@dataclass(frozen=True)
class NestedForm:
    """A(q,l) = g[max(q,l)] + h[min(q,l)] + 1{q=l} r_q of a nested program; ``r`` None for no ridge."""

    g: np.ndarray
    h: np.ndarray
    r: np.ndarray | None = None

    def __post_init__(self):
        for f in "gh" if self.r is None else "ghr":
            object.__setattr__(self, f, np.asarray(getattr(self, f), dtype=np.float64))
            if getattr(self, f).shape != (self.g.size,):
                raise ValueError("nested form vectors must be one-dimensional and equally long")

    def max_abs(self) -> float:
        """max |A(q,l)|, bit-equal to the dense maximum: rounding is monotone, so the extremes of
        column l off the diagonal are g_l plus the running maximum and minimum of h_q, q < l."""
        g, h = self.g, self.h
        off = [g[1:] + np.maximum.accumulate(h)[:-1], g[1:] + np.minimum.accumulate(h)[:-1]]
        return float(np.max(np.abs(np.concatenate([g + h if self.r is None else g + h + self.r] + off))))

    def cumulative(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d, e) of the program w'Aw + b'w in cumulative weights (see the module docstring)."""
        dh = np.diff(self.h)
        return dh - np.diff(self.g), -2.0 * dh - np.diff(b)


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1} (sorted-threshold rule)."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project non-finite values")
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    counts = np.arange(1, v.size + 1)
    rho = np.nonzero(u - cumulative / counts > 0.0)[0][-1]
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _objective(A, b: np.ndarray, w: np.ndarray, cumulative=None) -> float:
    """w'Aw + b'w; for a nested A, from its ``cumulative`` (d, e) (see the module docstring)."""
    if isinstance(A, GramForm):
        return float(np.linalg.norm(A.B @ w) ** 2 + b @ w)
    if cumulative is None:
        return float(w @ A @ w + b @ w)
    d, e = cumulative
    C = np.cumsum(w)[:-1]
    return float(A.g[-1] + A.h[-1] + b[-1] + d @ C**2 + e @ C + (0.0 if A.r is None else A.r @ w**2))


def _gradient(A, b: np.ndarray, w: np.ndarray, cumulative=None) -> np.ndarray:
    """2Aw + b; for a nested A, up to a common shift, which the simplex projection and
    the entering test ignore: g_q = sum_{q <= i < M-1} (2 d_i C_i + e_i) + 2 r_q w_q."""
    if isinstance(A, GramForm):
        return 2.0 * (A.B.T @ (A.B @ w)) + b
    if cumulative is None:
        return 2.0 * A @ w + b
    d, e = cumulative
    g = np.zeros(w.size) if A.r is None else 2.0 * A.r * w
    g[:-1] += np.cumsum((2.0 * d * np.cumsum(w)[:-1] + e)[::-1])[::-1]
    return g


def _not_convex(curvature: float) -> ValueError:
    return ValueError(
        f"program is not convex on the simplex (curvature {curvature:.3g}); "
        "the active-set solver requires convexity"
    )


def _check_convex_on_simplex(A: np.ndarray) -> None:
    """Raise unless A has no negative curvature along {p : sum p = 0}."""
    M = A.shape[0]
    P = np.eye(M) - 1.0 / M
    eigs = np.linalg.eigvalsh(P @ A @ P)
    # Centring a large constant or linear part leaves roundoff of order
    # eps * max|A_ij|, so that bounds the tolerance from below.
    floor = max(float(np.max(np.abs(eigs))), float(np.max(np.abs(A))))
    if eigs[0] < -1e-12 * floor:
        raise _not_convex(eigs[0])


def _ratio_test(w: np.ndarray, p: np.ndarray, cap: float) -> tuple[float, int]:
    """Longest step t <= cap keeping w + t p >= 0, and the blocking position (-1 if none)."""
    neg = np.flatnonzero(p < 0.0)
    ratios = w[neg] / -p[neg]
    if neg.size == 0 or ratios.min() >= cap:
        return cap, -1
    j = int(np.argmin(ratios))
    return max(float(ratios[j]), 0.0), int(neg[j])


def _checked(A, b) -> tuple[np.ndarray | GramForm | NestedForm, np.ndarray, float]:
    """The program with float entries, a dense A symmetrized, and max|A|; ``ValueError`` if malformed."""
    gram, nested = isinstance(A, GramForm), isinstance(A, NestedForm)
    if not (gram or nested):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        A = 0.5 * (A + A.T)  # the quadratic form only sees the symmetric part
    M = A.B.shape[1] if gram else A.g.size if nested else A.shape[0]
    if M == 0:
        raise ValueError("empty program")
    b = np.zeros(M) if b is None else np.asarray(b, dtype=np.float64).reshape(-1)
    if b.shape[0] != M:
        raise ValueError("b length does not match A")
    # max|A| is non-finite exactly when some entry is: NaN and infinity propagate through it.
    peak = float(np.max(A.diagonal())) if gram else A.max_abs() if nested else float(np.max(np.abs(A)))
    if not (np.isfinite(peak) and np.all(np.isfinite(b))):
        kind = "Gram form" if gram else "nested form" if nested else "program"
        raise ValueError(f"{kind} contains non-finite entries")
    return A, b, peak


def _report(A, b, w, iterations: int, optimal: bool, scale: float, cumulative=None) -> SolveReport:
    """Feasible weights with their objective, certified by the projected-gradient fixed-point residual."""
    w = np.maximum(w, 0.0)
    w /= w.sum()
    kkt = float(np.linalg.norm(w - simplex_project(w - _gradient(A, b, w, cumulative))))
    status = "converged" if kkt <= 1e-9 * scale else ("degenerate" if optimal else "max-iter")
    return SolveReport(w, _objective(A, b, w, cumulative), iterations, status, kkt)


def solve_simplex_qp(A: np.ndarray | GramForm | NestedForm, b: np.ndarray | None = None) -> SolveReport:
    """Minimize w'Aw + b'w over the probability simplex.

    A is an M x M array or the ``GramForm`` or ``NestedForm`` that describes
    it, in which case no M x M array is formed.  Raises ``ValueError`` on
    malformed input and on programs that are not convex on the simplex.
    """
    A, b, peak = _checked(A, b)
    scale = max(1.0, peak, float(np.max(np.abs(b))))
    M = b.shape[0]
    cumulative = A.cumulative(b) if isinstance(A, NestedForm) else None
    gradient = functools.partial(_gradient, A, b, cumulative=cumulative)
    if M == 1:
        w, iterations, optimal = np.ones(1), 0, True
    elif cumulative is None:
        gram = isinstance(A, GramForm)
        if not gram:  # B'B is convex by construction
            _check_convex_on_simplex(A)
        start = int(np.argmin((A.diagonal() if gram else np.diag(A)) + b))
        w = np.zeros(M)
        w[start] = 1.0
        face = _gram_face(A.B, b, scale) if gram else _dense_face(A, b, scale)
        w, iterations, optimal = _active_set(face, gradient, [start], w, scale)
    elif A.r is None:  # pool-adjacent-violators is exact
        (w, iterations), optimal = _pool_adjacent_violators(*cumulative, 1e-12 * peak), True
    else:
        face = _tridiagonal_face(*cumulative, A.r)
        w, iterations, optimal = _active_set(face, gradient, list(range(M)), np.full(M, 1.0 / M), scale)
    return _report(A, b, w, iterations, optimal, scale, cumulative)


def _active_set(face, gradient, free: list[int], w: np.ndarray, scale: float) -> tuple[np.ndarray, int, bool]:
    """The active-set loop from the feasible ``w`` whose support is the sorted list ``free``.

    ``face(free, w)`` gives the step on the free entries toward the current
    face's minimizer and the longest multiple of it to take: 1 reaches the
    minimizer, and ``inf`` walks a zero-curvature direction to the next
    bound.  ``gradient(w)`` is the objective's gradient up to a common
    shift.  Returns the weights, the iteration count and whether the last
    face minimizer passed the entering test.
    """
    optimal = False
    iterations = 0
    while not optimal and iterations < _MAX_ITER:
        iterations += 1
        p, cap = face(free, w)
        idx = np.array(free)  # numpy indexes an array faster than a list
        wF = w[idx]
        t, block = _ratio_test(wF, p, cap)
        w[idx] = wF + t * p
        if block >= 0:
            w[free[block]] = 0.0
            del free[block]
            continue
        # At the face minimizer the free gradient entries share one value;
        # a bound index with a smaller entry enters.
        g = gradient(w)
        level = g[idx].sum() / len(free)
        g[idx] = np.inf
        j = int(np.argmin(g))
        if g[j] - level < -1e-12 * scale:
            free = sorted(free + [j])
        else:
            optimal = True
    return w, iterations, optimal


def _dense_face(A: np.ndarray, b: np.ndarray, scale: float):
    """The face step of the dense program: the bordered KKT system on the free indices, solved by SVD."""

    def face(free: list[int], w: np.ndarray) -> tuple[np.ndarray, float]:
        k = len(free)
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = 2.0 * A[np.ix_(free, free)]
        K[:k, k] = K[k, :k] = scale  # sum w = 1, bordered at the scale of A and b
        U, s, Vt = np.linalg.svd(K)
        if s[-1] <= 1e-12 * s[0]:
            # Zero curvature along the null vector: the objective is linear
            # on that line, so go downhill to the first bound.
            p = Vt[-1, :k]
            return (-p if (2.0 * A[free] @ w + b[free]) @ p > 0.0 else p), np.inf
        sol = Vt.T @ ((U.T @ np.concatenate([-b[free], [scale]])) / s)
        return sol[:k] - w[free], 1.0

    return face


def _gram_face(B: np.ndarray, b: np.ndarray, scale: float):
    """The face step of A = B'B from a QR factor of the free columns C of [B; mu 1'], mu^2 = scale / M.

    On the face 1'v = 1 the border adds the constant mu^2 to ||B_C v||^2, so the
    minimizer is still R^-1 R^-T (lam 1 - b_C) / 2.  A column within an angle of
    1e-6 of the span of those before it is an affine dependence (the bordered
    KKT system's zero-curvature case): that face takes the dense step.  C keeps
    the entering order, so a leaving column cuts the factor back to the columns before it.
    """
    BT = np.column_stack([B.T, np.full(B.shape[1], (scale / B.shape[1]) ** 0.5)])
    size, linear = min(B.shape[1], B.shape[0] + 1), bool(np.any(b))
    QT, Rinv, cols = np.empty((size, B.shape[0] + 1)), np.zeros((size, size)), []

    def face(free: list[int], w: np.ndarray) -> tuple[np.ndarray, float]:
        if len(free) == 1:  # a vertex is its face's minimizer
            return np.zeros(1), 1.0
        members = set(free)
        k = next((i for i, j in enumerate(cols) if j not in members), len(cols))
        del cols[k:]
        for j in sorted(members.difference(cols)):
            r = QT[:k] @ BT[j]  # classical Gram-Schmidt, reorthogonalized once
            u = BT[j] - r @ QT[:k]
            s = QT[:k] @ u
            u -= s @ QT[:k]
            rho = (u @ u) ** 0.5
            if rho <= 1e-6 * (BT[j] @ BT[j]) ** 0.5:
                return _dense_face(B[:, free].T @ B[:, free], b[free], scale)(list(range(len(free))), w[free])
            QT[k], Rinv[:k, k], Rinv[k, k] = u / rho, Rinv[:k, :k] @ (r + s) / -rho, 1.0 / rho
            cols.append(j)
            k += 1
        x = Rinv[:k, :k] @ Rinv[:k, :k].sum(axis=0)  # R^-1 R^-T 1
        v = np.zeros(w.size)
        v[cols] = x / x.sum()
        if linear:  # lam from 1'v = 1, with y = R^-1 R^-T b_C
            y = Rinv[:k, :k] @ (Rinv[:k, :k].T @ b[cols])
            v[cols] += 0.5 * (y.sum() * v[cols] - y)
        return v[free] - w[free], 1.0

    return face


def _level(num: float, den: float) -> float:
    """Minimizer of den C^2 - 2 num C; a block of ties (den = 0) goes to the bound its slope points at."""
    if den > 0.0:
        return num / den
    return np.inf if num >= 0.0 else -np.inf


def _pool_adjacent_violators(d: np.ndarray, e: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Weights minimizing sum_i d_i C_i^2 + e_i C_i over 0 <= C_0 <= ... <= C_{M-2} <= 1,
    and the number of pooling steps."""
    if np.any(d < -tol):
        raise _not_convex(float(d.min()))
    blocks: list[list] = []  # [sum of -e/2, sum of d, length, level]
    pools = 0
    for num, den in zip((-0.5 * e).tolist(), np.where(d <= tol, 0.0, d).tolist()):
        blocks.append([num, den, 1, _level(num, den)])
        while len(blocks) > 1 and blocks[-2][3] > blocks[-1][3]:
            num, den, size, _ = blocks.pop()
            last = blocks[-1]
            last[0] += num
            last[1] += den
            last[2] += size
            last[3] = _level(last[0], last[1])
            pools += 1
    C = np.repeat(np.clip([blk[3] for blk in blocks], 0.0, 1.0), [blk[2] for blk in blocks])
    return np.diff(C, prepend=0.0, append=1.0), pools


def _ldl_pivots(diag: list[float], off: list[float]) -> list[float]:
    """Pivots of the LDL' factorization of the symmetric tridiagonal matrix (diag, off)."""
    pivots = [diag[0]]
    for a, o in zip(diag[1:], off):
        pivots.append(a - o * o / pivots[-1])
    return pivots


def _tridiagonal_solve(diag: list[float], off: list[float], rhs: list[float]) -> list[float]:
    """Thomas algorithm for a symmetric positive definite tridiagonal system."""
    n = len(diag)
    ratio = [0.0] * n
    x = [0.0] * n
    pivot = diag[0]
    x[0] = rhs[0] / pivot
    for i in range(1, n):
        ratio[i - 1] = off[i - 1] / pivot
        pivot = diag[i] - off[i - 1] * ratio[i - 1]
        x[i] = (rhs[i] - off[i - 1] * x[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return x


def _tridiagonal_face(d: np.ndarray, e: np.ndarray, r: np.ndarray):
    """The face step of the ridged cumulative form, once its convexity is certified.

    On the face with free candidates f_0 < ... < f_{s-1}, the variables are
    E_m = C_i for f_m <= i < f_{m+1} (m < s - 1); the steps inside one run
    pool their d and e, and the ridge keeps r at the free candidates only.
    The face solve runs on plain floats: the programs are small and numpy's
    per-call cost would dominate.
    """
    pivots = _ldl_pivots((d + r[:-1] + r[1:]).tolist(), (-r[1:-1]).tolist())
    if min(pivots) <= 0.0:
        raise _not_convex(min(pivots))
    d_sum = [0.0] + np.cumsum(d).tolist()
    e_sum = [0.0] + np.cumsum(e).tolist()
    ridge = r.tolist()

    def face(free: list[int], w: np.ndarray) -> tuple[np.ndarray, float]:
        target = [1.0]
        if len(free) > 1:
            runs = list(zip(free[:-1], free[1:]))
            rhs = [0.5 * (e_sum[f] - e_sum[g]) for f, g in runs]
            rhs[-1] += ridge[free[-1]]
            E = _tridiagonal_solve(
                [d_sum[g] - d_sum[f] + ridge[f] + ridge[g] for f, g in runs], [-ridge[f] for f in free[1:-1]], rhs
            )
            target = [hi - lo for lo, hi in zip([0.0] + E, E + [1.0])]
        return np.array(target) - w[free], 1.0

    return face
