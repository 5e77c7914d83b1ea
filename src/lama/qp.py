"""Minimize w'Aw + b'w over the probability simplex.

Two solvers share one certificate: the report's ``status`` and
``kkt_residual`` (the projected-gradient fixed-point residual, taken in w on
the dense program) certify every answer.

``solve_simplex_qp`` is the general solver, used for the jackknife program
and kept as the reference for the other two.  A primal active-set method
(Nocedal & Wright, *Numerical Optimization*, Alg. 16.3) started at the best
vertex.  A singular KKT system on the free support is a zero-curvature
direction, walked downhill to the next bound.  Ties go to the lowest index.
The method needs convexity on the simplex: the centred matrix
(I - 11'/M) A (I - 11'/M) may have no negative eigenvalue beyond roundoff,
else ``ValueError``.

``solve_cumulative_qp`` solves the Mallows and large-model programs, whose
nested candidates make them banded in the cumulative weights
C_i = w_0 + ... + w_i (C_{M-1} = 1).  A max-type entry g_max(q,l) gives
w'Gw = g_{M-1} - sum_i (g_{i+1} - g_i) C_i^2, a min-type entry h_min(q,l)
gives h_0 + sum_i (h_{i+1} - h_i) (1 - C_i)^2, a linear term b gives
b_{M-1} - sum_i (b_{i+1} - b_i) C_i and a diagonal r_q w_q^2 couples only
neighbours, (C_q - C_{q-1})^2.  So, up to a constant, the program is

    sum_{i<M-1} d_i C_i^2 + e_i C_i + sum_q r_q w_q^2
    over 0 <= C_0 <= ... <= C_{M-2} <= 1,

which ``CumulativeForm`` holds.

* Without the ridge (Mallows) it is weighted isotonic regression of
  t_i = -e_i / (2 d_i) with weights d_i, clipped to [0, 1], solved exactly by
  pool-adjacent-violators (Best & Chakravarti 1990).  A step with
  |d_i| <= 1e-12 max|A| is a tie: its curvature is roundoff, and its linear
  term (e_i <= 0) pushes C_i up, so it merges into the next block (a block
  of ties alone sits at C = 1).  A d_i below -1e-12 max|A| is negative
  curvature and raises ``ValueError``.
* With the ridge (large-model) the Hessian in C is tridiagonal.  The same
  active set as the general solver runs on it, but each face's KKT system is
  a tridiagonal solve in the face's own cumulative weights.  It starts from
  the full support at uniform weights, not from a vertex, because the ridge
  keeps nearly every candidate: a vertex start would add them one face solve
  at a time.  Convexity is certified once, by the LDL' pivots of the full
  tridiagonal Hessian being positive (else ``ValueError``), which makes the
  minimizer unique and every face system positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CumulativeForm", "SolveReport", "simplex_project", "solve_cumulative_qp", "solve_simplex_qp"]

_MAX_ITER = 10_000


@dataclass(frozen=True)
class SolveReport:
    weights: np.ndarray
    objective: float
    iterations: int
    status: str  # converged | max-iter | degenerate
    kkt_residual: float

    def to_dict(self) -> dict:
        return {
            "weights": [float(x) for x in self.weights],
            "objective": float(self.objective),
            "iterations": int(self.iterations),
            "status": self.status,
            "kkt_residual": float(self.kkt_residual),
        }


@dataclass(frozen=True)
class CumulativeForm:
    """A simplex program in cumulative weights, up to a constant:
    sum_{i<M-1} d_i C_i^2 + e_i C_i + sum_q r_q w_q^2, with ``r`` None for no ridge."""

    d: np.ndarray
    e: np.ndarray
    r: np.ndarray | None = None


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


def _objective(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    return float(w @ A @ w + b @ w)


def _kkt_residual(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    # Fixed-point residual of the unit-step projected-gradient map.
    g = 2.0 * A @ w + b
    return float(np.linalg.norm(w - simplex_project(w - g)))


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


def _checked(A, b) -> tuple[np.ndarray, np.ndarray, float]:
    """The program as float arrays, A symmetrized, and its scale; ``ValueError`` if malformed."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    M = A.shape[0]
    if M == 0:
        raise ValueError("empty program")
    b = np.zeros(M) if b is None else np.asarray(b, dtype=np.float64).reshape(-1)
    if b.shape[0] != M:
        raise ValueError("b length does not match A")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("program contains non-finite entries")
    A = 0.5 * (A + A.T)  # the quadratic form only sees the symmetric part
    scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(b))))
    return A, b, scale


def _report(A, b, w, iterations: int, optimal: bool, scale: float) -> SolveReport:
    """Feasible weights with their objective, certified by the KKT residual."""
    w = np.maximum(w, 0.0)
    w /= w.sum()
    kkt = _kkt_residual(A, b, w)
    if kkt <= 1e-9 * scale:
        status = "converged"
    else:
        status = "degenerate" if optimal else "max-iter"
    return SolveReport(w, _objective(A, b, w), iterations, status, kkt)


def solve_simplex_qp(A: np.ndarray, b: np.ndarray | None = None) -> SolveReport:
    """Minimize w'Aw + b'w over the probability simplex.

    Raises ``ValueError`` on malformed input and on programs that are not
    convex on the simplex.
    """
    A, b, scale = _checked(A, b)
    M = A.shape[0]
    if M == 1:
        return _report(A, b, np.array([1.0]), 0, True, scale)

    _check_convex_on_simplex(A)
    free = [int(np.argmin(np.diag(A) + b))]
    w = np.zeros(M)
    w[free[0]] = 1.0
    optimal = False
    iterations = 0
    while not optimal and iterations < _MAX_ITER:
        iterations += 1
        k = len(free)
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = 2.0 * A[np.ix_(free, free)]
        K[:k, k] = K[k, :k] = scale  # sum w = 1, bordered at the scale of A and b
        U, s, Vt = np.linalg.svd(K)
        wF = w[free]
        if s[-1] <= 1e-12 * s[0]:
            # Zero curvature along the null vector: the objective is linear
            # on that line, so go downhill to the first bound.
            p = Vt[-1, :k]
            if (2.0 * A[free] @ w + b[free]) @ p > 0.0:
                p = -p
            t, block = _ratio_test(wF, p, np.inf)
        else:
            sol = Vt.T @ ((U.T @ np.concatenate([-b[free], [scale]])) / s)
            p = sol[:k] - wF
            t, block = _ratio_test(wF, p, 1.0)
        w[free] = wF + t * p
        if block >= 0:
            w[free[block]] = 0.0
            del free[block]
            continue
        # Minimizer of the face: the free gradient entries share the value
        # -scale * sol[k]; a bound index with a smaller gradient entry enters.
        reduced = 2.0 * A @ w + b + scale * sol[k]
        reduced[free] = np.inf
        j = int(np.argmin(reduced))
        if reduced[j] < -1e-12 * scale:
            free = sorted(free + [j])
        else:
            optimal = True
    return _report(A, b, w, iterations, optimal, scale)


def solve_cumulative_qp(A: np.ndarray, b: np.ndarray | None, form: CumulativeForm) -> SolveReport:
    """Minimize w'Aw + b'w over the simplex through its cumulative form.

    ``form`` must describe the same program as (A, b), which gives the
    tolerances and the certificate.  Raises ``ValueError`` on malformed input
    and on programs that are not convex on the simplex.
    """
    A, b, scale = _checked(A, b)
    M = A.shape[0]
    d = np.asarray(form.d, dtype=np.float64).reshape(-1)
    e = np.asarray(form.e, dtype=np.float64).reshape(-1)
    if d.shape[0] != M - 1 or e.shape[0] != M - 1 or (form.r is not None and np.shape(form.r) != (M,)):
        raise ValueError("cumulative form does not match the program size")
    if M == 1:
        return _report(A, b, np.array([1.0]), 0, True, scale)
    if form.r is None:
        w, iterations = _pool_adjacent_violators(d, e, 1e-12 * float(np.max(np.abs(A))))
        return _report(A, b, w, iterations, True, scale)
    w, iterations, optimal = _tridiagonal_active_set(d, e, np.asarray(form.r, dtype=np.float64), scale)
    return _report(A, b, w, iterations, optimal, scale)


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


def _tridiagonal_active_set(d, e, r, scale: float) -> tuple[np.ndarray, int, bool]:
    """The general solver's active set from the full support, each face solved in its cumulative weights.

    On the face with free candidates f_0 < ... < f_{s-1}, the variables are
    E_m = C_i for f_m <= i < f_{m+1} (m < s - 1); the steps inside one run
    pool their d and e, and the ridge keeps r at the free candidates only.
    The gradient in w, up to a common shift, is
    g_q = sum_{q <= i < M-1} (2 d_i C_i + e_i) + 2 r_q w_q.  Plain floats:
    the programs are small and numpy's per-call cost would dominate.
    Returns the weights, the iteration count and whether the face minimizer
    passed the entering test.
    """
    pivots = _ldl_pivots((d + r[:-1] + r[1:]).tolist(), (-r[1:-1]).tolist())
    if min(pivots) <= 0.0:
        raise _not_convex(min(pivots))
    M = r.shape[0]
    d, e, r = d.tolist(), e.tolist(), r.tolist()
    d_sum = [0.0] + np.cumsum(d).tolist()
    e_sum = [0.0] + np.cumsum(e).tolist()
    free = list(range(M))
    w = [1.0 / M] * M
    optimal = False
    iterations = 0
    while not optimal and iterations < _MAX_ITER:
        iterations += 1
        target = [1.0]
        if len(free) > 1:
            runs = list(zip(free[:-1], free[1:]))
            rhs = [0.5 * (e_sum[f] - e_sum[g]) for f, g in runs]
            rhs[-1] += r[free[-1]]
            E = _tridiagonal_solve(
                [d_sum[g] - d_sum[f] + r[f] + r[g] for f, g in runs], [-r[f] for f in free[1:-1]], rhs
            )
            target = [hi - lo for lo, hi in zip([0.0] + E, E + [1.0])]
        # Ratio test: the longest step toward the face minimizer that keeps w >= 0.
        p = [x - w[f] for x, f in zip(target, free)]
        shortest, block = 1.0, -1
        for m, (f, pm) in enumerate(zip(free, p)):
            if pm < 0.0 and w[f] / -pm < shortest:
                shortest, block = w[f] / -pm, m
        step = max(shortest, 0.0)
        for f, pm in zip(free, p):
            w[f] += step * pm
        if block >= 0:
            w[free[block]] = 0.0
            del free[block]
            continue
        C = np.cumsum(w).tolist()
        g = [2.0 * ri * wi for ri, wi in zip(r, w)]
        acc = 0.0
        for i in range(M - 2, -1, -1):
            acc += 2.0 * d[i] * C[i] + e[i]
            g[i] += acc
        level = sum(g[f] for f in free) / len(free)
        members = set(free)
        j = min((q for q in range(M) if q not in members), key=g.__getitem__, default=-1)
        if j >= 0 and g[j] - level < -1e-12 * scale:
            free = sorted(free + [j])
        else:
            optimal = True
    return np.array(w), iterations, optimal
