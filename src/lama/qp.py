"""Minimize w'Aw + b'w over the probability simplex.

A primal active-set method (Nocedal & Wright, *Numerical Optimization*,
Alg. 16.3) started at the best vertex.  A singular KKT system on the free
support is a zero-curvature direction, walked downhill to the next bound.
Ties go to the lowest index.  The method needs convexity on the simplex: the
centred matrix (I - 11'/M) A (I - 11'/M) may have no negative eigenvalue
beyond roundoff, else ``ValueError``.  sigma2 max(k_q, k_l), indefinite on the
whole space but linear on the simplex, passes.  The report's ``status`` and
``kkt_residual`` (the projected-gradient fixed-point residual) certify the
answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolveReport", "simplex_project", "solve_simplex_qp"]

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


def _check_convex_on_simplex(A: np.ndarray) -> None:
    """Raise unless A has no negative curvature along {p : sum p = 0}."""
    M = A.shape[0]
    P = np.eye(M) - 1.0 / M
    eigs = np.linalg.eigvalsh(P @ A @ P)
    # Centring a large constant or linear part leaves roundoff of order
    # eps * max|A_ij|, so that bounds the tolerance from below.
    floor = max(float(np.max(np.abs(eigs))), float(np.max(np.abs(A))))
    if eigs[0] < -1e-12 * floor:
        raise ValueError(
            f"program is not convex on the simplex (curvature {eigs[0]:.3g}); "
            "the active-set solver requires convexity"
        )


def _ratio_test(w: np.ndarray, p: np.ndarray, cap: float) -> tuple[float, int]:
    """Longest step t <= cap keeping w + t p >= 0, and the blocking position (-1 if none)."""
    neg = np.flatnonzero(p < 0.0)
    ratios = w[neg] / -p[neg]
    if neg.size == 0 or ratios.min() >= cap:
        return cap, -1
    j = int(np.argmin(ratios))
    return max(float(ratios[j]), 0.0), int(neg[j])


def solve_simplex_qp(A: np.ndarray, b: np.ndarray | None = None) -> SolveReport:
    """Minimize w'Aw + b'w over the probability simplex.

    Raises ``ValueError`` on malformed input and on programs that are not
    convex on the simplex.
    """
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

    if M == 1:
        w = np.array([1.0])
        return SolveReport(w, _objective(A, b, w), 0, "converged", 0.0)

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

    w = np.maximum(w, 0.0)
    w /= w.sum()
    kkt = _kkt_residual(A, b, w)
    if kkt <= 1e-9 * scale:
        status = "converged"
    else:
        status = "degenerate" if optimal else "max-iter"
    return SolveReport(w, _objective(A, b, w), iterations, status, kkt)
