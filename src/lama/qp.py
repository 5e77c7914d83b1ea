"""Minimize w'Aw + b'w over the probability simplex.

``solve_simplex_qp(A, b)`` is the one entry point, for A an M x M array, a ``GramForm`` or a
``NestedForm``, which may stack programs on leading axes: their checks, certificates and solves then
run as array operations over the stack, but for the nested steps below that take a program at a time.
Every answer has the same certificate: ``status`` and ``kkt_residual``, the projected-gradient residual.

The Gram and ridged nested paths run one primal active-set loop (Nocedal &
Wright, *Numerical Optimization*, Alg. 16.3), ``_active_set``.  Each step goes
toward the minimizer of the current face (the simplex with the bound
indices held at zero) and stops at the first bound it meets, which then
leaves the support.  At a face minimizer, the bound index with the lowest
gradient entry enters if that entry lies below the free entries' common
value; else the point is optimal.  Ties go to the lowest index.  A zero
step that drops the index that just entered would return to the state
just left, so the loop stops there and the certificate gives the status.
The paths differ only in how they solve a face and where they start:

* A ``GramForm`` (the jackknife program) describes A = B'B by B (n x M):
  convex by construction, with objective and gradient in O(nM).  From the
  best vertex, each face is a least-squares problem solved from a QR factor
  of B_F updated by one column per step (Lawson & Hanson 1974, ch. 23).
  A dense A (a user's program) is centred and factored once, then solved
  as a ``GramForm``; it needs convexity on the simplex: the centred matrix
  (I - 11'/M) A (I - 11'/M) may have no negative eigenvalue beyond
  roundoff, else ``ValueError``.

  A stack of Gram programs (B is S x n x M) runs the same loop in lockstep,
  ``_gram_stack``: each program keeps its free row and its factor padded
  to M rows, so every step is one stacked product or masked operation, and
  a program's bits do not depend on its stack-mates.  A program leaves the
  stack when its loop stops, or when a face fails the pivot test (an affine
  dependence), which hands it to the one-program loop.

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
  The first face is the full support, and its solve certifies convexity:
  the LDL' pivots of the whole Hessian must be positive (else ``ValueError``),
  which makes the minimizer unique and every face system positive definite.
  A stack solves every first face in one Thomas pass (``_ridged_stack``), bit for bit as alone; only
  a program whose first step meets a bound goes on alone, and the first with a pivot <= 0 raises.

  Without the ridge (Mallows) it is weighted isotonic regression of
  t_i = -e_i / (2 d_i) with weights d_i, clipped to [0, 1], solved exactly
  by pool-adjacent-violators (Best & Chakravarti 1990) instead.  A step with
  |d_i| <= 1e-12 max(1, max|A|, max|b|), the certificate's scale, is a tie:
  its curvature is roundoff, and its linear term (Mallows has e_i <= 0) pushes
  C_i up, so it merges into the next block (a block of ties alone sits at
  C = 1).  A d_i below minus that is negative curvature: ``ValueError``.
  A stack is converted to floats and back once, and each program pools on plain floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GramForm", "NestedForm", "SolveReport", "simplex_project", "solve_simplex_qp"]

_MAX_ITER = 10_000


@dataclass(frozen=True, eq=False)
class SolveReport:
    """A solve's weights and certificate; it compares by identity."""
    weights: np.ndarray
    objective: float
    iterations: int
    status: str  # converged | max-iter | degenerate
    kkt_residual: float


@dataclass(frozen=True, eq=False)
class GramForm:
    """A = B'B of a Gram program, for an n x M array B or a stack of them (S x n x M); the solver never
    forms A.  Compares by identity."""

    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", np.asarray(self.B, dtype=np.float64))
        if self.B.ndim not in (2, 3):
            raise ValueError("a Gram form needs a two-dimensional B, or a stack of them on one leading axis")

    def diagonal(self) -> np.ndarray:
        """diag(A), the squared column norms of B, formed once and shared; by Cauchy-Schwarz its maximum is max|A|."""
        if "_diagonal" not in vars(self):
            subscripts = "ij,ij->j" if self.B.ndim == 2 else "...ij,...ij->...j"
            object.__setattr__(self, "_diagonal", np.einsum(subscripts, self.B, self.B))
        return self._diagonal


@dataclass(frozen=True, eq=False)
class NestedForm:
    """A(q,l) = g[max(q,l)] + h[min(q,l)] + 1{q=l} r_q, ``r`` None for no ridge; compares by identity.
    The candidates are the vectors' last axis, and any axes before it stack programs."""

    g: np.ndarray
    h: np.ndarray
    r: np.ndarray | None = None

    def __post_init__(self):
        for f in "gh" if self.r is None else "ghr":
            object.__setattr__(self, f, np.asarray(getattr(self, f), dtype=np.float64))
            if self.g.ndim == 0 or getattr(self, f).shape != self.g.shape:
                raise ValueError("nested form vectors must share one shape, the candidates on its last axis")

    def max_abs(self):
        """max |A(q,l)| of each program, bit-equal to the dense maximum: rounding is monotone, so the
        extremes of column l off the diagonal are g_l plus the running maximum and minimum of h_q, q < l."""
        g, h = self.g, self.h
        off = [g[..., 1:] + np.maximum.accumulate(h, -1)[..., :-1], g[..., 1:] + np.minimum.accumulate(h, -1)[..., :-1]]
        return np.abs(np.concatenate([g + h if self.r is None else g + h + self.r] + off, -1)).max(-1)

    def cumulative(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d, e) of the program w'Aw + b'w in cumulative weights (see the module docstring)."""
        dh = self.h[..., 1:] - self.h[..., :-1]
        return dh - (self.g[..., 1:] - self.g[..., :-1]), -2.0 * dh - (b[..., 1:] - b[..., :-1])


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1} (sorted-threshold rule) of each vector on the last axis."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    if not np.isfinite(v).all():
        raise ValueError("cannot project non-finite values")
    u, M = np.sort(v, -1)[..., ::-1], v.shape[-1]
    level = (u.cumsum(-1) - 1.0) / np.arange(1, M + 1)
    rho = M - 1 - (u - level > 0.0)[..., ::-1].argmax(-1)  # each vector's last index whose entry beats its level
    return np.maximum(v - level.reshape(-1)[np.arange(0, v.size, M).reshape(rho.shape) + rho][..., None], 0.0)


def _dot(x: np.ndarray, y: np.ndarray):
    """x'y along the last axis, bit for bit as x.dot(y): numpy's matmul takes each stacked product as that dot."""
    return x @ y if x.ndim == 1 else (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _matvec(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X y for each matrix of the stack ``X`` and vector of ``y``; X @ y itself for one vector."""
    return X @ y if y.ndim == 1 else (X @ y[..., None])[..., 0]


def _norm(x: np.ndarray):
    """||x|| along the last axis, computed as np.linalg.norm does (sqrt of x.dot(x)) without its per-call checks."""
    return np.sqrt(_dot(x, x))


def _objective(A, b: np.ndarray, w: np.ndarray, cumulative=None):
    """w'Aw + b'w; for a nested A, from its ``cumulative`` (d, e) (see the module docstring)."""
    if isinstance(A, GramForm):
        return _norm(_matvec(A.B, w)) ** 2 + _dot(b, w)
    if cumulative is None:
        return w @ A @ w + b @ w
    d, e = cumulative
    C = w.cumsum(-1)[..., :-1]
    ridge = 0.0 if A.r is None else _dot(A.r, w**2)
    return A.g[..., -1] + A.h[..., -1] + b[..., -1] + _dot(d, C**2) + _dot(e, C) + ridge


def _gradient(A, b: np.ndarray, w: np.ndarray, cumulative=None) -> np.ndarray:
    """2Aw + b; for a nested A, up to a common shift, which the simplex projection and
    the entering test ignore: g_q = sum_{q <= i < M-1} (2 d_i C_i + e_i) + 2 r_q w_q."""
    if isinstance(A, GramForm):
        return 2.0 * _matvec(np.swapaxes(A.B, -1, -2), _matvec(A.B, w)) + b
    if cumulative is None:
        return 2.0 * A @ w + b
    d, e = cumulative
    g = np.zeros(w.shape) if A.r is None else 2.0 * A.r * w
    g[..., :-1] += (2.0 * d * w.cumsum(-1)[..., :-1] + e)[..., ::-1].cumsum(-1)[..., ::-1]
    return g


def _not_convex(curvature: float) -> ValueError:
    return ValueError(
        f"program is not convex on the simplex (curvature {curvature:.3g}); "
        "the active-set solver requires convexity"
    )


def _centred_factor(A: np.ndarray, b: np.ndarray) -> tuple[GramForm, np.ndarray]:
    """The Gram program equal to w'Aw + b'w on the simplex up to a constant; ``ValueError`` unless convex there.

    With u = A1/M and P = I - 11'/M, A = PAP + 1u' + u1' - (1'A1/M^2) 11', so on
    the simplex the objective is w'PAPw + (b + 2u)'w plus a constant, and PAP
    is the Gram matrix of diag(sqrt(lam)) V' over its positive eigenpairs.
    """
    M = A.shape[0]
    P = np.eye(M) - 1.0 / M
    lam, V = np.linalg.eigh(P @ A @ P)
    # Centring a large constant or linear part leaves roundoff of order
    # eps * max|A_ij|, so that bounds the tolerance from below.
    floor = max(float(np.max(np.abs(lam))), float(np.max(np.abs(A))))
    if lam[0] < -1e-12 * floor:
        raise _not_convex(lam[0])
    keep = lam > 0.0
    return GramForm(np.sqrt(lam[keep])[:, None] * V[:, keep].T), b + 2.0 * A.sum(axis=1) / M


def _ratio_test(w: np.ndarray, p: np.ndarray, cap: float) -> tuple[float, int]:
    """Longest step t <= cap keeping w + t p >= 0, and the blocking position (-1 if none)."""
    neg = (p < 0.0).nonzero()[0]
    if neg.size == 0:
        return cap, -1
    ratios = w[neg] / -p[neg]
    j = ratios.argmin()
    return (cap, -1) if ratios[j] >= cap else (max(float(ratios[j]), 0.0), int(neg[j]))


def _checked(A, b) -> tuple[np.ndarray | GramForm | NestedForm, np.ndarray, float]:
    """The program with float entries, a dense A symmetrized, and max|A|; ``ValueError`` if malformed."""
    gram, nested = isinstance(A, GramForm), isinstance(A, NestedForm)
    if not (gram or nested):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        A = 0.5 * (A + A.T)  # the quadratic form only sees the symmetric part
    shape = A.g.shape if nested else (*A.B.shape[:-2], A.B.shape[-1]) if gram else A.shape[:1]
    if shape[-1] == 0:
        raise ValueError("empty program")
    b = np.zeros(shape) if b is None else np.asarray(b, dtype=np.float64).reshape(*shape[:-1], -1)
    if b.shape != shape:
        raise ValueError("b length does not match A")
    # max|A| is non-finite exactly when some entry is: NaN and infinity propagate through it.
    peak = A.diagonal().max(-1) if gram else A.max_abs() if nested else float(np.abs(A).max())
    if not (np.isfinite(peak).all() and np.isfinite(b).all()):
        kind = "Gram form" if gram else "nested form" if nested else "program"
        raise ValueError(f"{kind} contains non-finite entries")
    return A, b, peak


def _report(A, b, w, iterations, stopped, scale, cumulative=None) -> SolveReport:
    """Feasible weights with their objective, certified by the projected-gradient fixed-point residual."""
    w = np.maximum(w, 0.0)
    w /= w.sum(-1, keepdims=True)
    kkt = _norm(w - simplex_project(w - _gradient(A, b, w, cumulative)))
    status = np.where(kkt <= 1e-9 * scale, "converged", np.where(stopped, "degenerate", "max-iter"))
    objective = _objective(A, b, w, cumulative).tolist()
    return SolveReport(w, objective, np.asarray(iterations).tolist(), status.tolist(), kkt.tolist())


def solve_simplex_qp(A: np.ndarray | GramForm | NestedForm, b: np.ndarray | None = None) -> SolveReport:
    """Minimize w'Aw + b'w over the probability simplex.

    A is an M x M array or the ``GramForm`` or ``NestedForm`` that describes it, in which case no
    M x M array is formed.  A stack of programs (b of the form's shape) is checked and certified in
    one pass and solved as the module docstring says, a Gram stack in lockstep; each report field then
    lists one entry per program.  Raises ``ValueError`` on malformed input and on programs not convex
    on the simplex.
    """
    A, b, peak = _checked(A, b)
    scale = np.maximum(np.maximum(1.0, peak), np.abs(b).max(-1))
    M, cumulative = b.shape[-1], None
    w, iterations, stopped = np.ones(b.shape), np.zeros(scale.shape, dtype=np.int64), True
    if isinstance(A, NestedForm):
        d, e = cumulative = A.cumulative(b)
        if A.r is None or M == 1:  # pool-adjacent-violators is exact
            w, iterations = _pool_adjacent_violators(d, e, 1e-12 * scale)
        elif b.ndim > 1:
            w, iterations, stopped = _ridged_stack(A, d, e, scale)
        else:  # the gradient reads the ridge, and b only through e
            face = _tridiagonal_face(_face_target(d, e, A.r))
            grad = functools.partial(_gradient, A, None, cumulative=cumulative)
            w, iterations, stopped = _active_set(face, grad, list(range(M)), np.full(M, 1.0 / M), scale)
    elif M > 1:
        start = (A.diagonal() + b).argmin(-1)  # the best vertex
        form, linear = (A, b) if isinstance(A, GramForm) else _centred_factor(A, b)
        w, iterations, stopped = (_gram_stack if b.ndim > 1 else _gram_solve)(form, linear, scale, start)
    return _report(A, b, w, iterations, stopped, scale, cumulative)


def _gram_solve(form: GramForm, b: np.ndarray, scale: float, start: int) -> tuple[np.ndarray, int, bool]:
    """``_active_set`` on one Gram program from the vertex ``start``, each face solved by ``_gram_face``."""
    face, gradient = _gram_face(form.B, b, float(scale)), functools.partial(_gradient, form, b)
    return _active_set(face, gradient, [int(start)], 1.0 * (np.arange(b.size) == start), scale)


def _active_set(face, gradient, free: list[int], w: np.ndarray, scale: float) -> tuple[np.ndarray, int, bool]:
    """The active-set loop from the feasible ``w`` whose support is the sorted list ``free``.

    ``face(free, w)`` gives the step on the free entries toward the current
    face's minimizer and the longest multiple of it to take: 1 reaches the
    minimizer, and ``inf`` walks a zero-curvature direction to the next
    bound.  ``gradient(w)`` is the objective's gradient up to a common
    shift.  Returns the weights, the iteration count and whether the loop
    stopped before ``_MAX_ITER``: at a face minimizer that passes the
    entering test, or where the index that just entered would leave again
    by a zero step, which would bring back the state just left and repeat it.
    """
    entered = -1
    for iterations in range(1, _MAX_ITER + 1):
        p, cap = face(free, w)
        idx = np.array(free)  # numpy indexes an array faster than a list
        wF = w[idx]
        t, block = _ratio_test(wF, p, cap)
        w[idx] = wF + t * p
        if block >= 0:
            if t == 0.0 and free[block] == entered:
                return w, iterations, True
            entered = -1
            w[free[block]] = 0.0
            del free[block]
            continue
        if len(free) == w.size:  # no bound index can enter
            return w, iterations, True
        # At the face minimizer the free gradient entries share one value;
        # a bound index with a smaller entry enters.
        g = gradient(w)
        level = g[idx].sum() / len(free)
        g[idx] = np.inf
        entered = int(g.argmin())
        if g[entered] - level >= -1e-12 * scale:
            return w, iterations, True
        free = sorted(free + [entered])
    return w, _MAX_ITER, False


def _gram_face(B: np.ndarray, b: np.ndarray, scale: float):
    """The face step of A = B'B from a QR factor of the free columns C of [B; mu 1'], mu^2 = scale / M.

    On the face 1'v = 1 the border adds the constant mu^2 to ||B_C v||^2, so the
    minimizer is still R^-1 R^-T (lam 1 - b_C) / 2.  A column j within an angle
    of 1e-6 of the span of those before it is an affine dependence: with
    z_C = -R^-1 (r + s) its coefficients on them and z_j = 1, B z ~ 0 and
    1'z ~ 0, so the objective is linear along z and the step walks it
    downhill to the next bound.  C keeps the entering order, so a leaving
    column cuts the factor back to the columns before it.
    """
    BT = np.concatenate([B.T, np.full((B.shape[1], 1), (scale / B.shape[1]) ** 0.5)], axis=1)
    size, linear = min(B.shape[1], B.shape[0] + 1), bool(b.any())
    QT, Rinv, cols = np.empty((size, B.shape[0] + 1)), np.zeros((size, size)), []

    def face(free: list[int], w: np.ndarray) -> tuple[np.ndarray, float]:
        if len(free) == 1:  # a vertex is its face's minimizer
            return np.zeros(1), 1.0
        members = set(free)
        k = next((i for i, j in enumerate(cols) if j not in members), len(cols))
        del cols[k:]
        for j in sorted(members.difference(cols)):
            a, Q = BT[j], QT[:k]
            r = Q @ a  # classical Gram-Schmidt, reorthogonalized once
            u = a - r @ Q
            s = Q @ u
            u -= s @ Q
            rho = u.dot(u) ** 0.5
            if rho <= 1e-6 * a.dot(a) ** 0.5:
                z = np.zeros(w.size)
                z[cols], z[j] = -(Rinv[:k, :k] @ (r + s)), 1.0
                return (-z[free] if 2.0 * (B @ w) @ (B @ z) + b @ z > 0.0 else z[free]), np.inf
            QT[k], Rinv[:k, k], Rinv[k, k] = u / rho, Rinv[:k, :k] @ (r + s) / -rho, 1.0 / rho
            cols.append(j)
            k += 1
        R = Rinv[:k, :k]
        x = R @ R.sum(axis=0)  # R^-1 R^-T 1
        v = np.zeros(w.size)
        v[cols] = x / x.sum()
        if linear:  # lam from 1'v = 1, with y = R^-1 R^-T b_C
            y = R @ (R.T @ b[cols])
            v[cols] += 0.5 * (y.sum() * v[cols] - y)
        idx = np.array(free)  # numpy indexes an array faster than a list
        return v[idx] - w[idx], 1.0

    return face


def _gram_stack(form: GramForm, b: np.ndarray, scale: np.ndarray, start: np.ndarray):
    """``_gram_solve`` on each Gram program of a stack in lockstep (see the module docstring): (weights,
    iterations, stopped).  ``live`` holds one row per running program of each array the loop carries;
    ``place`` holds the row of each column in its program's factor, M if none."""
    B, (S, n, M) = form.B, form.B.shape
    out, iterations, stopped, handed = np.zeros((S, M)), np.zeros(S, dtype=np.int64), np.zeros(S, bool), []
    pos, w = np.arange(M), 1.0 * (start[:, None] == np.arange(M))
    BT = np.concatenate([np.swapaxes(B, 1, 2), np.broadcast_to((scale[:, None, None] / M) ** 0.5, (S, M, 1))], 2)
    live = {"id": np.arange(S), "B": B, "BT": BT, "norm": _norm(BT), "b": b, "scale": scale, "w": w,
            "free": w > 0.0, "QT": np.zeros((S, M, n + 1)), "Rinv": np.zeros((S, M, M)),
            "place": np.full((S, M), M), "k": np.zeros(S, dtype=np.int64), "entered": np.full(S, -1)}
    while (ids := live["id"]).size and iterations[ids[0]] < _MAX_ITER:  # every live program has run as many steps
        iterations[ids] += 1
        BT, QT, Rinv, w, free, entered = (live[name] for name in ("BT", "QT", "Rinv", "w", "free", "entered"))
        k = np.minimum(live["k"], np.where(free, M, live["place"]).min(1))  # cut each factor to its longest free prefix
        place = np.where(live["place"] < k[:, None], live["place"], M)
        cut, failed = (pos >= k[:, None]) & (pos < live["k"][:, None]), np.zeros(ids.size, bool)
        QT[cut], np.swapaxes(Rinv, 1, 2)[cut] = 0.0, 0.0  # the rows past the old cut are 0 already
        while (A := ((pending := free & (place == M)).any(1) & ~failed).nonzero()[0]).size:
            j, kA = pending[A].argmax(1), k[A]  # add each program's lowest free column that its factor lacks
            every = A.size == ids.size  # every live program adds one: read the factors in place
            a, Q = BT[A, j], QT if every else QT[A]
            r = _matvec(Q, a)  # classical Gram-Schmidt, reorthogonalized once
            u = a - (r[:, None] @ Q)[:, 0]
            s = _matvec(Q, u)
            u -= (s[:, None] @ Q)[:, 0]
            rho = _norm(u)
            failed[A] = bad = rho <= 1e-6 * live["norm"][A, j]
            every &= not bad.any()
            A, j, kA, u, rho, rs = (x[~bad] for x in (A, j, kA, u, rho, r + s))
            QT[A, kA], Rinv[A, :, kA] = u / rho[:, None], _matvec(Rinv if every else Rinv[A], rs) / -rho[:, None]
            Rinv[A, kA, kA], place[A, j], k[A] = 1.0 / rho, kA, kA + 1
        x = _matvec(Rinv, Rinv.sum(1))  # R^-1 R^-T 1, and the face minimizer v in factor order
        v = x / x.sum(1, keepdims=True)
        # lam from 1'v = 1, with y = R^-1 R^-T b_C (R^-T reads b_C's first k rows)
        if (linear := live["b"].any(1)).any():
            y = _matvec(Rinv, _matvec(np.swapaxes(Rinv, 1, 2), np.take_along_axis(live["b"], place.argsort(1), 1)))
            v = np.where(linear[:, None], v + 0.5 * (y.sum(1, keepdims=True) * v - y), v)
        p = np.where(free, v[np.arange(ids.size)[:, None], np.minimum(place, M - 1)] - w, 0.0)
        ratio = np.divide(w, -p, out=np.full(p.shape, np.inf), where=p < 0.0)
        j, t = ratio.argmin(1), np.clip(ratio.min(1), 0.0, 1.0)
        block = t < 1.0
        w = np.where(free, w + t[:, None] * p, w)
        cycle = block & (t == 0.0) & (j == entered)  # the index that just entered would leave again
        drop = (block & ~cycle).nonzero()[0]
        w[drop, j[drop]], free[drop, j[drop]], entered[drop] = 0.0, False, -1
        # at a face minimizer, a bound index below the free level enters
        grad = _gradient(GramForm(live["B"]), live["b"], w)
        level, grad = np.where(free, grad, 0.0).sum(1) / free.sum(1), np.where(free, np.inf, grad)
        j = grad.argmin(1)
        enter = ~block & (grad.min(1) - level < -1e-12 * live["scale"])
        free[enter, j[enter]], entered[enter] = True, j[enter]
        done = (~block | cycle) & ~enter & ~failed
        out[ids[done]], stopped[ids[done]] = w[done], True
        handed += ids[failed].tolist()
        live.update(w=w, place=place, k=k)
        if (left := done | failed).any():
            live = {name: x[~left] for name, x in live.items()}
    out[live["id"]] = live["w"]  # the programs still running at the iteration cap
    for i in handed:
        out[i], iterations[i], stopped[i] = _gram_solve(GramForm(B[i]), b[i], scale[i], start[i])
    return out, iterations, stopped


def _pool_adjacent_violators(d: np.ndarray, e: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """Weights minimizing sum_i d_i C_i^2 + e_i C_i over 0 <= C_0 <= ... <= C_{M-2} <= 1, and the number of
    pooling steps, of each program of a stack on the leading axes (none: one program), ``tol`` one per program."""
    lead, tol = d.shape[:-1], tol[..., None] if d.ndim > 1 else tol  # a scalar broadcasts faster
    if (d < -tol).any():  # the first program's least d
        raise _not_convex(float(d.reshape(-1, d.shape[-1])[(d < -tol).any(-1).argmax()].min()))
    levels, pools = [], []
    rows = (-0.5 * e).reshape(tol.size, -1).tolist(), np.where(d <= tol, 0.0, d).reshape(tol.size, -1).tolist()
    for nums, dens in zip(*rows):
        blocks, count = [], 0  # blocks: (sum of -e/2, sum of d, length, level)
        for num, den in zip(nums, dens):
            size = 1
            while True:  # level minimizes den C^2 - 2 num C; a tie block (den = 0) goes to the bound its slope picks
                level = num / den if den > 0.0 else (math.inf if num >= 0.0 else -math.inf)
                if not (blocks and blocks[-1][3] > level):
                    break
                before = blocks.pop()  # pool with the violating block before
                num, den, size = before[0] + num, before[1] + den, before[2] + size
                count += 1
            blocks.append((num, den, size, level))
        levels += [0.0] + [level for _, _, size, level in blocks for _ in range(size)] + [1.0]
        pools.append(count)
    C = np.array(levels).reshape(*lead, -1).clip(0.0, 1.0)
    return C[..., 1:] - C[..., :-1], np.array(pools).reshape(lead)


def _tridiagonal_solve(diag: list, off: list, rhs: list) -> tuple[list, list]:
    """Thomas algorithm for a symmetric tridiagonal system: (x, the LDL' pivots).  On floats it raises ``ValueError``
    at the first pivot <= 0; on arrays, each one position of a stack of systems, the caller tests the pivots."""
    n, pivot = len(diag), diag[0]
    ratio, x, pivots, alone = [0.0] * n, [0.0] * n, [pivot], isinstance(pivot, float)
    if alone and not pivot > 0.0:
        raise _not_convex(pivot)
    x[0] = rhs[0] / pivot
    for i in range(1, n):
        ratio[i - 1] = off[i - 1] / pivot
        pivot = diag[i] - off[i - 1] * ratio[i - 1]
        if alone and not pivot > 0.0:
            raise _not_convex(pivot)
        pivots.append(pivot)
        x[i] = (rhs[i] - off[i - 1] * x[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return x, pivots


def _face_target(d: np.ndarray, e: np.ndarray, r: np.ndarray):
    """``target(free)``: the ridged cumulative form's minimizer on a face, as weights on the free candidates,
    and the Thomas pivots of the face system.

    On the face with free candidates f_0 < ... < f_{s-1}, the variables are E_m = C_i for
    f_m <= i < f_{m+1} (m < s - 1); the steps inside one run pool their d and e, and the ridge keeps
    r at the free candidates only.  The first face, the full support, solves the whole Hessian (d
    from differences of its running sums, equal up to roundoff), so that solve certifies convexity:
    ``_tridiagonal_solve`` raises at one program's first pivot <= 0, and ``_ridged_stack`` hands a
    stacked program with one to the one-program loop.  One program runs on plain floats, as numpy's
    per-call cost would dominate; a stack runs the same operations on arrays over it, one per position.
    """
    entries = np.ndarray.tolist if r.ndim == 1 else lambda x: list(np.moveaxis(x, -1, 0))
    d_sum, e_sum, ridge = [0.0] + entries(d.cumsum(-1)), [0.0] + entries(e.cumsum(-1)), entries(r)

    def target(free) -> tuple[list, list]:
        if len(free) == 1:
            return [1.0], []
        runs = list(zip(free[:-1], free[1:]))
        rhs = [0.5 * (e_sum[f] - e_sum[g]) for f, g in runs]
        rhs[-1] += ridge[free[-1]]
        E, pivots = _tridiagonal_solve(
            [d_sum[g] - d_sum[f] + ridge[f] + ridge[g] for f, g in runs], [-ridge[f] for f in free[1:-1]], rhs
        )
        return [hi - lo for lo, hi in zip([0.0] + E, E + [1.0])], pivots

    return target


def _tridiagonal_face(target, full: np.ndarray | None = None):
    """The face step of one ridged program from its ``_face_target``, the full support's from ``full`` when given."""
    return lambda free, w: ((full if full is not None and len(free) == w.size else np.array(target(free)[0]))
                            - w[free], 1.0)


def _ridged_stack(A: NestedForm, d: np.ndarray, e: np.ndarray, scale: np.ndarray):
    """``_active_set`` on each ridged program of a stack: (weights, iterations, stopped).  Every first face is one
    Thomas pass; the programs whose step meets a bound, or with a pivot <= 0, go on alone in stack order."""
    M = A.r.shape[-1]
    w, iterations, stopped = np.full(A.r.shape, 1.0 / M), np.ones(scale.shape, np.int64), np.ones(scale.shape, bool)
    with np.errstate(all="ignore"):  # a program with a pivot <= 0 sweeps on, and goes on alone below
        target, pivots = _face_target(d, e, A.r)(range(M))
        target, convex = np.moveaxis(np.array(target), 0, -1), (np.array(pivots) > 0.0).all(0)
        step = target - w
        blocked = np.divide(w, -step, out=np.full(w.shape, np.inf), where=step < 0.0).min(-1) < 1.0
    w = w + step  # the whole step: the active set's w + 1.0 p
    for i in zip(*(blocked | ~convex).nonzero()):
        grad = functools.partial(_gradient, NestedForm(A.g[i], A.h[i], A.r[i]), None, cumulative=(d[i], e[i]))
        face = _tridiagonal_face(_face_target(d[i], e[i], A.r[i]), target[i] if convex[i] else None)
        w[i], iterations[i], stopped[i] = _active_set(face, grad, list(range(M)), np.full(M, 1.0 / M), scale[i])
    return w, iterations, stopped
