"""Datasets, nested candidate model construction, and batch fitting.

A candidate set is a priority ordering of the regressors plus a strictly
increasing list of model sizes; candidate q uses the first k_q regressors
under the ordering.  ``fit_all`` fits every candidate by minimum-norm least
squares and caches the residuals, leverages and ranks that the weight-choice
criteria consume.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _thin_svd, default_rank_tol, min_norm_ls

__all__ = [
    "Dataset",
    "NestedCandidateSet",
    "ModelFits",
    "load_csv",
    "order_by_cp",
    "build_nested",
    "fit_all",
    "default_model_counts",
]

# QR fast path is only taken when R's diagonal is comfortably nonsingular;
# anything dicier goes through the rank-revealing SVD route.
_QR_DIAG_RATIO = 1e-10


@dataclass(frozen=True)
class Dataset:
    """Response vector plus full design matrix.

    When ``has_intercept`` is set, column 0 of X is a column of ones and is
    treated as the intercept by the ordering helpers.
    """

    Y: np.ndarray
    X: np.ndarray
    has_intercept: bool = False
    column_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        Y = np.asarray(self.Y, dtype=np.float64).reshape(-1)
        if X.ndim != 2:
            raise ValueError("X must be 2-d")
        n, p = X.shape
        if n < 2:
            raise ValueError("need at least 2 observations")
        if p < 1:
            raise ValueError("need at least 1 regressor")
        if Y.shape[0] != n:
            raise ValueError("Y length does not match X rows")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("dataset contains non-finite entries")
        if self.has_intercept and not np.allclose(X[:, 0], 1.0):
            raise ValueError("has_intercept is set but column 0 is not all ones")
        if self.column_names is not None and len(self.column_names) != p:
            raise ValueError("column_names length does not match X columns")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class NestedCandidateSet:
    """Regressor priority order and the strictly increasing candidate sizes."""

    ordering: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        ordering = np.asarray(self.ordering, dtype=np.int64).reshape(-1)
        sizes = np.asarray(self.sizes, dtype=np.int64).reshape(-1)
        p = ordering.shape[0]
        if not np.array_equal(np.sort(ordering), np.arange(p)):
            raise ValueError("ordering must be a permutation of 0..p-1")
        if sizes.size == 0:
            raise ValueError("need at least one candidate size")
        if sizes[0] < 1:
            raise ValueError("candidate sizes must be at least 1")
        if np.any(np.diff(sizes) <= 0):
            raise ValueError("candidate sizes must be strictly increasing")
        if sizes[-1] > p:
            raise ValueError(f"largest size {sizes[-1]} exceeds {p} regressors")
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "sizes", sizes)

    @property
    def M(self) -> int:
        return self.sizes.shape[0]


@dataclass(frozen=True)
class ModelFits:
    """All candidates fitted on one dataset.

    residuals, leverages are n x M with one column per candidate; coefs is
    k_M x M, column q holding candidate q's coefficients in its first k_q
    rows and zeros below.  Immutable after construction.
    """

    n: int
    sizes: np.ndarray
    ordering: np.ndarray
    coefs: np.ndarray
    residuals: np.ndarray
    leverages: np.ndarray
    rss: np.ndarray
    ranks: np.ndarray

    @property
    def M(self) -> int:
        return self.sizes.shape[0]

    def subset(self, keep: np.ndarray) -> "ModelFits":
        """Restrict to the candidates selected by ``keep`` (bool mask or indices)."""
        keep = np.asarray(keep)
        if keep.dtype == bool:
            keep = np.flatnonzero(keep)
        if keep.size == 0:
            raise ValueError("cannot keep zero candidates")
        return ModelFits(
            n=self.n,
            sizes=self.sizes[keep],
            ordering=self.ordering,
            coefs=self.coefs[:, keep],
            residuals=self.residuals[:, keep],
            leverages=self.leverages[:, keep],
            rss=self.rss[keep],
            ranks=self.ranks[keep],
        )

    def predict(self, X_new: np.ndarray) -> np.ndarray:
        """Per-candidate predictions on new rows, one column per candidate."""
        X_new = np.asarray(X_new, dtype=np.float64)
        kM = self.coefs.shape[0]
        if X_new.ndim != 2 or X_new.shape[1] < kM:
            raise ValueError("X_new must have at least k_M columns")
        return X_new[:, self.ordering[:kM]] @ self.coefs


def load_csv(path, response: str, intercept: bool = True) -> Dataset:
    """Read a numeric CSV with a header row into a Dataset.

    The named response column becomes Y; the remaining columns are regressors
    in file order.  Lines starting with '#' are skipped, so fixtures can carry
    provenance notes.  With ``intercept``, a column of ones is prepended.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#")]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one data row")
    header = [name.strip() for name in rows[0]]
    if response not in header:
        raise ValueError(f"{path}: no column named {response!r} (columns: {header})")
    try:
        body = np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric cell ({exc})") from None
    if body.shape[1] != len(header):
        raise ValueError(f"{path}: ragged rows")
    yj = header.index(response)
    Y = body[:, yj]
    X = np.delete(body, yj, axis=1)
    names = [h for j, h in enumerate(header) if j != yj]
    if intercept:
        X = np.column_stack([np.ones(X.shape[0]), X])
        names = ["(intercept)"] + names
    return Dataset(Y=Y, X=X, has_intercept=intercept, column_names=tuple(names))


def order_by_cp(data: Dataset, max_terms: int | None = None, keep_intercept: bool = True) -> np.ndarray:
    """Greedy forward ordering of the regressors by Mallows' Cp.

    At each step the regressor whose addition minimizes
    Cp = RSS / sigma2_ref - n + 2k is appended, where sigma2_ref comes from
    the largest reference model with k <= floor(0.9 n) (columns taken in
    original order).  Ties go to the lower original index.  Indices never
    selected (beyond ``max_terms``) follow in original order, so the result
    is always a full permutation.

    With ``keep_intercept`` (default) an intercept column is seeded as the
    first selected term rather than competing in the search.
    """
    n, p = data.n, data.p
    if max_terms is None:
        max_terms = min(n - 2, p)
    if not 1 <= max_terms <= min(n - 2, p):
        raise ValueError(f"max_terms must be in [1, min(n-2, p)] = [1, {min(n - 2, p)}]")

    k_ref = min(p, math.floor(0.9 * n))
    if n - k_ref < 2:
        raise ValueError("sample too small to fit the Cp reference model")
    ref = data.X[:, :k_ref]
    rss_ref = float(np.sum((data.Y - ref @ min_norm_ls(ref, data.Y)) ** 2))
    sigma2_ref = rss_ref / (n - k_ref)
    if sigma2_ref <= 0.0:
        # Exact interpolation by the reference model; Cp then reduces to a
        # pure RSS comparison, which the gain-based search below still gives.
        sigma2_ref = np.finfo(np.float64).tiny

    X, Y = data.X, data.Y
    col_norms = np.linalg.norm(X, axis=0)
    selected: list[int] = []
    remaining = list(range(p))
    # Orthonormal basis of the selected columns, grown one vector at a time.
    Q = np.empty((n, 0))

    def grow(j: int) -> np.ndarray | None:
        x = X[:, j]
        r = x - Q @ (Q.T @ x)
        r = r - Q @ (Q.T @ r)  # second orthogonalization pass for stability
        nr = np.linalg.norm(r)
        if nr <= 1e-12 * max(col_norms[j], 1.0):
            return None  # column already in the span
        return r / nr

    if data.has_intercept and keep_intercept:
        q0 = grow(0)
        if q0 is not None:
            Q = np.column_stack([Q, q0])
        selected.append(0)
        remaining.remove(0)

    while len(selected) < max_terms and remaining:
        gains = np.full(len(remaining), -1.0)
        vecs: list[np.ndarray | None] = []
        for i, j in enumerate(remaining):
            qj = grow(j)
            vecs.append(qj)
            if qj is not None:
                gains[i] = float(qj @ Y) ** 2
        best = int(np.argmax(gains))  # first index wins exact ties
        if gains[best] < 0.0:
            break  # every remaining column is in the current span
        j = remaining.pop(best)
        selected.append(j)
        if vecs[best] is not None:
            Q = np.column_stack([Q, vecs[best]])

    return np.array(selected + remaining, dtype=np.int64)


def build_nested(ordering: np.ndarray, sizes) -> NestedCandidateSet:
    """Candidate q = first k_q regressors under ``ordering``."""
    return NestedCandidateSet(ordering=np.asarray(ordering), sizes=np.asarray(sizes))


def default_model_counts(n: int) -> tuple[int, int, int]:
    """The three candidate-count settings used by the synthetic experiments."""
    return (
        math.floor(3 * n ** (1.0 / 3.0) + 0.5),
        math.floor(0.5 * n + 0.5),
        math.floor(0.9 * n + 0.5),
    )


def fit_all(data: Dataset, cands: NestedCandidateSet, rank_tol: float | None = None) -> ModelFits:
    """Fit every nested candidate by minimum-norm least squares.

    A single QR factorization of the largest candidate covers all prefixes
    when they are comfortably full rank; otherwise each candidate goes
    through the SVD pseudo-inverse.  Both routes produce identical values up
    to roundoff (the fast path is an algebraic rearrangement, exercised
    against the SVD route in the tests).
    """
    if cands.ordering.shape[0] != data.p:
        raise ValueError("candidate ordering length does not match dataset columns")
    n = data.n
    sizes = cands.sizes
    M = cands.M
    kM = int(sizes[-1])
    Xo = data.X[:, cands.ordering[:kM]]
    Y = data.Y
    if rank_tol is None:
        rank_tol = default_rank_tol(Xo)

    residuals = np.empty((n, M))
    leverages = np.empty((n, M))
    ranks = np.empty(M, dtype=np.int64)

    fast = False
    if kM <= n:
        Q, R = np.linalg.qr(Xo, mode="reduced")
        dr = np.abs(np.diag(R))
        fast = dr.size > 0 and dr.min() > _QR_DIAG_RATIO * dr.max()

    if fast:
        z = Q.T @ Y
        # R is upper triangular (its LU is R itself), so the solve against z
        # cut to its first k_q rows returns exact zeros below them: one solve
        # fits every prefix.
        coefs = np.linalg.solve(R, z[:, None] * (np.arange(kM)[:, None] < sizes))
        residuals[:] = Y[:, None] - np.cumsum(Q * z, axis=1)[:, sizes - 1]
        leverages[:] = np.cumsum(Q * Q, axis=1)[:, sizes - 1]
        ranks[:] = sizes
    else:
        coefs = np.zeros((kM, M))
        for q, k in enumerate(sizes):
            Xq = Xo[:, :k]
            U, s, Vt, r = _thin_svd(Xq, rank_tol)
            Ur = U[:, :r]
            UtY = Ur.T @ Y
            coefs[:k, q] = Vt[:r].T @ (UtY / s[:r])
            residuals[:, q] = Y - Ur @ UtY
            leverages[:, q] = np.sum(Ur * Ur, axis=1)
            ranks[q] = r

    rss = np.sum(residuals * residuals, axis=0)
    return ModelFits(
        n=n,
        sizes=sizes.copy(),
        ordering=cands.ordering.copy(),
        coefs=coefs,
        residuals=residuals,
        leverages=leverages,
        rss=rss,
        ranks=ranks,
    )
