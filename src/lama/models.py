"""Datasets, regressor ordering, and batch fitting of nested candidates.

A candidate is a prefix of the design's columns: given strictly increasing
sizes k_1 < ... < k_M, candidate q uses the first k_q columns of X, so the
regressors are put in priority order (``order_by_cp``) by permuting X's
columns once.  ``fit_all`` fits every candidate by minimum-norm least
squares and caches the residuals, leverages and ranks that the weight-choice
criteria consume.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .risk_theory import InputError

__all__ = [
    "Dataset",
    "ModelFits",
    "load_csv",
    "order_by_cp",
    "fit_all",
    "default_model_counts",
]

# A fast route is taken only when its factor's pivots, smallest over largest,
# exceed this ratio: |diag R| of a tall prefix's QR, diag(L)^2 of the Cholesky
# factor of a wide prefix's Gram.  Anything dicier takes the SVD route.
_PIVOT_RATIO = 1e-10


@dataclass(frozen=True)
class Dataset:
    """Response vector plus full design matrix.

    When ``has_intercept`` is set, column 0 of X is a column of ones and
    ``order_by_cp`` seeds it as the first regressor.
    """

    Y: np.ndarray
    X: np.ndarray
    has_intercept: bool = False

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
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ModelFits:
    """All candidates fitted on one dataset.

    residuals, leverages are n x M with one column per candidate; coefs is
    k_M x M, column q holding candidate q's coefficients in its first k_q
    rows and zeros below.  Immutable after construction.
    """

    n: int
    sizes: np.ndarray
    coefs: np.ndarray
    residuals: np.ndarray
    leverages: np.ndarray
    rss: np.ndarray
    ranks: np.ndarray

    @property
    def M(self) -> int:
        return self.sizes.shape[0]

    def subset(self, keep: np.ndarray) -> "ModelFits":
        """Restrict to the candidates where the boolean mask ``keep`` is set."""
        keep = np.flatnonzero(keep)
        if keep.size == 0:
            raise ValueError("cannot keep zero candidates")
        return ModelFits(
            n=self.n,
            sizes=self.sizes[keep],
            coefs=self.coefs[:, keep],
            residuals=self.residuals[:, keep],
            leverages=self.leverages[:, keep],
            rss=self.rss[keep],
            ranks=self.ranks[keep],
        )

    def predict(self, X_new: np.ndarray) -> np.ndarray:
        """Per-candidate predictions on new rows, one column per candidate.

        Only the first k_M columns of ``X_new`` are read.  They are copied in
        Fortran order, so the product's bits do not depend on how many
        columns follow or on ``X_new``'s memory layout.
        """
        X_new = np.asarray(X_new, dtype=np.float64)
        kM = self.coefs.shape[0]
        if X_new.ndim != 2 or X_new.shape[1] < kM:
            raise ValueError("X_new must have at least k_M columns")
        return np.asfortranarray(X_new[:, :kM]) @ self.coefs


def load_csv(path, response: str) -> Dataset:
    """Read a numeric CSV with a header row into a Dataset.

    The named response column becomes Y; the remaining columns are regressors
    in file order, behind a prepended intercept column of ones.  Lines
    starting with '#' are skipped, so fixtures can carry provenance notes.
    A malformed file raises ``InputError`` naming ``response`` for a missing
    response column and the path otherwise.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#")]
    if len(rows) < 2:
        raise InputError(str(path), "need a header row and at least one data row")
    header = [name.strip() for name in rows[0]]
    if response not in header:
        raise InputError("response", f"no column named {response!r} in {path} (columns: {header})")
    if any(len(row) != len(header) for row in rows[1:]):
        raise InputError(str(path), f"ragged rows: every row needs the header's {len(header)} cells")
    try:
        body = np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float64)
    except ValueError as exc:
        raise InputError(str(path), f"non-numeric cell ({exc})") from None
    yj = header.index(response)
    Y = body[:, yj]
    X = np.column_stack([np.ones(body.shape[0]), np.delete(body, yj, axis=1)])
    return Dataset(Y=Y, X=X, has_intercept=True)


def order_by_cp(data: Dataset) -> np.ndarray:
    """Greedy forward ordering of the regressors by Mallows' Cp.

    Cp = RSS / sigma2 - n + 2k for any fixed sigma2 > 0.  At each step every
    candidate column adds one term, so k is common to them all and the Cp
    minimizer is the column with the largest RSS drop (q_j'Y)^2, q_j being
    its unit residual against the columns already selected.  Ties go to the
    lower original index.  Selection stops after min(n - 2, p) terms or when
    every remaining column lies in the selected span; the columns never
    selected follow in original order, so the result is always a full
    permutation.  An intercept column (``has_intercept``) is seeded as the
    first term rather than competing in the search.
    """
    n, p = data.n, data.p
    if n < 3:
        raise ValueError(f"need at least 3 observations to order regressors, got {n}")
    term_cap = min(n - 2, p)

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

    if data.has_intercept:
        q0 = grow(0)
        if q0 is not None:
            Q = np.column_stack([Q, q0])
        selected.append(0)
        remaining.remove(0)

    while len(selected) < term_cap and remaining:
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


def default_model_counts(n: int) -> tuple[int, int, int]:
    """The three candidate-count settings used by the synthetic experiments."""
    return (
        math.floor(3 * n ** (1.0 / 3.0) + 0.5),
        math.floor(0.5 * n + 0.5),
        math.floor(0.9 * n + 0.5),
    )


def fit_all(data: Dataset, sizes) -> ModelFits:
    """Fit candidate q = the first ``sizes[q]`` columns of X by minimum-norm least squares.

    ``sizes`` must be nonempty, at least 1, strictly increasing and at most
    p.  The prefixes with k <= n share one QR factorization; past the
    boundary the Gram G_k = X_k X_k' grows by each size's new columns and the
    coefficients are X_k' G_k^-1 Y.  A fast route is taken only when its
    factor (R, or G_k's Cholesky factor) passes the pivot test; otherwise the
    candidate goes through its own SVD pseudo-inverse, which treats singular
    values at or below max(n, k_M) * eps times the largest as zero and so
    reveals the rank.  The routes agree up to roundoff (the tests hold the
    fast routes to the SVD route).  A candidate of rank n interpolates: on
    every route its residuals are exactly 0 and its leverages exactly 1.
    """
    sizes = np.array(sizes, dtype=np.int64).reshape(-1)
    if sizes.size == 0:
        raise ValueError("need at least one candidate size")
    if sizes[0] < 1:
        raise ValueError("candidate sizes must be at least 1")
    if np.any(np.diff(sizes) <= 0):
        raise ValueError("candidate sizes must be strictly increasing")
    if sizes[-1] > data.p:
        raise ValueError(f"largest size {sizes[-1]} exceeds {data.p} regressors")
    n = data.n
    M = sizes.shape[0]
    kM = int(sizes[-1])
    # One Fortran-order copy: every product below reads contiguous columns, so
    # its bits depend neither on X's layout nor on the columns past k_M.
    Xo = np.asfortranarray(data.X[:, :kM])
    Y = data.Y

    coefs = np.zeros((kM, M))
    residuals = np.empty((n, M))
    leverages = np.empty((n, M))
    ranks = np.full(M, n, dtype=np.int64)  # the Gram route's; the other routes set theirs
    nb = int(np.searchsorted(sizes, n, side="right"))  # candidates 0..nb-1 have k <= n
    svd = []  # candidates left to the SVD route

    if nb:
        kb, sb = int(sizes[nb - 1]), sizes[:nb]
        Q, R = np.linalg.qr(Xo[:, :kb], mode="reduced")
        dr = np.abs(np.diag(R))
        if dr.min() > _PIVOT_RATIO * dr.max():
            z = Q.T @ Y
            # R is upper triangular (its LU is R itself), so the solve against z
            # cut to its first k_q rows returns exact zeros below them: one solve
            # fits every prefix.
            coefs[:kb, :nb] = np.linalg.solve(R, z[:, None] * (np.arange(kb)[:, None] < sb))
            residuals[:, :nb] = Y[:, None] - np.cumsum(Q * z, axis=1)[:, sb - 1]
            leverages[:, :nb] = np.cumsum(Q * Q, axis=1)[:, sb - 1]
            ranks[:nb] = sb
        else:
            svd = list(range(nb))

    if nb < M:  # some candidate lies past the boundary
        G, grown = np.zeros((n, n)), 0
    for q in range(nb, M):
        k = int(sizes[q])
        new = Xo[:, grown:k]
        G += new @ new.T
        grown = k
        try:
            pivots = np.diag(np.linalg.cholesky(G)) ** 2
        except np.linalg.LinAlgError:
            pivots = np.zeros(1)  # G is not positive definite: fails the test below
        if pivots.min() > _PIVOT_RATIO * pivots.max():
            coefs[:k, q] = Xo[:, :k].T @ np.linalg.solve(G, Y)
        else:
            svd.append(q)

    cutoff = max(n, kM) * np.finfo(np.float64).eps
    for q in svd:
        k = sizes[q]
        U, s, Vt = np.linalg.svd(Xo[:, :k], full_matrices=False)
        r = int(np.count_nonzero(s > cutoff * s[0]))
        Ur = U[:, :r]
        UtY = Ur.T @ Y
        coefs[:k, q] = Vt[:r].T @ (UtY / s[:r])
        residuals[:, q] = Y - Ur @ UtY
        leverages[:, q] = np.sum(Ur * Ur, axis=1)
        ranks[q] = r

    # Rank n interpolates exactly; this also fills the Gram route's columns.
    if np.any(interpolating := ranks == n):
        residuals[:, interpolating] = 0.0
        leverages[:, interpolating] = 1.0
    rss = np.sum(residuals * residuals, axis=0)
    return ModelFits(
        n=n,
        sizes=sizes,
        coefs=coefs,
        residuals=residuals,
        leverages=leverages,
        rss=rss,
        ranks=ranks,
    )
