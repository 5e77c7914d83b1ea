"""Datasets, regressor ordering, and batch fitting of nested candidates.

A candidate is a prefix of the design's columns: given strictly increasing
sizes k_1 < ... < k_M, candidate q uses the first k_q columns of X, so the
regressors are put in priority order by permuting X's columns once; the
forward selection ``order_by_cp`` sweeps every column's residual once per
selected term, O(n p) each.  ``fit_all`` fits every candidate by
minimum-norm least squares, from one factorization below the boundary and
one per block of sizes past it, tested on each candidate's leading block.
It keeps the residuals and leverages the criteria consume, and the ranks,
which decide the exact-interpolation fill and are kept as a diagnostic.
``_fit_stack`` runs the same QR route on a stack of designs of one shape.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .risk_theory import InputError, _counts

__all__ = [
    "Dataset",
    "ModelFits",
    "load_csv",
    "order_by_cp",
    "fit_all",
    "default_model_counts",
]

# A fast route is taken only when its factor's pivots, smallest over largest,
# exceed this ratio: |diag R| of a tall prefix's QR, diag(C)^2 of the Cholesky
# factor of a wide block's Gram (see fit_all).  Anything dicier takes the SVD route.
_PIVOT_RATIO = 1e-10
# Past the boundary, candidates whose sizes span at most this many columns share one factorization.
_BLOCK_COLUMNS = 128


def _forward(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 B by forward substitution: L flipped is upper triangular, so its LU is itself."""
    return np.linalg.solve(L[::-1, ::-1], B[::-1])[::-1]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Response vector plus full design matrix; it compares by identity.

    When ``has_intercept`` is set, column 0 of X is ones, which ``order_by_cp``
    seeds as the first regressor; a broken rule is an ``InputError`` naming ``data``.
    """

    Y: np.ndarray
    X: np.ndarray
    has_intercept: bool = False

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        Y = np.asarray(self.Y, dtype=np.float64).reshape(-1)
        if X.ndim != 2:
            raise InputError("data", "X must be 2-d")
        n, p = X.shape
        if n < 2:
            raise InputError("data", "need at least 2 observations")
        if p < 1:
            raise InputError("data", "need at least 1 regressor")
        if Y.shape[0] != n:
            raise InputError("data", "Y length does not match X rows")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise InputError("data", "dataset contains non-finite entries")
        if self.has_intercept and not np.allclose(X[:, 0], 1.0):
            raise InputError("data", "has_intercept is set but column 0 is not all ones")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class ModelFits:
    """All candidates fitted on one dataset.

    residuals, leverages are n x M with one column per candidate; coefs is
    k_M x M, column q holding candidate q's coefficients in its first k_q
    rows and zeros below.  Immutable after construction; compares by identity.
    Fits of one n and sizes may stack on leading axes, and ``predict`` then takes one matrix of rows per fit.
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
            coefs=self.coefs[..., keep],
            residuals=self.residuals[..., keep],
            leverages=self.leverages[..., keep],
            rss=self.rss[..., keep],
            ranks=self.ranks[..., keep],
        )

    def predict(self, X_new: np.ndarray) -> np.ndarray:
        """Per-candidate predictions on new rows, one column per candidate; stacked fits take one
        matrix of rows per fit on the same leading axes.

        Only the first k_M columns of ``X_new`` are read.  Each matrix of them is
        copied in Fortran order, so the product's bits do not depend on how many
        columns follow, on ``X_new``'s memory layout or on the stack.
        """
        X_new = np.asarray(X_new, dtype=np.float64)
        kM = self.coefs.shape[-2]
        if X_new.ndim != self.coefs.ndim or X_new.shape[-1] < kM:
            raise ValueError("X_new must have at least k_M columns, and one matrix of rows per stacked fit")
        return np.ascontiguousarray(np.swapaxes(X_new[..., :kM], -1, -2)).swapaxes(-1, -2) @ self.coefs


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
    minimizer is the column with the largest RSS drop (r_j'Y)^2 / ||r_j||^2,
    r_j being its residual against the columns already selected.  Drops within
    1e-10 ||Y|| sqrt(d) of the largest, d (the scale of a drop's roundoff), tie,
    and the lowest original index among them wins, so columns tied by exact
    linear relations (a factor's dummies beside an intercept) go by index, not
    by roundoff or the scale of Y.  Selection stops after min(n - 2, p) terms
    or when every remaining column lies in the selected span (||r_j|| at most
    1e-12 max(||x_j||, 1)); the columns never selected follow in original
    order, so the result is always a full permutation.  An intercept column
    (``has_intercept``) is seeded as the first term.

    Each term sweeps every residual by one projection, applied twice for
    stability (Miller, *Subset Selection in Regression*, 2002, ch. 3): O(n p)
    per term.  Column sums are products summed down the rows, so equal
    columns get equal bits wherever they sit (BLAS gemv does not promise it).
    """
    n, p = data.n, data.p
    if n < 3:
        raise InputError("data", f"need at least 3 observations to order regressors, got {n}")
    term_cap = min(n - 2, p)

    floor = 1e-12 * np.maximum(np.linalg.norm(data.X, axis=0), 1.0)
    tie = 1e-10 * np.sqrt((data.Y * data.Y).sum())
    R = data.X.copy()  # column j: x_j's residual against the selected span
    free = np.ones(p, dtype=bool)
    selected: list[int] = []
    while len(selected) < term_cap:
        norm2 = (R * R).sum(axis=0)
        live = free & (np.sqrt(norm2) > floor)
        if data.has_intercept and not selected:
            j = 0
        elif live.any():
            c = (R * data.Y[:, None]).sum(axis=0)
            drop = np.divide(c * c, norm2, out=np.full(p, -np.inf), where=live)
            j = int(np.argmax(drop >= drop.max() - tie * np.sqrt(drop.max())))  # the first of the ties
        else:
            break  # every remaining column is in the current span
        free[j] = False
        selected.append(j)
        if live[j]:
            q = R[:, j : j + 1] / np.sqrt(norm2[j])
            for _ in range(2):
                R -= q * (q * R).sum(axis=0)

    return np.concatenate([selected, np.flatnonzero(free)]).astype(np.int64)


def default_model_counts(n: int) -> tuple[int, int, int]:
    """The three candidate-count settings used by the synthetic experiments."""
    return (
        math.floor(3 * n ** (1.0 / 3.0) + 0.5),
        math.floor(0.5 * n + 0.5),
        math.floor(0.9 * n + 0.5),
    )


def _candidate_sizes(sizes) -> np.ndarray:
    """``sizes`` as int64 counts (``_counts``), nonempty and strictly increasing; else ``InputError``."""
    sizes = np.asarray(_counts(sizes, "sizes")).reshape(-1)
    if sizes.size == 0 or (sizes[1:] <= sizes[:-1]).any():
        raise InputError("sizes", f"need at least one candidate size, strictly increasing, got {sizes.tolist()}")
    return sizes


def fit_all(data: Dataset, sizes) -> ModelFits:
    """Fit candidate q = the first ``sizes[q]`` columns of X by minimum-norm least squares.

    ``sizes`` must be integers (``_counts``), nonempty, at least 1, strictly
    increasing and at most p.  The prefixes with k <= n share one QR
    factorization.  Past the boundary the coefficients are X_k' G_k^-1 Y,
    G_k = X_k X_k'; candidates whose sizes span at most ``_BLOCK_COLUMNS`` = B
    columns form a block that factors its widest Gram alone, G_T = C C'.  A
    narrower Gram is G_T less the block's columns it lacks, W_j W_j', so one
    Cholesky L of S = I - Z'Z (Z = C^-1 W, W widest first) holds every
    candidate's system as a leading block; a block keeps O(n^2 + n B + B^2)
    numbers beyond the coefficients.  A fast route is taken only when its
    factor passes the pivot test: the diagonal of R up to the candidate's
    size for a QR prefix; diag(C)^2, times the least of diag(L)^2 up to the
    candidate, for a Gram.  Any other candidate (say, one past a dependent
    column, or a narrower one when S is not positive definite) goes through
    its own SVD pseudo-inverse, which treats singular values at or below
    max(n, k_M) * eps times the largest as zero and so reveals the rank.  The
    routes agree up to roundoff (the tests hold the fast routes to the SVD
    route).  A candidate of rank n interpolates: on every route its residuals
    are exactly 0 and its leverages exactly 1.
    """
    sizes = _candidate_sizes(sizes)
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
    nb = int(sizes.searchsorted(n, "right"))  # candidates 0..nb-1 have k <= n
    svd = []  # candidates left to the SVD route

    if nb:
        Q, R = np.linalg.qr(Xo[:, : sizes[nb - 1]], mode="reduced")
        kf = np.count_nonzero(_passing(R))  # the test passes the first kf prefixes only
        nf = int(sizes.searchsorted(kf, "right"))
        coefs[:kf, :nf], residuals[:, :nf], leverages[:, :nf] = _prefix_fits(Q[:, :kf], R[:kf, :kf], Y, sizes[:nf])
        ranks[:nf] = sizes[:nf]
        svd = list(range(nf, nb))

    G, grown, a = (np.zeros((n, n)) if nb < M else None), 0, nb
    while a < M:  # past the boundary: the block of candidates a..e-1, widest k_T
        e = int(sizes.searchsorted(sizes[a] + _BLOCK_COLUMNS, "right"))
        kT, lack = int(sizes[e - 1]), sizes[e - 1] - sizes[a:e]
        # Downdate the widest Gram: growing a near-singular narrowest one would spoil every wider fit.
        G += Xo[:, grown:kT] @ Xo[:, grown:kT].T
        grown, w = kT, int(lack[0])
        try:
            pc = np.diag(C := np.linalg.cholesky(G)) ** 2
        except np.linalg.LinAlgError:
            pc = np.zeros(1)  # G_T is not positive definite: fails the test below
        W, V, ps = Xo[:, kT - 1 : kT - 1 - w : -1], np.zeros((w, e - a)), np.ones(w)
        if pc.min() > _PIVOT_RATIO * pc.max():  # else every candidate fails, as least <= 1 below
            if w:  # v_j = W_j' u_j solves the leading j x j block of S; its rows below j stay 0
                y0, Z = np.hsplit(_forward(C, np.column_stack([Y, W])), [1])
                try:
                    ps = np.diag(L := np.linalg.cholesky(np.eye(w) - Z.T @ Z)) ** 2
                except np.linalg.LinAlgError:  # the narrowest Gram is singular: only the widest stays
                    L, ps = np.eye(w), np.zeros(w)
                first = np.arange(w)[:, None] < lack
                V = np.linalg.solve(L.T, _forward(L, (Z.T @ y0) * first) * first)
            U = np.linalg.solve(G, Y[:, None] + W @ V)  # u_j = G_T^-1 (Y + W_j v_j)
            coefs[:kT, a:e] = np.where(np.arange(kT)[:, None] < sizes[a:e], Xo[:, :kT].T @ U, 0.0)
        least = np.minimum.accumulate(np.concatenate([[1.0], ps]))[lack]
        svd += (a + np.flatnonzero(~(pc.min() * least > _PIVOT_RATIO * pc.max()))).tolist()
        a = e

    for q in svd:
        k = sizes[q]
        U, s, Vt = np.linalg.svd(Xo[:, :k], full_matrices=False)
        r = int(np.count_nonzero(s > max(n, kM) * np.finfo(np.float64).eps * s[0]))
        Ur = U[:, :r]
        UtY = Ur.T @ Y
        coefs[:k, q] = Vt[:r].T @ (UtY / s[:r])
        residuals[:, q] = Y - Ur @ UtY
        leverages[:, q] = np.sum(Ur * Ur, axis=1)
        ranks[q] = r

    return _filled(sizes, coefs, residuals, leverages, ranks)


def _passing(R: np.ndarray) -> np.ndarray:
    """The pivot test of every R[:k, :k] on running extrema of |diag R|, over any leading stack axes."""
    dr = np.abs(R.diagonal(0, -2, -1))
    return np.minimum.accumulate(dr, axis=-1) > _PIVOT_RATIO * np.maximum.accumulate(dr, axis=-1)


def _prefix_fits(Q: np.ndarray, R: np.ndarray, Y: np.ndarray, sizes: np.ndarray):
    """(coefs, residuals, leverages) of the prefixes ``sizes`` from Q R of their widest, over any stack axes.

    R is upper triangular (its LU is R itself), so the solve against z = Q'Y cut to its first k_q rows
    returns exact zeros below them: one solve fits every prefix.  A stacked design gets its 2-d bits.
    """
    z = (Q.swapaxes(-1, -2) @ Y[..., None])[..., 0]
    coefs = np.linalg.solve(R, z[..., None] * (np.arange(R.shape[-1])[:, None] < sizes))
    # take, unlike [..., sizes - 1], keeps each design's n x M block C-contiguous, as the RSS sum needs
    residuals = Y[..., None] - (Q * z[..., None, :]).cumsum(axis=-1).take(sizes - 1, axis=-1)
    return coefs, residuals, (Q * Q).cumsum(axis=-1).take(sizes - 1, axis=-1)


def _filled(sizes, coefs, residuals, leverages, ranks) -> ModelFits:
    """One design's ModelFits: a candidate of rank n interpolates exactly, which also fills the Gram
    route's columns, and each RSS sums the design's own n x M residuals."""
    n = residuals.shape[0]
    if (interpolating := ranks == n).any():
        residuals[:, interpolating] = 0.0
        leverages[:, interpolating] = 1.0
    return ModelFits(n, sizes, coefs, residuals, leverages, (residuals * residuals).sum(axis=0), ranks)


def _fit_stack(X: np.ndarray, Y: np.ndarray, sizes: np.ndarray) -> list[ModelFits | None]:
    """``fit_all`` from one stacked QR of X (S x n x k_M, k_M <= n) and Y (S x n), ``sizes`` as checked there:
    a design whose every prefix passes the pivot test gets fit_all's ModelFits bit for bit, any other None."""
    Q, R = np.linalg.qr(X, mode="reduced")
    ok = _passing(R).all(axis=-1)
    fits = zip(*_prefix_fits(Q[ok], R[ok], Y[ok], sizes))
    return [_filled(sizes, *next(fits), sizes) if passed else None for passed in ok]
