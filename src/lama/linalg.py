"""Dense linear-algebra kernels for minimum-norm least squares.

Everything here is a pure function of its arguments.  The central object is
the minimum-l2-norm least-squares solution computed through the singular
value decomposition, which coincides with ordinary least squares whenever the
design has full column rank and remains well defined past the interpolation
boundary (more columns than rows, or collinear columns).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "default_rank_tol",
    "min_norm_ls",
    "projection",
]


def default_rank_tol(X: np.ndarray) -> float:
    """Relative cutoff below which singular values are treated as zero.

    max(n, k) * machine epsilon, the customary choice for numerical rank.
    Near k = n the design is deliberately ill conditioned, so callers probing
    that regime may pass their own cutoff instead.
    """
    return max(X.shape) * np.finfo(X.dtype if X.dtype.kind == "f" else np.float64).eps


def _check_design(X: np.ndarray, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {X.shape}")
    n, k = X.shape
    if n < 1 or k < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite entries")
    return X


def _thin_svd(X: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Economy SVD of X together with the numerical rank under rank_tol."""
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        r = 0
    else:
        r = int(np.count_nonzero(s > rank_tol * s[0]))
    return U, s, Vt, r


def min_norm_ls(X: np.ndarray, Y: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Minimum-norm least-squares coefficients (X'X)^+ X'Y.

    Singular values below rank_tol * s_max are treated as zero; the returned
    vector lies in the row space of X.  Under full column rank this equals the
    normal-equation solution.
    """
    X = _check_design(X)
    Y = np.asarray(Y, dtype=np.float64).reshape(-1)
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but Y has length {Y.shape[0]}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    if rank_tol is None:
        rank_tol = default_rank_tol(X)
    U, s, Vt, r = _thin_svd(X, rank_tol)
    if r == 0:
        return np.zeros(X.shape[1])
    return Vt[:r].T @ ((U[:, :r].T @ Y) / s[:r])


def projection(X: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Orthogonal projector X (X'X)^+ X' onto the column space of X.

    Symmetric and idempotent; trace equals the numerical rank of X.
    """
    X = _check_design(X)
    if rank_tol is None:
        rank_tol = default_rank_tol(X)
    U, _, _, r = _thin_svd(X, rank_tol)
    Ur = U[:, :r]
    return Ur @ Ur.T
