"""Shared builders for the test suite.

Fixtures construct small fitted-candidate objects from seeded draws so tests
can exercise the criteria and solvers without repeating setup; the grid
helper enumerates the probability simplex for use as a brute-force oracle.
"""

from itertools import combinations

import numpy as np
import pytest

from lama.models import Dataset, ModelFits, fit_all


def make_fits(seed, n=24, sizes=(1, 3, 6, 10), p=None, noise=1.0):
    """Fit nested candidates on one seeded Gaussian draw."""
    rng = np.random.default_rng(seed)
    p = max(sizes) if p is None else p
    X = rng.standard_normal((n, p))
    theta = rng.standard_normal(p) / np.sqrt(p)
    Y = X @ theta + noise * rng.standard_normal(n)
    data = Dataset(Y=Y, X=X)
    return fit_all(data, sizes), data, theta


def summary_fits(n, sizes, rss):
    """Candidate summaries with prescribed sizes and residual norms.

    Residual columns are scaled constant vectors so each column's squared
    norm equals the requested value; only the fields the criteria read are
    meaningful.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    rss = np.asarray(rss, dtype=np.float64)
    E = np.sqrt(rss / n)[None, :] * np.ones((n, sizes.size))
    return ModelFits(
        n=n,
        sizes=sizes,
        coefs=np.zeros((int(sizes.max()), sizes.size)),
        residuals=E,
        leverages=np.tile(sizes / n, (n, 1)).astype(np.float64),
        rss=rss,
        ranks=sizes.copy(),
    )


def simplex_grid(M, step=0.01):
    """All weight vectors with entries on a step lattice summing to one.

    Stars-and-bars enumeration: every composition of 1/step into M parts.
    Vectorized so the M=4 grid (~180k points) stays cheap to evaluate.
    """
    units = round(1.0 / step)
    bars = np.array(list(combinations(range(units + M - 1), M - 1)), dtype=np.int64)
    if M == 1:
        return np.ones((1, 1))
    bounds = np.hstack(
        [bars, np.full((bars.shape[0], 1), units + M - 1)]
    ) - np.hstack([np.full((bars.shape[0], 1), -1), bars])
    return (bounds - 1) / float(units)


def grid_min(A, b, step=0.01):
    """Brute-force minimum of w'Aw + b'w over the simplex lattice."""
    W = simplex_grid(A.shape[0], step)
    vals = np.einsum("ij,jk,ik->i", W, A, W) + W @ b
    return float(vals.min())


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
