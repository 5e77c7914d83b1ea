"""Bundled example datasets and the standardization used with them."""

from __future__ import annotations

from importlib import resources

import numpy as np

from ..models import Dataset, load_csv
from ..risk_theory import InputError

__all__ = ["available", "fixture_path", "load_builtin", "standardize_dataset"]

_RESPONSES = {"crime": "y", "mtcars": "mpg"}


def available() -> tuple[str, ...]:
    return tuple(sorted(_RESPONSES))


def fixture_path(name: str):
    """Filesystem path of a bundled CSV (for the CLI and for inspection)."""
    if name not in _RESPONSES:
        raise ValueError(f"unknown builtin dataset {name!r}; available: {available()}")
    return resources.files(__package__).joinpath(f"{name}.csv")


def standardize_dataset(data: Dataset) -> Dataset:
    """Center and scale the response and every non-intercept regressor.

    Uses full-sample means and standard deviations (ddof=1).  Applied once,
    before any train/test splitting, so all splits share one scale.  A
    constant column or response raises ``InputError`` naming ``data``.
    """
    X = data.X.copy()
    start = 1 if data.has_intercept else 0
    cols = X[:, start:]
    sd = np.std(cols, axis=0, ddof=1)
    if np.any(sd <= 0.0):
        bad = (np.flatnonzero(sd <= 0.0) + start).tolist()
        raise InputError("data", f"constant column(s) {bad} cannot be standardized (--no-standardize skips it)")
    X[:, start:] = (cols - np.mean(cols, axis=0)) / sd
    y_sd = np.std(data.Y, ddof=1)
    if y_sd <= 0.0:
        raise InputError("data", "constant response cannot be standardized (--no-standardize skips it)")
    Y = (data.Y - np.mean(data.Y)) / y_sd
    return Dataset(Y=Y, X=X, has_intercept=data.has_intercept)


def load_builtin(name: str, standardize: bool = True) -> Dataset:
    """A bundled dataset, with intercept column, standardized by default.

    "crime": 47 US states, 1960 aggregate crime rates and 15 socio-economic
    predictors.  "mtcars": 32 cars from the 1974 Motor Trend road tests,
    fuel economy response.
    """
    with resources.as_file(fixture_path(name)) as path:
        data = load_csv(path, response=_RESPONSES[name])
    return standardize_dataset(data) if standardize else data
