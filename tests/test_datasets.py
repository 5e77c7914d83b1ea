"""Bundled fixtures: shapes, standardization contract, error paths."""

import numpy as np
import pytest

from lama.datasets import (
    available,
    fixture_path,
    load_builtin,
    standardize_dataset,
)
from lama.models import Dataset


class TestCatalog:
    def test_available_names(self):
        assert available() == ("crime", "mtcars")

    def test_fixture_paths_point_at_csv_files(self):
        for name in available():
            path = fixture_path(name)
            assert str(path).endswith(f"{name}.csv")
            assert path.read_text().splitlines()[0].startswith("#") or "," in path.read_text()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            fixture_path("housing")
        with pytest.raises(ValueError, match="unknown builtin"):
            load_builtin("housing")


class TestShapes:
    def test_crime_dimensions(self):
        data = load_builtin("crime")
        assert data.X.shape == (47, 16)
        assert data.has_intercept

    def test_mtcars_dimensions(self):
        data = load_builtin("mtcars")
        assert data.X.shape == (32, 11)
        assert data.Y.shape == (32,)
        raw = load_builtin("mtcars", standardize=False)
        assert not any(np.array_equal(raw.X[:, j], raw.Y) for j in range(raw.p))  # mpg is Y only


class TestStandardization:
    @pytest.mark.parametrize("name", ["crime", "mtcars"])
    def test_columns_are_centered_and_unit_scale(self, name):
        data = load_builtin(name)
        np.testing.assert_allclose(data.X[:, 0], 1.0)  # intercept untouched
        np.testing.assert_allclose(np.mean(data.X[:, 1:], axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.std(data.X[:, 1:], axis=0, ddof=1), 1.0, rtol=1e-12)
        assert np.mean(data.Y) == pytest.approx(0.0, abs=1e-12)
        assert np.std(data.Y, ddof=1) == pytest.approx(1.0, rel=1e-12)

    def test_matches_standardizing_the_raw_load(self):
        raw = load_builtin("mtcars", standardize=False)
        assert np.std(raw.Y, ddof=1) != pytest.approx(1.0)
        redone = standardize_dataset(raw)
        np.testing.assert_allclose(redone.X, load_builtin("mtcars").X, atol=1e-12)
        np.testing.assert_allclose(redone.Y, load_builtin("mtcars").Y, atol=1e-12)

    def test_idempotent(self):
        once = load_builtin("crime")
        twice = standardize_dataset(once)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-12)
        np.testing.assert_allclose(twice.Y, once.Y, atol=1e-12)

    def test_without_intercept_every_column_is_scaled(self):
        raw = load_builtin("crime", standardize=False)
        data = standardize_dataset(Dataset(Y=raw.Y, X=raw.X[:, 1:]))
        np.testing.assert_allclose(np.mean(data.X, axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.std(data.X, axis=0, ddof=1), 1.0, rtol=1e-12)

    def test_constant_column_is_rejected_by_index(self):
        X = np.column_stack([np.ones(6), np.arange(6.0), np.full(6, 3.0)])
        data = Dataset(Y=np.arange(6.0), X=X, has_intercept=True)
        with pytest.raises(ValueError, match=r"column\(s\) \[2\]"):
            standardize_dataset(data)

    def test_constant_response_is_rejected(self):
        data = Dataset(Y=np.ones(6), X=np.arange(12.0).reshape(6, 2))
        with pytest.raises(ValueError, match="constant response"):
            standardize_dataset(data)
