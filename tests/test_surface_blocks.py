"""The risk surface, formed a block of grid rows at a time, is bit for bit the per-row build.

``oracles.per_row_surface`` builds a surface one n at a time, each diagonal block taken by slices
and the rectangle across the boundary as that row's products with kernel tiles holding only its
own candidates below.  ``risk_surface`` forms the factors, borders and running sums of a whole
block of rows at once, and each kernel tile once for all the rows that read it.  Elementwise
operations round the same wherever they run, a running sum along a row is sequential, and a
row's products take the same shapes and strides in both, so the two must agree exactly, not
within a tolerance.  The second run shrinks ``_BLOCK_ENTRIES`` to 64, so that an averaged grid
takes one row per block and the kernels come in tiles of 8 x 8 candidates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lama.risk_theory as rt
from lama.risk_theory import PowerLawProfile, risk_surface

from oracles import asymptotic_risk, per_row_surface, theorem1_matrices, variance_penalized_weights


@st.composite
def grids(draw):
    # Unsorted M values with repeats; the largest is at least 33, so 64 entries hold one averaged row.
    m_values = draw(st.lists(st.integers(1, 120), min_size=1, max_size=6)) + [draw(st.integers(33, 120))]
    m_values = draw(st.permutations(m_values + draw(st.lists(st.sampled_from(m_values), max_size=2))))
    # Every M has an n below it (where M > 1), an n above it and maybe an n at it, plus n anywhere.
    gaps = st.integers(1, 4)
    n_values = [m + draw(gaps) for m in m_values] + [m - draw(gaps) for m in m_values if m > 1]
    n_values += draw(st.lists(st.sampled_from(m_values), max_size=3)) + draw(st.lists(st.integers(1, 200), max_size=3))
    n_values = [max(1, n) for n in draw(st.permutations(n_values))]
    if draw(st.booleans()):
        profile = PowerLawProfile.from_snr(draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 1.5)),
                                           truncate=draw(st.integers(1, 150)))
    else:
        profile = PowerLawProfile.from_r2(draw(st.floats(0.05, 0.95)), draw(st.floats(0.2, 2.0)),
                                          draw(st.integers(1, 150)))
    sigma2 = draw(st.floats(0.05, 4.0))
    weighting = draw(st.sampled_from(["equal", "variance_penalized", "single"]))
    return np.array(n_values), np.array(m_values), profile, sigma2, weighting, draw(st.booleans())


@pytest.mark.parametrize("entries", [rt._BLOCK_ENTRIES, 64])
@given(grid=grids())
@settings(max_examples=80, deadline=None)
def test_block_surface_is_the_per_row_surface_bit_for_bit(entries, grid):
    n_values, m_values, profile, sigma2, weighting, exclude = grid
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rt, "_BLOCK_ENTRIES", entries)
        if 1 in n_values and 1 in m_values and (weighting == "variance_penalized" or exclude and weighting != "single"):
            with pytest.raises(ValueError):  # the cell (n=1, M=1) has no finite-variance candidate left
                risk_surface(n_values, m_values, profile, sigma2=sigma2, weighting=weighting, exclude_singular=exclude)
            return
        surface = risk_surface(n_values, m_values, profile, sigma2=sigma2, weighting=weighting,
                               exclude_singular=exclude)
        bias, variance = per_row_surface(n_values, m_values, profile, sigma2, weighting, exclude)
    assert np.array_equal(surface.bias, bias)
    assert np.array_equal(surface.variance, variance)
    assert np.array_equal(surface.risk, bias + variance)


def test_ci_grid_agrees_across_tile_sizes():
    # The CI's 60 x 12 grid to M = 1,200 (--weights varpen --exclude-singular) with tiles of 8, 64 and
    # 256 candidates a side: a row below the boundary meets up to 38 x 150, 5 x 19 and 2 x 5 tiles.
    # A product's shape moves with its tile, so the surfaces agree within 1e-14, not bit for bit.
    profile = PowerLawProfile.from_snr(1.0, 0.6)
    n_values, m_values = np.arange(5, 301, 5), np.arange(100, 1201, 100)
    surfaces = []
    for entries in (64, 4096, 65536):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rt, "_BLOCK_ENTRIES", entries)
            surfaces.append(risk_surface(n_values, m_values, profile, weighting="variance_penalized",
                                         exclude_singular=True))
    want = surfaces[-1]
    for got in surfaces[:-1]:
        for part in ("risk", "bias", "variance"):
            assert np.all(np.abs(getattr(got, part) - getattr(want, part)) <= 1e-14 * getattr(want, part))
    # One cell each with M < n, M = n and M > n, against the matrices of its own candidates.
    sq = np.concatenate([[0.0], np.cumsum(profile.coefficients(1200) ** 2)])
    for n, m in ((200, 100), (200, 200), (200, 1200)):
        sizes = np.arange(1, m + 1)
        sizes = sizes[sizes != n]
        mats = theorem1_matrices(sizes / n, sq[sizes], sq[-1], 1.0)
        cell = np.array(asymptotic_risk(variance_penalized_weights(np.diag(mats.variance)), mats))
        i = np.flatnonzero((want.n == n) & (want.M == m))[0]
        for got in surfaces:
            assert np.all(np.abs([got.risk[i], got.bias[i], got.variance[i]] - cell) <= 1e-13 * cell)
