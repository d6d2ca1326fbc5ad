"""Property tests of the sample summary on the density-matrix path."""

import os
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from conftest import random_mixture_pdf
from hypothesis import given, settings
from hypothesis import strategies as st

from frsense import (
    Dataset,
    DensityMatrix,
    DpConfig,
    Grid,
    GridPdf,
    McmcControl,
    PosteriorSample,
    dp_posterior,
    read_density_matrix,
    summarize_sample,
    write_density_matrix,
)
from frsense.geometry import _karcher_fit, _tangent_spectrum

GRID = Grid(16)
SEEDS = st.integers(0, 2**32 - 1)


def mixture_rows(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([random_mixture_pdf(GRID, rng).values for _ in range(n)])


def assert_same_summary(a, b):
    assert a.mean.values.tobytes() == b.mean.values.tobytes()
    assert a.variance == b.variance
    assert a.spectrum.omega.tobytes() == b.spectrum.omega.tobytes()
    assert a.n_draws == b.n_draws
    assert a.karcher == b.karcher


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.integers(4, 40), data=st.data())
def test_row_permutation_gives_identical_summary(seed, n, data):
    rows = mixture_rows(seed, n)
    perm = data.draw(st.permutations(range(n)))
    a = summarize_sample(DensityMatrix(GRID, rows), d=3)
    b = summarize_sample(DensityMatrix(GRID, rows[list(perm)]), d=3)
    assert_same_summary(a, b)


@pytest.mark.parametrize("n_range", [(3, GRID.n_points), (GRID.n_points + 1, 3 * GRID.n_points)])
@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, data=st.data())
def test_gram_and_covariance_spectra_agree(n_range, seed, data):
    n = data.draw(st.integers(*n_range))
    fit = _karcher_fit(DensityMatrix(GRID, mixture_rows(seed, n)))
    scaled = fit.tangents * np.sqrt(GRID.weights)
    gram = np.linalg.eigvalsh(scaled @ scaled.T / (n - 1))[::-1]
    cov = np.linalg.eigvalsh(scaled.T @ scaled / (n - 1))[::-1]
    k = min(n, GRID.n_points)
    spectrum = _tangent_spectrum(fit)
    assert spectrum.size == k
    npt.assert_allclose(spectrum, np.clip(gram[:k], 0.0, None), rtol=0.0, atol=1e-12)
    npt.assert_allclose(spectrum, np.clip(cov[:k], 0.0, None), rtol=0.0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, n_samples=st.integers(10, 30))
def test_summary_does_not_depend_on_the_container(seed, n_samples):
    data = Dataset.from_observations(np.linspace(0.0, 1.0, 20) ** 2)
    ctl = McmcControl(n_samples=n_samples, burn_in=0, thin=1, seed=seed)
    sample = dp_posterior(data, DpConfig(alpha=2.0, truncation=50), ctl, grid=GRID)
    assert_same_summary(summarize_sample(sample, d=3), summarize_sample(sample.pdfs, d=3))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "draws.csv")
        write_density_matrix(path, sample)
        read = read_density_matrix(path)
    same_rows = PosteriorSample(grid=GRID, densities=read.densities, model="dp", seed=seed)
    pdfs = [GridPdf(GRID, row) for row in read.densities]
    reference = summarize_sample(read, d=3)
    assert_same_summary(reference, summarize_sample(same_rows, d=3))
    assert_same_summary(reference, summarize_sample(pdfs, d=3))
