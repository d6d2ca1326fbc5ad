from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from frsense import (
    DensityMatrix,
    InsufficientSamplesError,
    cumulative_spectrum,
    inv_exp_map,
    summarize_sample,
    tangent_pca,
)

from _oracles import exp_map, tangent_project
from conftest import random_mixture_pdf, random_srd


def lifted_tangents(result, samples):
    """Tangent matrix of the sample at the fitted mean, one row per draw."""
    return np.stack([inv_exp_map(result.mean, s).values for s in samples])


class TestTangentPca:
    """Principal modes of variation in the tangent space at the mean."""

    def test_eigenvalue_sum_matches_trace_oracle(self, grid, rng):
        samples = [random_srd(grid, rng) for _ in range(12)]
        res = tangent_pca(samples)
        tangents = lifted_tangents(res, samples)
        # Trace of the weighted covariance, computed without eigen-anything.
        trace = sum(grid.inner(v, v) for v in tangents) / (len(samples) - 1)
        assert res.eigenvalues.sum() == pytest.approx(trace, abs=1e-8)

    def test_eigenvalues_sorted_and_nonnegative(self, grid, rng):
        res = tangent_pca([random_srd(grid, rng) for _ in range(10)])
        assert np.all(np.diff(res.eigenvalues) <= 0.0)
        assert np.all(res.eigenvalues >= 0.0)

    def test_rank_bounded_by_sample_count(self, grid, rng):
        n = 9
        res = tangent_pca([random_srd(grid, rng) for _ in range(n)])
        assert np.sum(res.eigenvalues > 1e-10) <= n - 1

    def test_eigenvectors_orthonormal_in_trapezoid_inner(self, grid, rng):
        res = tangent_pca([random_srd(grid, rng) for _ in range(8)])
        u = res.eigenvectors[:, :8]
        gram = (u * grid.weights[:, None]).T @ u
        assert np.max(np.abs(gram - np.eye(8))) < 1e-6

    def test_single_geodesic_sample_is_rank_one(self, grid, rng):
        base = random_srd(grid, rng)
        direction = tangent_project(base, np.sin(2 * np.pi * grid.x))
        unit = direction.values / direction.norm
        samples = [exp_map(base, t * unit) for t in (-0.2, -0.1, 0.05, 0.12, 0.18)]
        res = tangent_pca(samples)
        assert np.sum(res.eigenvalues > 1e-10) == 1

    def test_full_basis_reconstructs_every_tangent(self, grid, rng):
        samples = [random_srd(grid, rng) for _ in range(7)]
        res = tangent_pca(samples)
        tangents = lifted_tangents(res, samples)
        u = res.eigenvectors
        coeffs = (u * grid.weights[:, None]).T @ tangents.T
        recon = (u @ coeffs).T
        assert np.max(np.abs(recon - tangents)) < 1e-6

    def test_sign_convention(self, grid, rng):
        res = tangent_pca([random_srd(grid, rng) for _ in range(10)])
        for j in range(5):
            col = res.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_two_samples_minimum(self, grid, rng):
        with pytest.raises(InsufficientSamplesError):
            tangent_pca([random_srd(grid, rng)])


class TestSharedSpectrum:
    """summarize_sample and tangent_pca share one spectrum routine, which
    decomposes the n x n Gram matrix when there are no more draws than grid
    points and the p x p covariance otherwise."""

    @pytest.mark.parametrize("n_draws", [40, 600])
    def test_summary_spectrum_matches_tangent_pca(self, grid, rng, n_draws):
        rows = np.stack([random_mixture_pdf(grid, rng).values for _ in range(n_draws)])
        sample = DensityMatrix(grid, rows)
        res = tangent_pca(sample)
        assert res.eigenvalues.size == min(n_draws, grid.n_points)
        npt.assert_allclose(
            cumulative_spectrum(res.eigenvalues, 20).omega,
            summarize_sample(sample, 20).spectrum.omega,
            rtol=0.0,
            atol=1e-12,
        )

    def test_gram_modes_match_covariance_oracle(self, grid, rng):
        # Eigenfunctions of the p x p weighted covariance, built from the
        # public log map and signed by the same rule.
        samples = [random_srd(grid, rng) for _ in range(8)]
        res = tangent_pca(samples)
        sqrt_w = np.sqrt(grid.weights)
        scaled = lifted_tangents(res, samples) * sqrt_w
        evals, evecs = np.linalg.eigh(scaled.T @ scaled / (len(samples) - 1))
        funcs = evecs[:, ::-1][:, :7] / sqrt_w[:, None]
        funcs *= np.sign(funcs[np.argmax(np.abs(funcs), axis=0), np.arange(7)])
        npt.assert_allclose(res.eigenvalues[:7], evals[::-1][:7], rtol=1e-9)
        assert np.max(np.abs(res.eigenvectors[:, :7] - funcs)) < 1e-8

    @pytest.mark.parametrize("copies", [1, 5], ids=["two-draws", "five-copies-and-one"])
    def test_rank_deficient_sample_keeps_orthonormal_modes(self, grid, rng, copies):
        # One tangent direction and copies null ones, whose eigenvalues are
        # rounding noise around zero.
        a, b = random_srd(grid, rng), random_srd(grid, rng)
        res = tangent_pca([a] * copies + [b])
        n, u = copies + 1, res.eigenvectors
        assert res.eigenvalues.shape == (n,) and u.shape == (grid.n_points, n)
        assert np.all(np.isfinite(res.eigenvalues)) and np.all(np.isfinite(u))
        assert np.sum(res.eigenvalues > 1e-10) == 1
        gram = (u * grid.weights[:, None]).T @ u
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12
        assert np.all(u[np.argmax(np.abs(u), axis=0), np.arange(n)] > 0.0)
