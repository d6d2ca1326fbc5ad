from __future__ import annotations

import numpy as np
import pytest

from frsense import (
    EmptyInputError,
    fr_distance,
    inv_exp_map,
    karcher_mean,
    karcher_variance,
)

from _oracles import exp_map
from conftest import random_srd


class TestKarcherMean:
    """Intrinsic mean by tangent-average gradient descent."""

    def test_two_points_give_geodesic_midpoint(self, grid, rng):
        for _ in range(5):
            a, b = random_srd(grid, rng), random_srd(grid, rng)
            total = fr_distance(a, b)
            if total >= np.pi / 2 - 0.05:
                continue
            mid = karcher_mean([a, b])
            assert fr_distance(a, mid) == pytest.approx(total / 2, abs=1e-6)
            assert fr_distance(b, mid) == pytest.approx(total / 2, abs=1e-6)

    def test_gradient_norm_below_tolerance(self, grid, rng):
        samples = [random_srd(grid, rng) for _ in range(20)]
        mean, info = karcher_mean(samples, full_output=True)
        assert info.converged
        assert info.grad_norm < 1e-6

    def test_mean_minimizes_variance_among_samples(self, grid, rng):
        samples = [random_srd(grid, rng) for _ in range(15)]
        mean = karcher_mean(samples)
        at_mean = karcher_variance(samples, mean)
        for s in samples:
            assert at_mean <= karcher_variance(samples, s) + 1e-9

    def test_single_sample_is_its_own_mean(self, grid, rng):
        psi = random_srd(grid, rng)
        mean, info = karcher_mean([psi], full_output=True)
        assert info.converged
        assert np.max(np.abs(mean.values - psi.values)) < 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            karcher_mean([])

    def test_order_invariance(self, grid, rng):
        samples = [random_srd(grid, rng) for _ in range(8)]
        m1 = karcher_mean(samples)
        m2 = karcher_mean(samples[::-1])
        assert np.max(np.abs(m1.values - m2.values)) < 1e-12

    def test_iteration_budget_flagged(self, grid, rng):
        samples = [random_srd(grid, rng) for _ in range(10)]
        mean, info = karcher_mean(samples, eps1=1e-13, max_iter=2, full_output=True)
        assert not info.converged
        assert info.n_iter == 2
        with pytest.warns(RuntimeWarning):
            karcher_mean(samples, eps1=1e-13, max_iter=2)

    def test_symmetric_pair_about_known_center(self, grid, rng):
        # exp(psi, v) and exp(psi, -v) must average back to psi.  Densities
        # are floored well above zero so neither shot leaves the orthant
        # (otherwise the clamp would break the symmetry of the construction).
        from frsense import normalize_pdf, to_srd

        p = random_srd(grid, rng)
        q = random_srd(grid, rng)
        psi = to_srd(normalize_pdf(grid, 0.6 + 0.4 * p.values**2))
        tgt = to_srd(normalize_pdf(grid, 0.6 + 0.4 * q.values**2))
        v = inv_exp_map(psi, tgt).values * (0.2 / max(fr_distance(psi, tgt), 1e-9))
        pair = [exp_map(psi, v), exp_map(psi, -v)]
        mean = karcher_mean(pair)
        assert fr_distance(mean, psi) < 1e-6


class TestKarcherVariance:
    def test_zero_for_identical_samples(self, grid, rng):
        psi = random_srd(grid, rng)
        assert karcher_variance([psi, psi, psi], psi) == 0.0

    def test_matches_direct_average(self, grid, rng):
        samples = [random_srd(grid, rng) for _ in range(6)]
        mean = karcher_mean(samples)
        direct = np.mean([fr_distance(s, mean) ** 2 for s in samples])
        assert karcher_variance(samples, mean) == pytest.approx(direct, abs=1e-12)
