from __future__ import annotations

import warnings

import numpy as np
import pytest

from frsense import (
    EmptyInputError,
    Grid,
    Srd,
    fr_distance,
    from_srd,
    inv_exp_map,
    karcher_mean,
    karcher_variance,
)
from frsense import geometry
from frsense.geometry import KARCHER_EPS1, KARCHER_STEP

from _oracles import exp_map
from conftest import mixture_density, random_srd


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

    def test_unit_step_on_a_dispersed_sample(self, grid):
        # Nine narrow bumps spread over [0, 1], each about 1.2 from the mean:
        # one unit step does not reach it, and the iteration must still
        # meet eps1, or say that it did not.
        samples = [mixture_density(grid, [c], [0.02], [1.0]) for c in np.linspace(0.1, 0.9, 9)]
        assert KARCHER_STEP == 1.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mean, info = karcher_mean(samples, full_output=True)
            karcher_mean(samples)
        assert info.n_iter > 1
        if info.converged:
            assert info.grad_norm < KARCHER_EPS1
            assert not caught
        else:
            assert [w.category for w in caught] == [RuntimeWarning]
        # the half step of earlier versions reaches the same mean
        assert fr_distance(mean, karcher_mean(samples, eps2=0.5)) < 1e-6

    def test_step_is_the_mean_of_the_explicit_tangents(self, grid, rng, monkeypatch):
        # A step takes the mean log map from two matrix-vector products; at
        # every iterate it must be the average of the draws' own log maps.
        samples = [random_srd(grid, rng) for _ in range(25)]
        shoot, steps = geometry._exp_values, []

        def recording(g, base, v):
            steps.append((base.copy(), v.copy()))
            return shoot(g, base, v)

        monkeypatch.setattr(geometry, "_exp_values", recording)
        karcher_mean(samples, eps1=0.0, max_iter=4, full_output=True)
        assert len(steps) == 4
        for base, v in steps:
            explicit = np.mean([inv_exp_map(Srd(grid, base), s).values for s in samples], axis=0)
            np.testing.assert_allclose(v / KARCHER_STEP, explicit, rtol=0.0, atol=1e-14)

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

    def test_density_mean_is_lifted_to_its_srd(self, rng):
        # A GridPdf mean is square-rooted as fr_distance lifts it; its
        # density values read as SRD values would give another number.
        grid = Grid(128)
        samples = [
            mixture_density(grid, [c], [0.08], [1.0]) for c in rng.uniform(0.2, 0.8, 20)
        ]
        mean = karcher_mean(samples)
        assert karcher_variance(samples, from_srd(mean)) == pytest.approx(
            karcher_variance(samples, mean), abs=1e-12
        )
