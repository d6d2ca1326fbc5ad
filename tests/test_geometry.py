from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frsense import (
    AntipodalOrBoundaryError,
    BaseMismatchError,
    Grid,
    GridMismatchError,
    TangentVector,
    fr_distance,
    geodesic_path,
    inv_exp_map,
    normalize_pdf,
    to_srd,
)

from _oracles import exp_map, tangent_project
from conftest import mixture_density, random_mixture_pdf, random_srd

ROUND_TRIP_TOL = 1e-8

SEEDS = st.integers(0, 2**32 - 1)
N_POINTS = st.integers(16, 1024)
PROPERTY = settings(max_examples=100, deadline=None)


def random_pdfs(seed, n_points, k=2):
    """``k`` random mixture densities on a grid of ``n_points``."""
    rng = np.random.default_rng(seed)
    grid = Grid(n_points)
    return [random_mixture_pdf(grid, rng) for _ in range(k)]


def inside_the_log_domain(psi1, psi2):
    """The pair's distance, assuming it is clear of the antipodal boundary."""
    d = fr_distance(psi1, psi2)
    assume(d < np.pi / 2 - 0.01)
    return d


def uniform_pdf(grid):
    return normalize_pdf(grid, np.ones(grid.n_points))


def linear_pdf(grid):
    return normalize_pdf(grid, grid.x)


class TestFrDistance:
    """Distance between densities through their square roots."""

    def test_uniform_vs_linear_against_quadrature_oracle(self, grid):
        # Oracle: the overlap of sqrt(1) and sqrt(2x) integrated with a
        # 1e5-point composite rule, independent of the 512-point pipeline.
        xs = np.linspace(0.0, 1.0, 100_001)
        overlap = np.trapezoid(np.sqrt(2.0 * xs), xs)
        oracle = np.arccos(overlap)
        assert oracle == pytest.approx(np.arccos(2.0 * np.sqrt(2.0) / 3.0), abs=1e-6)
        assert oracle == pytest.approx(0.33983, abs=5e-5)

        d = fr_distance(uniform_pdf(grid), linear_pdf(grid))
        assert d == pytest.approx(oracle, abs=1e-4)

    def test_identical_densities_have_zero_distance(self, grid, rng):
        p = random_mixture_pdf(grid, rng)
        assert fr_distance(p, p) == 0.0

    @PROPERTY
    @given(seed=SEEDS, n_points=N_POINTS)
    def test_symmetric_within_quarter_circle(self, seed, n_points):
        p, q = random_pdfs(seed, n_points)
        d = fr_distance(p, q)
        assert abs(d - fr_distance(q, p)) <= 1e-12
        assert 0.0 <= d <= np.pi / 2.0

    @PROPERTY
    @given(seed=SEEDS, n_points=N_POINTS)
    def test_triangle_inequality(self, seed, n_points):
        p, q, r = random_pdfs(seed, n_points, k=3)
        assert fr_distance(p, r) <= fr_distance(p, q) + fr_distance(q, r) + 1e-9

    def test_grid_mismatch_rejected(self):
        p = uniform_pdf(Grid(512))
        q = uniform_pdf(Grid(256))
        with pytest.raises(GridMismatchError):
            fr_distance(p, q)

    def test_reparameterization_invariance(self, grid, rng):
        # Warp [0,1] by a smooth increasing gamma and push both densities
        # forward; the distance may only change at quadrature-error scale.
        c = 1.5
        gx = (np.exp(c * grid.x) - 1.0) / (np.exp(c) - 1.0)
        dgx = c * np.exp(c * grid.x) / (np.exp(c) - 1.0)
        for _ in range(5):
            p, q = random_mixture_pdf(grid, rng), random_mixture_pdf(grid, rng)
            p_w = normalize_pdf(grid, np.interp(gx, grid.x, p.values) * dgx)
            q_w = normalize_pdf(grid, np.interp(gx, grid.x, q.values) * dgx)
            assert fr_distance(p_w, q_w) == pytest.approx(fr_distance(p, q), abs=5e-3)


class TestExpLogMaps:
    @PROPERTY
    @given(seed=SEEDS, n_points=N_POINTS)
    def test_log_then_exp_recovers_target(self, seed, n_points):
        psi1, psi2 = map(to_srd, random_pdfs(seed, n_points))
        inside_the_log_domain(psi1, psi2)
        back = exp_map(psi1, inv_exp_map(psi1, psi2).values)
        assert np.max(np.abs(back.values - psi2.values)) < ROUND_TRIP_TOL

    @PROPERTY
    @given(seed=SEEDS, n_points=N_POINTS)
    def test_log_norm_equals_distance(self, seed, n_points):
        psi1, psi2 = map(to_srd, random_pdfs(seed, n_points))
        d = inside_the_log_domain(psi1, psi2)
        assert inv_exp_map(psi1, psi2).norm == pytest.approx(d, abs=1e-8)

    @PROPERTY
    @given(seed=SEEDS, n_points=N_POINTS)
    def test_log_is_tangent_at_base(self, seed, n_points):
        psi1, psi2 = map(to_srd, random_pdfs(seed, n_points))
        v = inv_exp_map(psi1, psi2)
        assert abs(psi1.grid.inner(v.values, psi1.values)) < 1e-10

    def test_log_of_base_is_exactly_zero(self, grid, rng):
        # One small-angle rule: a point within SMALL_ANGLE of the base maps
        # to the zero tangent, as a step that short maps to the base.
        psi = random_srd(grid, rng)
        assert np.array_equal(inv_exp_map(psi, psi).values, np.zeros(grid.n_points))

    def test_exp_of_zero_vector_is_base(self, grid, rng):
        psi = random_srd(grid, rng)
        v = tangent_project(psi, np.zeros(grid.n_points))
        assert np.array_equal(exp_map(psi, v.values).values, psi.values)

    def test_exp_result_stays_on_orthant(self, grid, rng):
        # A long shot leaves the nonnegative orthant; the clamp must bring it
        # back while keeping unit norm (Srd construction enforces both).
        psi = random_srd(grid, rng)
        v = tangent_project(psi, np.sin(3 * np.pi * grid.x))
        out = exp_map(psi, v.values / max(v.norm, 1e-12))
        assert np.all(out.values >= 0.0)

    def test_base_mismatch_rejected(self, grid, rng):
        # The log map at psi1 has inner product u sin(u) with psi2, so it is
        # no tangent vector there.
        psi1, psi2 = random_srd(grid, rng), random_srd(grid, rng)
        v = inv_exp_map(psi1, psi2)
        with pytest.raises(BaseMismatchError):
            TangentVector(psi2, v.values)

    def test_boundary_pair_rejected(self, grid):
        # Essentially disjoint supports: overlap ~ 0, distance ~ pi/2.
        p = mixture_density(grid, [0.08], [0.012], [1.0])
        q = mixture_density(grid, [0.92], [0.012], [1.0])
        assert fr_distance(p, q) > np.pi / 2 - 1e-6
        with pytest.raises(AntipodalOrBoundaryError):
            inv_exp_map(to_srd(p), to_srd(q))


class TestGeodesicPath:
    @PROPERTY
    @given(seed=SEEDS, n_points=N_POINTS, n_steps=st.integers(2, 12))
    def test_constant_speed_between_reproduced_endpoints(self, seed, n_points, n_steps):
        p, q = random_pdfs(seed, n_points)
        total = inside_the_log_domain(p, q)
        path = geodesic_path(p, q, n_steps)
        assert len(path) == n_steps
        assert np.max(np.abs(path[0].values - p.values)) < ROUND_TRIP_TOL
        assert np.max(np.abs(path[-1].values - q.values)) < ROUND_TRIP_TOL
        for a, b in zip(path[:-1], path[1:]):
            assert fr_distance(a, b) == pytest.approx(total / (n_steps - 1), abs=1e-8)

    def test_too_few_steps_rejected(self, grid, rng):
        p, q = random_mixture_pdf(grid, rng), random_mixture_pdf(grid, rng)
        with pytest.raises(ValueError):
            geodesic_path(p, q, 1)
