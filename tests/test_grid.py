from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from frsense import (
    AllZeroError,
    BaseMismatchError,
    DensityMatrix,
    Grid,
    GridMismatchError,
    GridPdf,
    NegativeValueError,
    Srd,
    TangentVector,
    from_srd,
    normalize_pdf,
    to_srd,
)
from frsense.grid import INTEGRAL_TOL, first_invalid_row, normalize_rows, srd_rows

from _oracles import tangent_project
from conftest import random_mixture_pdf


class TestGrid:
    """Uniform grid and trapezoid quadrature."""

    def test_spacing_and_endpoints(self):
        g = Grid(512)
        assert g.spacing == pytest.approx(1.0 / 511)
        assert g.x[0] == 0.0
        assert g.x[-1] == 1.0

    def test_trapezoid_weights(self):
        g = Grid(101)
        assert g.weights[0] == pytest.approx(g.spacing / 2)
        assert g.weights[50] == pytest.approx(g.spacing)
        assert g.weights.sum() == pytest.approx(1.0)

    def test_integrate_matches_numpy_trapezoid(self):
        g = Grid(257)
        f = np.exp(g.x)
        assert g.integrate(f) == pytest.approx(np.trapezoid(f, g.x), abs=1e-14)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            Grid(8)

    def test_grids_compare_by_resolution(self):
        assert Grid(512) == Grid(512)
        assert Grid(512) != Grid(256)


class TestNormalizePdf:
    def test_linear_density_normalizes_to_two_x(self, grid):
        # raw f(x) = x has integral 1/2, so the density must be 2x.
        pdf = normalize_pdf(grid, grid.x)
        assert np.allclose(pdf.values, 2.0 * grid.x, atol=1e-12)
        assert grid.integrate(pdf.values) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self, grid):
        with pytest.raises(AllZeroError):
            normalize_pdf(grid, np.zeros(grid.n_points))

    def test_negative_value_rejected(self, grid):
        raw = np.ones(grid.n_points)
        raw[3] = -0.5
        with pytest.raises(NegativeValueError):
            normalize_pdf(grid, raw)

    def test_wrong_length_rejected(self, grid):
        with pytest.raises(GridMismatchError):
            normalize_pdf(grid, np.ones(grid.n_points + 1))


class TestNormalizeRows:
    def test_rows_are_unit_densities_independent_of_their_neighbours(self, grid, rng):
        # A row's bits must not depend on how many rows precede it.
        raw = rng.uniform(0.1, 2.0, size=(37, grid.n_points))
        rows = normalize_rows(grid, raw)
        npt.assert_allclose(rows @ grid.weights, 1.0, rtol=0.0, atol=1e-12)
        for i in range(raw.shape[0]):
            assert rows[i].tobytes() == normalize_rows(grid, raw[i:])[0].tobytes()

    def test_bad_rows_rejected(self, grid):
        raw = np.ones((3, grid.n_points))
        raw[1] = 0.0
        with pytest.raises(AllZeroError):
            normalize_rows(grid, raw)
        raw[1, 5] = -1.0
        with pytest.raises(NegativeValueError):
            normalize_rows(grid, raw)
        with pytest.raises(GridMismatchError):
            normalize_rows(grid, np.ones((3, grid.n_points - 1)))


class TestOneRowIsTheMatrixCase:
    """A single density takes the matrix path's arithmetic, bit for bit."""

    @pytest.mark.parametrize("n_points", [16, 100, 512])
    def test_normalize_and_srd_match_the_row_forms(self, rng, n_points):
        grid = Grid(n_points)
        raw = rng.uniform(0.0, 3.0, size=(300, n_points)) ** 3
        rows = normalize_rows(grid, raw)
        roots = srd_rows(grid, rows)
        for i in range(raw.shape[0]):
            pdf = normalize_pdf(grid, raw[i])
            assert pdf.values.tobytes() == rows[i].tobytes()
            assert to_srd(pdf).values.tobytes() == roots[i].tobytes()

    def test_gridpdf_accepts_exactly_what_the_row_check_accepts(self, rng, grid):
        # Scale unit rows so their integrals straddle the tolerance edge
        # within a few ulps, where any change of summation order shows.
        rows = normalize_rows(grid, rng.uniform(0.1, 2.0, size=(100, grid.n_points)))
        edges = 1.0 + INTEGRAL_TOL + np.spacing(1.0) * np.arange(-4, 5)
        edges = np.concatenate([edges, 2.0 - edges])
        scaled = (rows[:, None, :] * edges[None, :, None]).reshape(-1, grid.n_points)
        verdicts = {True: 0, False: 0}
        for i, row in enumerate(scaled):
            in_matrix = first_invalid_row(grid, scaled[i:])
            accepted_in_matrix = in_matrix is None or in_matrix[0] > 0
            assert (first_invalid_row(grid, row[None]) is None) == accepted_in_matrix
            try:
                GridPdf(grid, row)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == accepted_in_matrix, i
            verdicts[accepted] += 1
        assert verdicts[True] and verdicts[False]


class TestDensityMatrix:
    def rows(self, grid, rng, n=4):
        return np.stack([random_mixture_pdf(grid, rng).values for _ in range(n)])

    def test_rows_are_read_only_views(self, grid, rng):
        raw = self.rows(grid, rng)
        m = DensityMatrix(grid, raw)
        raw[0, 0] = 99.0
        assert m.densities[0, 0] != 99.0
        assert len(m) == 4 and len(list(m)) == 4
        last = m[-1]
        assert isinstance(last, GridPdf) and last.grid == grid
        assert np.shares_memory(last.values, m.densities)
        with pytest.raises(ValueError):
            last.values[0] = 1.0
        assert [p.values.tobytes() for p in m[1:3]] == [r.tobytes() for r in raw[1:3]]

    def test_every_row_validated(self, grid, rng):
        raw = self.rows(grid, rng)
        raw[2] *= 2.0
        with pytest.raises(ValueError, match="integrates to"):
            DensityMatrix(grid, raw)
        raw[2] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            DensityMatrix(grid, raw)
        raw[2] = -raw[0]
        with pytest.raises(NegativeValueError):
            DensityMatrix(grid, raw)
        with pytest.raises(GridMismatchError):
            DensityMatrix(grid, raw[:, 1:])


class TestGridPdf:
    def test_requires_unit_integral(self, grid):
        with pytest.raises(ValueError):
            GridPdf(grid, np.ones(grid.n_points) * 2.0)
        with pytest.raises(ValueError):
            GridPdf(grid, np.full(grid.n_points, np.nan))

    def test_values_are_immutable(self, grid):
        pdf = normalize_pdf(grid, np.ones(grid.n_points))
        with pytest.raises(ValueError):
            pdf.values[0] = 3.0


class TestSrdTransform:
    def test_unit_sphere_norm(self, grid, rng):
        for _ in range(10):
            psi = to_srd(random_mixture_pdf(grid, rng))
            assert grid.integrate(psi.values**2) == pytest.approx(1.0, abs=1e-12)
            assert np.all(psi.values >= 0.0)

    def test_round_trip_recovers_density(self, grid, rng):
        pdf = random_mixture_pdf(grid, rng)
        back = from_srd(to_srd(pdf))
        assert np.max(np.abs(back.values - pdf.values)) < 1e-10

    def test_srd_requires_unit_squared_integral(self, grid):
        # Note ones() itself is the valid square root of the uniform density.
        with pytest.raises(ValueError):
            Srd(grid, 2.0 * np.ones(grid.n_points))
        with pytest.raises(NegativeValueError):
            vals = np.ones(grid.n_points)
            vals[0] = -1.0
            Srd(grid, vals)


class TestTangentVector:
    def test_must_be_orthogonal_to_base(self, grid, rng):
        psi = to_srd(random_mixture_pdf(grid, rng))
        with pytest.raises(BaseMismatchError):
            TangentVector(psi, psi.values.copy())

    def test_projection_is_tangent(self, grid, rng):
        psi = to_srd(random_mixture_pdf(grid, rng))
        v = tangent_project(psi, np.sin(2 * np.pi * grid.x))
        assert abs(grid.inner(v.values, psi.values)) < 1e-12

    def test_zero_vector_is_valid(self, grid, rng):
        psi = to_srd(random_mixture_pdf(grid, rng))
        v = TangentVector(psi, np.zeros(grid.n_points))
        assert v.norm == 0.0
