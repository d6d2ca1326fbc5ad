"""Grid-valued densities and their square-root representatives.

All continuous objects in this package live on a uniform grid over [0, 1] and
every integral is a trapezoidal sum on that grid.  A probability density is a
nonnegative grid function with unit trapezoidal integral; its square root is a
point on (the positive orthant of) the unit sphere of the same discretized
inner product, which is where the Fisher-Rao geometry of `geometry` operates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AllZeroError,
    BaseMismatchError,
    GridMismatchError,
    NegativeValueError,
)

__all__ = [
    "DensityMatrix",
    "Grid",
    "GridPdf",
    "Srd",
    "TangentVector",
    "DEFAULT_N_POINTS",
    "MIN_POINTS",
    "default_grid",
    "normalize_pdf",
    "normalize_rows",
    "to_srd",
    "from_srd",
]

#: Grid resolution used throughout unless a caller asks for something else.
DEFAULT_N_POINTS = 512

#: Unit-integral and unit-norm constructions must hold to this tolerance.
INTEGRAL_TOL = 1e-8

#: Tangency (orthogonality to the base point) must hold to this tolerance.
ORTHO_TOL = 1e-6

#: Coarsest grid accepted anywhere: configs, files and direct construction.
MIN_POINTS = 16


class _ReadOnlyArrays:
    """Keeps a frozen object's array attributes read-only through pickle.

    numpy unpickles every array writeable; sweep tasks in worker processes
    hand their samples and summaries back pickled.
    """

    def __setstate__(self, state: dict):
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)


@dataclass(frozen=True)
class Grid(_ReadOnlyArrays):
    """Uniform grid on [0, 1] with trapezoidal quadrature weights."""

    n_points: int = DEFAULT_N_POINTS

    def __post_init__(self):
        if self.n_points < MIN_POINTS:
            raise ValueError(f"grid needs at least {MIN_POINTS} points, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return 1.0 / (self.n_points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        x = np.linspace(0.0, 1.0, self.n_points)
        x.flags.writeable = False
        return x

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid weights: h at interior points, h/2 at the endpoints."""
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.flags.writeable = False
        return w

    def integrate(self, values: np.ndarray):
        """Trapezoidal integral over the last axis, of one row or of each row.

        Each row is reduced on its own, so a row gets the same bits alone as
        anywhere in a matrix; a BLAS matrix-vector product rounds rows
        differently by position.
        """
        return np.einsum("...j,j->...", values, self.weights)

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """L2 inner product <f, g> under the trapezoid rule."""
        return (f * g) @ self.weights

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(self.inner(f, f)))


_DEFAULT_GRID = Grid(DEFAULT_N_POINTS)


def default_grid() -> Grid:
    """The shared 512-point grid instance."""
    return _DEFAULT_GRID


def _freeze(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"grid function must be 1-d, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _check_shape(grid: Grid, values: np.ndarray):
    if values.shape != (grid.n_points,):
        raise GridMismatchError(
            f"values of length {values.shape[0]} on a grid of {grid.n_points} points"
        )


def first_invalid_row(grid: Grid, rows: np.ndarray):
    """Index and error of the first row of ``rows`` that is no density on ``grid``.

    A density row is nonnegative and integrates to one within
    INTEGRAL_TOL; NaN fails both.  Returns None when every row passes.
    GridPdf and DensityMatrix both validate through this check.
    """
    negative = ~np.all(rows >= 0.0, axis=1)
    totals = grid.integrate(rows)
    bad = negative | ~(np.abs(totals - 1.0) <= INTEGRAL_TOL)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if negative[i]:
        return i, NegativeValueError("density values must be >= 0")
    return i, ValueError(f"density integrates to {float(totals[i])!r}, not 1")


def _check_densities(grid: Grid, rows: np.ndarray):
    bad = first_invalid_row(grid, rows)
    if bad is not None:
        raise bad[1]


def _check_rows_shape(grid: Grid, rows: np.ndarray):
    if rows.ndim != 2 or rows.shape[1] != grid.n_points:
        raise GridMismatchError(
            f"rows of shape {rows.shape} on a grid of {grid.n_points} points"
        )


def check_same_grid(a, b):
    """Raise GridMismatchError unless the two objects share a grid."""
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid.n_points} vs {b.grid.n_points} points")


@dataclass(frozen=True, eq=False)
class GridPdf(_ReadOnlyArrays):
    """Probability density on a grid: nonnegative, unit trapezoidal integral."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        _check_shape(self.grid, self.values)
        _check_densities(self.grid, self.values[None])

    @classmethod
    def _view(cls, grid: Grid, values: np.ndarray) -> "GridPdf":
        """Wrap a validated read-only row without copying or checking it again."""
        pdf = object.__new__(cls)
        object.__setattr__(pdf, "grid", grid)
        object.__setattr__(pdf, "values", values)
        return pdf

    @property
    def x(self) -> np.ndarray:
        return self.grid.x


@dataclass(frozen=True, eq=False)
class DensityMatrix(_ReadOnlyArrays):
    """Densities on one grid, held as one read-only ``(n_rows, n_points)`` matrix.

    Every row is validated as a GridPdf would be, in one vectorized pass.
    ``len``, indexing and iteration give GridPdf views of the rows that
    share the matrix's memory.  Samplers and ``read_density_matrix`` hand
    samples to the summary in this form.
    """

    grid: Grid
    densities: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.array(self.densities, dtype=float)
        _check_rows_shape(self.grid, rows)
        _check_densities(self.grid, rows)
        rows.flags.writeable = False
        object.__setattr__(self, "densities", rows)

    def __len__(self) -> int:
        return self.densities.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return GridPdf._view(self.grid, self.densities[index])

    def __iter__(self):
        return (GridPdf._view(self.grid, row) for row in self.densities)


@dataclass(frozen=True, eq=False)
class Srd(_ReadOnlyArrays):
    """Square-root density: nonnegative grid function with unit squared integral.

    Points of this type sit on the positive orthant of the sphere
    ``{psi : integral(psi^2) = 1}`` and are the working representation for all
    Fisher-Rao computations.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        _check_shape(self.grid, self.values)
        if np.any(self.values < 0.0):
            raise NegativeValueError("square-root density values must be >= 0")
        sq = self.grid.integrate(self.values**2)
        if abs(sq - 1.0) > INTEGRAL_TOL:
            raise ValueError(f"squared integral is {sq!r}, not 1")

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    def allclose(self, other: "Srd", tol: float = 1e-12) -> bool:
        return self.grid == other.grid and bool(
            np.max(np.abs(self.values - other.values)) <= tol
        )


@dataclass(frozen=True, eq=False)
class TangentVector(_ReadOnlyArrays):
    """Element of the tangent space at ``base``: orthogonal to it in L2."""

    base: Srd
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        _check_shape(self.base.grid, self.values)
        dot = self.base.grid.inner(self.values, self.base.values)
        if abs(dot) > ORTHO_TOL:
            raise BaseMismatchError(f"not tangent at base: <v, psi> = {dot!r}")

    @property
    def grid(self) -> Grid:
        return self.base.grid

    @property
    def norm(self) -> float:
        return self.grid.norm(self.values)


def normalize_pdf(grid: Grid, raw) -> GridPdf:
    """Normalize a nonnegative grid function to a unit-integral density.

    The one-row case of ``normalize_rows``: the same bits and the same errors.
    """
    arr = np.asarray(raw, dtype=float)
    _check_shape(grid, arr)
    return GridPdf(grid, normalize_rows(grid, arr[None])[0])


def normalize_rows(grid: Grid, raw) -> np.ndarray:
    """Normalize every row of a nonnegative matrix to a unit-integral density.

    Returns a new ``(n_rows, n_points)`` array.  A row's result does not
    depend on the other rows.

    Raises
    ------
    NegativeValueError
        If any value is negative.
    AllZeroError
        If a row integrates to zero, so no density exists.
    """
    arr = np.asarray(raw, dtype=float)
    _check_rows_shape(grid, arr)
    if np.any(arr < 0.0):
        raise NegativeValueError("cannot normalize a function with negative values")
    totals = grid.integrate(arr)
    if np.any(totals <= 0.0):
        raise AllZeroError("cannot normalize the zero function")
    return arr / totals[:, None]


def srd_rows(grid: Grid, densities: np.ndarray) -> np.ndarray:
    """Square-root transform of every row of a density matrix.

    The pointwise square root of a unit-integral density already has unit
    squared integral in the continuum; the explicit renormalization here
    removes the residual quadrature error so downstream identities (log-map
    norms, geodesic lengths) hold to near machine precision.
    """
    root = np.sqrt(densities)
    root /= np.sqrt(grid.integrate(root**2))[:, None]
    return root


def to_srd(pdf: GridPdf) -> Srd:
    """Square-root transform of one density: the one-row case of ``srd_rows``."""
    return Srd(pdf.grid, srd_rows(pdf.grid, pdf.values[None])[0])


def from_srd(psi: Srd) -> GridPdf:
    """Square an SRD back into a density."""
    p = psi.values**2
    return GridPdf(psi.grid, p / psi.grid.integrate(p))
