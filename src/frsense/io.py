"""File formats: observation lists, density matrices, result CSVs, manifests.

All numeric output uses 12 significant digits with a '.' decimal separator
regardless of locale, and '\\n' line endings, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import configparser
import math
import warnings

import numpy as np

from .config import ExperimentConfig, TRANSFORMS, dump_config
from .errors import ConfigError, NonPositiveForLogError, ParseError
from .grid import DensityMatrix, Grid, first_invalid_row
from .samplers import Dataset
from .sweep import SweepResult

__all__ = [
    "load_dataset",
    "read_density_matrix",
    "write_bands_csv",
    "write_density_matrix",
    "write_manifest",
    "write_sweep_csv",
]

NUMBER_FORMAT = "%.12g"

#: Tolerance for matching a density-matrix header against the uniform grid.
_HEADER_TOL = 1e-9


def _fmt(value: float) -> str:
    return NUMBER_FORMAT % value


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path: str, transform: str = "none") -> Dataset:
    """Read one observation per line, '#' lines skipped, then rescale.

    An optional natural-log transform is applied before the affine map
    into the [0.05, 0.95] working envelope.
    """
    if transform not in TRANSFORMS:
        raise ConfigError(
            "CONFIG_BAD_VALUE",
            f"transform must be one of {', '.join(TRANSFORMS)}, got {transform!r}",
        )
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"not a number: {text!r}", lineno) from None
            if not math.isfinite(value):
                raise ParseError(f"not a finite number: {text!r}", lineno)
            values.append(value)
    observations = np.asarray(values, dtype=float)
    if transform == "log":
        if observations.size and observations.min() <= 0.0:
            raise NonPositiveForLogError(
                "log transform needs strictly positive data; "
                f"smallest observation is {float(observations.min())!r}"
            )
        observations = np.log(observations)
    return Dataset.from_observations(observations)


def density_matrix_lines(densities) -> list:
    """CSV text for a stack of densities: abscissae header, one row each.

    ``densities`` is a DensityMatrix or an iterable of GridPdf on one grid.
    """
    if isinstance(densities, DensityMatrix):
        grid, rows = densities.grid, densities.densities
    else:
        densities = list(densities)
        grid = densities[0].grid if densities else None
        if any(p.grid != grid for p in densities):
            raise ValueError("densities live on different grids")
        rows = np.array([p.values for p in densities])
    if len(rows) == 0:
        raise ValueError("need at least one density to write")
    row_format = ",".join([NUMBER_FORMAT] * grid.n_points)
    return [row_format % tuple(values) for values in [grid.x.tolist(), *rows.tolist()]]


def write_density_matrix(path: str, densities) -> None:
    _write_lines(path, density_matrix_lines(densities))


def read_density_matrix(path: str) -> DensityMatrix:
    """Parse a density matrix file into a DensityMatrix.

    The header must reproduce the uniform grid abscissae for its length;
    every later row must be a nonnegative density with unit integral.  Any
    problem raises ParseError with the 1-based line number it sits on.
    """
    table = _read_table(path)
    if table.size == 0:
        raise ParseError("empty density matrix", 1)
    header, rows = table[0], table[1:]
    try:
        grid = Grid(header.size)
    except ValueError as exc:
        raise ParseError(str(exc), _line_number(path, 0)) from None
    if not np.allclose(header, grid.x, rtol=0.0, atol=_HEADER_TOL):
        raise ParseError(
            f"header is not a uniform grid over [0, 1] with {header.size} points",
            _line_number(path, 0),
        )
    try:
        return DensityMatrix(grid, rows)
    except ValueError as exc:
        index, _ = first_invalid_row(grid, rows)
        raise ParseError(str(exc), _line_number(path, index + 1)) from None


def _read_table(path: str) -> np.ndarray:
    """The numbers of a comma-separated file as one 2-D array.

    The C-level ``np.loadtxt`` reads well-formed files.  Whatever it
    rejects is parsed again line by line, which skips whitespace-only lines
    and reports a malformed row with its line number.
    """
    try:
        with warnings.catch_warnings():
            # An empty file is reported by the caller.
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(
                path, delimiter=",", ndmin=2, comments=None, encoding="utf-8"
            )
    except ValueError:
        pass
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values = [float(p) for p in line.split(",")]
            except ValueError:
                raise ParseError("row is not comma-separated numbers", lineno) from None
            if rows and len(values) != len(rows[0]):
                raise ParseError(
                    f"values of length {len(values)} on a grid of {len(rows[0])} points",
                    lineno,
                )
            rows.append(values)
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def _line_number(path: str, index: int) -> int:
    """1-based line number of the ``index``-th non-blank line (header is 0)."""
    with open(path, encoding="utf-8") as fh:
        nonblank = [lineno for lineno, line in enumerate(fh, start=1) if line.strip()]
    return nonblank[index]


def write_sweep_csv(path: str, result: SweepResult) -> None:
    """One row per grid value: param_value, D, V, E."""
    lines = ["param_value,D,V,E"]
    for value, t in zip(result.spec.values, result.triples):
        lines.append(
            ",".join(_fmt(v) for v in (value, t.d_shift, t.v_spread, t.e_covshape))
        )
    _write_lines(path, lines)


def write_bands_csv(path: str, result: SweepResult) -> None:
    """Three rows (D, V, E) per declared band value."""
    lines = ["param_value,measure,lo,hi"]
    for value in result.spec.band_values:
        band = result.bands[value]
        for label, (lo, hi) in (
            ("D", band.d_shift),
            ("V", band.v_spread),
            ("E", band.e_covshape),
        ):
            lines.append(f"{_fmt(value)},{label},{_fmt(lo)},{_fmt(hi)}")
    _write_lines(path, lines)


def write_manifest(path: str, config: ExperimentConfig, run_info: dict) -> None:
    """Config echo plus a [run] section; loadable again as a config."""
    sections = dump_config(config)
    sections["run"] = {key: str(value) for key, value in run_info.items()}
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_dict(sections)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        parser.write(fh)
