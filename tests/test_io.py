"""Data files and result archives: round trips and failure line numbers."""

from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from conftest import random_mixture_pdf

from frsense import (
    DensityMatrix,
    DpConfig,
    Grid,
    McmcControl,
    SweepSpec,
    load_dataset,
    read_density_matrix,
    run_sweep,
    write_density_matrix,
)
from frsense.errors import (
    ConfigError,
    EmptyDatasetError,
    NonPositiveForLogError,
    ParseError,
)
from frsense.io import (
    NUMBER_FORMAT,
    density_matrix_lines,
    write_bands_csv,
    write_sweep_csv,
)


def write_lines(tmp_path, lines, name="data.txt"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


class TestLoadDataset:
    def test_counts_values_skipping_comments_and_blanks(self, tmp_path):
        lines = ["# header comment", ""]
        lines += [repr(float(v)) for v in np.linspace(-2.0, 3.0, 155)]
        lines += ["   ", "# trailing note"]
        data = load_dataset(write_lines(tmp_path, lines))
        assert data.n == 155

    def test_envelope_hits_margins_exactly(self, tmp_path, rng):
        values = rng.normal(2.0, 5.0, size=60)
        data = load_dataset(write_lines(tmp_path, [repr(float(v)) for v in values]))
        assert abs(data.rescaled.min() - 0.05) < 1e-12
        assert abs(data.rescaled.max() - 0.95) < 1e-12

    def test_data_already_in_envelope_passes_through(self, tmp_path):
        values = np.linspace(0.05, 0.95, 31)
        data = load_dataset(write_lines(tmp_path, [repr(float(v)) for v in values]))
        assert abs(data.shift) < 1e-15
        assert abs(data.scale - 1.0) < 1e-15
        npt.assert_allclose(data.rescaled, values, rtol=0.0, atol=1e-12)

    def test_whitespace_around_numbers_tolerated(self, tmp_path):
        path = write_lines(tmp_path, ["  1.5", "2.5   ", "\t3.5"])
        assert load_dataset(path).n == 3

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write_lines(tmp_path, ["1.0", "# fine", "2.O", "3.0"])
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line_number == 3
        assert str(exc.value).startswith("line 3:")

    def test_log_transform_applies_before_rescale(self, tmp_path):
        values = np.exp(np.linspace(-1.0, 2.0, 40))
        data = load_dataset(
            write_lines(tmp_path, [repr(float(v)) for v in values]), transform="log"
        )
        direct = (np.log(values) - data.shift) / data.scale
        npt.assert_allclose(data.rescaled, direct, atol=1e-15)

    def test_log_transform_rejects_nonpositive(self, tmp_path):
        path = write_lines(tmp_path, ["1.0", "0.0", "2.0"])
        with pytest.raises(NonPositiveForLogError):
            load_dataset(path, transform="log")

    def test_empty_file_rejected(self, tmp_path):
        path = write_lines(tmp_path, ["# only a comment"])
        with pytest.raises(EmptyDatasetError):
            load_dataset(path)

    def test_unknown_transform_rejected(self, tmp_path):
        path = write_lines(tmp_path, ["1.0"])
        with pytest.raises(ConfigError) as exc:
            load_dataset(path, transform="sqrt")
        assert exc.value.code == "CONFIG_BAD_VALUE"


class TestDensityMatrix:
    def test_round_trip(self, tmp_path, rng):
        g = Grid(64)
        pdfs = [random_mixture_pdf(g, rng) for _ in range(5)]
        path = str(tmp_path / "dens.csv")
        write_density_matrix(path, pdfs)
        back = read_density_matrix(path)
        assert len(back) == 5
        for orig, loaded in zip(pdfs, back):
            assert loaded.grid == g
            npt.assert_allclose(loaded.values, orig.values, rtol=0.0, atol=1e-10)
        parsed = [[float(v) for v in line.split(",")] for line in open(path).read().splitlines()[1:]]
        assert back.densities.tobytes() == np.array(parsed).tobytes()

    def test_blank_lines_are_skipped_and_lines_still_counted(self, tmp_path, rng):
        g = Grid(32)
        path = str(tmp_path / "dens.csv")
        write_density_matrix(path, [random_mixture_pdf(g, rng) for _ in range(3)])
        header, *rows = open(path).read().splitlines()
        open(path, "w").write("\n".join([header, "", rows[0], "   ", rows[1], rows[2]]) + "\n")
        assert len(read_density_matrix(path)) == 3
        doubled = ",".join(str(2.0 * float(v)) for v in rows[2].split(","))
        for blank in ("", "  "):
            open(path, "w").write("\n".join([header, rows[0], blank, rows[1], doubled]) + "\n")
            with pytest.raises(ParseError) as exc:
                read_density_matrix(path)
            assert exc.value.line_number == 5

    def test_short_row_reports_its_line(self, tmp_path, rng):
        g = Grid(32)
        path = str(tmp_path / "dens.csv")
        write_density_matrix(path, [random_mixture_pdf(g, rng) for _ in range(3)])
        lines = open(path).read().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_density_matrix(path)
        assert exc.value.line_number == 4

    def test_header_row_is_the_abscissae(self, tmp_path, rng):
        g = Grid(32)
        path = str(tmp_path / "dens.csv")
        write_density_matrix(path, [random_mixture_pdf(g, rng)])
        header = open(path).readline().strip().split(",")
        npt.assert_allclose([float(h) for h in header], g.x, atol=1e-11)

    def test_tampered_header_rejected(self, tmp_path, rng):
        g = Grid(32)
        path = str(tmp_path / "dens.csv")
        write_density_matrix(path, [random_mixture_pdf(g, rng)])
        lines = open(path).read().splitlines()
        lines[0] = ",".join(str(float(v) + 0.3) for v in lines[0].split(","))
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_density_matrix(path)
        assert exc.value.line_number == 1

    def test_bad_row_reports_its_line(self, tmp_path, rng):
        g = Grid(32)
        path = str(tmp_path / "dens.csv")
        write_density_matrix(path, [random_mixture_pdf(g, rng) for _ in range(3)])
        lines = open(path).read().splitlines()
        lines[2] = lines[2].replace(",", ",oops,", 1)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_density_matrix(path)
        assert exc.value.line_number == 3

    def test_unnormalized_row_rejected(self, tmp_path, rng):
        g = Grid(32)
        p = random_mixture_pdf(g, rng)
        path = str(tmp_path / "dens.csv")
        write_density_matrix(path, [p])
        lines = open(path).read().splitlines()
        doubled = ",".join(str(2.0 * float(v)) for v in lines[1].split(","))
        open(path, "w").write(lines[0] + "\n" + doubled + "\n")
        with pytest.raises(ParseError) as exc:
            read_density_matrix(path)
        assert exc.value.line_number == 2

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "dens.csv")
        open(path, "w").write("\n")
        with pytest.raises(ParseError):
            read_density_matrix(path)

    def test_writer_requires_a_common_grid(self, tmp_path, rng):
        mixed = [random_mixture_pdf(Grid(32), rng), random_mixture_pdf(Grid(64), rng)]
        with pytest.raises(ValueError):
            write_density_matrix(str(tmp_path / "x.csv"), mixed)

    def test_writer_rejects_empty_stack(self, tmp_path):
        with pytest.raises(ValueError):
            write_density_matrix(str(tmp_path / "x.csv"), [])

    def test_rows_format_as_number_by_number(self, rng):
        # One format call per row must give exactly the per-number text.
        g = Grid(16)
        tiny = [0.0, 1e-300, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-12]
        spike = np.array(tiny + [0.0, 15.0] + tiny[::-1] + [0.0, 0.0])
        rows = [spike, np.ones(16), random_mixture_pdf(g, rng).values]
        wild = [np.array(tiny + [1e300, 1.7976931348623157e308, 0.1 + 0.2, 1 / 3,
                                 123456789.123456789, 6.02214076e23, 2.0**-1074, 7.0,
                                 1e21, 1e-5])]

        def reference(grid, values):
            return [",".join(NUMBER_FORMAT % v for v in row) for row in [grid.x, *values]]

        matrix = DensityMatrix(g, np.array(rows))
        assert density_matrix_lines(matrix) == reference(g, rows)
        assert density_matrix_lines(matrix[:]) == reference(g, rows)
        views = [SimpleNamespace(grid=g, values=row) for row in wild]
        assert density_matrix_lines(views) == reference(g, wild)


def tiny_sweep_result(rng):
    from frsense import Dataset

    data = Dataset.from_observations(rng.uniform(size=30))
    spec = SweepSpec(
        model="dp",
        baseline=DpConfig(alpha=3.0, truncation=60),
        parameter="alpha",
        values=(1.0, 3.0, 8.0),
        replicates=2,
        band_values=(1.0, 8.0),
        mcmc=McmcControl(n_samples=16, burn_in=0, thin=1, seed=5),
        d_components=4,
    )
    return run_sweep(data, spec, grid=Grid(64))


class TestResultCsvs:
    def test_number_format_is_twelve_significant_digits(self):
        assert NUMBER_FORMAT % (1.0 / 3.0) == "0.333333333333"
        assert NUMBER_FORMAT % 2.0 == "2"

    def test_sweep_csv_layout(self, tmp_path, rng):
        result = tiny_sweep_result(rng)
        path = str(tmp_path / "sweep.csv")
        write_sweep_csv(path, result)
        lines = open(path).read().splitlines()
        assert lines[0] == "param_value,D,V,E"
        assert len(lines) == 1 + len(result.spec.values)
        for line, value, triple in zip(lines[1:], result.spec.values, result.triples):
            cells = [float(c) for c in line.split(",")]
            assert cells[0] == value
            npt.assert_allclose(cells[1:], triple.astuple(), rtol=1e-11, atol=1e-13)

    def test_bands_csv_layout(self, tmp_path, rng):
        result = tiny_sweep_result(rng)
        path = str(tmp_path / "bands.csv")
        write_bands_csv(path, result)
        lines = open(path).read().splitlines()
        assert lines[0] == "param_value,measure,lo,hi"
        assert len(lines) == 1 + 3 * len(result.spec.band_values)
        seen = []
        for line in lines[1:]:
            value, measure, lo, hi = line.split(",")
            seen.append(measure)
            assert float(lo) <= float(hi)
            assert float(value) in result.spec.band_values
        assert seen == ["D", "V", "E"] * len(result.spec.band_values)
