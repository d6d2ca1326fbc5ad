"""Sensitivity measures between baseline and perturbed density samples."""

import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frsense import (
    CumulativeSpectrum,
    Grid,
    MeasureTriple,
    Srd,
    TangentVector,
    cumulative_spectrum,
    e_upper_bound,
    exp_map,
    fr_distance,
    karcher_mean,
    karcher_variance,
    measure_triple,
    normalize_pdf,
    replicate_band,
    summarize_sample,
    tangent_pca,
    tangent_project,
    to_srd,
    triple_from_summaries,
)
from frsense.errors import (
    DegenerateSampleError,
    InsufficientSamplesError,
    InsufficientValuesError,
)

ORACLE_TILT = float(np.arccos(2.0 * np.sqrt(2.0) / 3.0))


def orthonormal_directions(grid, k):
    """Uniform-density SRD plus k orthonormal tangent directions at it."""
    base = Srd(grid, np.ones(grid.n_points))
    dirs = []
    for j in range(1, k + 1):
        v = tangent_project(base, np.sin(2.0 * np.pi * j * grid.x)).values.copy()
        for u in dirs:
            v -= grid.inner(v, u) * u
        v /= grid.norm(v)
        dirs.append(v)
    return base, dirs


def geodesic_sample(base, dirs, coeff_rows):
    """One SRD per coefficient row, exp-mapped from the shared base point."""
    out = []
    for row in np.atleast_2d(coeff_rows):
        v = np.zeros(base.values.size)
        for c, u in zip(row, dirs):
            v += c * u
        out.append(exp_map(base, TangentVector(base, v)))
    return out


SEEDS = st.integers(0, 2**32 - 1)
N_POINTS = st.integers(16, 1024)

#: Nonnegative eigenvalues, zeros included, that cumulative_spectrum accepts.
SPECTRA = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=2, max_size=30)


def _spread_summary():
    base, dirs = orthonormal_directions(Grid(64), 3)
    coeffs = 0.05 * np.random.default_rng(3).standard_normal((12, 3))
    return summarize_sample(geodesic_sample(base, dirs, coeffs), d=2)


#: One sample's summary, whose spectrum the E properties replace.
SUMMARY = _spread_summary()


def d_shift(a, b):
    return measure_triple(a, b, d=2).d_shift


def v_spread(a, b):
    return measure_triple(a, b, d=2).v_spread


class TestShiftMeasure:
    def test_identical_samples_exactly_zero(self, grid, rng):
        base, dirs = orthonormal_directions(grid, 2)
        coeffs = 0.05 * rng.standard_normal((12, 2))
        draws = geodesic_sample(base, dirs, coeffs)
        assert d_shift(draws, list(draws)) == 0.0

    def test_symmetric(self, grid, rng):
        base, dirs = orthonormal_directions(grid, 2)
        a = geodesic_sample(base, dirs, 0.05 * rng.standard_normal((10, 2)))
        b = geodesic_sample(base, dirs, 0.04 * rng.standard_normal((10, 2)) + 0.02)
        assert abs(d_shift(a, b) - d_shift(b, a)) < 1e-10

    def test_singleton_samples_reduce_to_distance(self, grid):
        # The intrinsic mean of one draw is that draw, so D between two
        # singleton samples is the distance between the draws.
        flat = to_srd(normalize_pdf(grid, np.ones(grid.n_points)))
        tilt = to_srd(normalize_pdf(grid, 2.0 * grid.x))
        assert karcher_mean([flat]).allclose(flat)
        assert fr_distance(flat, tilt) == pytest.approx(ORACLE_TILT, abs=1e-4)


class TestSpreadMeasure:
    def test_identical_samples_exactly_zero(self, grid, rng):
        base, dirs = orthonormal_directions(grid, 3)
        draws = geodesic_sample(base, dirs, 0.06 * rng.standard_normal((15, 3)))
        assert v_spread(draws, list(draws)) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, n_points=N_POINTS)
    def test_antisymmetric_exactly(self, seed, n_points):
        rng = np.random.default_rng(seed)
        base, dirs = orthonormal_directions(Grid(n_points), 2)
        a, b = (
            geodesic_sample(base, dirs, rng.uniform(0.01, 0.1) * rng.standard_normal((10, 2)))
            for _ in range(2)
        )
        assert v_spread(a, b) == -v_spread(b, a)

    def test_tangent_scaling_by_three_gives_log_nine(self, grid):
        rng = np.random.default_rng(41)
        base, dirs = orthonormal_directions(grid, 3)
        coeffs = 0.05 * rng.standard_normal((24, 3))
        coeffs -= coeffs.mean(axis=0)
        a = geodesic_sample(base, dirs, coeffs)
        b = geodesic_sample(base, dirs, 3.0 * coeffs)
        assert v_spread(a, b) == pytest.approx(np.log(9.0), abs=0.05)

    def test_degenerate_sample_rejected(self, grid, rng):
        flat = to_srd(normalize_pdf(grid, np.ones(grid.n_points)))
        with pytest.raises(DegenerateSampleError):
            measure_triple([flat, flat, flat], [flat, flat, flat], d=2)
        # A zero variance alone makes the log ratio undefined.
        base, dirs = orthonormal_directions(grid, 2)
        draws = geodesic_sample(base, dirs, 0.05 * rng.standard_normal((8, 2)))
        spread = summarize_sample(draws, d=2)
        still = dataclasses.replace(spread, variance=0.0)
        with pytest.raises(DegenerateSampleError, match="Karcher variance"):
            triple_from_summaries(spread, still)

    def test_draw_order_is_irrelevant_exactly(self, grid, rng):
        base, dirs = orthonormal_directions(grid, 2)
        a = geodesic_sample(base, dirs, 0.05 * rng.standard_normal((14, 2)))
        b = geodesic_sample(base, dirs, 0.07 * rng.standard_normal((14, 2)))
        shuffled = list(a)
        rng.shuffle(shuffled)
        assert v_spread(a, b) == v_spread(shuffled, b)


class TestCovarianceShapeMeasure:
    def test_identical_samples_exactly_zero(self, grid, rng):
        base, dirs = orthonormal_directions(grid, 4)
        draws = geodesic_sample(base, dirs, 0.05 * rng.standard_normal((25, 4)))
        assert measure_triple(draws, list(draws), d=4).e_covshape == 0.0

    def test_rank_one_against_flat_spectrum(self, grid):
        base, dirs = orthonormal_directions(grid, 4)
        s = 0.03
        line = geodesic_sample(
            base, dirs[:1], s * np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
        )
        spread_rows = []
        for k in range(4):
            for sign in (1.0, -1.0):
                row = np.zeros(4)
                row[k] = sign * s
                spread_rows.append(row)
        spread = geodesic_sample(base, dirs, np.array(spread_rows))
        expect = np.sqrt(0.875)
        assert measure_triple(line, spread, d=4).e_covshape == pytest.approx(
            expect, abs=0.02
        )
        assert expect == pytest.approx(e_upper_bound(4), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(ev_a=SPECTRA, ev_b=SPECTRA)
    def test_never_exceeds_bound(self, ev_a, ev_b):
        # Any two descending spectra, rank one against flat included, on the
        # summaries of one sample: E is symmetric and within the bound.
        d = min(len(ev_a), len(ev_b))
        tops = [sorted(ev, reverse=True)[:d] for ev in (ev_a, ev_b)]
        assume(all(sum(top) > 1e-6 for top in tops))
        a, b = (
            dataclasses.replace(SUMMARY, spectrum=cumulative_spectrum(top, d)) for top in tops
        )
        e = triple_from_summaries(a, b).e_covshape
        assert e == triple_from_summaries(b, a).e_covshape
        assert 0.0 <= e <= e_upper_bound(d) + 1e-12

    def test_rotation_of_tangent_configuration(self, grid):
        # an orthogonal mix of the tangent coordinates leaves the spectrum,
        # and hence the measure, essentially unchanged
        rng = np.random.default_rng(5)
        base, dirs = orthonormal_directions(grid, 4)
        ca = 0.05 * rng.standard_normal((30, 4))
        cb = rng.standard_normal((30, 4)) @ np.diag([0.08, 0.05, 0.03, 0.01])
        rot = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = geodesic_sample(base, dirs, ca)
        b = geodesic_sample(base, dirs, cb)
        b_rot = geodesic_sample(base, dirs, cb @ rot.T)
        e = measure_triple(a, b, d=4).e_covshape
        assert abs(e - measure_triple(a, b_rot, d=4).e_covshape) < 1e-3

    def test_insufficient_draws_rejected(self, grid, rng):
        base, dirs = orthonormal_directions(grid, 2)
        few = geodesic_sample(base, dirs, 0.05 * rng.standard_normal((4, 2)))
        many = geodesic_sample(base, dirs, 0.05 * rng.standard_normal((9, 2)))
        with pytest.raises(InsufficientSamplesError):
            measure_triple(few, many, d=4)
        with pytest.raises(ValueError):
            measure_triple(many, many, d=1)


class TestUpperBound:
    def test_two_components(self):
        assert e_upper_bound(2) == pytest.approx(0.5, abs=1e-15)

    def test_four_components(self):
        assert e_upper_bound(4) == pytest.approx(np.sqrt(0.875), abs=1e-15)

    def test_twenty_components(self):
        # sqrt(sum_{k=1}^{19} (k/20)^2) = sqrt(2470)/20
        assert e_upper_bound(20) == pytest.approx(np.sqrt(2470.0) / 20.0, abs=1e-12)

    def test_monotone_nondecreasing(self):
        vals = [e_upper_bound(d) for d in range(2, 101)]
        assert np.all(np.diff(vals) >= 0.0)

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            e_upper_bound(1)


class TestCumulativeSpectrum:
    def test_flat_spectrum(self):
        spec = cumulative_spectrum(np.ones(6), d=4)
        npt.assert_allclose(spec.omega, [0.25, 0.5, 0.75, 1.0], rtol=1e-12)
        assert spec.omega[-1] == 1.0
        assert spec.d == 4

    def test_rank_one(self):
        ev = np.zeros(8)
        ev[0] = 3.0
        spec = cumulative_spectrum(ev, d=5)
        npt.assert_array_equal(spec.omega, np.ones(5))

    def test_immutable(self):
        spec = cumulative_spectrum(np.ones(4), d=3)
        with pytest.raises(ValueError):
            spec.omega[0] = 0.9

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateSampleError):
            cumulative_spectrum(np.zeros(5), d=3)

    def test_too_few_eigenvalues_rejected(self):
        with pytest.raises(InsufficientSamplesError):
            cumulative_spectrum(np.ones(3), d=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            CumulativeSpectrum(np.array([0.5, 0.9]))
        with pytest.raises(ValueError):
            CumulativeSpectrum(np.array([0.7, 0.4, 1.0]))


class TestMeasureTriple:
    def test_identical_samples_all_exactly_zero(self, grid, rng):
        base, dirs = orthonormal_directions(grid, 3)
        draws = geodesic_sample(base, dirs, 0.05 * rng.standard_normal((16, 3)))
        trip = measure_triple(draws, list(draws), d=3)
        assert trip.astuple() == (0.0, 0.0, 0.0)
        assert trip.d_components == 3

    def test_agrees_with_individual_measures(self, grid, rng):
        # Each field against its definition, built from the public geometry.
        base, dirs = orthonormal_directions(grid, 3)
        a = geodesic_sample(base, dirs, 0.05 * rng.standard_normal((12, 3)))
        b = geodesic_sample(base, dirs, 0.08 * rng.standard_normal((12, 3)))
        trip = measure_triple(a, b, d=3)
        mean_a, mean_b = karcher_mean(a), karcher_mean(b)
        log_ratio = np.log(karcher_variance(b, mean_b) / karcher_variance(a, mean_a))
        omega_a, omega_b = (
            cumulative_spectrum(tangent_pca(s).eigenvalues, d=3).omega for s in (a, b)
        )
        assert trip.d_shift == pytest.approx(fr_distance(mean_a, mean_b), abs=1e-12)
        assert trip.v_spread == pytest.approx(log_ratio, abs=1e-12)
        assert trip.e_covshape == pytest.approx(
            np.linalg.norm(omega_a - omega_b), abs=1e-12
        )
        assert trip == triple_from_summaries(
            summarize_sample(a, d=3), summarize_sample(b, d=3)
        )

    def test_field_validation(self):
        with pytest.raises(ValueError):
            MeasureTriple(-0.1, 0.0, 0.0, 20)
        with pytest.raises(ValueError):
            MeasureTriple(0.1, 0.0, 99.0, 20)
        with pytest.raises(ValueError):
            MeasureTriple(0.1, 0.0, 0.1, 1)


class TestSampleSummary:
    def test_carries_the_karcher_report(self, grid, rng):
        base, dirs = orthonormal_directions(grid, 3)
        draws = geodesic_sample(base, dirs, 0.05 * rng.standard_normal((16, 3)))
        summary = summarize_sample(draws, d=3)
        assert summary.karcher.converged
        assert summary.karcher.grad_norm < 1e-6

    def test_unconverged_mean_warns_once_and_is_flagged(self, grid, rng):
        base, dirs = orthonormal_directions(grid, 3)
        draws = geodesic_sample(base, dirs, 0.05 * rng.standard_normal((16, 3)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = summarize_sample(draws, d=3, eps1=1e-15, max_iter=1)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert not summary.karcher.converged
        assert summary.karcher.n_iter == 1


class TestReplicateBand:
    def test_quantile_oracle(self):
        lo, hi = replicate_band(np.arange(1.0, 101.0), level=0.95)
        assert lo == pytest.approx(3.475, abs=1e-12)
        assert hi == pytest.approx(97.525, abs=1e-12)

    def test_constant_values(self):
        assert replicate_band([2.5, 2.5, 2.5]) == (2.5, 2.5)

    def test_contains_median(self, rng):
        for _ in range(10):
            vals = rng.standard_normal(rng.integers(2, 40))
            lo, hi = replicate_band(vals, level=0.9)
            med = np.median(vals)
            assert lo <= med <= hi

    def test_too_few_values_rejected(self):
        with pytest.raises(InsufficientValuesError):
            replicate_band([1.0])

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            replicate_band([1.0, 2.0], level=1.5)
