"""Truncated stick-breaking sampler for the conjugate Dirichlet process."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from _dp_reference import LAW_CASES, LAW_GRID, law_data, same_law_statistics, smooth
from _law import assert_same_law
from _oracles import smoothed_centering_measure

from frsense import (
    BetaBase,
    Dataset,
    DpConfig,
    Grid,
    McmcControl,
    UniformBase,
    centering_weight,
    dp_posterior,
    fr_distance,
    make_rng,
    normalize_pdf,
    normalize_rows,
    silverman_bandwidth,
)
from frsense.errors import InvalidSettingError, TruncationTooSmallError
from frsense.samplers.dp import _draw_atoms_and_weights, _fft_length, _kernel_spectrum


class TestCenteringWeight:
    def test_known_value(self):
        # alpha = 5 with 10 observations puts exactly one third on the base
        assert centering_weight(5.0, 10) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_limits(self):
        assert centering_weight(1e-8, 100) < 1e-9
        assert centering_weight(1e8, 100) > 0.999


class TestBaseMeasures:
    def test_beta_base_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BetaBase(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaBase(2.0, -1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_beta_base_rejects_non_finite_shapes(self, value):
        with pytest.raises(InvalidSettingError):
            BetaBase(value, 1.0)
        with pytest.raises(InvalidSettingError):
            BetaBase(2.0, value)

    def test_beta_base_sampling_range(self, rng):
        draws = BetaBase(2.0, 5.0).sample(rng, 1000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0


class TestStickWeights:
    def test_weights_sum_to_one(self, rng):
        cfg = DpConfig(alpha=5.0, truncation=200)
        weights, remainders, from_g0, g0_atoms, data_idx = _draw_atoms_and_weights(
            rng, cfg, 100, 0.05, 10
        )
        npt.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert weights.min() >= 0.0
        for piece in (weights, from_g0, g0_atoms, data_idx):
            assert piece.shape == (10, 200)
        assert remainders.shape == (10,)
        npt.assert_allclose(remainders, weights[:, -1], rtol=0, atol=1e-15)

    def test_conservation_guard_fires_on_broken_sticks(self):
        # sticks outside [0, 1] destroy mass conservation; the guard must
        # catch it and name the first draw it fails in
        with pytest.raises(TruncationTooSmallError, match=r"in draw 2; residual -1\.0$"):
            _draw_atoms_and_weights(BrokenRng(broken_draws=[2, 4]), DpConfig(alpha=1.0), 1, 0.5, 5)


class BrokenRng:
    """Sticks of 0.5, except in ``broken_draws``, whose sticks are all 2."""

    def __init__(self, broken_draws):
        self.broken_draws = broken_draws

    def beta(self, a, b, size=None):
        sticks = np.full(size, 0.5)
        sticks[self.broken_draws] = 2.0
        return sticks

    def random(self, size=None):
        return np.zeros(size)

    def integers(self, lo, hi, size=None):
        return np.zeros(size, dtype=np.int64)


class TestDpConfig:
    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            DpConfig(truncation=49)

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            DpConfig(alpha=0.0)

    def test_bandwidth_positive(self):
        with pytest.raises(ValueError):
            DpConfig(bandwidth=-0.1)

    @pytest.mark.parametrize("name", ["alpha", "bandwidth"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fields_rejected(self, name, value):
        with pytest.raises(InvalidSettingError, match=f"{name} must be finite"):
            DpConfig(**{name: value})

    @pytest.mark.parametrize("bandwidth", [1e8, 1e50, 1e308])
    def test_bandwidth_flattening_the_kernel_rejected(self, bandwidth):
        # exp(-0.5 / bw^2) == 1 on [0, 1]: every draw would be the same flat density
        with pytest.raises(InvalidSettingError, match="constant on"):
            DpConfig(bandwidth=bandwidth)

    def test_largest_useful_bandwidths_accepted(self):
        assert DpConfig(bandwidth=9e7).bandwidth == 9e7


class TestPosteriorDraws:
    def test_every_pdf_normalized(self):
        data = Dataset.from_observations(np.linspace(-1.0, 2.0, 30))
        ps = dp_posterior(data, DpConfig(), McmcControl(n_samples=20, burn_in=0, thin=1, seed=3))
        for p in ps.pdfs:
            assert p.grid.integrate(p.values) == pytest.approx(1.0, abs=1e-8)

    def test_bandwidth_override_recorded(self):
        data = Dataset.from_observations(np.linspace(0.0, 1.0, 30))
        ps = dp_posterior(
            data,
            DpConfig(bandwidth=0.2),
            McmcControl(n_samples=10, burn_in=0, thin=1, seed=3),
        )
        assert ps.diagnostics["bandwidth"] == 0.2

    def test_mean_draw_matches_smoothed_centering(self):
        # the atoms are iid from the centering measure at any truncation, so
        # the Monte Carlo mean must land on its kernel smoothing
        crng = np.random.default_rng(5)
        data = Dataset.from_observations(crng.uniform(0.0, 1.0, size=100))
        cfg = DpConfig(alpha=5.0)
        ps = dp_posterior(data, cfg, McmcControl(n_samples=400, burn_in=0, thin=1, seed=11))
        mean = normalize_pdf(ps.grid, ps.densities.mean(axis=0))
        assert fr_distance(mean, smoothed_centering_measure(data, cfg)) < 0.05

    def test_large_n_mean_near_centering(self):
        crng = np.random.default_rng(17)
        data = Dataset.from_observations(crng.uniform(0.0, 1.0, size=500))
        cfg = DpConfig(alpha=50.0)
        ps = dp_posterior(data, cfg, McmcControl(n_samples=300, burn_in=0, thin=1, seed=29))
        mean = normalize_pdf(ps.grid, ps.densities.mean(axis=0))
        assert fr_distance(mean, smoothed_centering_measure(data, cfg)) < 0.1

    def test_truncation_unbiased_and_stable(self):
        # K = 200 vs K = 400 at alpha + n = 115: both means sit on the smoothed
        # centering measure; their difference is Monte Carlo noise only
        crng = np.random.default_rng(3)
        data = Dataset.from_observations(crng.normal(0.0, 1.0, size=110))
        ctl = McmcControl(n_samples=400, burn_in=0, thin=1, seed=21)
        means = {}
        for k in (200, 400):
            cfg = DpConfig(alpha=5.0, truncation=k)
            ps = dp_posterior(data, cfg, ctl)
            means[k] = ps.densities.mean(axis=0)
            m = normalize_pdf(ps.grid, means[k])
            assert fr_distance(m, smoothed_centering_measure(data, cfg)) < 0.05
        assert np.abs(means[200] - means[400]).max() < 0.15

    def test_absorbed_remainder_traced(self):
        data = Dataset.from_observations(np.linspace(0.0, 3.0, 110))
        ps = dp_posterior(data, DpConfig(alpha=5.0), McmcControl(n_samples=50, burn_in=0, thin=1, seed=8))
        rem = ps.trace["absorbed_remainder"]
        assert rem.shape == (50,)
        # E[remainder] = ((a+n)/(a+n+1))^(K-1) ~ 0.178 here; all draws positive
        assert 0.0 < rem.mean() < 0.5


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        data = Dataset.from_observations(np.linspace(-1.0, 2.0, 40))
        cfg = DpConfig()
        ctl = McmcControl(n_samples=20, burn_in=5, thin=2, seed=77)
        a = dp_posterior(data, cfg, ctl)
        b = dp_posterior(data, cfg, ctl)
        npt.assert_array_equal(a.densities, b.densities)

    def test_seed_changes_draws(self):
        data = Dataset.from_observations(np.linspace(-1.0, 2.0, 40))
        cfg = DpConfig()
        a = dp_posterior(data, cfg, McmcControl(n_samples=15, burn_in=0, thin=1, seed=1))
        b = dp_posterior(data, cfg, McmcControl(n_samples=15, burn_in=0, thin=1, seed=2))
        assert not np.array_equal(a.densities, b.densities)

    def test_burn_in_and_thin_do_not_change_the_draws(self):
        # draws are independent, so a run makes exactly n_samples of them
        data = Dataset.from_observations(np.linspace(0.0, 1.0, 25))
        cfg = DpConfig()
        ref = dp_posterior(data, cfg, McmcControl(n_samples=12, burn_in=0, thin=1, seed=9))
        for burn_in, thin in ((2, 1), (0, 3), (50, 7)):
            ctl = McmcControl(n_samples=12, burn_in=burn_in, thin=thin, seed=9)
            other = dp_posterior(data, cfg, ctl)
            npt.assert_array_equal(other.densities, ref.densities)
            npt.assert_array_equal(
                other.trace["absorbed_remainder"], ref.trace["absorbed_remainder"]
            )


def skipping_draws(data, cfg, ctl, grid):
    """The rows and remainders of a dp run that, like earlier versions of
    ``dp_posterior``, makes a draw for every chain sweep (burn-in and
    thinning included) and keeps every ``thin``-th one after ``burn_in``.
    The draws are one block of ``_draw_atoms_and_weights``; each kept draw
    is smoothed atom by atom, exactly, without the data kernel table or the
    binning of the G0 atoms.  Also returns whether each kept draw has a G0
    atom."""
    x = data.rescaled
    weights, remainders, from_g0, g0_atoms, data_idx = _draw_atoms_and_weights(
        make_rng(ctl.seed), cfg, x.size, centering_weight(cfg.alpha, data.n), ctl.n_sweeps
    )
    kept = slice(ctl.burn_in, None, ctl.thin)
    atoms = np.where(from_g0, g0_atoms, x[data_idx])[kept]
    rows = [smooth(grid, a, w, cfg.bandwidth) for a, w in zip(atoms, weights[kept])]
    return normalize_rows(grid, np.array(rows)), remainders[kept], from_g0[kept].any(axis=1)


#: Linear binning moves each G0 atom's kernel at a grid point by at most
#: (spacing / bw)^2 / 8 of its peak, the interpolation error of a function
#: whose second derivative is at most 1 / bw^2 in size.  Summed over a
#: draw's atoms, that error is at most sqrt(3 / 2) times the row's maximum,
#: since |z^2 - 1| exp(-z^2 / 2) <= exp(-z^2 / 6), a kernel sqrt(3) times
#: wider; about 0.15 (spacing / bw)^2 in all, and the normalization adds a
#: little.  The rows measured here reach about 0.12.
BINNING_ERROR = 0.2


def assert_binned_emission(densities, exact, has_g0, grid, bw):
    """``dp_posterior`` rows against the exact smoothing of the same draws.

    Rows without a G0 atom are exact to rounding; the others lie within the
    binning bound of their maximum.
    """
    npt.assert_allclose(densities[~has_g0], exact[~has_g0], rtol=1e-13, atol=0)
    error = np.abs(densities - exact).max(axis=1) / exact.max(axis=1)
    assert error.max() <= BINNING_ERROR * (grid.spacing / bw) ** 2


@pytest.fixture(scope="module")
def data():
    # the two groups of the sweep benchmarks' data
    return law_data()


class TestSameLawAsSkippingDraws:
    """Block draws follow the law of the per-draw sampler they replaced."""

    GRID = LAW_GRID
    CFG = LAW_CASES["uniform-alpha-5"]

    def test_rebuild_is_the_sampler_at_burn_in_zero(self, data):
        ctl = McmcControl(n_samples=20, burn_in=0, thin=1, seed=4)
        rows, remainders, has_g0 = skipping_draws(data, self.CFG, ctl, self.GRID)
        ps = dp_posterior(data, self.CFG, ctl, grid=self.GRID)
        # the same stream, so the same remainders; the table path sums each
        # row in another order and the G0 atoms are binned, so the densities
        # agree to rounding only where a draw has no G0 atom
        assert_binned_emission(ps.densities, rows, has_g0, self.GRID, self.CFG.bandwidth)
        npt.assert_array_equal(ps.trace["absorbed_remainder"], remainders)

    @pytest.mark.parametrize("case", list(LAW_CASES))
    def test_two_sample_ks(self, data, case):
        # 400 iid draws from each sampler; tests/dp_law_repeat.py repeats
        # this over many seeds and reports how often p < 0.05
        assert_same_law(*same_law_statistics(data, LAW_CASES[case], 400, 12, 13))


class TestTableEmission:
    """``dp_posterior`` emits data atoms from one kernel table of the data
    and G0 atoms by linear binning and an FFT convolution; smoothing every
    atom directly from the same draws gives the same rows, up to the
    binning error where a draw has G0 atoms."""

    GRID = Grid(128)

    @pytest.mark.parametrize("g0", [UniformBase(), BetaBase(2.0, 5.0)], ids=["uniform", "beta"])
    @pytest.mark.parametrize(
        "alpha, n_obs, g0_share",
        [
            pytest.param(1e-3, 100, (0.0, 0.001), id="no-g0-atom-in-most-draws"),
            pytest.param(5.0, 100, (0.02, 0.1), id="alpha-5"),
            pytest.param(1e3, 100, (0.85, 0.95), id="mostly-g0-atoms"),
            pytest.param(5.0, 1, (0.75, 0.9), id="one-observation"),
        ],
    )
    def test_rows_match_direct_smoothing(self, g0, alpha, n_obs, g0_share):
        data = Dataset.from_observations(np.random.default_rng(8).normal(0.0, 1.0, n_obs))
        cfg = DpConfig(alpha=alpha, g0=g0, truncation=60, bandwidth=0.05)
        ctl = McmcControl(n_samples=30, burn_in=0, thin=1, seed=6)

        w_g0 = centering_weight(alpha, data.n)
        from_g0 = _draw_atoms_and_weights(make_rng(ctl.seed), cfg, data.n, w_g0, ctl.n_samples)[2]
        assert g0_share[0] <= np.mean(from_g0) <= g0_share[1]

        rows, remainders, has_g0 = skipping_draws(data, cfg, ctl, self.GRID)
        ps = dp_posterior(data, cfg, ctl, grid=self.GRID)
        assert_binned_emission(ps.densities, rows, has_g0, self.GRID, cfg.bandwidth)
        npt.assert_array_equal(ps.trace["absorbed_remainder"], remainders)

    def test_rows_match_direct_smoothing_across_product_blocks(self):
        # 40 draws on a 16-point grid are emitted as blocks of 16, 16 and 8
        grid = Grid(16)
        data = Dataset.from_observations(np.random.default_rng(8).normal(0.0, 1.0, 100))
        cfg = DpConfig(alpha=5.0, truncation=60, bandwidth=0.1)
        ctl = McmcControl(n_samples=40, burn_in=0, thin=1, seed=6)
        rows, remainders, has_g0 = skipping_draws(data, cfg, ctl, grid)
        ps = dp_posterior(data, cfg, ctl, grid=grid)
        assert_binned_emission(ps.densities, rows, has_g0, grid, cfg.bandwidth)
        npt.assert_array_equal(ps.trace["absorbed_remainder"], remainders)


class TestBinnedG0Emission:
    """The G0 atoms' binning error: its bound, its order and its memory."""

    @pytest.mark.parametrize("alpha", [1.0, 25.0, 1e3])
    @pytest.mark.parametrize("bw_steps", [None, 2, 4], ids=["silverman", "floor", "4-steps"])
    def test_error_within_bound(self, data, alpha, bw_steps):
        # the benchmark's grid and truncation, at its Silverman bandwidth
        # (about 57 grid steps) and at the bandwidth floor of 2 steps
        grid = Grid(512)
        if bw_steps is None:
            bw = silverman_bandwidth(data.rescaled, grid)
        else:
            bw = bw_steps * grid.spacing
        cfg = DpConfig(alpha=alpha, truncation=200, bandwidth=bw)
        ctl = McmcControl(n_samples=40, burn_in=0, thin=1, seed=11)
        rows, _, has_g0 = skipping_draws(data, cfg, ctl, grid)
        assert_binned_emission(dp_posterior(data, cfg, ctl, grid=grid).densities, rows, has_g0, grid, bw)

    def test_error_falls_fourfold_per_halved_spacing(self, data):
        # second order in the spacing: putting each atom on its nearest grid
        # point instead would halve the error only
        cfg = DpConfig(alpha=1e3, truncation=60, bandwidth=0.05)
        ctl = McmcControl(n_samples=20, burn_in=0, thin=1, seed=3)
        errors = []
        for n_points in (65, 129, 257, 513):
            grid = Grid(n_points)
            rows, _, _ = skipping_draws(data, cfg, ctl, grid)
            errors.append(np.abs(dp_posterior(data, cfg, ctl, grid=grid).densities - rows).max())
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((3.4 < ratios) & (ratios < 4.6)), ratios

    def test_no_array_grows_with_the_square_of_the_grid(self, data):
        # one (n_points, n_points) float64 array would take 537 MB here
        grid = Grid(8193)
        ctl = McmcControl(n_samples=20, burn_in=0, thin=1, seed=3)
        tracemalloc.start()
        try:
            dp_posterior(data, DpConfig(alpha=25.0), ctl, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_fft_length_is_the_next_7_smooth_number(self):
        smooth_numbers = sorted(
            2**a * 3**b * 5**c * 7**d
            for a in range(15) for b in range(10) for c in range(7) for d in range(6)
        )
        for n in range(1, 5000):
            assert _fft_length(n) == next(s for s in smooth_numbers if s >= n)
        assert _fft_length(2 * 8193 - 1) == 16464

    def test_kernel_spectrum_is_cached_and_read_only(self):
        length, spectrum = _kernel_spectrum(512, 0.05)
        assert _kernel_spectrum(512, 0.05)[1] is spectrum
        assert length == 1024 and spectrum.shape == (513,)
        assert not spectrum.flags.writeable
