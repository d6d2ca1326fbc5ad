"""The conjugate Dirichlet process posterior, drawn by its exact Dirichlet split."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from _dp_reference import LAW_CASES, case_statistics, law_data, smooth
from _law import assert_same_law
from _oracles import smoothed_centering_measure

from frsense import (
    BetaBase,
    Dataset,
    DpConfig,
    Grid,
    McmcControl,
    UniformBase,
    dp_posterior,
    expected_remainder,
    fr_distance,
    make_rng,
    normalize_pdf,
    normalize_rows,
    silverman_bandwidth,
)
from frsense.errors import InvalidSettingError
from frsense.samplers import dp
from frsense.samplers.dp import _draw_split, _fft_length, _kernel_spectrum


class TestExpectedRemainder:
    def test_known_values(self):
        # one observation at alpha = 1: W_0 has mean 1/2 and each stick of Q 1/2
        assert expected_remainder(DpConfig(alpha=1.0, truncation=50), 1) == pytest.approx(
            2.0**-50, rel=1e-12
        )
        assert expected_remainder(DpConfig(alpha=5.0, truncation=60), 10) == pytest.approx(
            5.0 / 15.0 * (5.0 / 6.0) ** 59, rel=1e-12
        )

    def test_mean_of_the_traced_remainder(self):
        # alpha = 50 with 10 observations and the smallest truncation leave
        # about 0.32 of each draw's mass to the last atom of Q
        data = Dataset.from_observations(np.random.default_rng(4).normal(0.0, 1.0, 10))
        cfg = DpConfig(alpha=50.0, truncation=50)
        ctl = McmcControl(n_samples=4000, burn_in=0, thin=1, seed=19)
        rem = dp_posterior(data, cfg, ctl, grid=Grid(32)).trace["absorbed_remainder"]
        expected = expected_remainder(cfg, data.n)
        assert expected == pytest.approx(0.316, abs=1e-3)
        assert abs(rem.mean() - expected) < 4.0 * rem.std() / np.sqrt(rem.size)

    def test_larger_truncation_only_appends_atoms(self):
        # each kind of variate has its own stream and Q's rows come first, so
        # the first sticks and atoms of every draw stay bit for bit
        draws = [
            _draw_split(make_rng(23), DpConfig(alpha=3.0, truncation=k), 40, 12) for k in (50, 80)
        ]
        (data_a, g0_w_a, atoms_a, _), (data_b, g0_w_b, atoms_b, _) = draws
        npt.assert_array_equal(data_a, data_b)
        npt.assert_array_equal(g0_w_a[:-1], g0_w_b[:49])
        npt.assert_array_equal(atoms_a, atoms_b[:50])


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


class TestSplitWeights:
    def test_weights_sum_to_one(self, rng):
        cfg = DpConfig(alpha=5.0, truncation=200)
        data_weights, g0_weights, g0_atoms, remainders = _draw_split(rng, cfg, 100, 10)
        assert data_weights.shape == (10, 100)
        assert g0_weights.shape == g0_atoms.shape == (200, 10)
        assert remainders.shape == (10,)
        total = data_weights.sum(axis=1) + g0_weights.sum(axis=0)
        npt.assert_allclose(total, 1.0, rtol=0, atol=1e-12)
        assert data_weights.min() >= 0.0 and g0_weights.min() >= 0.0
        # the last atom of Q carries W_0 times the mass its sticks left
        npt.assert_allclose(remainders, g0_weights[-1], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-3, 1e10, 1e300])
    def test_no_alpha_leaves_mass_unassigned(self, alpha):
        # every stick lies in [0, 1], so the last atom of Q absorbs what
        # its sticks leave, at any alpha
        cfg = DpConfig(alpha=alpha, truncation=50)
        data_weights, g0_weights, _, remainders = _draw_split(make_rng(3), cfg, 10, 1000)
        total = data_weights.sum(axis=1) + g0_weights.sum(axis=0)
        npt.assert_allclose(total, 1.0, rtol=0, atol=1e-15)
        assert g0_weights.min() >= 0.0 and remainders.min() >= -1e-15

    def test_variates_follow_their_laws(self):
        # W_0 ~ Beta(alpha, n), a data weight ~ Beta(1, alpha + n - 1), Q's
        # first stick ~ Beta(1, alpha) and its atoms ~ G0
        alpha, n, m = 3.0, 10, 2000
        cfg = DpConfig(alpha=alpha, g0=BetaBase(2.0, 5.0), truncation=50)
        data_weights, g0_weights, g0_atoms, _ = _draw_split(make_rng(31), cfg, n, m)
        w0 = g0_weights.sum(axis=0)
        for sample, law in (
            (w0, stats.beta(alpha, n)),
            (data_weights[:, 0], stats.beta(1.0, alpha + n - 1.0)),
            (g0_weights[0] / w0, stats.beta(1.0, alpha)),
            (g0_atoms[7], stats.beta(2.0, 5.0)),
        ):
            assert stats.kstest(sample, law.cdf).pvalue > 1e-3


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

    def test_tiny_alpha_puts_every_draw_on_the_data(self):
        # log(1 - U) / alpha overflows to -inf below about 2e-307, a stick of
        # 1, without a warning; W_0 is then 0
        cfg = DpConfig(alpha=1e-308, bandwidth=0.05)
        x = np.linspace(0.1, 0.9, 30)
        data_weights, g0_weights, g0_atoms, _ = _draw_split(make_rng(3), cfg, x.size, 10)
        assert not g0_weights.any()
        rows = dp._emit_rows(Grid(64), x, 0.05, data_weights, g0_weights, g0_atoms)
        npt.assert_allclose(rows, [smooth(Grid(64), x, w, 0.05) for w in data_weights], rtol=1e-13)

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
        # Q truncated at 200 vs 400 atoms at alpha = 5: both means sit on the
        # smoothed centering measure; their difference is Monte Carlo noise only
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
        # E[remainder] = alpha / (alpha + n) (alpha / (alpha + 1))^(K - 1) ~ 7e-18
        # here, below the round-off of the summed sticks
        assert np.abs(rem).max() < 1e-12


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


def exact_rows(data, cfg, ctl, grid):
    """The rows of a dp run's draws with every atom smoothed exactly: each
    draw's data weights and Q's atoms one by one, without the binning of
    Q's atoms."""
    x = data.rescaled
    data_weights, g0_weights, g0_atoms, _ = _draw_split(
        make_rng(ctl.seed), cfg, x.size, ctl.n_samples
    )
    rows = [
        smooth(grid, np.concatenate((x, atoms)), np.concatenate((d, w)), cfg.bandwidth)
        for d, w, atoms in zip(data_weights, g0_weights.T, g0_atoms.T)
    ]
    return normalize_rows(grid, np.array(rows))


#: Linear binning moves each atom's kernel at a grid point by at most
#: (spacing / bw)^2 / 8 of its peak, the interpolation error of a function
#: whose second derivative is at most 1 / bw^2 in size.  Summed over a
#: draw's atoms, that error is at most sqrt(3 / 2) times the row's maximum,
#: since |z^2 - 1| exp(-z^2 / 2) <= exp(-z^2 / 6), a kernel sqrt(3) times
#: wider; about 0.15 (spacing / bw)^2 in all, and the normalization adds a
#: little.  The rows measured here reach about 0.12.
BINNING_ERROR = 0.2


def assert_binned_emission(densities, exact, grid, bw):
    """``dp_posterior`` rows within the binning bound of their maximum of
    the exact smoothing of the same draws."""
    error = np.abs(densities - exact).max(axis=1) / exact.max(axis=1)
    assert error.max() <= BINNING_ERROR * (grid.spacing / bw) ** 2


@pytest.fixture(scope="module")
def data():
    # the two groups of the sweep benchmarks' data
    return law_data()


class TestSameLawAsStickBreaking:
    """The split draws the law of stick-breaking of the posterior DP."""

    @pytest.mark.parametrize("case", list(LAW_CASES))
    def test_two_sample_ks(self, case):
        # 400 iid draws from each sampler; tests/dp_law_repeat.py repeats
        # this over many seeds and reports how often p < 0.05
        oracle = case_statistics(case, "oracle", 400, 13)
        assert_same_law(case_statistics(case, "split", 400, 12), oracle)

    @pytest.mark.parametrize("case", ["alpha-5", "alpha-25"])
    def test_the_old_truncated_law_fails_the_check(self, case):
        # stick-breaking truncated at 200 sticks of the posterior DP, as dp
        # drew before 0.11.0: its last atom takes 15-20% of the mass here
        oracle = case_statistics(case, "oracle", 400, 13)
        with pytest.raises(AssertionError):
            assert_same_law(case_statistics(case, "old", 400, 12), oracle)


class TestTableEmission:
    """``dp_posterior`` emits the data part from one kernel table of the data
    and the atoms of Q by linear binning and an FFT convolution; smoothing
    every atom directly from the same draws gives the same rows, up to the
    binning error."""

    GRID = Grid(128)

    @pytest.mark.parametrize("g0", [UniformBase(), BetaBase(2.0, 5.0)], ids=["uniform", "beta"])
    @pytest.mark.parametrize(
        "alpha, n_obs, g0_share",
        [
            pytest.param(1e-3, 100, (0.0, 0.001), id="almost-no-g0-mass"),
            pytest.param(5.0, 100, (0.02, 0.1), id="alpha-5"),
            pytest.param(1e3, 100, (0.85, 0.95), id="mostly-g0-mass"),
            pytest.param(5.0, 1, (0.75, 0.9), id="one-observation"),
        ],
    )
    def test_rows_match_direct_smoothing(self, g0, alpha, n_obs, g0_share):
        data = Dataset.from_observations(np.random.default_rng(8).normal(0.0, 1.0, n_obs))
        cfg = DpConfig(alpha=alpha, g0=g0, truncation=60, bandwidth=0.05)
        ctl = McmcControl(n_samples=30, burn_in=0, thin=1, seed=6)

        _, g0_weights, _, remainders = _draw_split(make_rng(ctl.seed), cfg, data.n, ctl.n_samples)
        assert g0_share[0] <= g0_weights.sum(axis=0).mean() <= g0_share[1]

        ps = dp_posterior(data, cfg, ctl, grid=self.GRID)
        exact = exact_rows(data, cfg, ctl, self.GRID)
        assert_binned_emission(ps.densities, exact, self.GRID, cfg.bandwidth)
        npt.assert_array_equal(ps.trace["absorbed_remainder"], remainders)

    def test_data_part_is_exact(self):
        # with no mass on Q a row is its data weights times the kernel table
        x = np.random.default_rng(8).uniform(0.1, 0.9, 50)
        data_weights, g0_weights, g0_atoms, _ = _draw_split(make_rng(2), DpConfig(), x.size, 20)
        rows = dp._emit_rows(self.GRID, x, 0.05, data_weights, 0.0 * g0_weights, g0_atoms)
        exact = [smooth(self.GRID, x, w, 0.05) for w in data_weights]
        npt.assert_allclose(rows, exact, rtol=1e-13, atol=0)

    def test_rows_match_direct_smoothing_across_fft_blocks(self, monkeypatch):
        # FFT buffers of 512 entries split 40 draws on a 16-point grid (FFT
        # length 32) into blocks of 16, 16 and 8
        monkeypatch.setattr(dp, "_BLOCK_ENTRIES", 512)
        grid = Grid(16)
        data = Dataset.from_observations(np.random.default_rng(8).normal(0.0, 1.0, 100))
        cfg = DpConfig(alpha=5.0, truncation=60, bandwidth=0.1)
        ctl = McmcControl(n_samples=40, burn_in=0, thin=1, seed=6)
        ps = dp_posterior(data, cfg, ctl, grid=grid)
        assert_binned_emission(ps.densities, exact_rows(data, cfg, ctl, grid), grid, cfg.bandwidth)


class TestBinnedG0Emission:
    """The binning error of Q's atoms: its bound, its order and its memory."""

    @pytest.mark.parametrize("alpha", [1.0, 25.0, 1e3])
    @pytest.mark.parametrize(
        "bw_steps", [None, 1, 2, 4], ids=["silverman", "config-floor", "silverman-floor", "4-steps"]
    )
    def test_error_within_bound(self, data, alpha, bw_steps):
        # the benchmark's grid and truncation, at its Silverman bandwidth
        # (about 57 grid steps), at the floor of 2 steps that the Silverman
        # rule keeps and at the floor of 1 step that config files keep
        grid = Grid(512)
        if bw_steps is None:
            bw = silverman_bandwidth(data.rescaled, grid)
        else:
            bw = bw_steps * grid.spacing
        cfg = DpConfig(alpha=alpha, truncation=200, bandwidth=bw)
        ctl = McmcControl(n_samples=40, burn_in=0, thin=1, seed=11)
        ps = dp_posterior(data, cfg, ctl, grid=grid)
        assert_binned_emission(ps.densities, exact_rows(data, cfg, ctl, grid), grid, bw)

    def test_error_falls_fourfold_per_halved_spacing(self, data):
        # second order in the spacing: putting each atom on its nearest grid
        # point instead would halve the error only.  A row's error follows
        # where its heaviest atom falls between two grid points, so the
        # ratio is of the mean row error over 100 draws
        cfg = DpConfig(alpha=1e3, truncation=60, bandwidth=0.05)
        ctl = McmcControl(n_samples=100, burn_in=0, thin=1, seed=3)
        errors = []
        for n_points in (65, 129, 257, 513):
            grid = Grid(n_points)
            exact = exact_rows(data, cfg, ctl, grid)
            error = np.abs(dp_posterior(data, cfg, ctl, grid=grid).densities - exact).max(axis=1)
            errors.append(np.mean(error / exact.max(axis=1)))
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
