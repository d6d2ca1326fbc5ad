"""Truncated stick-breaking sampler for the conjugate Dirichlet process."""

import numpy as np
import numpy.testing as npt
import pytest

from _law import assert_same_law
from _oracles import smoothed_centering_measure

from frsense import (
    BetaBase,
    Dataset,
    DpConfig,
    Grid,
    GridPdf,
    McmcControl,
    UniformBase,
    centering_weight,
    dp_posterior,
    fr_distance,
    make_rng,
    normalize_pdf,
    normalize_rows,
)
from frsense.errors import InvalidSettingError, TruncationTooSmallError
from frsense.samplers.dp import _draw_atoms_and_weights, _smooth


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
        x = rng.uniform(0.05, 0.95, size=100)
        for _ in range(10):
            weights, remainder, from_g0, g0_atoms, data_idx = _draw_atoms_and_weights(
                rng, cfg, x.size, 0.05
            )
            assert abs(weights.sum() - 1.0) < 1e-12
            assert weights.min() >= 0.0
            for piece in (weights, from_g0, g0_atoms, data_idx):
                assert piece.shape == (200,)
            assert remainder == pytest.approx(weights[-1], abs=1e-15)

    def test_conservation_guard_fires_on_broken_sticks(self):
        # sticks outside [0, 1] destroy mass conservation; the guard must catch it
        class BrokenRng:
            def beta(self, a, b, size=None):
                return np.full(size, 2.0)

            def random(self, size=None):
                return np.zeros(size) if size is not None else 0.0

            def integers(self, lo, hi, size=None):
                return np.zeros(size, dtype=np.int64)

        with pytest.raises(TruncationTooSmallError):
            _draw_atoms_and_weights(BrokenRng(), DpConfig(alpha=1.0), 1, 0.5)


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
    Each kept draw is smoothed atom by atom, without the data kernel table."""
    rng = make_rng(ctl.seed)
    w_g0 = centering_weight(cfg.alpha, data.n)
    rows, remainders = [], []
    x = data.rescaled
    for sweep in range(ctl.n_sweeps):
        weights, remainder, from_g0, g0_atoms, data_idx = _draw_atoms_and_weights(
            rng, cfg, x.size, w_g0
        )
        if sweep >= ctl.burn_in and (sweep - ctl.burn_in) % ctl.thin == 0:
            atoms = np.where(from_g0, g0_atoms, x[data_idx])
            rows.append(_smooth(grid, atoms, weights, cfg.bandwidth))
            remainders.append(remainder)
    return normalize_rows(grid, np.array(rows)), np.array(remainders)


class TestSameLawAsSkippingDraws:
    """The kept draws follow the law of the draws a skipping run kept."""

    GRID = Grid(128)
    CFG = DpConfig(alpha=5.0, truncation=60, bandwidth=0.05)

    @pytest.fixture(scope="class")
    def data(self):
        crng = np.random.default_rng(41)
        return Dataset.from_observations(
            np.concatenate([crng.normal(-2.0, 0.7, 50), crng.normal(2.5, 1.0, 50)])
        )

    def test_rebuild_is_the_sampler_at_burn_in_zero(self, data):
        ctl = McmcControl(n_samples=20, burn_in=0, thin=1, seed=4)
        rows, remainders = skipping_draws(data, self.CFG, ctl, self.GRID)
        ps = dp_posterior(data, self.CFG, ctl, grid=self.GRID)
        # the same stream, so the same remainders; the table path sums each
        # row in another order, so the densities agree to rounding only
        npt.assert_allclose(ps.densities, rows, rtol=1e-13, atol=0)
        npt.assert_array_equal(ps.trace["absorbed_remainder"], remainders)

    def test_two_sample_ks(self, data):
        # Same seed; the skipping run's kept positions (400, 402, ...) lie
        # past the 400 draws the sampler keeps, so the samples are independent.
        n = 400
        ps = dp_posterior(
            data, self.CFG, McmcControl(n_samples=n, burn_in=0, thin=1, seed=12), grid=self.GRID
        )
        old_rows, old_remainders = skipping_draws(
            data, self.CFG, McmcControl(n_samples=n, burn_in=n, thin=2, seed=12), self.GRID
        )
        center = smoothed_centering_measure(data, self.CFG, self.GRID)

        def dist(rows):
            return [fr_distance(GridPdf(self.GRID, row), center) for row in rows]

        new = {"absorbed_remainder": ps.trace["absorbed_remainder"], "fr": dist(ps.densities)}
        old = {"absorbed_remainder": old_remainders, "fr": dist(old_rows)}
        assert_same_law(new, old)


class TestTableEmission:
    """``dp_posterior`` emits data atoms from one kernel table of the data;
    smoothing every atom directly from the same draws gives the same rows."""

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

        rng = make_rng(ctl.seed)
        w_g0 = centering_weight(alpha, data.n)
        from_g0 = [_draw_atoms_and_weights(rng, cfg, data.n, w_g0)[2] for _ in range(ctl.n_samples)]
        assert g0_share[0] <= np.mean(from_g0) <= g0_share[1]

        rows, remainders = skipping_draws(data, cfg, ctl, self.GRID)
        ps = dp_posterior(data, cfg, ctl, grid=self.GRID)
        npt.assert_allclose(ps.densities, rows, rtol=1e-13, atol=0)
        npt.assert_array_equal(ps.trace["absorbed_remainder"], remainders)
