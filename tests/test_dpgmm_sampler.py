"""Collapsed Gibbs sampler for the conjugate Gaussian mixture."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from _dpgmm_reference import reference_posterior
from _law import assert_same_law
from _oracles import crp_expected_clusters

from frsense import Dataset, DpgmmConfig, Grid, McmcControl, dpgmm_posterior
from frsense.errors import FrsenseError, InvalidSettingError
from frsense.samplers import make_rng, sample_crp_partition
from frsense.samplers.common import _cluster_stats, _pick, _pick_linear
from frsense.samplers.dpgmm import (
    _cluster_terms,
    _emit_row,
    _new_cluster_log_weights,
    _predictive_params,
    _t_logpdf,
    _t_pdf_rows,
)


class TestPick:
    def test_inverts_the_cumulative_weights(self):
        logw = [math.log(1.0), math.log(2.0), math.log(1.0)]
        uniforms = (0.0, 0.24, 0.26, 0.74, 0.76, np.nextafter(1.0, 0.0))
        assert [_pick(logw, u) for u in uniforms] == [0, 0, 1, 1, 2, 2]
        assert [_pick_linear([1.0, 2.0, 1.0], u, 4.0) for u in uniforms] == [0, 0, 1, 1, 2, 2]

    def test_shift_invariant_in_log_weights(self):
        for u in np.linspace(0.0, 0.99, 12):
            assert _pick([-800.0, -799.0, -801.0], u) == _pick([0.0, 1.0, -1.0], u)


class TestCrpPrior:
    def test_expected_cluster_count_formula(self):
        expect = sum(1.0 / k for k in range(1, 11))
        assert crp_expected_clusters(1.0, 10) == pytest.approx(expect, abs=1e-12)
        assert crp_expected_clusters(1.0, 10) == pytest.approx(2.9290, abs=5e-5)

    def test_seating_matches_expectation(self):
        # assignment-only run against the analytic mean, 3 sigma Monte Carlo band
        rng = make_rng(314)
        alpha, n, m = 1.0, 10, 10_000
        counts = np.empty(m)
        for t in range(m):
            counts[t] = sample_crp_partition(alpha, n, rng).max() + 1
        se = counts.std(ddof=1) / np.sqrt(m)
        assert abs(counts.mean() - crp_expected_clusters(alpha, n)) < 3.0 * se

    def test_labels_contiguous(self, rng):
        for _ in range(50):
            labels = sample_crp_partition(2.0, 30, rng)
            assert set(labels.tolist()) == set(range(int(labels.max()) + 1))

    def test_first_label_zero(self, rng):
        assert sample_crp_partition(5.0, 1, rng)[0] == 0


class TestPredictive:
    def test_prior_predictive_is_student_t(self, grid):
        cfg = DpgmmConfig(alpha=1.0, m=0.3, r=0.5, nu=4.0, s=0.8)
        params = _predictive_params(cfg, 0, 0.0, 0.0)
        df, loc, _, denom = params
        ref = stats.t.pdf(grid.x, df, loc=loc, scale=np.sqrt(denom / df))
        npt.assert_allclose(_t_pdf_rows(grid.x, params), ref, rtol=1e-10)

    def test_posterior_predictive_df_and_location(self):
        cfg = DpgmmConfig()
        x = np.array([0.2, 0.4, 0.9])
        df, loc, _, _ = _predictive_params(cfg, 3, x.sum(), float(x @ x))
        assert df == pytest.approx(cfg.nu + 3.0)
        assert loc == pytest.approx((cfg.r * cfg.m + x.sum()) / (cfg.r + 3.0))

    def test_predictive_integrates_to_one(self):
        params = _predictive_params(DpgmmConfig(), 5, 2.5, 1.4)
        total, _ = quad(lambda u: float(_t_pdf_rows(np.array([u]), params)[0]), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestEmission:
    def test_label_permutation_invariant(self, grid, rng):
        x = rng.uniform(0.1, 0.9, size=30)
        labels = rng.integers(0, 3, size=30)
        perm = np.array([2, 0, 1])
        row_a = _emit_row(DpgmmConfig(alpha=1.0), grid, *_cluster_stats(x, labels))
        row_b = _emit_row(DpgmmConfig(alpha=1.0), grid, *_cluster_stats(x, perm[labels]))
        npt.assert_allclose(row_a, row_b, rtol=0, atol=1e-12)

    def test_prior_weight_grows_with_alpha(self, grid, rng):
        # larger alpha pushes the emitted density toward the broad prior
        # predictive, lowering the peak over the data clump
        x = rng.normal(0.5, 0.02, size=50)
        labels = np.zeros(50, dtype=np.int64)
        lo = _emit_row(DpgmmConfig(alpha=0.1), grid, *_cluster_stats(x, labels))
        hi = _emit_row(DpgmmConfig(alpha=25.0), grid, *_cluster_stats(x, labels))
        assert hi.max() < lo.max()


class TestChainBehavior:
    def test_single_observation_single_cluster(self):
        data = Dataset.from_observations([3.7])
        ps = dpgmm_posterior(
            data, DpgmmConfig(), McmcControl(n_samples=30, burn_in=10, thin=1, seed=4)
        )
        assert np.all(ps.trace["n_clusters"] == 1)

    def test_all_pdfs_normalized(self):
        crng = np.random.default_rng(12)
        data = Dataset.from_observations(crng.normal(size=40))
        ps = dpgmm_posterior(
            data, DpgmmConfig(), McmcControl(n_samples=20, burn_in=20, thin=1, seed=5)
        )
        for p in ps.pdfs:
            assert p.grid.integrate(p.values) == pytest.approx(1.0, abs=1e-8)

    def test_deterministic_given_seed(self):
        crng = np.random.default_rng(2)
        data = Dataset.from_observations(crng.normal(size=35))
        ctl = McmcControl(n_samples=15, burn_in=10, thin=2, seed=99)
        a = dpgmm_posterior(data, DpgmmConfig(), ctl)
        b = dpgmm_posterior(data, DpgmmConfig(), ctl)
        npt.assert_array_equal(a.densities, b.densities)
        npt.assert_array_equal(a.trace["n_clusters"], b.trace["n_clusters"])

    def test_equal_observations_under_a_tiny_spread_prior(self):
        # Tied data make a cluster's spread a rounding error around zero; with
        # nu * s tiny, a negative one would make the scale negative.
        data = Dataset.from_observations([1.0] * 10 + [2.0] * 10 + [3.5] * 10)
        ctl = McmcControl(n_samples=10, burn_in=5, thin=1, seed=5)
        ps = dpgmm_posterior(data, DpgmmConfig(m=0.5, r=1e-30, s=1e-30), ctl)
        assert np.isfinite(ps.densities).all()

    def test_tighter_precision_prior_finds_more_clusters(self):
        # prior component sd ~ sqrt(S): at 1.0 the bimodal structure is blurred
        # into one wide component, at 0.1 the two modes separate
        crng = np.random.default_rng(7)
        obs = np.concatenate([crng.normal(-2.0, 0.5, 60), crng.normal(1.5, 0.8, 60)])
        data = Dataset.from_observations(obs)
        ctl = McmcControl(n_samples=50, burn_in=100, thin=1, seed=123)
        loose = dpgmm_posterior(data, DpgmmConfig(s=1.0), ctl)
        tight = dpgmm_posterior(data, DpgmmConfig(s=0.01), ctl)
        assert tight.trace["n_clusters"].mean() > loose.trace["n_clusters"].mean() + 0.5


def _bimodal(n: int) -> Dataset:
    crng = np.random.default_rng(41)
    half = n // 2
    return Dataset.from_observations(
        np.concatenate([crng.normal(-2.0, 0.7, half), crng.normal(2.5, 1.0, n - half)])
    )


class TestKernelMatchesReference:
    """The cached kernel reproduces the straightforward loop bit for bit."""

    CASES = {
        "alpha-0.25": (60, {"alpha": 0.25, "m": 0.5, "s": 0.01}, (20, 10, 2)),
        "alpha-16": (60, {"alpha": 16.0, "m": 0.5, "s": 0.01}, (20, 10, 2)),
        "informative-base": (60, {"m": 0.5, "s": 0.01}, (20, 10, 2)),
        "default-config": (60, {}, (20, 10, 2)),
        "one-observation": (1, {}, (12, 5, 1)),
        "no-burn-in-thinned": (40, {"alpha": 2.0}, (12, 0, 3)),
    }

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_densities_and_trace_identical(self, case, seed):
        n, kwargs, (n_samples, burn_in, thin) = self.CASES[case]
        data = _bimodal(n)
        config = DpgmmConfig(**kwargs)
        ctl = McmcControl(n_samples=n_samples, burn_in=burn_in, thin=thin, seed=seed)
        fast = dpgmm_posterior(data, config, ctl)
        densities, k_trace, relabels = reference_posterior(data, config, ctl)
        assert np.array_equal(fast.densities, densities)
        assert np.array_equal(fast.trace["n_clusters"], k_trace)
        if case == "alpha-16":
            # The swap-with-last deletion and its relabelling were exercised.
            assert relabels > 0

    @pytest.mark.parametrize(
        "kwargs", [{}, {"m": 0.5, "s": 0.01}, {"m": -3.0, "r": 2.5, "nu": 1.5, "s": 7.0}]
    )
    def test_cached_log_weights_match_predictive_params(self, kwargs, rng):
        # Exact equality of the terms, so a reordered operation fails here
        # even when it changes no pick of the chains above.  The linear
        # weight itself matches the log-space one to rounding.
        config = DpgmmConfig(**kwargs)
        x = rng.uniform(0.05, 0.95, size=40)
        terms = _cluster_terms(config, x.size)
        for _ in range(200):
            size = int(rng.integers(1, x.size + 1))
            members = x[rng.choice(x.size, size=size, replace=False)].tolist()
            (count,), (total,), (total_sq,) = _cluster_stats(members, [0] * size)
            b, _, lo, de = cached = terms(count, total, total_sq)
            df, loc, log_norm, denom = params = _predictive_params(
                config, count, total, total_sq
            )
            power = -0.5 * (df + 1.0)
            assert cached == (math.exp((math.log(count) + log_norm) / power), power, loc, denom)
            xi = float(rng.uniform(0.05, 0.95))
            weight = (b * (1.0 + (xi - lo) ** 2 / de)) ** power
            assert weight == pytest.approx(
                math.exp(math.log(count) + _t_logpdf(xi, params)), rel=1e-13, abs=0.0
            )


class TestSameLawAsLogSpace:
    """The kernel weighs clusters in linear space, the reference loop in log
    space; a pick can differ only where a uniform lands within rounding of a
    cumulative-weight boundary, so the chains must follow one law."""

    def test_two_sample_ks(self):
        # Both chains start from the same law (a restaurant-process draw) and
        # run 10 sweeps; disjoint seeds keep the two samples independent.
        n_chains, grid = 200, Grid(32)
        data, config = _bimodal(30), DpgmmConfig(m=0.5, s=0.01)

        def ctl(seed):
            return McmcControl(n_samples=10, burn_in=0, thin=1, seed=seed)

        fast = [
            dpgmm_posterior(data, config, ctl(seed), grid).trace["n_clusters"][-1]
            for seed in range(n_chains)
        ]
        ref = [
            reference_posterior(data, config, ctl(seed), grid)[1][-1]
            for seed in range(n_chains, 2 * n_chains)
        ]
        assert_same_law({"n_clusters": fast}, {"n_clusters": ref})


class TestDpgmmConfig:
    def test_positive_fields_enforced(self):
        for kwargs in ({"alpha": 0.0}, {"r": -1.0}, {"nu": 0.0}, {"s": 0.0}):
            with pytest.raises(ValueError):
                DpgmmConfig(**kwargs)

    @pytest.mark.parametrize("name", ["alpha", "m", "r", "nu", "s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fields_rejected(self, name, value):
        with pytest.raises(InvalidSettingError, match=f"{name} must be finite"):
            DpgmmConfig(**{name: value})

    @pytest.mark.parametrize("m", [1e308, -1e308, 2e154])
    def test_m_whose_square_overflows_rejected(self, m):
        with pytest.raises(InvalidSettingError, match="too far"):
            DpgmmConfig(m=m)

    def test_m_far_from_data_but_representable_accepted(self):
        assert DpgmmConfig(m=1e50).m == 1e50

    @pytest.mark.parametrize("kwargs", [{"r": 1e308}, {"nu": 1e308}, {"s": 1e308}])
    def test_overflowing_prior_predictive_rejected(self, kwargs):
        with pytest.raises(InvalidSettingError, match="prior predictive") as info:
            DpgmmConfig(**kwargs)
        assert isinstance(info.value, FrsenseError)

    def test_underflowing_prior_scale_rejected(self):
        # nu / 2 * r underflows to 0 in the prior predictive's scale.
        with pytest.raises(InvalidSettingError, match="prior predictive"):
            DpgmmConfig(nu=1e-200, r=1e-200)

    @pytest.mark.parametrize("kwargs", [{"r": 1e300, "m": 1e9}, {"r": 1e301, "m": 0.5}])
    def test_r_that_overflows_a_cluster_scale_rejected(self, kwargs):
        with pytest.raises(InvalidSettingError, match="largest squared distance"):
            DpgmmConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 1e100},
            {"m": -1e100},
            {"m": 1e150},
            {"alpha": 1e-300},
            {"s": 1e-300},
            {"nu": 1e-300},
            {"nu": 1e300, "s": 1e-6},
            {"alpha": 1e301},
            {"alpha": 1e308},
        ],
    )
    def test_new_cluster_weight_outside_bounds_rejected(self, kwargs):
        with pytest.raises(InvalidSettingError, match="new-cluster weight"):
            DpgmmConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 1e50},
            {"m": -1e50},
            {"alpha": 1e-200},
            {"alpha": 1e300},
            {"s": 1e300},
            {"r": 1e-300},
            {"nu": 1e6},
        ],
    )
    def test_extreme_but_safe_configs_accepted(self, kwargs):
        config = DpgmmConfig(**kwargs)
        low = min(map(math.exp, _new_cluster_log_weights(config, (0.0, 1.0))))
        assert low >= 1e-300

    @pytest.mark.parametrize("nu", [1.000001e6, 1e12, 1e300])
    def test_nu_where_linear_weights_lose_precision_rejected(self, nu):
        with pytest.raises(InvalidSettingError, match="lose precision"):
            DpgmmConfig(nu=nu)


def _accepted_or_none(**kwargs):
    try:
        return DpgmmConfig(**kwargs)
    except InvalidSettingError:
        return None


def _powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


ACCEPTED_CONFIGS = st.builds(
    _accepted_or_none,
    alpha=_powers_of_ten(-300, 300),
    m=st.floats(-2.0, 3.0) | _powers_of_ten(-3, 60) | _powers_of_ten(-3, 60).map(lambda v: -v),
    r=_powers_of_ten(-300, 300),
    nu=_powers_of_ten(-300, 7),
    s=_powers_of_ten(-300, 300),
).filter(lambda config: config is not None)

UNIT_DATA = st.floats(0.05, 0.95)


class TestLinearWeightsProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        config=ACCEPTED_CONFIGS,
        members=st.lists(UNIT_DATA, min_size=1, max_size=60),
        x=UNIT_DATA,
    )
    # A cluster tight enough that (1 + z) ** power alone underflows, while
    # its weight is 1e73 times the new cluster's.
    @example(DpgmmConfig(alpha=1e-290, r=1e-220, s=1e-220, nu=1.0), [0.75], 0.5)
    # The largest nu accepted, where rounding 1 + z costs the most.
    @example(DpgmmConfig(nu=1e6, s=1e-4), [0.3, 0.35, 0.4], 0.9)
    def test_weights_finite_and_new_cluster_weight_above_floor(self, config, members, x):
        (count,), (total,), (total_sq,) = _cluster_stats(members, [0] * len(members))
        b, power, lo, de = _cluster_terms(config, len(members))(count, total, total_sq)
        weight = (b * (1.0 + (x - lo) ** 2 / de)) ** power
        assert math.isfinite(weight) and weight >= 0.0
        (log_new,) = _new_cluster_log_weights(config, [x])
        new = math.exp(log_new)
        assert math.isfinite(new) and 1e-300 <= new <= 1e300
        # Each weight is the log-space one, to 1e-9 of itself or of the floor.
        params = _predictive_params(config, count, total, total_sq)
        exact = math.exp(math.log(count) + _t_logpdf(x, params))
        assert abs(weight - exact) <= 1e-9 * max(exact, 1e-300)
