"""Gibbs samplers for the mixtures with sampled variance structure."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

from frsense import (
    CcvConfig,
    Dataset,
    DcvConfig,
    McmcControl,
    ccv_posterior,
    dcv_posterior,
)
from frsense.errors import InvalidPhiError, InvalidSettingError
from frsense.samplers import make_rng
from frsense.samplers.griffin import (
    A_GRID_SIZE,
    _DcvChain,
    griffin_steel_pdf,
    sample_griffin_steel,
)


def bimodal_dataset(seed=7, n_per=60):
    crng = np.random.default_rng(seed)
    obs = np.concatenate(
        [crng.normal(-2.0, 0.5, n_per), crng.normal(1.5, 0.8, n_per)]
    )
    return Dataset.from_observations(obs)


class TestConcentrationPrior:
    def test_density_integrates_to_one(self):
        total, err = quad(lambda al: float(griffin_steel_pdf(al, 3.0, 5.0)), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_median_is_gamma(self):
        # alpha/(alpha+gamma) ~ Beta(eta, eta) is symmetric about 1/2, so the
        # median of alpha is gamma itself
        rng = make_rng(2718)
        draws = np.array([sample_griffin_steel(3.0, 5.0, rng) for _ in range(4000)])
        assert np.median(draws) == pytest.approx(5.0, rel=0.1)

    def test_vectorized_density(self):
        vals = griffin_steel_pdf(np.array([0.5, 1.0, 2.0]), 2.0, 3.0)
        assert vals.shape == (3,)
        assert np.all(vals > 0.0)

    def test_density_matches_beta_change_of_variables(self):
        from scipy.stats import beta as beta_dist

        eta, gam = 3.0, 5.0
        alpha = np.array([0.3, 1.0, 4.0, 9.0])
        t = alpha / (alpha + gam)
        jac = gam / (alpha + gam) ** 2
        npt.assert_allclose(
            griffin_steel_pdf(alpha, eta, gam),
            beta_dist.pdf(t, eta, eta) * jac,
            rtol=1e-12,
        )


class TestConfigs:
    def test_phi_must_exceed_one(self):
        with pytest.raises(InvalidPhiError):
            DcvConfig(phi=1.0)
        with pytest.raises(InvalidPhiError):
            DcvConfig(phi=0.5)

    def test_aux_slots_at_least_one(self):
        with pytest.raises(ValueError):
            DcvConfig(aux_m=0)

    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            CcvConfig(a0=0.0)
        with pytest.raises(ValueError):
            CcvConfig(gamma=-2.0)
        with pytest.raises(ValueError):
            DcvConfig(s1=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "cls, name",
        [(CcvConfig, name) for name in ("a0", "a1", "eta", "gamma", "mu00")]
        + [(CcvConfig, name) for name in ("lambda0", "s0", "s1")]
        + [(DcvConfig, name) for name in ("mu00", "s1", "phi")],
    )
    def test_non_finite_fields_rejected(self, cls, name, value):
        with pytest.raises(InvalidSettingError, match=f"{name} must be finite"):
            cls(**{name: value})

    @pytest.mark.parametrize("cls", [CcvConfig, DcvConfig])
    @pytest.mark.parametrize("shapes", [{"a0": 1e308}, {"a1": 1e308}, {"a0": 3e307, "a1": 3e307}])
    def test_beta_shapes_overflowing_the_a_update_rejected(self, cls, shapes):
        # (a - 1) log(cell) overflowed to -inf in the griddy step on a
        with pytest.raises(InvalidSettingError, match="griddy update of a"):
            cls(**shapes)

    def test_largest_accepted_beta_shape_runs_without_overflow(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ps = ccv_posterior(
                bimodal_dataset(), CcvConfig(a1=2.9e307),
                McmcControl(n_samples=10, burn_in=0, thin=1, seed=2),
            )
        # the Beta(1, 2.9e307) prior pins a to the lowest grid cell
        assert np.all(ps.trace["a"] == 0.5 / A_GRID_SIZE)


class TestCcvChain:
    def test_all_pdfs_normalized(self):
        ps = ccv_posterior(
            bimodal_dataset(), CcvConfig(), McmcControl(n_samples=20, burn_in=20, thin=1, seed=6)
        )
        for p in ps.pdfs:
            assert p.grid.integrate(p.values) == pytest.approx(1.0, abs=1e-8)

    def test_deterministic_given_seed(self):
        data = bimodal_dataset()
        ctl = McmcControl(n_samples=15, burn_in=10, thin=1, seed=42)
        a = ccv_posterior(data, CcvConfig(), ctl)
        b = ccv_posterior(data, CcvConfig(), ctl)
        npt.assert_array_equal(a.densities, b.densities)
        for key in a.trace:
            npt.assert_array_equal(a.trace[key], b.trace[key])

    def test_alpha_walk_acceptance_sane(self):
        ps = ccv_posterior(
            bimodal_dataset(), CcvConfig(), McmcControl(n_samples=100, burn_in=100, thin=1, seed=9)
        )
        assert 0.05 < ps.diagnostics["alpha_acceptance"] < 0.98

    def test_trace_keys(self):
        ps = ccv_posterior(
            bimodal_dataset(), CcvConfig(), McmcControl(n_samples=10, burn_in=5, thin=1, seed=1)
        )
        for key in ("n_clusters", "alpha", "a", "sigma2", "mu0", "max_mean_dev"):
            assert ps.trace[key].shape == (10,)

    def test_smoothness_parameter_tracks_pinning_prior(self):
        # an overwhelming Beta prior pins the sampled a near its target value
        data = bimodal_dataset()
        ctl = McmcControl(n_samples=60, burn_in=120, thin=1, seed=31)
        for target in (0.3, 0.9):
            c = 5000.0
            cfg = CcvConfig(a0=c * target, a1=c * (1.0 - target))
            ps = ccv_posterior(data, cfg, ctl)
            assert ps.trace["a"].mean() == pytest.approx(target, abs=0.05)

    def test_means_shrink_toward_center_as_a_rises(self):
        # a near 1 forces component means toward mu0; the average maximal
        # deviation must fall monotonically over a in {0.5, 0.9, 0.99}
        data = bimodal_dataset()
        ctl = McmcControl(n_samples=80, burn_in=150, thin=1, seed=13)
        c = 5000.0
        devs = []
        for target in (0.5, 0.9, 0.99):
            cfg = CcvConfig(a0=c * target, a1=c * (1.0 - target))
            ps = ccv_posterior(data, cfg, ctl)
            devs.append(ps.trace["max_mean_dev"].mean())
        assert devs[0] > devs[1] > devs[2]


class TestDcvChain:
    def test_all_pdfs_normalized(self):
        ps = dcv_posterior(
            bimodal_dataset(), DcvConfig(), McmcControl(n_samples=20, burn_in=20, thin=1, seed=6)
        )
        for p in ps.pdfs:
            assert p.grid.integrate(p.values) == pytest.approx(1.0, abs=1e-8)

    def test_deterministic_given_seed(self):
        data = bimodal_dataset()
        ctl = McmcControl(n_samples=15, burn_in=10, thin=1, seed=44)
        a = dcv_posterior(data, DcvConfig(), ctl)
        b = dcv_posterior(data, DcvConfig(), ctl)
        npt.assert_array_equal(a.densities, b.densities)

    def test_variance_inflation_prior_moment(self):
        # fresh component draws have E[1 / zeta] = phi
        data = Dataset.from_observations(np.linspace(0.0, 1.0, 20))
        for phi in (2.0, 6.0):
            chain = _DcvChain(data.rescaled, DcvConfig(phi=phi), make_rng(505))
            inv = np.array([1.0 / chain._fresh_params(0.1)[1] for _ in range(10_000)])
            se = inv.std(ddof=1) / np.sqrt(inv.size)
            assert abs(inv.mean() - phi) < 3.0 * se

    def test_component_variances_homogenize_as_phi_grows(self):
        # large phi concentrates zeta near its mean, so the within-state
        # spread of component variances must shrink from phi=2 to phi=20
        data = bimodal_dataset()
        ctl = McmcControl(n_samples=80, burn_in=150, thin=1, seed=77)
        disp = {}
        for phi in (2.0, 20.0):
            ps = dcv_posterior(data, DcvConfig(phi=phi), ctl)
            rows = ps.trace["var_dispersion"]
            keep = ps.trace["n_clusters"] > 1
            disp[phi] = rows[keep].mean()
        assert disp[20.0] < disp[2.0]

    def test_aux_slot_count_changes_stream_not_validity(self):
        data = bimodal_dataset()
        ctl = McmcControl(n_samples=12, burn_in=10, thin=1, seed=3)
        a = dcv_posterior(data, DcvConfig(aux_m=1), ctl)
        b = dcv_posterior(data, DcvConfig(aux_m=5), ctl)
        assert a.n_draws == b.n_draws == 12
        for p in (*a.pdfs, *b.pdfs):
            assert p.grid.integrate(p.values) == pytest.approx(1.0, abs=1e-8)
