"""Gibbs samplers for the mixtures with sampled variance structure."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import _griffin_reference
from _griffin_reference import CcvReference, DcvBlockReference, DcvReference, reference_posterior
from _law import assert_same_law
from _oracles import griffin_steel_pdf

from frsense import (
    CcvConfig,
    Dataset,
    DcvConfig,
    McmcControl,
    ccv_posterior,
    dcv_posterior,
)
from frsense.errors import InvalidPhiError, InvalidSettingError
from frsense.grid import default_grid
from frsense.samplers import griffin, make_rng
from frsense.samplers.common import _cluster_stats, _pick
from frsense.samplers.griffin import (
    A_GRID_SIZE,
    _WEIGHT_FLOOR,
    _CcvChain,
    _DcvChain,
    _gauss_row,
    _laguerre_rule,
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

    def test_phi_bound_is_the_quadrature_overflow(self):
        # the new-cluster quadrature's Jacobi matrix holds 23 (22 + phi),
        # which overflows just above phi = 7.8e306; Gamma(phi) is never formed
        for phi in (172.0, 200.0, 1e300, 7.8e306):
            _laguerre_rule(24, DcvConfig(phi=phi).phi - 1.0)
        for phi in (7.9e306, 1e308):
            with pytest.raises(InvalidSettingError, match="new-cluster quadrature"):
                DcvConfig(phi=phi)

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
        # the auxiliary slots' fresh draws have E[1 / zeta] = phi and means
        # centered on mu0; one sweep's block holds 20 observations x 500 slots
        data = Dataset.from_observations(np.linspace(0.0, 1.0, 20))
        for phi in (2.0, 6.0):
            chain = _DcvChain(data.rescaled, DcvConfig(phi=phi, aux_m=500), make_rng(505))
            mus, zetas = chain._slot_draws(0.1)
            inv = 1.0 / zetas
            assert inv.size == mus.size == 10_000
            se = inv.std(ddof=1) / np.sqrt(inv.size)
            assert abs(inv.mean() - phi) < 3.0 * se
            assert abs(mus.mean() - chain.mu0) < 3.0 * math.sqrt(0.1 / mus.size)

    @pytest.mark.parametrize(
        "zetas", [[0.7], [0.2, 3.0], [1.5, 0.3, 0.9], [0.4, 2.2, 0.1, 1.3, 5.0, 0.8]]
    )
    def test_var_dispersion_matches_numpy(self, zetas):
        data = Dataset.from_observations(np.linspace(0.0, 1.0, 20))
        chain = _DcvChain(data.rescaled, DcvConfig(), make_rng(1))
        chain.zetas = list(zetas)
        logs = np.log(zetas)
        expected = float(np.mean(np.abs(logs - np.median(logs))))
        got = chain.trace_row()[_DcvChain.TRACE_NAMES.index("var_dispersion")]
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        if len(zetas) == 1:
            assert got == 0.0

    def test_zeta_update_survives_rounding_below_zero(self):
        # A singleton whose mean is one ulp below its member: the expanded
        # sum of squares rounds to -5.6e-17, which a huge tau turns into a
        # negative gamma scale unless the sum is clamped at zero.
        data = Dataset.from_observations(np.linspace(0.0, 1.0, 20))
        chain = _DcvChain(data.rescaled, DcvConfig(), make_rng(3))
        x = 0.7
        chain.counts, chain.sums, chain.sqs = [1], [x], [x * x]
        chain.mus, chain.zetas = [math.nextafter(x, 0.0)], [1.0]
        chain.tau = 1e300
        chain._update_zetas()
        assert math.isfinite(chain.zetas[0]) and chain.zetas[0] > 0.0
        assert chain._within_ss(0) == 0.0

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


_POSTERIORS = {"ccv": (ccv_posterior, CcvConfig), "dcv": (dcv_posterior, DcvConfig)}


def _recording(monkeypatch, module, name: str) -> list:
    """Make ``module.<name>`` (a pick) record each call's arguments."""
    calls = []
    pick = getattr(module, name)

    def recording(*args):
        calls.append(tuple(list(a) if isinstance(a, list) else a for a in args))
        return pick(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


#: case: (observations, config overrides, (n_samples, burn_in, thin))
_CASES = {
    "defaults": (60, {}, (12, 8, 1)),
    "aux-1": (60, {"aux_m": 1}, (12, 8, 1)),
    "aux-5": (60, {"aux_m": 5}, (12, 8, 1)),
    "one-observation": (1, {}, (12, 5, 1)),
    "no-burn-in-thinned": (40, {}, (12, 0, 3)),
}


class TestKernelMatchesReference:
    """The cached linear-weight kernels follow the plain log-space loops:
    ccv its scalar-draw loop, dcv the loop with its block draws.  The
    weights agree to rounding and the chains bit for bit."""

    RUNS = [
        (model, case)
        for model in sorted(_POSTERIORS)
        for case in sorted(_CASES)
        if model == "dcv" or "aux_m" not in _CASES[case][1]
    ]

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    @pytest.mark.parametrize("model, case", RUNS)
    def test_chain_identical(self, model, case, seed, monkeypatch):
        n, kwargs, (n_samples, burn_in, thin) = _CASES[case]
        data = bimodal_dataset(n_per=n // 2) if n > 1 else Dataset.from_observations([0.3])
        posterior, config_cls = _POSTERIORS[model]
        config = config_cls(**kwargs)
        ctl = McmcControl(n_samples=n_samples, burn_in=burn_in, thin=thin, seed=seed)
        # Every step's weights are compared, so a wrong or misplaced term
        # fails here even when it changes no pick.
        fast_steps = _recording(monkeypatch, griffin, "_pick_linear")
        fallbacks = _recording(monkeypatch, griffin, "_pick")
        fast = posterior(data, config, ctl)
        ref_steps = _recording(monkeypatch, _griffin_reference, "_pick")
        ref, chain = reference_posterior(model, data, config, ctl)
        assert fallbacks == []
        assert len(fast_steps) == len(ref_steps)
        for (weights, u, total), (logw, ref_u) in zip(fast_steps, ref_steps):
            assert u == ref_u
            assert total == math.fsum(weights)
            npt.assert_allclose(weights, np.exp(logw), rtol=1e-12, atol=0.0)
        assert np.array_equal(fast.densities, ref.densities)
        assert fast.trace.keys() == ref.trace.keys()
        for name in ref.trace:
            assert np.array_equal(fast.trace[name], ref.trace[name]), name
        assert fast.diagnostics == ref.diagnostics
        if case == "defaults":
            # The swap-with-last deletion and its relabelling ran, and so did
            # a singleton keeping its own parameters through the first slot.
            assert chain.relabels > 0
            assert model == "ccv" or chain.kept_singletons > 0


def chain_states(chain_cls, data, config, seeds, n_sweeps: int) -> dict:
    """Each trace statistic of the chain state after ``n_sweeps``, one per seed."""
    rows = []
    for seed in seeds:
        chain = chain_cls(data.rescaled, config, make_rng(seed))
        for _ in range(n_sweeps):
            chain.sweep()
        rows.append(chain.trace_row())
    return {name: [row[k] for row in rows] for k, name in enumerate(chain_cls.TRACE_NAMES)}


class TestSameLawAsScalarDraws:
    """Both kernels weigh in linear space, and the dcv kernel draws a
    sweep's auxiliary slots and uniforms as blocks; their chain states must
    follow the law of the log-space scalar-draw loops'."""

    STATS = ("n_clusters", "alpha", "a", "sigma2")

    def _check(self, kernel, reference, config):
        # Both chains start from the same law (the shared constructor) and
        # run 10 sweeps; disjoint seeds keep the two samples independent.
        n_chains, n_sweeps = 200, 10
        data = bimodal_dataset(n_per=15)
        fast = chain_states(kernel, data, config, range(n_chains), n_sweeps)
        ref = chain_states(reference, data, config, range(n_chains, 2 * n_chains), n_sweeps)
        assert_same_law({k: fast[k] for k in self.STATS}, {k: ref[k] for k in self.STATS})

    def test_two_sample_ks(self):
        self._check(_DcvChain, DcvReference, DcvConfig())

    def test_ccv_two_sample_ks(self):
        self._check(_CcvChain, CcvReference, CcvConfig())


class _StubRng:
    """A generator whose ``random`` returns ``u``; optionally every slot
    draw is a standard normal of 0 and a gamma of 1.  Other draws come from
    ``rng``."""

    def __init__(self, rng, u: float, fixed_slots: bool = False):
        self.rng, self.u, self.fixed_slots = rng, u, fixed_slots

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)

    def standard_normal(self, size=None):
        if self.fixed_slots:
            return np.zeros(size)
        return self.rng.standard_normal(size)

    def gamma(self, shape, scale=1.0, size=None):
        if self.fixed_slots:
            return np.ones(size)
        return self.rng.gamma(shape, scale, size)


class TestAlphaUpdate:
    @pytest.mark.parametrize(
        "chain_cls, config", [(_CcvChain, CcvConfig()), (_DcvChain, DcvConfig())]
    )
    def test_zero_uniform_accepts_the_proposal(self, chain_cls, config):
        # log(0.0) raised "math domain error"; u = 0 is below any ratio.
        chain = chain_cls(bimodal_dataset(n_per=10).rescaled, config, make_rng(3))
        alpha = chain.alpha
        chain.rng = _StubRng(make_rng(4), 0.0)
        chain._update_alpha()
        assert (chain.accepted, chain.proposed) == (1, 1)
        step = griffin.ALPHA_WALK_STEP * float(make_rng(4).standard_normal())
        assert chain.alpha == alpha * math.exp(step)


def _tight_state(chain_cls, xs, labels, mus, config):
    """A chain over ``xs`` in a hand-set state: sigma^2 = 1e-6, a = 0.5,
    mu0 = 0 and alpha = 1, every cluster and slot of variance about 1e-6."""
    chain = chain_cls(np.array(xs), config, make_rng(0))
    chain.tau, chain.a, chain.mu0, chain.alpha = 1e6, 0.5, 0.0, 1.0
    chain.labels = list(labels)
    chain.counts, chain.sums, chain.sqs = _cluster_stats(chain.xs, chain.labels)
    chain.mus = list(mus)
    if issubclass(chain_cls, _DcvChain):
        chain.zetas = [1.0] * len(mus)
    return chain


class TestUnderflowFallback:
    """A step whose linear weights all underflow picks in log space with
    the same uniform, as the log-space reference loop does.

    Observation 0 sits at 1.0 between two clusters whose means (ccv: the
    predictive means) are 0.95 and 1.05, with variances near 1e-6: each
    weight is about exp(-1250), below the smallest double.  The new cluster
    and the auxiliary slots sit at mu0 = 0, farther still.  The two
    clusters' log weights are equal, so the uniform decides the pick.  The
    rest of the pass follows the reference too; for ccv its steps also
    underflow, for dcv the clusters' means stay on the data and they do not.
    """

    UNIFORMS = (0.05, 0.3, 0.7, 0.95)

    # ccv: a singleton at s has predictive mean a mu0 + (1 - a) s = s / 2.
    CASES = {
        "ccv": (_CcvChain, CcvReference, CcvConfig(), [1.0, 1.9, 2.1], [0.0] * 3),
        "dcv": (_DcvChain, DcvBlockReference, DcvConfig(), [1.0, 0.95, 1.05], [3.0, 0.95, 1.05]),
    }

    @pytest.mark.parametrize("model", sorted(CASES))
    def test_picks_in_log_space_with_the_step_uniform(self, model):
        chain_cls, ref_cls, config, xs, mus = self.CASES[model]
        firsts = set()
        for u in self.UNIFORMS:
            chain = _tight_state(chain_cls, xs, [0, 1, 2], mus, config)
            ref = _tight_state(ref_cls, xs, [0, 1, 2], mus, config)
            chain.rng = _StubRng(make_rng(1), u, fixed_slots=True)
            ref.rng = _StubRng(make_rng(1), u, fixed_slots=True)
            with pytest.MonkeyPatch.context() as mp:
                linear = _recording(mp, griffin, "_pick_linear")
                fallbacks = _recording(mp, griffin, "_pick")
                ref_steps = _recording(mp, _griffin_reference, "_pick")
                chain._assign()
                ref._assign()

            # The first step (for ccv, every step) fell back, with finite log
            # weights equal to the reference's and the step's uniform.
            assert len(linear) + len(fallbacks) == len(ref_steps) == len(xs)
            assert len(fallbacks) == (3 if model == "ccv" else 1)
            for logw, step_u in fallbacks:
                assert step_u == u
                assert np.all(np.isfinite(logw))
                assert math.fsum(map(math.exp, logw)) < _WEIGHT_FLOOR
            npt.assert_allclose(fallbacks[0][0], ref_steps[0][0], rtol=1e-12, atol=0.0)
            for weights, _, _ in linear:
                assert not np.any(np.isnan(weights))
            assert chain.labels == ref.labels
            assert chain.counts == ref.counts
            assert chain.mus == ref.mus
            first_logw = fallbacks[0][0]
            assert first_logw[0] == pytest.approx(first_logw[1], rel=1e-9)
            firsts.add(_pick(first_logw, u))
        assert firsts == {0, 1}


def _configs(cls, **extra):
    """Settings of ``cls`` over 1e-8 to 1e8 (mu00 over [-3, 4]), the
    rejected ones filtered out."""

    def build(fields):
        try:
            return cls(**fields)
        except InvalidSettingError:
            return None

    decades = st.integers(-8, 8).map(lambda e: 10.0**e)
    names = ("a0", "a1", "eta", "gamma", "lambda0", "s0", "s1")
    fields = {name: decades for name in names}
    return (
        st.fixed_dictionaries({**fields, "mu00": st.floats(-3.0, 4.0), **extra})
        .map(build)
        .filter(lambda config: config is not None)
    )


LINEAR_CONFIGS = st.one_of(
    _configs(CcvConfig),
    _configs(
        DcvConfig,
        phi=st.sampled_from([1.0 + 1e-6, 1.001, 1.5, 3.0, 50.0]),
        aux_m=st.integers(1, 4),
    ),
)


class TestLinearWeightsProperty:
    """Over accepted settings and a few sweeps, every step weighs with
    finite, nonnegative linear weights whose total reaches the floor, or
    takes the log-space fallback.  Tight settings (large s0 / s1, small
    ``a``, phi near 1) make about half the dcv examples and one ccv example
    in ten take the fallback at least once."""

    @settings(max_examples=100, deadline=None)
    @given(config=LINEAR_CONFIGS, seed=st.integers(0, 2**32 - 1))
    def test_weights_finite_or_fallback(self, config, seed):
        chain_cls = _DcvChain if isinstance(config, DcvConfig) else _CcvChain
        chain = chain_cls(bimodal_dataset(n_per=8).rescaled, config, make_rng(seed))
        n_sweeps = 3
        with pytest.MonkeyPatch.context() as mp:
            linear = _recording(mp, griffin, "_pick_linear")
            fallbacks = _recording(mp, griffin, "_pick")
            for _ in range(n_sweeps):
                chain.sweep()
        assert len(linear) + len(fallbacks) == n_sweeps * chain.n
        for weights, _, total in linear:
            assert all(math.isfinite(w) and w >= 0.0 for w in weights)
            assert total >= _WEIGHT_FLOOR
        for logw, _ in fallbacks:
            assert all(math.isfinite(lw) for lw in logw)


class TestLaguerreRule:
    PHIS = [1.0 + 1e-4, 1.5, 2.0, 3.0, 6.0, 50.0, 170.0]

    @pytest.mark.parametrize("phi", PHIS)
    def test_matches_scipy(self, phi):
        from scipy.special import roots_genlaguerre

        nodes, weights = _laguerre_rule(24, phi - 1.0)
        ref_nodes, ref_weights = roots_genlaguerre(24, phi - 1.0)
        npt.assert_allclose(nodes, ref_nodes, rtol=1e-13, atol=0.0)
        npt.assert_allclose(weights, ref_weights / ref_weights.sum(), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("phi", PHIS)
    def test_integrates_gamma_moments(self, phi):
        # The weights integrate against Gamma(phi, 1), whose k-th moment is
        # Gamma(alpha + k + 1) / Gamma(alpha + 1) = (alpha + 1) ... (alpha + k).
        alpha = phi - 1.0
        nodes, weights = _laguerre_rule(24, alpha)
        for k in range(11):
            moment = math.prod(alpha + i for i in range(1, k + 1))
            assert float(np.sum(weights * nodes**k)) == pytest.approx(moment, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("phi", PHIS)
    def test_new_cluster_row_matches_per_node_sum(self, phi):
        # One (24, n_points) evaluation contracted with the weights gives the
        # per-node sum up to summation order.
        grid = default_grid()
        chain = _DcvChain(bimodal_dataset().rescaled, DcvConfig(phi=phi), make_rng(11))
        for _ in range(3):
            chain.sweep()
            sigma2 = chain.sigma2
            prior_var = (1.0 - chain.a) * sigma2
            coef = chain.a * (phi - 1.0) * sigma2
            expected = np.zeros(grid.n_points)
            for g, w in zip(chain._quad_nodes, chain._quad_weights):
                expected += w * _gauss_row(grid.x, chain.mu0, prior_var + coef / g)
            row = chain._new_cluster_row(grid)
            assert np.max(np.abs(row - expected)) <= 1e-14 * expected.max()
