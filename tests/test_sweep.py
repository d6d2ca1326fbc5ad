"""Sweep harness tests: SweepSpec validation, determinism, bands, presets."""

import concurrent.futures

import numpy as np
import numpy.testing as npt
import pytest

import frsense.sweep
from frsense.errors import (
    ConfigError,
    DegenerateSampleError,
    FrsenseError,
    UnknownModelError,
    UnknownParameterError,
)
from frsense.samplers import (
    BetaBase,
    CcvConfig,
    Dataset,
    DcvConfig,
    DpConfig,
    DpgmmConfig,
    McmcControl,
)
from frsense.sweep import (
    GRID_POINTS,
    SweepSpec,
    get_config_value,
    run_sweep,
    set_config_value,
    sweep_grid_presets,
)


def uniform_dataset(n=40, seed=3):
    rng = np.random.default_rng(seed)
    return Dataset.from_observations(rng.uniform(size=n))


def small_dp_spec(**overrides):
    kw = dict(
        model="dp",
        baseline=DpConfig(alpha=5.0),
        parameter="alpha",
        values=(0.5, 5.0, 12.0),
        replicates=2,
        band_values=(),
        mcmc=McmcControl(n_samples=24, burn_in=0, thin=1, seed=11),
        d_components=4,
    )
    kw.update(overrides)
    return SweepSpec(**kw)


def small_dcv_spec():
    return SweepSpec(
        model="dcv",
        baseline=DcvConfig(phi=3.0),
        parameter="phi",
        values=(2.0, 3.0),
        replicates=2,
        band_values=(3.0,),
        mcmc=McmcControl(n_samples=12, burn_in=4, thin=1, seed=7),
        d_components=3,
    )


def sweep_and_summaries(monkeypatch, data, spec, n_workers):
    """run_sweep plus every (baseline, perturbed) summary pair it compared.

    The pairs are recorded in this process, where run_sweep assembles the
    triples, whatever process summarized them.
    """
    pairs = []
    compare = frsense.sweep.triple_from_summaries

    def recording(base, other):
        pairs.append((base, other))
        return compare(base, other)

    monkeypatch.setattr(frsense.sweep, "triple_from_summaries", recording)
    result = run_sweep(data, spec, n_workers=n_workers)
    monkeypatch.setattr(frsense.sweep, "triple_from_summaries", compare)
    return result, pairs


def summary_key(summary):
    return (
        summary.mean.values.tobytes(),
        summary.variance,
        summary.spectrum.omega.tobytes(),
        summary.n_draws,
        summary.karcher,
    )


def assert_worker_count_changes_nothing(monkeypatch, data, spec):
    seq, seq_pairs = sweep_and_summaries(monkeypatch, data, spec, 1)
    par, par_pairs = sweep_and_summaries(monkeypatch, data, spec, 2)
    assert [t.astuple() for t in seq.triples] == [t.astuple() for t in par.triples]
    assert [[t.astuple() for t in row] for row in seq.replicate_triples] == [
        [t.astuple() for t in row] for row in par.replicate_triples
    ]
    assert seq.bands == par.bands
    assert len(seq_pairs) == len(par_pairs) == spec.replicates * len(spec.values)
    for (base_s, other_s), (base_p, other_p) in zip(seq_pairs, par_pairs):
        assert summary_key(base_s) == summary_key(base_p)
        assert summary_key(other_s) == summary_key(other_p)
    assert (
        seq.baseline_sample.densities.tobytes()
        == par.baseline_sample.densities.tobytes()
    )
    # arrays stay read-only on their way back from a worker process
    assert not par.baseline_sample.densities.flags.writeable
    assert not par_pairs[0][0].mean.values.flags.writeable


class TestParameterAccess:
    def test_read_plain_and_nested(self):
        cfg = DpConfig(alpha=2.5, g0=BetaBase(5.0, 3.0))
        assert get_config_value(cfg, "alpha") == 2.5
        assert get_config_value(cfg, "g0.b") == 3.0
        assert get_config_value(DcvConfig(phi=4.0), "phi") == 4.0

    def test_unknown_fields_rejected(self):
        with pytest.raises(UnknownParameterError):
            get_config_value(DpConfig(), "alpah")
        # uniform base has no shape parameters
        with pytest.raises(UnknownParameterError):
            get_config_value(DpConfig(), "g0.a")
        with pytest.raises(UnknownParameterError):
            get_config_value(DpConfig(), "g0")

    def test_unset_optional_field_rejected(self):
        with pytest.raises(UnknownParameterError):
            get_config_value(DpConfig(), "bandwidth")

    def test_set_leaves_original_untouched(self):
        cfg = DpConfig(alpha=2.0, g0=BetaBase(5.0, 5.0))
        out = set_config_value(cfg, "alpha", 7.5)
        assert out.alpha == 7.5
        assert cfg.alpha == 2.0
        nested = set_config_value(cfg, "g0.b", 9.0)
        assert nested.g0 == BetaBase(5.0, 9.0)
        assert nested.alpha == 2.0
        assert cfg.g0.b == 5.0

    def test_integer_fields_stay_integer(self):
        out = set_config_value(DpConfig(), "truncation", 400.0)
        assert out.truncation == 400
        assert isinstance(out.truncation, int)
        with pytest.raises(ConfigError):
            set_config_value(DpConfig(), "truncation", 250.5)


class TestSpecValidation:
    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            small_dp_spec(model="mixture")

    def test_config_class_must_match_model(self):
        with pytest.raises(ConfigError):
            small_dp_spec(baseline=DpgmmConfig())

    def test_baseline_must_sit_on_grid(self):
        with pytest.raises(ConfigError):
            small_dp_spec(values=(0.5, 12.0))

    def test_duplicate_values_rejected(self):
        with pytest.raises(ConfigError):
            small_dp_spec(values=(0.5, 5.0, 5.0))

    def test_band_values_must_be_grid_members(self):
        with pytest.raises(ConfigError):
            small_dp_spec(band_values=(0.7,))

    def test_bands_need_two_replicates(self):
        with pytest.raises(ConfigError):
            small_dp_spec(replicates=1, band_values=(5.0,))

    def test_components_must_fit_in_sample(self):
        with pytest.raises(ConfigError):
            small_dp_spec(d_components=24)

    def test_out_of_domain_value_rejected_before_sampling(self):
        with pytest.raises(ConfigError) as exc:
            small_dp_spec(values=(-1.0, 5.0))
        assert exc.value.code == "CONFIG_BAD_VALUE"
        assert "alpha=-1.0" in str(exc.value)

    @pytest.mark.parametrize("parameter, base", [("m", 0.0), ("nu", 5.0), ("s", 1.0)])
    def test_overflowing_value_rejected_before_sampling(self, parameter, base):
        with pytest.raises(ConfigError) as exc:
            SweepSpec(
                model="dpgmm",
                baseline=DpgmmConfig(),
                parameter=parameter,
                values=(base, 1e308),
                replicates=1,
                mcmc=McmcControl(n_samples=12, burn_in=0, thin=1, seed=1),
                d_components=4,
            )
        assert exc.value.code == "CONFIG_BAD_VALUE"
        assert f"{parameter}=1e+308" in str(exc.value)

    def test_baseline_lookup_and_config_for(self):
        spec = small_dp_spec()
        assert spec.baseline_value == 5.0
        assert spec.baseline_index == 1
        assert spec.config_for(5.0) is spec.baseline
        moved = spec.config_for(0.5)
        assert moved.alpha == 0.5
        assert moved.truncation == spec.baseline.truncation


class TestRunSweep:
    def test_shared_seed_gives_exact_zero_triple(self, monkeypatch):
        # force the baseline run and every grid run of a replicate onto the
        # same seed; at the baseline value the two samples are then
        # identical and all three measures must vanish exactly
        monkeypatch.setattr(
            frsense.sweep,
            "derived_seed",
            lambda base, replicate, value_index=None: (base + 977 * replicate) % 2**63,
        )
        spec = small_dp_spec(replicates=1)
        res = run_sweep(uniform_dataset(), spec)
        assert res.triples[spec.baseline_index].astuple() == (0.0, 0.0, 0.0)

    def test_identical_reruns(self):
        data = uniform_dataset()
        spec = small_dp_spec(band_values=(0.5, 5.0))
        a = run_sweep(data, spec)
        b = run_sweep(data, spec)
        for ta, tb in zip(a.triples, b.triples):
            assert ta.astuple() == tb.astuple()
        assert a.bands[5.0] == b.bands[5.0]
        assert a.base_seed == 11

    def test_worker_count_does_not_change_results(self, monkeypatch):
        spec = small_dp_spec(band_values=(0.5, 5.0))
        assert_worker_count_changes_nothing(monkeypatch, uniform_dataset(), spec)

    def test_worker_count_does_not_change_dcv_results(self, monkeypatch):
        data = Dataset.from_observations(
            np.random.default_rng(5).normal([-2.0, 2.0], 0.5, (15, 2)).ravel()
        )
        assert_worker_count_changes_nothing(monkeypatch, data, small_dcv_spec())

    def test_pool_never_outnumbers_tasks(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_sweep imports the executor class only when it needs a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        spec = small_dp_spec(replicates=1)
        run_sweep(uniform_dataset(), spec, n_workers=10_000)
        assert sizes == [1 + len(spec.values)] == [4]

    @pytest.mark.parametrize(
        "make_error",
        [
            lambda: ConfigError("CONFIG_BAD_VALUE", "no such chain"),
            lambda: DegenerateSampleError("all draws are equal"),
        ],
        ids=["config", "degenerate"],
    )
    def test_task_error_is_the_same_at_any_worker_count(self, monkeypatch, make_error):
        dp_sampler = frsense.sweep._MODELS["dp"][1]

        def failing(data, config, ctl, grid=None):
            if config.alpha == 12.0:
                raise make_error()
            return dp_sampler(data, config, ctl, grid=grid)

        monkeypatch.setitem(frsense.sweep._MODELS, "dp", (DpConfig, failing))
        outcomes = []
        for n_workers in (1, 2):
            with pytest.raises(FrsenseError) as info:
                run_sweep(uniform_dataset(), small_dp_spec(), n_workers=n_workers)
            exc = info.value
            outcomes.append((type(exc), getattr(exc, "code", None), str(exc)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is type(make_error())
        assert outcomes[0][2].endswith("[sweep task failed at alpha=12, replicate 1]")

    def test_added_replicates_keep_old_ones(self):
        data = uniform_dataset()
        short = run_sweep(data, small_dp_spec(replicates=2))
        long = run_sweep(data, small_dp_spec(replicates=3))
        assert len(long.replicate_triples) == 3
        for row_s, row_l in zip(short.replicate_triples, long.replicate_triples):
            for ta, tb in zip(row_s, row_l):
                assert ta.astuple() == tb.astuple()

    def test_mean_aggregate_is_fieldwise_mean(self):
        data = uniform_dataset()
        spec = small_dp_spec(replicates=3)
        first = run_sweep(data, spec)
        mean = run_sweep(data, spec, aggregate="mean")
        for ta, tb in zip(first.triples, first.replicate_triples[0]):
            assert ta.astuple() == tb.astuple()
        for idx, t in enumerate(mean.triples):
            col = [row[idx] for row in mean.replicate_triples]
            npt.assert_allclose(
                t.astuple(),
                np.mean([c.astuple() for c in col], axis=0),
                rtol=0,
                atol=1e-15,
            )
        with pytest.raises(ValueError):
            run_sweep(data, spec, aggregate="median")

    def test_band_structure_at_baseline(self):
        data = uniform_dataset()
        spec = small_dp_spec(replicates=3, band_values=(0.5, 5.0))
        res = run_sweep(data, spec)
        assert set(res.bands) == {0.5, 5.0}
        for band in res.bands.values():
            for lo, hi in (band.d_shift, band.v_spread, band.e_covshape):
                assert lo <= hi
        base_band = res.band_at(5.0)
        # fresh seeds at the baseline value: shift stays near the noise
        # floor and the spread band brackets zero
        assert 0.0 <= base_band.d_shift[0] and base_band.d_shift[1] < 0.5
        assert base_band.v_spread[0] < 0.0 < base_band.v_spread[1]

    def test_sampler_error_carries_grid_position(self, monkeypatch):
        dp_sampler = frsense.sweep._MODELS["dp"][1]

        def fragile(data, config, ctl, grid=None):
            if config.truncation == 60:
                raise ValueError("chain blew up")
            return dp_sampler(data, config, ctl, grid=grid)

        monkeypatch.setitem(frsense.sweep._MODELS, "dp", (DpConfig, fragile))
        spec = SweepSpec(
            model="dp",
            baseline=DpConfig(),
            parameter="truncation",
            values=(200.0, 60.0),
            replicates=1,
            mcmc=McmcControl(n_samples=12, burn_in=0, thin=1, seed=1),
            d_components=3,
        )
        with pytest.raises(ValueError, match=r"truncation=60.*replicate 1"):
            run_sweep(uniform_dataset(), spec)

    def test_light_dp_trend(self):
        res = run_sweep(uniform_dataset(), small_dp_spec(replicates=1))
        d_curve = [t.d_shift for t in res.triples]
        v_curve = [t.v_spread for t in res.triples]
        assert max(d_curve) < 0.1
        assert v_curve[0] > v_curve[-1]


class TestPresets:
    def test_structure_per_model(self):
        for tag, n_specs in (("dp", 1), ("dpgmm", 5), ("ccv", 4), ("dcv", 5)):
            specs = sweep_grid_presets(tag)
            assert len(specs) == n_specs
            for spec in specs:
                assert spec.model == tag
                assert len(spec.values) == GRID_POINTS
                assert spec.baseline_value in spec.values
                assert spec.replicates == 25
                assert np.all(np.diff(spec.values) > 0)
                assert spec.values[0] in spec.band_values
                assert spec.values[-1] in spec.band_values
                assert spec.baseline_value in spec.band_values

    def test_dpgmm_alpha_ladder(self):
        spec = next(
            s for s in sweep_grid_presets("dpgmm") if s.parameter == "alpha"
        )
        assert spec.values[0] == 0.1
        assert spec.values[-1] == 15.0
        assert 1.0 in spec.values

    def test_dcv_phi_ladder(self):
        spec = next(s for s in sweep_grid_presets("dcv") if s.parameter == "phi")
        assert spec.values[0] == 1.5
        assert spec.values[-1] == 20.0
        assert 2.0 in spec.values

    def test_spacing_flavors(self):
        gamma = next(
            s for s in sweep_grid_presets("ccv") if s.parameter == "gamma"
        )
        ratios = np.diff(np.log(gamma.values))
        assert ratios.min() > 0.05 and ratios.max() < 0.5
        m_spec = next(
            s for s in sweep_grid_presets("dpgmm") if s.parameter == "m"
        )
        npt.assert_allclose(np.diff(m_spec.values), 16.0 / 14.0, atol=1e-12)

    def test_unknown_tag(self):
        with pytest.raises(UnknownModelError):
            sweep_grid_presets("cpv")
