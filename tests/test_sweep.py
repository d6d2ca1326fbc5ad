"""Sweep harness tests: SweepSpec validation, determinism, bands."""

import concurrent.futures
import math

import numpy as np
import numpy.testing as npt
import pytest
from numpy._core._exceptions import _ArrayMemoryError

import frsense.sweep
from frsense.errors import (
    ConfigError,
    DegenerateSampleError,
    FrsenseError,
    UnknownModelError,
    UnknownParameterError,
)
from frsense.grid import Grid
from frsense.samplers import (
    BetaBase,
    CcvConfig,
    Dataset,
    DcvConfig,
    DpConfig,
    DpgmmConfig,
    McmcControl,
    derived_seed,
    dp_posterior,
)
from frsense.sweep import (
    SweepSpec,
    get_config_value,
    model_config,
    model_sampler,
    run_sweep,
    set_config_value,
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
        with pytest.raises(UnknownModelError) as exc:
            small_dp_spec(model="gp")
        assert exc.value.code == "CONFIG_BAD_MODEL"

    def test_model_registry_lookups(self):
        assert model_config("dcv") is DcvConfig
        assert model_sampler("dp") is frsense.samplers.dp.dp_posterior
        for lookup in (model_config, model_sampler):
            with pytest.raises(UnknownModelError):
                lookup("gp")

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

    @pytest.mark.parametrize(
        "overrides, code, message",
        [
            (dict(values=()), "CONFIG_BAD_GRID", "values grid is empty"),
            (dict(values=(5.0, math.nan)), "CONFIG_BAD_GRID", "non-finite"),
            (dict(values=(5.0, math.inf)), "CONFIG_BAD_GRID", "non-finite"),
            (dict(replicates=0), "CONFIG_BAD_REPLICATES", "replicates must be >= 1"),
            (dict(band_values=(5.0, 5.0)), "CONFIG_BAD_GRID", "band_values contains duplicates"),
            (dict(mcmc="fast"), "CONFIG_BAD_MCMC", "mcmc must be an McmcControl"),
            (dict(d_components=1), "CONFIG_BAD_COMPONENTS", "integer >= 2"),
            (dict(d_components=2.5), "CONFIG_BAD_COMPONENTS", "integer >= 2"),
        ],
        ids=[
            "empty", "nan", "inf", "replicates", "band-duplicates", "mcmc",
            "components-1", "components-float",
        ],
    )
    def test_refusals_name_their_code(self, overrides, code, message):
        with pytest.raises(ConfigError, match=message) as exc:
            small_dp_spec(**overrides)
        assert exc.value.code == code

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
        assert spec.values.index(spec.baseline_value) == 1
        assert spec.config_for(5.0) is spec.baseline
        moved = spec.config_for(0.5)
        assert moved.alpha == 0.5
        assert moved.truncation == spec.baseline.truncation


#: Specs of run_sweep that the plan check refuses, with the grid, the number
#: of observations, the code and a fragment of the message.
PLAN_REFUSALS = {
    # One 16-draw sample matrix on 1e11 points would take 12.8 TB.
    "sample-matrix": (
        dict(mcmc=McmcControl(n_samples=16, burn_in=0, thin=1)), Grid(10**11), 40,
        "CONFIG_BAD_GEOMETRY", "n_points = 100000000000 with n_samples = 16",
    ),
    # A summary has min(draws, grid points) eigenvalues.
    "components": (
        dict(mcmc=McmcControl(n_samples=30, burn_in=0, thin=1), d_components=20), Grid(16), 40,
        "CONFIG_BAD_COMPONENTS", "d_components=20 exceeds the 16 grid points",
    ),
    "bandwidth": (
        dict(baseline=DpConfig(alpha=5.0, bandwidth=Grid(64).spacing / 8)), Grid(64), 40,
        "CONFIG_BAD_VALUE", "below the grid spacing 0.0159 of the 64-point grid",
    ),
    "bandwidth-default-grid": (
        dict(baseline=DpConfig(alpha=5.0, bandwidth=0.99 / 511)), None, 40,
        "CONFIG_BAD_VALUE", "of the 512-point grid",
    ),
    "bandwidth-swept": (
        dict(baseline=DpConfig(bandwidth=0.05), parameter="bandwidth", values=(0.001, 0.05)),
        Grid(64), 40, "CONFIG_BAD_VALUE", "bandwidth = 0.001 is below",
    ),
    # Q's atoms of 24 draws would take 19 TB.
    "truncation": (
        dict(baseline=DpConfig(alpha=5.0, truncation=10**11)), Grid(64), 40,
        "CONFIG_BAD_VALUE", "truncation = 100000000000 with n_samples = 24",
    ),
    "truncation-swept": (
        dict(baseline=DpConfig(truncation=60), parameter="truncation", values=(60, 1e11)),
        Grid(64), 40, "CONFIG_BAD_VALUE", "truncation = 100000000000",
    ),
    # 200,000 draws of 1,000 data weights would take 1.6 GB,
    "dp-weights": (
        dict(mcmc=McmcControl(n_samples=200_000, burn_in=0, thin=1)), Grid(64), 1000,
        "CONFIG_BAD_MCMC", "n_samples = 200000 with 1000 observations",
    ),
    # and so would the kernel table of 1,000 observations on 200,000 points.
    "dp-kernel": (
        {}, Grid(200_000), 1000, "CONFIG_BAD_GEOMETRY", "n_points = 200000 with 1000 observations",
    ),
    # 10,000 slots per observation would take 1.36 GB a sweep.
    "dcv-slots": (
        dict(model="dcv", baseline=DcvConfig(aux_m=10_000), parameter="phi", values=(2.0,)),
        Grid(64), 1000, "CONFIG_BAD_VALUE", "aux_m = 10000 with 1000 observations",
    ),
    "dcv-slots-swept": (
        dict(model="dcv", baseline=DcvConfig(), parameter="aux_m", values=(3, 10_000)),
        Grid(64), 1000, "CONFIG_BAD_VALUE", "aux_m = 10000 with 1000 observations",
    ),
}


class TestPlanCheck:
    def test_more_components_than_grid_points(self):
        # A summary has at most n_points eigenvalues.
        mcmc = McmcControl(n_samples=30, burn_in=0, thin=1)
        small_dp_spec(mcmc=mcmc, d_components=16).check(Grid(16), 40)
        with pytest.raises(ConfigError) as exc:
            small_dp_spec(mcmc=mcmc, d_components=20).check(Grid(16), 40)
        assert exc.value.code == "CONFIG_BAD_COMPONENTS"
        assert "d_components=20" in str(exc.value)

    @pytest.mark.parametrize("case", sorted(PLAN_REFUSALS))
    def test_run_sweep_refuses_before_any_sampler_runs(self, monkeypatch, case):
        overrides, grid, n, code, message = PLAN_REFUSALS[case]

        def no_sampler(*args, **kwargs):
            raise AssertionError("a sampler ran")

        for name in ("dp_posterior", "dcv_posterior"):
            monkeypatch.setattr(frsense.samplers, name, no_sampler)
        spec = small_dp_spec(**overrides)
        with pytest.raises(ConfigError, match=message) as exc:
            spec.check(grid or frsense.grid.default_grid(), n)
        assert exc.value.code == code
        with pytest.raises(ConfigError, match=message) as exc:
            run_sweep(uniform_dataset(n), spec, grid=grid)
        assert exc.value.code == code

    def test_bandwidth_at_the_grid_spacing_runs(self):
        spec = small_dp_spec(
            baseline=DpConfig(alpha=5.0, bandwidth=Grid(64).spacing), replicates=1
        )
        assert len(run_sweep(uniform_dataset(), spec, grid=Grid(64)).triples) == 3


class TestRunSweep:
    def test_worker_count_must_be_positive(self):
        with pytest.raises(ValueError, match="n_workers must be >= 1, got 0"):
            run_sweep(uniform_dataset(), small_dp_spec(), n_workers=0)

    def test_measure_failure_carries_grid_position(self, monkeypatch):
        calls = []

        def failing(base, other):
            calls.append(None)
            # The fifth comparison is replicate 2's at alpha = 5.
            if len(calls) == 5:
                raise DegenerateSampleError("all draws are equal")
            return frsense.measures.triple_from_summaries(base, other)

        monkeypatch.setattr(frsense.sweep, "triple_from_summaries", failing)
        with pytest.raises(DegenerateSampleError) as exc:
            run_sweep(uniform_dataset(), small_dp_spec())
        assert exc.value.args == (
            "all draws are equal [measures failed at alpha=5, replicate 2]",
        )

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
        at_base = spec.values.index(spec.baseline_value)
        assert res.triples[at_base].astuple() == (0.0, 0.0, 0.0)

    def test_identical_reruns(self):
        data = uniform_dataset()
        spec = small_dp_spec(band_values=(0.5, 5.0))
        a = run_sweep(data, spec)
        b = run_sweep(data, spec)
        for ta, tb in zip(a.triples, b.triples):
            assert ta.astuple() == tb.astuple()
        assert a.bands[5.0] == b.bands[5.0]
        assert a.replicate_triples == b.replicate_triples

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
        dp_sampler = model_sampler("dp")

        def failing(data, config, ctl, grid=None):
            if config.alpha == 12.0:
                raise make_error()
            return dp_sampler(data, config, ctl, grid=grid)

        monkeypatch.setattr(frsense.samplers, "dp_posterior", failing)
        outcomes = []
        for n_workers in (1, 2):
            with pytest.raises(FrsenseError) as info:
                run_sweep(uniform_dataset(), small_dp_spec(), n_workers=n_workers)
            exc = info.value
            outcomes.append((type(exc), getattr(exc, "code", None), str(exc)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is type(make_error())
        assert outcomes[0][2].endswith("[sweep task failed at alpha=12, replicate 1]")

    def test_error_whose_arguments_are_not_a_message_is_the_same_at_any_worker_count(
        self, monkeypatch
    ):
        # numpy raises this, unallocated, when an array does not fit in
        # memory; its constructor takes exactly (shape, dtype).
        def failing(data, config, ctl, grid=None):
            raise _ArrayMemoryError((40, 10**11), np.dtype(float))

        monkeypatch.setattr(frsense.samplers, "dp_posterior", failing)
        outcomes = []
        for n_workers in (1, 2):
            with pytest.raises(MemoryError) as info:
                run_sweep(uniform_dataset(), small_dp_spec(), n_workers=n_workers)
            exc = info.value
            outcomes.append((type(exc), exc.args, str(exc), exc.__notes__))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (_ArrayMemoryError, ((40, 10**11), np.dtype(float)))
        assert outcomes[0][3] == ["sweep task failed at the baseline, replicate 1"]

    def test_added_replicates_keep_old_ones(self):
        data = uniform_dataset()
        short = run_sweep(data, small_dp_spec(replicates=2))
        long = run_sweep(data, small_dp_spec(replicates=3))
        assert len(long.replicate_triples) == 3
        for row_s, row_l in zip(short.replicate_triples, long.replicate_triples):
            for ta, tb in zip(row_s, row_l):
                assert ta.astuple() == tb.astuple()

    def test_appended_values_keep_old_rows(self):
        # Seeds are keyed by value index, so appending a value moves no
        # earlier row (inserting one would reseed the values after it).
        data = uniform_dataset()
        short = run_sweep(data, small_dp_spec(replicates=2))
        long = run_sweep(data, small_dp_spec(replicates=2, values=(0.5, 5.0, 12.0, 20.0)))
        for row_s, row_l in zip(short.replicate_triples, long.replicate_triples, strict=True):
            assert len(row_l) == len(row_s) + 1
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
        # Baseline V is exchangeable across replicates, so all r values share
        # one sign with chance 2^(1 - r), and the band, whose ends interpolate
        # between the two outermost values, also misses zero when only one
        # value has the other sign.  Over base seeds 1-1000 this test's band
        # missed zero 16 times at r = 8 and 6 times at r = 10 (101 of 400 at
        # r = 3).
        spec = small_dp_spec(replicates=10, band_values=(0.5, 5.0))
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
        dp_sampler = model_sampler("dp")

        def fragile(data, config, ctl, grid=None):
            if config.truncation == 60:
                raise ValueError("chain blew up")
            return dp_sampler(data, config, ctl, grid=grid)

        monkeypatch.setattr(frsense.samplers, "dp_posterior", fragile)
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


class TestRunPlan:
    @staticmethod
    def sampler_calls(monkeypatch, spec) -> list:
        """(alpha, seed) of every sampler call of a 1-worker sweep of ``spec``."""
        calls = []

        def counting(data, config, ctl, grid=None):
            calls.append((config.alpha, ctl.seed))
            return dp_posterior(data, config, ctl, grid=grid)

        monkeypatch.setattr(frsense.samplers, "dp_posterior", counting)
        run_sweep(uniform_dataset(), spec, n_workers=1)
        return calls

    @pytest.mark.parametrize("replicates", [1, 3])
    @pytest.mark.parametrize("values", [(5.0,), (0.5, 5.0, 12.0, 20.0)], ids=["1value", "4values"])
    def test_sweep_makes_exactly_the_planned_runs(self, monkeypatch, replicates, values):
        spec = small_dp_spec(replicates=replicates, values=values)
        calls = self.sampler_calls(monkeypatch, spec)
        expected = [
            (r, idx) for r in range(1, replicates + 1) for idx in (None, *range(len(values)))
        ]
        assert list(spec.runs()) == expected
        assert len(calls) == len(spec.runs()) == replicates * (len(values) + 1)
        assert calls == [
            (
                spec.baseline_value if idx is None else values[idx],
                derived_seed(spec.mcmc.seed, r, idx),
            )
            for r, idx in expected
        ]

    def test_added_replicate_extends_the_plan(self, monkeypatch):
        short, long = small_dp_spec(replicates=2), small_dp_spec(replicates=3)
        n = len(short.runs())
        assert long.runs()[:n] == short.runs()
        assert long.runs()[n:] == ((3, None), (3, 0), (3, 1), (3, 2))
        # The added replicate leaves every earlier run's value and seed as it was.
        calls = self.sampler_calls(monkeypatch, long)
        assert calls[:n] == self.sampler_calls(monkeypatch, short)
        assert [seed for _, seed in calls] == [
            derived_seed(long.mcmc.seed, r, idx) for r, idx in long.runs()
        ]
