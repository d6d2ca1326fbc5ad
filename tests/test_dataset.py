"""Shared sampler plumbing: data rescaling, chain controls, seed derivation."""

import numpy as np
import numpy.testing as npt
import pytest

from frsense import Dataset, DcvConfig, DpConfig, McmcControl
from frsense.errors import ConfigError, EmptyDatasetError, InvalidSettingError
from frsense.samplers import derived_seed, silverman_bandwidth
from frsense.grid import default_grid, normalize_rows
from frsense.samplers.common import MARGIN, _run_chain
from frsense.sweep import set_config_value


class TestDataset:
    def test_envelope_lands_on_margins(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 200))
            obs = rng.normal(rng.uniform(-50, 50), rng.uniform(0.1, 9.0), size=n)
            d = Dataset.from_observations(obs)
            assert d.rescaled.min() == pytest.approx(MARGIN, abs=1e-12)
            assert d.rescaled.max() == pytest.approx(1.0 - MARGIN, abs=1e-12)

    def test_rescale_is_affine(self, rng):
        obs = rng.normal(3.0, 2.0, size=40)
        d = Dataset.from_observations(obs)
        npt.assert_allclose(d.rescaled * d.scale + d.shift, d.observations, rtol=1e-12)

    def test_degenerate_sample_centers(self):
        d = Dataset.from_observations([4.2, 4.2, 4.2])
        npt.assert_allclose(d.rescaled, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            Dataset.from_observations([])

    def test_envelope_violation_rejected(self):
        with pytest.raises(ValueError):
            Dataset(observations=np.array([0.0, 1.0]), shift=0.0, scale=1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset.from_observations([0.1, np.nan, 0.3])

    @pytest.mark.parametrize(
        "obs, shift, scale",
        [
            ([0.2, 0.5], 0.0, np.inf),
            ([0.2, 0.5], np.nan, 1.0),
            ([0.2, 0.5], -np.inf, 1.0),
            ([1e308, 1.7e308], -1e308, 1.0),  # x - shift overflows
        ],
    )
    def test_non_finite_rescaling_rejected(self, obs, shift, scale):
        with pytest.raises(ConfigError) as info:
            Dataset(observations=np.array(obs), shift=shift, scale=scale)
        assert info.value.code == "DATA_NONFINITE"

    def test_range_beyond_double_precision_rejected(self):
        # hi - lo overflows: the scale would be inf and the shift -inf.
        with pytest.raises(ConfigError) as info:
            Dataset.from_observations([-1e308, 1e308])
        assert info.value.code == "DATA_NONFINITE"

    def test_observations_read_only(self):
        d = Dataset.from_observations([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            d.observations[0] = 9.0


class TestMcmcControl:
    def test_sweep_count(self):
        ctl = McmcControl(n_samples=50, burn_in=100, thin=3, seed=1)
        assert ctl.n_sweeps == 100 + 49 * 3 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            McmcControl(n_samples=5)
        with pytest.raises(ValueError):
            McmcControl(thin=0)
        with pytest.raises(ValueError):
            McmcControl(burn_in=-1)
        with pytest.raises(ValueError):
            McmcControl(seed=-3)


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (McmcControl, "seed", 1.5),
        (McmcControl, "n_samples", 12.5),
        (McmcControl, "thin", 1.5),
        (McmcControl, "burn_in", 2.5),
        (DpConfig, "truncation", 60.5),
        (DcvConfig, "aux_m", 2.5),
        # Integral floats and bools are refused too, not truncated.
        (McmcControl, "n_samples", 12.0),
        (McmcControl, "thin", True),
        (DcvConfig, "aux_m", np.float64(3.0)),
    ],
)
def test_integer_fields_refuse_other_numbers(cls, name, value):
    # Each would otherwise fail inside every sweep task, with a TypeError.
    with pytest.raises(InvalidSettingError, match=f"{name} must be an integer"):
        cls(**{name: value})


def test_integer_fields_take_numpy_integers_as_python_ints():
    ctl = McmcControl(
        n_samples=np.int32(12), burn_in=np.int64(0), thin=np.uint8(1), seed=np.uint64(2**63)
    )
    assert ctl == McmcControl(n_samples=12, burn_in=0, thin=1, seed=2**63)
    dp, dcv = DpConfig(truncation=np.int64(60)), DcvConfig(aux_m=np.int16(2))
    fields = (ctl.n_samples, ctl.burn_in, ctl.thin, ctl.seed, dp.truncation, dcv.aux_m)
    assert {type(value) for value in fields} == {int}
    # So a numpy-int field sweeps as a Python one does.
    assert set_config_value(dp, "truncation", 100.0).truncation == 100


class _StubChain:
    """A chain whose state is the number of sweeps it has run."""

    TRACE_NAMES = ("sweep", "squared")

    def __init__(self):
        self.sweeps = 0
        self.emitted = []

    def sweep(self):
        self.sweeps += 1

    def emit_row(self, grid):
        self.emitted.append(self.sweeps - 1)
        return 1.0 + self.sweeps * grid.x

    def trace_row(self):
        return (self.sweeps - 1, (self.sweeps - 1) ** 2)

    def diagnostics(self):
        return {"sweeps": self.sweeps}


class TestRunChain:
    @pytest.mark.parametrize("thin", [1, 3])
    def test_keeps_every_thin_th_sweep_after_burn_in(self, grid, thin):
        ctl = McmcControl(n_samples=10, burn_in=7, thin=thin, seed=5)
        chain = _StubChain()
        ps = _run_chain(chain, ctl, grid)
        assert chain.sweeps == ctl.n_sweeps
        kept = [7 + k * thin for k in range(10)]
        assert chain.emitted == kept
        assert ps.trace.keys() == {"sweep", "squared"}
        npt.assert_array_equal(ps.trace["sweep"], kept)
        npt.assert_array_equal(ps.trace["squared"], np.square(kept))
        assert ps.diagnostics == {"sweeps": ctl.n_sweeps}
        assert ps.grid == grid
        npt.assert_allclose(ps.densities, normalize_rows(grid, 1.0 + np.outer(np.add(kept, 1), grid.x)))

    def test_no_grid_means_the_default_grid(self):
        ctl = McmcControl(n_samples=10, burn_in=0, thin=1)
        assert _run_chain(_StubChain(), ctl, None).grid == default_grid()


class TestSeedDerivation:
    def test_deterministic(self):
        assert derived_seed(42, 3, 7) == derived_seed(42, 3, 7)
        assert derived_seed(42, 3) == derived_seed(42, 3)

    def test_distinct_across_slots(self):
        # every (replicate, value) slot, baseline included, gets its own stream
        seen = set()
        for rep in range(10):
            seen.add(derived_seed(99, rep))
            for idx in range(15):
                seen.add(derived_seed(99, rep, idx))
        assert len(seen) == 10 * 16

    def test_baseline_slot_is_not_a_value_slot(self):
        assert derived_seed(1, 0) != derived_seed(1, 0, 0)

    def test_range(self):
        s = derived_seed(2**63, 4, 11)
        assert 0 <= s < 2**64

    @pytest.mark.parametrize(
        "seed, replicate, index, expected",
        [
            (0, 1, None, 3682273485447514370),
            (0, 1, 0, 11539782348902174461),
            (0, 1, 2**40, 1741940739854610235),
            (0, 2**32 + 5, None, 12637782392506088915),
            (0, 2**32 + 5, 0, 18319752144774102445),
            (0, 2**32 + 5, 2**40, 13158275039760856247),
            (1, 1, None, 15244435365362942311),
            (1, 1, 0, 4654460112120296358),
            (1, 1, 2**40, 263665147563979940),
            (1, 2**32 + 5, None, 7357475801014545619),
            (1, 2**32 + 5, 0, 6238631287437588161),
            (1, 2**32 + 5, 2**40, 24916021837551561),
            (2**63, 1, None, 6372931469981846311),
            (2**63, 1, 0, 7205852960274806534),
            (2**63, 1, 2**40, 6875323173226797141),
            (2**63, 2**32 + 5, None, 14401253656540754858),
            (2**63, 2**32 + 5, 0, 13146490595976467636),
            (2**63, 2**32 + 5, 2**40, 4432016315166400382),
            (2**64 - 1, 1, None, 15040810866446499073),
            (2**64 - 1, 1, 0, 7415890644094193115),
            (2**64 - 1, 1, 2**40, 12519309192707428739),
            (2**64 - 1, 2**32 + 5, None, 1414545892428455254),
            (2**64 - 1, 2**32 + 5, 0, 11775085574141951879),
            (2**64 - 1, 2**32 + 5, 2**40, 11654953040704222153),
            # Seeds past 128 bits fill the 4-word pool and mix in the rest.
            (2**128, 1, None, 13701748449009996638),
            (2**128, 3, 7, 2015207129929861973),
            (2**160, 1, None, 9717470593749895773),
            (2**160, 3, 7, 13615000969280243239),
            (2**160 + 12345, 1, None, 17163592422895110803),
            (2**160 + 12345, 3, 7, 11156100758816501394),
        ],
    )
    def test_pinned_values(self, seed, replicate, index, expected):
        # Every sweep's outputs rest on these seeds, so a numpy release that
        # changed SeedSequence would change every archive.
        assert derived_seed(seed, replicate, index) == expected

    @pytest.mark.parametrize("args", [(-1, 1), (1, -1), (1, 1, -1)], ids=["seed", "replicate", "index"])
    def test_negative_input_raises_as_numpy_does(self, args):
        with pytest.raises(ValueError):
            derived_seed(*args)


class TestSilvermanBandwidth:
    def test_rule_of_thumb(self, grid, rng):
        x = rng.normal(0.5, 0.1, size=200)
        expect = 1.06 * np.std(x, ddof=1) * 200 ** (-0.2)
        assert silverman_bandwidth(x, grid) == pytest.approx(expect, rel=1e-12)

    def test_floor_binds_for_tight_data(self, grid):
        x = np.full(50, 0.5)
        x[0] = 0.5000001
        assert silverman_bandwidth(x, grid) == 2.0 * grid.spacing

    def test_single_point_uses_floor(self, grid):
        assert silverman_bandwidth(np.array([0.4]), grid) == 2.0 * grid.spacing
