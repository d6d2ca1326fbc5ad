"""Experiment config files: INI parsing, presets and validation codes."""

import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frsense import (
    BetaBase,
    CcvConfig,
    DcvConfig,
    DpConfig,
    DpgmmConfig,
    McmcControl,
    SweepSpec,
    UniformBase,
    apply_preset,
    dump_config,
    load_config,
    sweep_grid_presets,
)
from frsense.config import ExperimentConfig, GeometryOptions, OutputOptions
from frsense.errors import ConfigError
from frsense.io import write_manifest

MINIMAL = """\
[dataset]
path = obs.txt

[model]
kind = dp

[model.baseline]
alpha = 5.0

[sweep]
parameter = alpha
values = 1.0, 5.0, 10.0
"""


def write_config(tmp_path, body, data=None):
    if data is None:
        data = 0.5 + 0.4 * np.sin(np.arange(20))
    (tmp_path / "obs.txt").write_text("".join(f"{float(v)!r}\n" for v in data))
    path = tmp_path / "exp.ini"
    path.write_text(body)
    return str(path)


def load_minimal(tmp_path, extra=""):
    return load_config(write_config(tmp_path, MINIMAL + extra))


class TestLoadConfig:
    def test_minimal_dp_config(self, tmp_path):
        cfg = load_minimal(tmp_path)
        assert cfg.spec.model == "dp"
        assert cfg.spec.baseline == DpConfig(alpha=5.0)
        assert cfg.spec.parameter == "alpha"
        assert cfg.spec.values == (1.0, 5.0, 10.0)
        assert cfg.spec.mcmc == McmcControl()
        assert cfg.transform == "none"
        assert cfg.aggregate == "first"
        assert cfg.geometry == GeometryOptions()
        assert cfg.output == OutputOptions()

    def test_relative_dataset_path_resolved(self, tmp_path):
        cfg = load_minimal(tmp_path)
        assert cfg.dataset_path == str(tmp_path / "obs.txt")

    def test_all_sections_parsed(self, tmp_path):
        body = MINIMAL + """
[model.baseline.g0]
kind = beta
a = 2.0
b = 7.5

[mcmc]
n_samples = 40
burn_in = 15
thin = 2
seed = 99

[geometry]
n_points = 128
karcher_eps1 = 1e-07
karcher_step = 0.25
karcher_max_iter = 50

[output]
directory = here
densities = yes
"""
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.spec.baseline.g0 == BetaBase(2.0, 7.5)
        assert cfg.spec.mcmc == McmcControl(n_samples=40, burn_in=15, thin=2, seed=99)
        assert cfg.geometry == GeometryOptions(128, 1e-7, 0.25, 50)
        assert cfg.output == OutputOptions("here", True)

    def test_missing_section_code(self, tmp_path):
        body = "[dataset]\npath = obs.txt\n\n[model]\nkind = dp\n"
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, body))
        assert exc.value.code == "CONFIG_MISSING_KEY"

    def test_unknown_section_code(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, MINIMAL + "\n[plotting]\nstyle = x\n"))
        assert exc.value.code == "CONFIG_UNKNOWN_KEY"

    def test_unknown_sweep_key_code(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_minimal(tmp_path, extra="colour = red\n")
        assert exc.value.code == "CONFIG_UNKNOWN_KEY"

    def test_unknown_baseline_field_is_bad_param(self, tmp_path):
        body = MINIMAL.replace("alpha = 5.0", "alpha = 5.0\nomega = 3.0")
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, body))
        assert exc.value.code == "CONFIG_BAD_PARAM"

    def test_bad_model_kind(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, MINIMAL.replace("kind = dp", "kind = gp")))
        assert exc.value.code == "CONFIG_BAD_VALUE"

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, MINIMAL.replace("alpha = 5.0", "alpha = five")))
        assert exc.value.code == "CONFIG_BAD_VALUE"

    def test_missing_dataset_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(MINIMAL)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.code == "CONFIG_BAD_PATH"

    def test_baseline_must_sit_on_grid(self, tmp_path):
        body = MINIMAL.replace("values = 1.0, 5.0, 10.0", "values = 1.0, 4.0, 10.0")
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, body))
        assert exc.value.code == "CONFIG_BAD_GRID"

    def test_g0_rejected_for_non_dp_model(self, tmp_path):
        body = """\
[dataset]
path = obs.txt

[model]
kind = dpgmm

[model.baseline]
alpha = 1.0

[sweep]
parameter = alpha
values = 0.5, 1.0, 2.0

[model.baseline.g0]
kind = uniform
"""
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, body))
        assert exc.value.code == "CONFIG_BAD_PARAM"

    def test_dpgmm_baseline_fields(self, tmp_path):
        body = """\
[dataset]
path = obs.txt

[model]
kind = dpgmm

[model.baseline]
alpha = 2.0
m = 0.3
nu = 4.0

[sweep]
parameter = nu
values = 2.0, 4.0, 8.0
"""
        cfg = load_config(write_config(tmp_path, body))
        assert isinstance(cfg.spec.baseline, DpgmmConfig)
        assert cfg.spec.baseline.alpha == 2.0
        assert cfg.spec.baseline.m == 0.3
        assert cfg.spec.baseline.nu == 4.0

    def test_values_and_preset_conflict(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_minimal(tmp_path, extra="preset = alpha\n")
        assert exc.value.code == "CONFIG_BAD_GRID"

    def test_mcmc_validation_wrapped(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_minimal(tmp_path, extra="\n[mcmc]\nthin = 0\n")
        assert exc.value.code == "CONFIG_BAD_MCMC"

    def test_more_components_than_grid_points(self, tmp_path):
        # A summary has at most n_points eigenvalues.
        cfg = load_minimal(tmp_path, extra="d_components = 16\n\n[geometry]\nn_points = 16\n")
        assert cfg.spec.d_components == cfg.geometry.n_points
        with pytest.raises(ConfigError) as exc:
            load_minimal(tmp_path, extra="\n[geometry]\nn_points = 16\n")
        assert exc.value.code == "CONFIG_BAD_COMPONENTS"
        assert "d_components=20" in str(exc.value)


PRESET_BODY = """\
[dataset]
path = obs.txt

[model]
kind = dp

[model.baseline]
alpha = {alpha}

[sweep]
preset = alpha
"""


class TestPresetConfigs:
    def test_preset_expands_to_ladder(self, tmp_path):
        cfg = load_config(write_config(tmp_path, PRESET_BODY.format(alpha=5.0)))
        template = sweep_grid_presets("dp")[0]
        assert cfg.spec.values == template.values
        assert cfg.spec.replicates == template.replicates
        assert len(cfg.spec.band_values) == 3
        assert cfg.spec.baseline_value == 5.0

    def test_preset_resnaps_to_custom_baseline(self, tmp_path):
        cfg = load_config(write_config(tmp_path, PRESET_BODY.format(alpha=4.321)))
        values = cfg.spec.values
        assert 4.321 in values
        assert all(b > a for a, b in zip(values, values[1:]))
        assert cfg.spec.band_values == (values[0], 4.321, values[-1])

    def test_preset_keeps_explicit_replicates(self, tmp_path):
        body = PRESET_BODY.format(alpha=5.0) + "replicates = 4\n"
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.spec.replicates == 4

    def test_unknown_preset_name(self, tmp_path):
        body = PRESET_BODY.format(alpha=5.0).replace("preset = alpha", "preset = beta")
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, body))
        assert exc.value.code == "CONFIG_BAD_PRESET"

    def test_preset_parameter_mismatch(self, tmp_path):
        body = PRESET_BODY.format(alpha=5.0) + "parameter = truncation\n"
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, body))
        assert exc.value.code == "CONFIG_BAD_PRESET"

    def test_apply_preset_checks_components_against_grid(self, tmp_path):
        cfg = load_minimal(tmp_path, extra="d_components = 6\n\n[geometry]\nn_points = 16\n")
        with pytest.raises(ConfigError) as exc:
            apply_preset(cfg, "alpha")
        assert exc.value.code == "CONFIG_BAD_COMPONENTS"

    def test_apply_preset_keeps_mcmc_and_aggregate(self, tmp_path):
        cfg = load_minimal(tmp_path, extra="\n[mcmc]\nseed = 321\n")
        swapped = apply_preset(cfg, "alpha")
        assert swapped.spec.mcmc.seed == 321
        assert swapped.aggregate == cfg.aggregate
        assert swapped.spec.values == sweep_grid_presets("dp")[0].values
        assert swapped.spec.baseline == cfg.spec.baseline


def baselines(cls):
    """Valid configs of one model: every field drawn around its default."""

    def values(f):
        if f.name == "g0":
            return st.just(UniformBase()) | st.builds(
                BetaBase, st.floats(0.1, 10.0), st.floats(0.1, 10.0)
            )
        if f.name == "bandwidth":
            return st.none() | st.floats(0.01, 0.5)
        if isinstance(f.default, int):
            return st.integers(f.default, 2 * f.default)
        if f.default == 0.0:
            return st.floats(-2.0, 2.0)
        return st.floats(0.6, 2.0).map(lambda c: c * f.default)

    return st.builds(cls, **{f.name: values(f) for f in dataclasses.fields(cls)})


MODEL_CLASSES = {"dp": DpConfig, "dpgmm": DpgmmConfig, "ccv": CcvConfig, "dcv": DcvConfig}


@st.composite
def experiment_configs(draw, dataset_path):
    model = draw(st.sampled_from(sorted(MODEL_CLASSES)))
    cls = MODEL_CLASSES[model]
    baseline = draw(baselines(cls))
    parameter = draw(
        st.sampled_from(
            [f.name for f in dataclasses.fields(cls) if isinstance(f.default, float)]
        )
    )
    base = getattr(baseline, parameter)
    factors = draw(st.lists(st.floats(1.01, 1.5), max_size=4))
    values = tuple(sorted({base, *(base * c for c in factors)}))
    replicates = draw(st.integers(1, 5))
    band_values = ()
    if replicates > 1:
        band_values = tuple(draw(st.lists(st.sampled_from(values), unique=True)))
    d_components = draw(st.integers(2, 30))
    mcmc = McmcControl(
        n_samples=draw(st.integers(max(10, d_components + 1), 600)),
        burn_in=draw(st.integers(0, 2000)),
        thin=draw(st.integers(1, 10)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    spec = SweepSpec(
        model, baseline, parameter, values, replicates, band_values, mcmc, d_components
    )
    geometry = GeometryOptions(
        n_points=draw(st.integers(max(16, d_components), 1024)),
        karcher_eps1=draw(st.floats(1e-12, 1e-2)),
        karcher_step=draw(st.floats(0.01, 1.0)),
        karcher_max_iter=draw(st.integers(1, 500)),
    )
    output = OutputOptions(
        directory=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
        densities=draw(st.booleans()),
    )
    return ExperimentConfig(
        dataset_path=dataset_path,
        transform=draw(st.sampled_from(("none", "log"))),
        spec=spec,
        aggregate=draw(st.sampled_from(("first", "mean"))),
        geometry=geometry,
        output=output,
    )


class TestDumpRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_dump_load_round_trip_is_identity(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            dataset = os.path.join(tmp, "obs.txt")
            with open(dataset, "w") as fh:
                fh.write("0.5\n")
            cfg = data.draw(experiment_configs(dataset))
            path = os.path.join(tmp, "dump.ini")
            write_manifest(path, cfg, {})
            assert load_config(path) == cfg

    def test_manifest_reloads_identically(self, tmp_path):
        body = MINIMAL + """band_values = 1.0, 10.0
replicates = 3
d_components = 6
aggregate = mean

[model.baseline.g0]
kind = beta
a = 0.7
b = 1.9

[mcmc]
seed = 1234

[geometry]
n_points = 96
"""
        cfg = load_config(write_config(tmp_path, body))
        manifest = tmp_path / "manifest.ini"
        write_manifest(str(manifest), cfg, {"wall_clock_seconds": "2.718"})
        assert load_config(str(manifest)) == cfg

    def test_awkward_floats_survive(self, tmp_path):
        third = 1.0 / 3.0
        body = MINIMAL.replace(
            "values = 1.0, 5.0, 10.0", f"values = {third!r}, 5.0, 10.0"
        )
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.spec.values[0] == third
        manifest = tmp_path / "m.ini"
        write_manifest(str(manifest), cfg, {})
        assert load_config(str(manifest)).spec.values[0] == third

    def test_dump_covers_every_field(self, tmp_path):
        sections = dump_config(load_minimal(tmp_path))
        assert set(sections) >= {
            "dataset", "model", "model.baseline", "sweep", "mcmc",
            "geometry", "output",
        }
        assert sections["sweep"]["parameter"] == "alpha"
        assert sections["model.baseline"]["alpha"] == "5.0"

    def test_run_section_is_ignored_on_load(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "\n[run]\nanything = goes\n")
        cfg = load_config(path)
        assert cfg.spec.model == "dp"


G0_BETA = "\n[model.baseline.g0]\nkind = beta\na = {a}\nb = 2.0\n"


@pytest.mark.parametrize(
    "body, code",
    [
        (MINIMAL + "\n[mcmc]\ncolour = red\n", "CONFIG_UNKNOWN_KEY"),
        (MINIMAL + "\n[geometry]\ncolour = red\n", "CONFIG_UNKNOWN_KEY"),
        (MINIMAL + "\n[output]\ncolour = red\n", "CONFIG_UNKNOWN_KEY"),
        (MINIMAL + "\n[mcmc]\nn_samples = 2.5\n", "CONFIG_BAD_VALUE"),
        (MINIMAL + "\n[mcmc]\nn_samples = 3\n", "CONFIG_BAD_MCMC"),
        (MINIMAL + "\n[geometry]\nkarcher_step = 0\n", "CONFIG_BAD_GEOMETRY"),
        (MINIMAL + "\n[output]\ndensities = maybe\n", "CONFIG_BAD_VALUE"),
        # A block's values are parsed before its unknown keys are reported.
        (MINIMAL + "\n[mcmc]\nn_samples = x\ncolour = red\n", "CONFIG_BAD_VALUE"),
        # The baseline's own keys are checked before its base measure is read.
        (
            MINIMAL.replace("alpha = 5.0", "alpha = 5.0\nomega = 3.0") + G0_BETA.format(a=-1.0),
            "CONFIG_BAD_PARAM",
        ),
        (MINIMAL + G0_BETA.format(a=-1.0), "CONFIG_BAD_VALUE"),
    ],
    ids=[
        "mcmc-unknown", "geometry-unknown", "output-unknown", "mcmc-not-int",
        "mcmc-too-short", "geometry-step", "output-not-bool", "value-before-key",
        "baseline-key-before-g0", "g0-bad-shape",
    ],
)
def test_section_error_codes(tmp_path, body, code):
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, body))
    assert exc.value.code == code


LAYOUT_BODIES = {
    "dp": MINIMAL.replace("alpha = 5.0", "alpha = 5.0\nbandwidth = 0.1")
    + G0_BETA.format(a=3.0),
    "dpgmm": MINIMAL.replace("kind = dp", "kind = dpgmm").replace("alpha = 5.0", "alpha = 1.0")
    .replace("1.0, 5.0, 10.0", "0.5, 1.0, 2.0"),
    "ccv": MINIMAL.replace("kind = dp", "kind = ccv").replace("alpha = 5.0", "eta = 3.0")
    .replace("parameter = alpha", "parameter = eta").replace("1.0, 5.0, 10.0", "2.0, 3.0, 4.0"),
    "dcv": MINIMAL.replace("kind = dp", "kind = dcv").replace("alpha = 5.0", "phi = 2.0")
    .replace("parameter = alpha", "parameter = phi").replace("1.0, 5.0, 10.0", "1.5, 2.0, 4.0"),
}

GRIFFIN_KEYS = ["a0", "a1", "eta", "gamma", "mu00", "lambda0", "s0", "s1"]
BASELINE_KEYS = {
    "dp": ["alpha", "truncation", "bandwidth"],
    "dpgmm": ["alpha", "m", "r", "nu", "s"],
    "ccv": GRIFFIN_KEYS,
    "dcv": GRIFFIN_KEYS + ["phi", "aux_m"],
}


@pytest.mark.parametrize("model", sorted(LAYOUT_BODIES))
def test_manifest_layout_is_fixed(tmp_path, model):
    # Reloading ignores order, so the round-trip tests cannot see a
    # reordered manifest; this pins the sections and keys as written.
    cfg = load_config(write_config(tmp_path, LAYOUT_BODIES[model]))
    expected = [
        ("dataset", ["path", "transform"]),
        ("model", ["kind"]),
        ("model.baseline", BASELINE_KEYS[model]),
    ]
    if model == "dp":
        expected.append(("model.baseline.g0", ["kind", "a", "b"]))
    expected += [
        (
            "sweep",
            ["parameter", "values", "replicates", "band_values", "d_components", "aggregate"],
        ),
        ("mcmc", ["n_samples", "burn_in", "thin", "seed"]),
        ("geometry", ["n_points", "karcher_eps1", "karcher_step", "karcher_max_iter"]),
        ("output", ["directory", "densities"]),
    ]
    sections = dump_config(cfg)
    assert [(name, list(keys)) for name, keys in sections.items()] == expected
    manifest = tmp_path / "manifest.ini"
    write_manifest(str(manifest), cfg, {"base_seed": 0})
    headers = [line[1:-1] for line in manifest.read_text().splitlines() if line.startswith("[")]
    assert headers == [name for name, _ in expected] + ["run"]
