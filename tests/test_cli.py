"""Command line interface: exit codes, archives and reproducibility."""

import codecs
import configparser
import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from conftest import random_mixture_pdf
from numpy._core._exceptions import _ArrayMemoryError

import frsense
from frsense import (
    CcvConfig,
    ConfigError,
    DcvConfig,
    DegenerateSampleError,
    Grid,
    derived_seed,
    dp_posterior,
    fr_distance,
    load_config,
)
from frsense import errors
from frsense.cli import main
from frsense.io import load_dataset, read_density_matrix, write_density_matrix

CONFIG = """\
[dataset]
path = obs.txt

[model]
kind = dp

[model.baseline]
alpha = 3.0
truncation = 60

[sweep]
parameter = alpha
values = 1.0, 3.0, 8.0
replicates = 2
band_values = 1.0, 8.0
d_components = 4

[mcmc]
n_samples = 16
burn_in = 0
thin = 1
seed = 5

[geometry]
n_points = 64
"""

#: CONFIG edited to sweep a set bandwidth down to 1e-6.
BANDWIDTH_SWEEP = (
    "truncation = 60\n\n[sweep]\nparameter = alpha\nvalues = 1.0, 3.0, 8.0\n"
    "replicates = 2\nband_values = 1.0, 8.0\n",
    "truncation = 60\nbandwidth = 0.05\n\n[sweep]\nparameter = bandwidth\n"
    "values = 1e-6, 0.05\nreplicates = 2\nband_values = 0.05\n",
)

#: CONFIG edited to sweep truncation up to 1e11.
TRUNCATION_SWEEP = (
    "parameter = alpha\nvalues = 1.0, 3.0, 8.0\nreplicates = 2\nband_values = 1.0, 8.0\n",
    "parameter = truncation\nvalues = 60, 100000000000\nreplicates = 2\nband_values = 60\n",
)


#: A tiny dpgmm sweep whose numeric keys the mutation test overwrites.
DPGMM_CONFIG = """\
[dataset]
path = obs.txt

[model]
kind = dpgmm

[model.baseline]
alpha = 1.0
m = 0.5
r = 0.25
nu = 5.0
s = 1.0

[sweep]
parameter = alpha
values = 0.25, 1.0
replicates = 1
d_components = 4

[mcmc]
n_samples = 12
burn_in = 0
thin = 1
seed = 5

[geometry]
n_points = 64
"""

#: DPGMM_CONFIG as a dp sweep with every baseline key set and a Beta g0.
DP_CONFIG = DPGMM_CONFIG.replace("kind = dpgmm", "kind = dp").replace(
    "alpha = 1.0\nm = 0.5\nr = 0.25\nnu = 5.0\ns = 1.0\n",
    "alpha = 1.0\ntruncation = 60\nbandwidth = 0.05\n\n"
    "[model.baseline.g0]\nkind = beta\na = 2.0\nb = 3.0\n",
)

#: Baseline keys shared by the ccv and dcv models.
GRIFFIN_BASELINE = """\
a0 = 1.0
a1 = 10.0
eta = 3.0
gamma = 5.0
mu00 = 0.5
lambda0 = 1.0
s0 = 2.0
s1 = 0.1
"""


def griffin_config(kind):
    """DPGMM_CONFIG with a ccv or dcv baseline, sweeping a0."""
    baseline = GRIFFIN_BASELINE + ("phi = 2.0\naux_m = 3\n" if kind == "dcv" else "")
    return (
        DPGMM_CONFIG.replace("kind = dpgmm", f"kind = {kind}")
        .replace("alpha = 1.0\nm = 0.5\nr = 0.25\nnu = 5.0\ns = 1.0\n", baseline)
        .replace("parameter = alpha\nvalues = 0.25, 1.0", "parameter = a0\nvalues = 1.0, 2.0")
    )


#: Mutations that pass every config check and fail only once the chain has
#: run, with the code the sweep reports: a huge s1 makes sigma^2 so large
#: that every draw is the same flat density.
UNFORESEEABLE = {
    ("ccv", "s1", "1e308"): "MEASURE_DEGENERATE",
    ("dcv", "s1", "1e308"): "MEASURE_DEGENERATE",
}

#: Integer keys that size an array; a huge value must be refused up front.
#: A huge burn_in or thin is only a long run.
ARRAY_SIZE_KEYS = ("n_samples", "truncation", "aux_m")

MUTATED_KEYS = [
    *(pytest.param("dpgmm", key, id=key) for key in (
        "alpha", "m", "r", "nu", "s", "n_samples", "burn_in", "thin", "seed")),
    *(pytest.param("dp", key, id=f"dp-{key}") for key in (
        "alpha", "truncation", "bandwidth", "a", "b")),
    *(pytest.param(model, f.name, id=f"{model}-{f.name}")
      for model, cls in (("ccv", CcvConfig), ("dcv", DcvConfig))
      for f in dataclasses.fields(cls)),
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(8)
    with open("obs.txt", "w") as fh:
        for v in rng.normal(0.0, 1.0, size=30):
            fh.write(f"{float(v)!r}\n")
    with open("exp.ini", "w") as fh:
        fh.write(CONFIG)
    return tmp_path


class TestSweepCommand:
    def test_writes_the_archive(self, workdir):
        rc, out, err = invoke(["sweep", "--config", "exp.ini", "--out", "res"])
        assert rc == 0, err
        assert sorted(os.listdir("res")) == ["bands.csv", "manifest.ini", "sweep.csv"]
        lines = open("res/sweep.csv").read().splitlines()
        assert len(lines) == 4 and lines[0] == "param_value,D,V,E"
        assert "numpy_version = " in open("res/manifest.ini").read()

    def test_identical_invocations_are_byte_identical(self, workdir):
        assert invoke(["sweep", "--config", "exp.ini", "--out", "r1"])[0] == 0
        assert invoke(["sweep", "--config", "exp.ini", "--out", "r2"])[0] == 0
        for name in ("sweep.csv", "bands.csv"):
            a = open(f"r1/{name}", "rb").read()
            b = open(f"r2/{name}", "rb").read()
            assert a == b, name
        m1 = open("r1/manifest.ini").read().splitlines()
        m2 = open("r2/manifest.ini").read().splitlines()
        diff = [x for x, y in zip(m1, m2) if x != y]
        assert all(d.startswith("wall_clock_seconds") for d in diff)

    def test_manifest_rerun_reproduces_archive(self, workdir):
        assert invoke(["sweep", "--config", "exp.ini", "--out", "r1"])[0] == 0
        rc, _, err = invoke(["sweep", "--config", "r1/manifest.ini", "--out", "r3"])
        assert rc == 0, err
        assert open("r1/sweep.csv", "rb").read() == open("r3/sweep.csv", "rb").read()
        assert open("r1/bands.csv", "rb").read() == open("r3/bands.csv", "rb").read()

    def test_config_seed_changes_results_and_is_echoed(self, workdir):
        open("seed.ini", "w").write(CONFIG.replace("seed = 5", "seed = 123"))
        invoke(["sweep", "--config", "exp.ini", "--out", "r1"])
        invoke(["sweep", "--config", "seed.ini", "--out", "r4"])
        assert open("r1/sweep.csv", "rb").read() != open("r4/sweep.csv", "rb").read()
        assert "seed = 123" in open("r4/manifest.ini").read()

    def test_mcmc_section_keeps_the_seed_through_a_manifest_rerun(self, workdir):
        open("seed.ini", "w").write(CONFIG.replace("seed = 5", "seed = 123"))
        assert invoke(["sweep", "--config", "seed.ini", "--out", "r4"])[0] == 0
        assert invoke(["sweep", "--config", "r4/manifest.ini", "--out", "r5"])[0] == 0
        for out in ("r4", "r5"):
            manifest = configparser.ConfigParser(interpolation=None)
            manifest.read(f"{out}/manifest.ini", encoding="utf-8")
            assert manifest["mcmc"]["seed"] == "123", out
            assert "base_seed" not in manifest["run"], out
        assert open("r4/sweep.csv", "rb").read() == open("r5/sweep.csv", "rb").read()

    def test_out_flag_is_not_echoed_in_manifest(self, workdir):
        invoke(["sweep", "--config", "exp.ini", "--out", "elsewhere"])
        text = open("elsewhere/manifest.ini").read()
        assert "directory = results" in text
        assert "elsewhere" not in text

    def test_thread_count_does_not_change_results(self, workdir):
        invoke(["sweep", "--config", "exp.ini", "--out", "r1"])
        rc, _, _ = invoke(
            ["sweep", "--config", "exp.ini", "--out", "r5", "--threads", "3"]
        )
        assert rc == 0
        assert open("r1/sweep.csv", "rb").read() == open("r5/sweep.csv", "rb").read()

    @pytest.mark.parametrize(
        "make_error, code",
        [
            (lambda: ConfigError("CONFIG_BAD_VALUE", "no such chain"), "CONFIG_BAD_VALUE"),
            (lambda: DegenerateSampleError("all draws are equal"), "MEASURE_DEGENERATE"),
        ],
        ids=["config", "degenerate"],
    )
    def test_task_error_exits_alike_at_any_thread_count(
        self, workdir, monkeypatch, make_error, code
    ):
        dp_sampler = frsense.model_sampler("dp")

        def failing(data, config, ctl, grid=None):
            if config.alpha == 8.0:
                raise make_error()
            return dp_sampler(data, config, ctl, grid=grid)

        monkeypatch.setattr(frsense.samplers, "dp_posterior", failing)
        one = invoke(["sweep", "--config", "exp.ini", "--out", "r1", "--threads", "1"])
        two = invoke(["sweep", "--config", "exp.ini", "--out", "r2", "--threads", "2"])
        assert one[0] == two[0] == 1
        assert one[2] == two[2] == (
            f"{code}: {make_error()} [sweep task failed at alpha=8, replicate 1]\n"
        )

    def test_measure_failure_names_its_grid_position(self, workdir, monkeypatch):
        def failing(base, other):
            raise DegenerateSampleError("all draws are equal")

        monkeypatch.setattr(frsense.sweep, "triple_from_summaries", failing)
        rc, _, err = invoke(["sweep", "--config", "exp.ini", "--out", "res"])
        assert rc == 1
        assert err == (
            "MEASURE_DEGENERATE: all draws are equal [measures failed at alpha=1, replicate 1]\n"
        )

    def test_memory_error_exits_alike_at_any_thread_count(self, workdir, monkeypatch):
        # numpy's array MemoryError is rebuilt from (shape, dtype) alone, so
        # a worker's error must cross the pool with its arguments unchanged.
        def failing(data, config, ctl, grid=None):
            raise _ArrayMemoryError((40, 10**11), np.dtype(float))

        monkeypatch.setattr(frsense.samplers, "dp_posterior", failing)
        one = invoke(["sweep", "--config", "exp.ini", "--out", "r1", "--threads", "1"])
        two = invoke(["sweep", "--config", "exp.ini", "--out", "r2", "--threads", "2"])
        assert one[0] == two[0] == 2
        first = one[2].splitlines()[0]
        assert first == two[2].splitlines()[0]
        assert first == (
            "INTERNAL: MemoryError((40, 100000000000), dtype('float64'))"
            " [sweep task failed at the baseline, replicate 1]"
        )

    def test_out_naming_a_file_fails_before_any_task_runs(self, workdir, monkeypatch):
        calls = []
        monkeypatch.setattr(frsense.sweep, "_run_task", lambda *args: calls.append(args))
        open("taken", "w").close()
        rc, _, err = invoke(["sweep", "--config", "exp.ini", "--out", "taken"])
        assert rc == 1
        assert err.startswith("IO_ERROR:")
        assert calls == []

    def test_densities_flag_adds_density_matrix(self, workdir):
        with open("exp.ini", "a") as fh:
            fh.write("\n[output]\ndensities = true\n")
        rc, _, err = invoke(["sweep", "--config", "exp.ini", "--out", "res"])
        assert rc == 0, err
        draws = read_density_matrix("res/densities.csv")
        assert len(draws) == 16
        assert draws[0].grid == Grid(64)
        # the file holds replicate 1's baseline chain, as an explicit rerun gives it
        config = load_config("exp.ini")
        ctl = dataclasses.replace(
            config.spec.mcmc, seed=derived_seed(config.spec.mcmc.seed, 1)
        )
        rerun = dp_posterior(
            load_dataset(config.dataset_path), config.spec.baseline, ctl, grid=Grid(64)
        )
        write_density_matrix("rerun.csv", rerun.pdfs)
        assert open("res/densities.csv", "rb").read() == open("rerun.csv", "rb").read()


class TestRetiredFlags:
    @pytest.mark.parametrize("flag", [["--preset", "alpha"], ["--seed", "1"]])
    def test_sweep_rejects_the_flag(self, workdir, flag):
        # The seed and the preset are set in the config, which the manifest echoes.
        rc, _, err = invoke(["sweep", "--config", "exp.ini", "--out", "res", *flag])
        assert rc == 1
        assert err.splitlines()[-1].startswith("CLI_USAGE: unrecognized arguments")
        assert not os.path.exists("res")


class TestValidateConfigCommand:
    def test_prints_plan_and_exits_zero(self, workdir):
        rc, out, _ = invoke(["validate-config", "--config", "exp.ini"])
        assert rc == 0
        assert "model: dp" in out
        assert "n=30" in out
        assert "sampler runs: 8" in out
        # dp draws are iid: burn-in and thinning do not apply
        assert "mcmc: keep 16 iid draws, seed 5\n" in out
        assert "burn-in" not in out

    @pytest.mark.parametrize("replicates", [1, 3])
    @pytest.mark.parametrize("values", ["3.0", "1.0, 3.0, 8.0, 12.0"], ids=["1value", "4values"])
    def test_plan_counts_the_runs_a_sweep_makes(self, workdir, monkeypatch, replicates, values):
        dp_sampler = frsense.model_sampler("dp")
        seeds = []

        def counting(data, config, ctl, grid=None):
            seeds.append(ctl.seed)
            return dp_sampler(data, config, ctl, grid=grid)

        monkeypatch.setattr(frsense.samplers, "dp_posterior", counting)
        open("plan.ini", "w").write(CONFIG.replace(
            "values = 1.0, 3.0, 8.0\nreplicates = 2\nband_values = 1.0, 8.0\n",
            f"values = {values}\nreplicates = {replicates}\n",
        ))
        rc, out, err = invoke(["validate-config", "--config", "plan.ini"])
        assert rc == 0, err
        assert seeds == []
        assert invoke(["sweep", "--config", "plan.ini", "--out", "res"])[0] == 0
        assert f"sampler runs: {len(seeds)}\n" in out
        spec = load_config("plan.ini").spec
        assert seeds == [derived_seed(spec.mcmc.seed, r, idx) for r, idx in spec.runs()]

    def test_dp_plan_prints_the_expected_tail_mass(self, workdir):
        # n = 30 and truncation 60: alpha / (alpha + 30) * (alpha / (alpha + 1))^59
        # is largest at the largest alpha
        rc, out, err = invoke(["validate-config", "--config", "exp.ini"])
        assert rc == 0, err
        baseline, largest = (a / (a + 30.0) * (a / (a + 1.0)) ** 59 for a in (3.0, 8.0))
        assert (
            f"expected tail mass: {baseline:.3g} at the baseline, "
            f"largest {largest:.3g} at alpha = 8\n"
        ) in out
        assert (baseline, largest) == pytest.approx((3.866e-9, 2.020e-4), rel=1e-3)

    def test_plan_names_burn_in_and_thinning_for_chains(self, workdir):
        open("gm.ini", "w").write(DPGMM_CONFIG)
        rc, out, err = invoke(["validate-config", "--config", "gm.ini"])
        assert rc == 0, err
        assert "mcmc: keep 12, burn-in 0, thin 1, seed 5\n" in out
        assert "sampler runs: 3" in out
        assert "tail mass" not in out

    def test_unknown_parameter_exit_code(self, workdir):
        bad = CONFIG.replace("parameter = alpha", "parameter = alhpa")
        open("bad.ini", "w").write(bad)
        rc, _, err = invoke(["validate-config", "--config", "bad.ini"])
        assert rc == 1
        assert err.startswith("CONFIG_BAD_PARAM:")

    def test_missing_dataset_exit_code(self, workdir):
        os.remove("obs.txt")
        rc, _, err = invoke(["validate-config", "--config", "exp.ini"])
        assert rc == 1
        assert err.startswith("CONFIG_BAD_PATH:")

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.1\n0.2\ninf\n0.4\n", "DATA_PARSE: line 3: not a finite number"),
            ("# header\n0.1\nnan\n", "DATA_PARSE: line 3: not a finite number"),
            ("1e308\n-1e308\n", "DATA_NONFINITE:"),
        ],
        ids=["inf", "nan", "range-overflow"],
    )
    def test_non_finite_data_fails_before_any_sampler_runs(
        self, workdir, monkeypatch, command, text, message
    ):
        import frsense.cli as cli_mod

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
        with open("obs.txt", "w") as fh:
            fh.write(text)
        rc, _, err = invoke([command, "--config", "exp.ini"])
        assert rc == 1, err
        assert err.startswith(message)

    @pytest.mark.parametrize(
        "transform, text, code",
        [
            ("log", "0.5\n-1.0\n", "DATA_NONPOSITIVE_LOG"),
            ("none", "# nothing but comments\n#\n", "DATA_EMPTY"),
        ],
        ids=["log-of-negative", "comments-only"],
    )
    def test_bad_data_exit_code(self, workdir, transform, text, code):
        dataset = f"path = obs.txt\ntransform = {transform}"
        open("bad.ini", "w").write(CONFIG.replace("path = obs.txt", dataset))
        with open("obs.txt", "w") as fh:
            fh.write(text)
        rc, _, err = invoke(["validate-config", "--config", "bad.ini"])
        assert rc == 1, err
        assert err.startswith(code + ":")

    def test_config_that_is_not_utf8_is_a_parse_error(self, workdir):
        with open("bad.ini", "wb") as fh:
            fh.write(b"# caf\xe9\n" + CONFIG.encode())
        rc, _, err = invoke(["validate-config", "--config", "bad.ini"])
        assert rc == 1, err
        assert err.startswith("CONFIG_PARSE:")

    @pytest.mark.parametrize("name", ["exp.ini", "obs.txt"], ids=["config", "observations"])
    def test_file_with_a_byte_order_mark_reads_alike(self, workdir, name):
        # Spreadsheet "CSV UTF-8" exports start with one.
        rc, plain, err = invoke(["validate-config", "--config", "exp.ini"])
        assert rc == 0, err
        text = open(name, "rb").read()
        open(name, "wb").write(codecs.BOM_UTF8 + text)
        rc, marked, err = invoke(["validate-config", "--config", "exp.ini"])
        assert rc == 0, err
        assert marked == plain

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    def test_observations_that_are_not_utf8_are_a_parse_error(self, workdir, command):
        lines = open("obs.txt", "rb").read().splitlines(keepends=True)
        lines.insert(11, b"# caf\xe9\n")
        open("obs.txt", "wb").write(b"".join(lines))
        rc, _, err = invoke([command, "--config", "exp.ini"])
        assert rc == 1, err
        assert err == "DATA_PARSE: line 12: not UTF-8 text\n"

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    @pytest.mark.parametrize(
        "edit, code",
        [
            (("n_points = 64", "n_points = 8"), "CONFIG_BAD_GEOMETRY"),
            # One 16-draw sample would take 12.8 TB.
            (("n_points = 64", "n_points = 100000000000"), "CONFIG_BAD_GEOMETRY"),
            (("values = 1.0,", "values = -1.0, 1.0,"), "CONFIG_BAD_VALUE"),
            (("kind = dp", "kind = gp"), "CONFIG_BAD_MODEL"),
            # Kernels this narrow vanish between the 64 grid points.
            (("truncation = 60", "truncation = 60\nbandwidth = 1e-6"), "CONFIG_BAD_VALUE"),
            (("truncation = 60", "truncation = 60\nbandwidth = 1e-300"), "CONFIG_BAD_VALUE"),
            (BANDWIDTH_SWEEP, "CONFIG_BAD_VALUE"),
            # Q's atoms of 16 draws would take 12.8 TB.
            (("truncation = 60", "truncation = 100000000000"), "CONFIG_BAD_VALUE"),
            (TRUNCATION_SWEEP, "CONFIG_BAD_VALUE"),
        ],
        ids=[
            "geometry", "geometry-huge", "value", "model", "bandwidth",
            "bandwidth-tiny", "bandwidth-swept", "truncation-huge", "truncation-swept",
        ],
    )
    def test_bad_config_fails_before_any_sampler_runs(
        self, workdir, monkeypatch, command, edit, code
    ):
        import frsense.cli as cli_mod

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
        open("bad.ini", "w").write(CONFIG.replace(*edit))
        rc, _, err = invoke([command, "--config", "bad.ini"])
        assert rc == 1, err
        assert err.startswith(code + ":")

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    @pytest.mark.parametrize("swept", [False, True], ids=["baseline", "swept"])
    def test_bandwidth_floor_is_the_grid_spacing(self, workdir, command, swept):
        # Below one grid spacing the binned atoms of Q outgrow their error
        # bound, so a set bandwidth must reach it at every value.
        for factor, expected_rc in ((0.99, 1), (1.0, 0)):
            bandwidth = repr(factor * Grid(64).spacing)
            if swept:
                text = CONFIG.replace(*BANDWIDTH_SWEEP).replace("1e-6", bandwidth)
            else:
                line = "truncation = 60"
                text = CONFIG.replace(line, f"{line}\nbandwidth = {bandwidth}")
            open("floor.ini", "w").write(text)
            out = ["--out", f"res-{factor}"] if command == "sweep" else []
            rc, _, err = invoke([command, "--config", "floor.ini", *out])
            assert rc == expected_rc, (factor, err)
            if rc:
                assert err.startswith("CONFIG_BAD_VALUE:") and "grid spacing" in err

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    @pytest.mark.parametrize(
        "model, edit, code",
        [
            # 200,000 draws of 1,000 data weights would take 1.6 GB,
            ("dp", ("n_samples = 12", "n_samples = 200000"), "CONFIG_BAD_MCMC"),
            # and so would the kernel table of 1,000 observations on 200,000 points.
            ("dp", ("n_points = 64", "n_points = 200000"), "CONFIG_BAD_GEOMETRY"),
            # 10,000 slots per observation would take 1.36 GB a sweep.
            ("dcv", ("aux_m = 3", "aux_m = 10000"), "CONFIG_BAD_VALUE"),
            ("dcv", ("parameter = a0\nvalues = 1.0, 2.0", "parameter = aux_m\nvalues = 3, 10000"),
             "CONFIG_BAD_VALUE"),
        ],
        ids=["dp-weights", "dp-kernel", "dcv-slots", "dcv-slots-swept"],
    )
    def test_arrays_sized_by_the_data_fail_before_any_sampler_runs(
        self, workdir, monkeypatch, command, model, edit, code
    ):
        import frsense.cli as cli_mod

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
        np.savetxt("obs.txt", np.random.default_rng(3).normal(size=1000))
        config = DP_CONFIG if model == "dp" else griffin_config(model)
        open("ok.ini", "w").write(config)
        assert invoke(["validate-config", "--config", "ok.ini"])[0] == 0
        open("big.ini", "w").write(config.replace(*edit))
        rc, _, err = invoke([command, "--config", "big.ini"])
        assert rc == 1, err
        assert err.startswith(code + ":") and "observations" in err

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    def test_dcv_phi_is_bounded_by_its_quadrature_not_gamma(self, workdir, command):
        # Gamma(200) overflows, but the quadrature's weights are normalized
        # and never form it; 1e308 overflows the quadrature itself.
        for phi, expected_rc in (("200.0", 0), ("1e308", 1)):
            text = griffin_config("dcv").replace("phi = 2.0", f"phi = {phi}")
            open("phi.ini", "w").write(text)
            out = ["--out", f"res-{phi}"] if command == "sweep" else []
            rc, _, err = invoke([command, "--config", "phi.ini", *out])
            assert rc == expected_rc, (phi, err)
            if rc:
                assert err.startswith("CONFIG_BAD_VALUE:") and "quadrature" in err

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    def test_more_components_than_grid_points(self, workdir, monkeypatch, command):
        # The summary has min(draws, grid points) eigenvalues, so 20
        # components on 16 points would fail only after every chain ran.
        import frsense.cli as cli_mod

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
        text = CONFIG.replace("d_components = 4", "d_components = 20")
        text = text.replace("n_samples = 16", "n_samples = 30")
        open("bad.ini", "w").write(text.replace("n_points = 64", "n_points = 16"))
        rc, _, err = invoke([command, "--config", "bad.ini"])
        assert rc == 1, err
        assert err.startswith("CONFIG_BAD_COMPONENTS:")

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    def test_dpgmm_new_cluster_weight_floor(self, workdir, monkeypatch, command):
        # m = 1e100 puts the data so far out in t0's tail that alpha * t0
        # underflows the linear Gibbs weights.
        import frsense.cli as cli_mod

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
        open("bad.ini", "w").write(DPGMM_CONFIG.replace("m = 0.5", "m = 1e100"))
        rc, _, err = invoke([command, "--config", "bad.ini"])
        assert rc == 1, err
        assert err.startswith("CONFIG_BAD_VALUE:") and "new-cluster weight" in err

    @pytest.mark.parametrize("model, key", MUTATED_KEYS)
    def test_mutated_values_fail_alike_and_never_internally(self, workdir, model, key):
        # validate-config must accept exactly what sweep accepts, and no bad
        # value may surface as an internal error (exit 2).
        config = {"dpgmm": DPGMM_CONFIG, "dp": DP_CONFIG}.get(model) or griffin_config(model)
        assert re.search(rf"^{key} = ", config, flags=re.M)
        values = ["nan", "inf", "-inf", "1e308", "0", "-1"]
        if key in ARRAY_SIZE_KEYS:
            values.append("100000000000")
        for value in values:
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", config, flags=re.M)
            open("mutated.ini", "w").write(text)
            outcomes = []
            for command in (["validate-config"], ["sweep", "--out", "res"]):
                rc, _, err = invoke([*command, "--config", "mutated.ini"])
                assert rc != 2, f"{command[0]} with {key} = {value}: {err}"
                outcomes.append((rc, err.split(":")[0] if rc else None))
            late = UNFORESEEABLE.get((model, key, value))
            if late is not None:
                assert outcomes == [(0, None), (1, late)], f"{key} = {value}: {outcomes}"
            else:
                assert outcomes[0] == outcomes[1], f"{key} = {value}: {outcomes}"


def readme_config():
    """The example config of README.md's "Config files" section."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        (block,) = re.findall(r"^```ini\n(.*?)^```", fh.read(), flags=re.M | re.S)
    return block


class TestReadmeConfig:
    @pytest.fixture
    def readme_dir(self, workdir):
        rng = np.random.default_rng(11)
        with open("waiting_times.txt", "w") as fh:
            for v in rng.uniform(40.0, 100.0, size=30):
                fh.write(f"{float(v)!r}\n")
        return workdir

    def test_example_validates(self, readme_dir):
        open("readme.ini", "w").write(readme_config())
        rc, out, err = invoke(["validate-config", "--config", "readme.ini"])
        assert rc == 0, err
        assert "(n=30, transform=log)" in out
        assert "sweep: alpha over 4 values" in out

    def test_example_with_preset_validates(self, readme_dir):
        text, n_removed = re.subn(
            r"^(parameter|values|band_values) = .*\n", "", readme_config(), flags=re.M
        )
        assert n_removed == 3
        open("readme.ini", "w").write(text.replace("[sweep]\n", "[sweep]\npreset = alpha\n"))
        rc, out, err = invoke(["validate-config", "--config", "readme.ini"])
        assert rc == 0, err
        assert "sweep: alpha over 15 values" in out
        assert "bands at: 0.1, 5, 15\n" in out


class TestGeodesicCommand:
    def setup_endpoints(self, rng, n_points=64):
        g = Grid(n_points)
        a, b = random_mixture_pdf(g, rng), random_mixture_pdf(g, rng)
        write_density_matrix("a.csv", [a])
        write_density_matrix("b.csv", [b])
        return a, b

    def test_path_rows_and_endpoint_fidelity(self, workdir, rng):
        a, b = self.setup_endpoints(rng)
        rc, _, err = invoke(
            ["geodesic", "--from", "a.csv", "--to", "b.csv", "--steps", "7",
             "--out", "path.csv"]
        )
        assert rc == 0, err
        path = read_density_matrix("path.csv")
        assert len(path) == 7
        npt.assert_allclose(path[0].values, a.values, atol=1e-8)
        npt.assert_allclose(path[-1].values, b.values, atol=1e-8)
        gaps = [fr_distance(p, q) for p, q in zip(path, path[1:])]
        npt.assert_allclose(gaps, fr_distance(a, b) / 6.0, atol=1e-9)

    def test_stdout_mode(self, workdir, rng):
        self.setup_endpoints(rng)
        rc, out, _ = invoke(
            ["geodesic", "--from", "a.csv", "--to", "b.csv", "--steps", "3"]
        )
        assert rc == 0
        assert len(out.strip().splitlines()) == 4

    def test_reader_that_closes_stdout_ends_the_run_silently(self, workdir, rng):
        # As `frsense geodesic ... | head -1`: 200 rows overfill the pipe, so
        # the write fails once the reader has gone.
        self.setup_endpoints(rng)
        code = "import sys; from frsense.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["geodesic", "--from", "a.csv", "--to", "b.csv", "--steps", "200"]
        with subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline().endswith(b"\n")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert err == b""

    def test_grid_mismatch_is_a_user_error(self, workdir, rng):
        g1, g2 = Grid(32), Grid(64)
        write_density_matrix("a.csv", [random_mixture_pdf(g1, rng)])
        write_density_matrix("b.csv", [random_mixture_pdf(g2, rng)])
        rc, _, err = invoke(["geodesic", "--from", "a.csv", "--to", "b.csv"])
        assert rc == 1
        assert err.startswith("DATA_GRID_MISMATCH:")

    def test_too_few_steps_rejected(self, workdir):
        rc, _, err = invoke(
            ["geodesic", "--from", "a.csv", "--to", "b.csv", "--steps", "1"]
        )
        assert rc == 1
        assert err.splitlines()[-1].startswith("CLI_USAGE:")


#: Each command that reads density files, given ``in.csv``.
DENSITY_COMMANDS = pytest.mark.parametrize(
    "args",
    [
        ["mean", "--densities", "in.csv", "--out", "mean.csv"],
        ["pca", "--densities", "in.csv", "--out", "modes"],
        ["geodesic", "--from", "in.csv", "--to", "in.csv"],
    ],
    ids=["mean", "pca", "geodesic"],
)


class TestMeanAndPcaCommands:
    def write_draws(self, rng, n=12):
        g = Grid(64)
        draws = [random_mixture_pdf(g, rng) for _ in range(n)]
        write_density_matrix("draws.csv", draws)
        return draws

    def test_mean_output_matches_library(self, workdir, rng):
        from frsense import from_srd, karcher_mean, karcher_variance
        from frsense.io import NUMBER_FORMAT

        self.write_draws(rng)
        rc, out, err = invoke(["mean", "--densities", "draws.csv", "--out", "mean.csv"])
        assert rc == 0, err
        draws = read_density_matrix("draws.csv")
        mean = karcher_mean(draws)
        write_density_matrix("direct.csv", [from_srd(mean)])
        assert open("mean.csv", "rb").read() == open("direct.csv", "rb").read()
        variance = NUMBER_FORMAT % karcher_variance(draws, mean)
        assert f"\nkarcher_variance = {variance}\n" in out

    def test_pca_writes_spectrum_and_mean(self, workdir, rng):
        self.write_draws(rng)
        rc, _, err = invoke(
            ["pca", "--densities", "draws.csv", "--out", "modes", "--components", "4"]
        )
        assert rc == 0, err
        lines = open("modes/eigenvalues.csv").read().splitlines()
        assert lines[0] == "component,eigenvalue,cumulative_fraction"
        assert len(lines) == 5
        rows = [line.split(",") for line in lines[1:]]
        eigs = [float(r[1]) for r in rows]
        fracs = [float(r[2]) for r in rows]
        assert eigs == sorted(eigs, reverse=True)
        assert fracs == sorted(fracs) and fracs[-1] <= 1.0 + 1e-12
        assert len(read_density_matrix("modes/mean.csv")) == 1

    def test_pca_rejects_single_draw(self, workdir, rng):
        g = Grid(64)
        write_density_matrix("one.csv", [random_mixture_pdf(g, rng)])
        rc, _, err = invoke(["pca", "--densities", "one.csv", "--out", "modes"])
        assert rc == 1
        assert err.startswith("MEASURE_TOO_FEW_DRAWS:")

    @DENSITY_COMMANDS
    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank-lines"])
    def test_density_file_without_rows_is_a_parse_error(self, workdir, args, text):
        open("in.csv", "w").write(text)
        rc, _, err = invoke(args)
        assert rc == 1, err
        assert err == "DATA_PARSE: line 1: empty density matrix\n"

    def test_density_file_with_a_byte_order_mark_reads_alike(self, workdir, rng):
        self.write_draws(rng)
        open("in.csv", "wb").write(codecs.BOM_UTF8 + open("draws.csv", "rb").read())
        rc, marked, err = invoke(["mean", "--densities", "in.csv", "--out", "marked.csv"])
        assert rc == 0, err
        rc, plain, err = invoke(["mean", "--densities", "draws.csv", "--out", "plain.csv"])
        assert rc == 0, err
        assert marked == plain
        assert open("marked.csv", "rb").read() == open("plain.csv", "rb").read()

    def test_density_row_of_nan_is_named_non_finite(self, workdir):
        rng = np.random.default_rng(3)
        write_density_matrix("in.csv", [random_mixture_pdf(Grid(16), rng) for _ in range(3)])
        lines = open("in.csv").read().splitlines()
        lines[1] = ",".join(["nan"] * 16)
        open("in.csv", "w").write("\n".join(lines) + "\n")
        rc, _, err = invoke(["mean", "--densities", "in.csv", "--out", "mean.csv"])
        assert rc == 1, err
        assert err == "DATA_PARSE: line 2: density values must be finite\n"

    @DENSITY_COMMANDS
    def test_density_file_that_is_not_utf8_is_a_parse_error(self, workdir, rng, args):
        # Twelve rows on 64 points outgrow one 8 KiB decoding chunk, so the
        # line number cannot come from the decoder's position.
        self.write_draws(rng)
        lines = open("draws.csv", "rb").read().split(b"\n")
        lines[9] = lines[9].replace(b",", b",\xe9", 1)
        open("in.csv", "wb").write(b"\n".join(lines))
        rc, _, err = invoke(args)
        assert rc == 1, err
        assert err == "DATA_PARSE: line 10: not UTF-8 text\n"


#: The stderr code for an instance of each package error class.  ConfigError
#: carries its own code; the classes without one share USER_ERROR.
ERROR_CODES = {
    "FrsenseError": "USER_ERROR",
    "GridMismatchError": "DATA_GRID_MISMATCH",
    "AllZeroError": "USER_ERROR",
    "NegativeValueError": "USER_ERROR",
    "BaseMismatchError": "USER_ERROR",
    "AntipodalOrBoundaryError": "USER_ERROR",
    "EmptyInputError": "USER_ERROR",
    "InsufficientSamplesError": "MEASURE_TOO_FEW_DRAWS",
    "DegenerateSampleError": "MEASURE_DEGENERATE",
    "EmptyDatasetError": "DATA_EMPTY",
    "InvalidSettingError": "CONFIG_BAD_VALUE",
    "InvalidPhiError": "CONFIG_BAD_VALUE",
    "UnknownModelError": "CONFIG_BAD_MODEL",
    "UnknownParameterError": "CONFIG_BAD_PARAM",
    "InsufficientValuesError": "MEASURE_TOO_FEW_VALUES",
    "ConfigError": "CONFIG_BAD_GRID",
    "ParseError": "DATA_PARSE",
    "NonPositiveForLogError": "DATA_NONPOSITIVE_LOG",
}

#: Exceptions from outside the package, with their code; None is exit 2.
FOREIGN_CODES = [
    (ValueError("bad"), None),
    (FileNotFoundError(2, "No such file", "ghost.csv"), "FILE_NOT_FOUND"),
    (PermissionError(13, "Permission denied", "locked.csv"), "IO_ERROR"),
]


def package_error(name):
    cls = getattr(errors, name)
    args = {"ConfigError": ("CONFIG_BAD_GRID", "went wrong"), "ParseError": ("went wrong", 3)}
    return cls(*args.get(name, ("went wrong",)))


class TestExitCodes:
    def test_every_error_class_has_an_expected_code(self):
        assert sorted(ERROR_CODES) == sorted(errors.__all__)

    @pytest.mark.parametrize(
        "exc, code",
        [*((package_error(name), code) for name, code in ERROR_CODES.items()), *FOREIGN_CODES],
        ids=[*ERROR_CODES, *(type(exc).__name__ for exc, _ in FOREIGN_CODES)],
    )
    def test_stderr_code_of_each_error(self, workdir, monkeypatch, exc, code):
        import frsense.cli as cli_mod

        def fail(path):
            raise exc

        monkeypatch.setattr(cli_mod, "load_config", fail)
        rc, _, err = invoke(["validate-config", "--config", "exp.ini"])
        if code is None:
            assert rc == 2
            assert err.startswith("INTERNAL:")
        else:
            assert rc == 1
            assert err == f"{code}: {exc}\n"

    @pytest.mark.parametrize(
        "exc, status",
        [(RuntimeError("boom"), 2), (ConfigError("CONFIG_BAD_GRID", "went wrong"), 1)],
        ids=["internal", "input"],
    )
    def test_status_stands_when_the_stderr_reader_has_gone(
        self, workdir, monkeypatch, exc, status
    ):
        import frsense.cli as cli_mod

        def fail(path):
            raise exc

        monkeypatch.setattr(cli_mod, "load_config", fail)
        with contextlib.redirect_stderr(GoneReader()):
            assert main(["validate-config", "--config", "exp.ini"]) == status

    @pytest.mark.parametrize(
        "argv", [["frobnicate"], ["sweep"], ["validate-config", "--config", "exp.ini", "-x"]]
    )
    def test_usage_error_status_stands_when_the_stderr_reader_has_gone(self, workdir, argv):
        # argparse prints the usage and main the CLI_USAGE line; neither may
        # turn the usage error into a raised BrokenPipeError
        with contextlib.redirect_stderr(GoneReader()):
            assert main(argv) == 1

    def test_unknown_subcommand(self, workdir):
        rc, _, err = invoke(["frobnicate"])
        assert rc == 1
        assert err.splitlines()[-1].startswith("CLI_USAGE:")

    def test_missing_required_flag(self, workdir):
        rc, _, err = invoke(["sweep"])
        assert rc == 1
        assert err.splitlines()[-1].startswith("CLI_USAGE:")

    def test_missing_file_maps_to_file_not_found(self, workdir):
        rc, _, err = invoke(["validate-config", "--config", "ghost.ini"])
        assert rc == 1
        assert err.startswith("FILE_NOT_FOUND:")

    def test_help_exits_zero(self, workdir):
        rc, _, _ = invoke(["--help"])
        assert rc == 0
        rc, _, _ = invoke(["sweep", "--help"])
        assert rc == 0

    def test_internal_failure_exits_two(self, workdir, monkeypatch):
        import frsense.cli as cli_mod

        def boom(path):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_mod, "load_config", boom)
        rc, _, err = invoke(["validate-config", "--config", "exp.ini"])
        assert rc == 2
        assert err.startswith("INTERNAL:")


class GoneReader(io.StringIO):
    """A stderr whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _child_env() -> dict:
    """This process's environment, with this package's source on the path."""
    src = os.path.dirname(os.path.dirname(frsense.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _run_child(code: str) -> str:
    """Run ``python -c code`` on this package's source; return its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cli_import_does_not_load_scipy_special(workdir):
    # scipy.special is slow to import, and nothing on the CLI or chain paths
    # needs it: the dcv quadrature rule is built with numpy.  scipy is a test
    # dependency only, so a whole `sweep` must not load it either.
    code = "import sys, frsense.cli; print('scipy.special' in sys.modules, 'scipy' in sys.modules)"
    assert _run_child(code) == "False False"
    code = (
        "import sys, numpy as np\n"
        "from frsense import Dataset, DcvConfig, McmcControl, dcv_posterior\n"
        "data = Dataset.from_observations(np.linspace(0.0, 1.0, 20))\n"
        "dcv_posterior(data, DcvConfig(), McmcControl(n_samples=10, burn_in=0, thin=1))\n"
        "print('scipy.special' in sys.modules)"
    )
    assert _run_child(code) == "False"
    code = (
        "import sys, contextlib, io\n"
        "from frsense.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['sweep', '--config', 'exp.ini', '--out', 'res'])\n"
        "print(rc, 'scipy' in sys.modules)"
    )
    assert _run_child(code) == "0 False"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["validate-config", "--config", "exp.ini"], False),
        (["sweep", "--config", "exp.ini", "--out", "res", "--threads", "2"], False),
        (["sweep", "--config", "exp.ini", "--out", "res", "--threads", "1"], True),
    ],
    ids=["validate-config", "sweep-threads-2", "sweep-threads-1"],
)
def test_only_a_sampling_process_loads_numpy_random(workdir, argv, loaded):
    # Each task derives its seed where it samples, so neither validate-config
    # nor the parent of a worker pool imports numpy.random (about 5 MB and
    # 15 ms); only the tasks' seeds and generators need it.  A --threads 1
    # sweep samples in this process, which shows that the check sees the import.
    code = (
        "import sys, contextlib, io\n"
        "from frsense.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "print(rc, 'numpy.random' in sys.modules)"
    )
    assert _run_child(code) == f"0 {loaded}"


@pytest.mark.parametrize(
    "config, model_module",
    [(CONFIG, "dp"), (DPGMM_CONFIG, "dpgmm"), (DP_CONFIG, "dp")],
    ids=["dp", "dpgmm", "dp-beta-g0"],
)
def test_a_sweep_loads_only_its_model_sampler(workdir, config, model_module):
    # A model's sampler module loads on the first use of its names, so a
    # sweep and its manifest never import the other models' samplers, nor
    # numpy.ma, which np.quantile would import for the replicate bands.
    with open("model.ini", "w") as fh:
        fh.write(config)
    code = (
        "import sys, contextlib, io\n"
        "from frsense.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['sweep', '--config', 'model.ini', '--out', 'res'])\n"
        "print(rc, sorted(m for m in sys.modules\n"
        "    if m.startswith('frsense.samplers.') or m == 'numpy.ma'))"
    )
    loaded = ["frsense.samplers.common", f"frsense.samplers.{model_module}"]
    assert _run_child(code) == f"0 {loaded}"
