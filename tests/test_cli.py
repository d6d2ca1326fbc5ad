"""Command line interface: exit codes, archives and reproducibility."""

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

import frsense
from frsense import (
    CcvConfig,
    ConfigError,
    DcvConfig,
    DegenerateSampleError,
    DpConfig,
    Grid,
    derived_seed,
    dp_posterior,
    fr_distance,
    load_config,
)
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

    def test_seed_override_changes_results_and_is_echoed(self, workdir):
        invoke(["sweep", "--config", "exp.ini", "--out", "r1"])
        invoke(["sweep", "--config", "exp.ini", "--out", "r4", "--seed", "123"])
        assert open("r1/sweep.csv", "rb").read() != open("r4/sweep.csv", "rb").read()
        assert "seed = 123" in open("r4/manifest.ini").read()

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
        dp_sampler = frsense.sweep._MODELS["dp"][1]

        def failing(data, config, ctl, grid=None):
            if config.alpha == 8.0:
                raise make_error()
            return dp_sampler(data, config, ctl, grid=grid)

        monkeypatch.setitem(frsense.sweep._MODELS, "dp", (DpConfig, failing))
        one = invoke(["sweep", "--config", "exp.ini", "--out", "r1", "--threads", "1"])
        two = invoke(["sweep", "--config", "exp.ini", "--out", "r2", "--threads", "2"])
        assert one[0] == two[0] == 1
        assert one[2] == two[2] == (
            f"{code}: {make_error()} [sweep task failed at alpha=8, replicate 1]\n"
        )

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

    def test_plan_names_burn_in_and_thinning_for_chains(self, workdir):
        open("gm.ini", "w").write(DPGMM_CONFIG)
        rc, out, err = invoke(["validate-config", "--config", "gm.ini"])
        assert rc == 0, err
        assert "mcmc: keep 12, burn-in 0, thin 1, seed 5\n" in out
        assert "sampler runs: 3" in out

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

    @pytest.mark.parametrize("command", ["validate-config", "sweep"])
    @pytest.mark.parametrize(
        "edit, code",
        [
            (("n_points = 64", "n_points = 8"), "CONFIG_BAD_GEOMETRY"),
            (("values = 1.0,", "values = -1.0, 1.0,"), "CONFIG_BAD_VALUE"),
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
        for value in ("nan", "inf", "-inf", "1e308", "0", "-1"):
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


class TestMeanAndPcaCommands:
    def write_draws(self, rng, n=12):
        g = Grid(64)
        draws = [random_mixture_pdf(g, rng) for _ in range(n)]
        write_density_matrix("draws.csv", draws)
        return draws

    def test_mean_output_matches_library(self, workdir, rng):
        from frsense import karcher_mean, from_srd, to_srd

        draws = self.write_draws(rng)
        rc, out, err = invoke(["mean", "--densities", "draws.csv", "--out", "mean.csv"])
        assert rc == 0, err
        written = read_density_matrix("mean.csv")
        assert len(written) == 1
        direct = from_srd(karcher_mean([to_srd(p) for p in draws]))
        npt.assert_allclose(written[0].values, direct.values, atol=1e-9)
        assert "karcher_variance = " in out

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


class TestExitCodes:
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


def test_cli_import_does_not_load_scipy_special(workdir):
    # scipy.special is slow to import, and nothing on the CLI or chain paths
    # needs it: the dcv quadrature rule is built with numpy.  scipy is a test
    # dependency only, so a whole `sweep` must not load it either.
    src = os.path.dirname(os.path.dirname(frsense.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, frsense.cli; print('scipy.special' in sys.modules, 'scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False False"
    code = (
        "import sys, numpy as np\n"
        "from frsense import Dataset, DcvConfig, McmcControl, dcv_posterior\n"
        "data = Dataset.from_observations(np.linspace(0.0, 1.0, 20))\n"
        "dcv_posterior(data, DcvConfig(), McmcControl(n_samples=10, burn_in=0, thin=1))\n"
        "print('scipy.special' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
    code = (
        "import sys, contextlib, io\n"
        "from frsense.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['sweep', '--config', 'exp.ini', '--out', 'res'])\n"
        "print(rc, 'scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "0 False"
