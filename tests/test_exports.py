"""Every name a module declares public exists and the package re-exports it.

``import frsense`` loads only the geometry core; the names of the samplers,
the sweep driver and the config reader resolve on first use, and a sampler
name loads only its own model's module.
"""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest
from conftest import random_mixture_pdf

import frsense

#: The console entry point; its ``main`` is not library API.
ENTRY_POINT = "frsense.cli"

MODULES = sorted(info.name for info in pkgutil.walk_packages(frsense.__path__, "frsense."))

#: Modules whose names ``import frsense`` leaves to load on first use.
DEFERRED = ("frsense.samplers", "frsense.sweep", "frsense.config")

#: Names that only tests called, whose oracles live in ``tests/_oracles.py``,
#: ``apply_preset``, a second way to set ``[sweep] preset``,
#: ``centering_weight``, the G0 share of the atoms, which the dp sampler no
#: longer draws atom by atom, ``TruncationTooSmallError``, whose check the
#: dp sticks, each in [0, 1], could not trip, and ``MODEL_TAGS``, which only
#: filled an error message.
REMOVED = (
    "tangent_project",
    "exp_map",
    "measure_triple",
    "crp_expected_clusters",
    "griffin_steel_pdf",
    "smoothed_centering_measure",
    "sweep_grid_presets",
    "GRID_POINTS",
    "apply_preset",
    "centering_weight",
    "TruncationTooSmallError",
    "MODEL_TAGS",
)

#: (class, attribute) pairs that nothing outside the tests read.  A sample
#: run's model, seed and config stay with its caller, and a sweep's base
#: seed and aggregate are its spec's and its caller's.  A config's plan is
#: checked against its data by ``SweepSpec.check``.
REMOVED_ATTRIBUTES = (
    ("PosteriorSample", "model"),
    ("PosteriorSample", "seed"),
    ("PosteriorSample", "config"),
    ("SweepResult", "base_seed"),
    ("SweepResult", "aggregate"),
    ("Dataset", "name"),
    ("GridPdf", "x"),
    ("Srd", "x"),
    ("TpcaResult", "grid"),
    ("TpcaResult", "n_samples"),
    ("SampleSummary", "n_draws"),
    ("ExperimentConfig", "check_dataset_size"),
)


def run_fresh(code: str, *args: str):
    """The JSON that ``code`` prints when run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(frsense.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def public_names() -> set:
    """Every name a library module declares public, and the top-level modules."""
    library = [name for name in MODULES if name != ENTRY_POINT]
    exports = {e for name in library for e in importlib.import_module(name).__all__}
    return exports | {name.split(".")[1] for name in library}


def test_every_module_is_found():
    assert {ENTRY_POINT, "frsense.measures", "frsense.samplers.griffin"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_declared_exports_resolve_and_are_reexported(name):
    module = importlib.import_module(name)
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.__all__ names a missing {export!r}"
        if name != ENTRY_POINT:
            assert getattr(frsense, export, None) is getattr(module, export), (
                f"frsense does not re-export {name}.{export}"
            )


def test_test_only_names_are_gone():
    for name in MODULES:
        module = importlib.import_module(name)
        assert not [n for n in REMOVED if hasattr(module, n)], name
    assert not hasattr(frsense.TangentVector, "scaled")
    assert not hasattr(frsense.UniformBase, "density")
    assert not hasattr(frsense.BetaBase, "density")
    assert not hasattr(frsense.Srd, "allclose")
    assert not hasattr(frsense.SweepSpec, "baseline_index")


def test_removed_attributes_are_gone_from_built_instances(rng):
    data = frsense.Dataset.from_observations(rng.uniform(size=20))
    spec = frsense.SweepSpec(
        model="dp",
        baseline=frsense.DpConfig(alpha=2.0, truncation=50),
        parameter="alpha",
        values=(1.0, 2.0),
        replicates=1,
        mcmc=frsense.McmcControl(n_samples=12, burn_in=0, thin=1, seed=3),
        d_components=3,
    )
    result = frsense.run_sweep(data, spec, grid=frsense.Grid(32))
    sample = result.baseline_sample
    built = {
        "PosteriorSample": sample,
        "SweepResult": result,
        "Dataset": data,
        "GridPdf": sample[0],
        "Srd": frsense.to_srd(sample[0]),
        "TpcaResult": frsense.tangent_pca(sample),
        "SampleSummary": frsense.summarize_sample(sample, 3),
        "ExperimentConfig": frsense.ExperimentConfig(
            dataset_path="obs.txt",
            transform="none",
            spec=spec,
            aggregate="first",
            geometry=frsense.GeometryOptions(n_points=32),
            output=frsense.OutputOptions(),
        ),
    }
    for cls, attribute in REMOVED_ATTRIBUTES:
        assert isinstance(built[cls], getattr(frsense, cls))
        assert not hasattr(built[cls], attribute), f"{cls}.{attribute}"
    with pytest.raises(TypeError, match="name"):
        frsense.Dataset.from_observations([0.1, 0.2], name="data")


def test_summaries_do_not_load_samplers_sweep_or_config(tmp_path, rng):
    grid = frsense.Grid(64)
    paths = [str(tmp_path / f"{name}.csv") for name in ("base", "pert")]
    for path in paths:
        frsense.write_density_matrix(path, [random_mixture_pdf(grid, rng) for _ in range(8)])
    code = (
        "import json, sys\n"
        "import frsense\n"
        "summaries = [\n"
        "    frsense.summarize_sample(frsense.read_density_matrix(path), 4)\n"
        "    for path in sys.argv[1:]\n"
        "]\n"
        "frsense.triple_from_summaries(*summaries)\n"
        f"print(json.dumps([name for name in {DEFERRED!r} if name in sys.modules]))"
    )
    assert run_fresh(code, *paths) == []


def test_star_import_and_dir_list_every_public_name():
    code = (
        "import json\n"
        "import frsense\n"
        "listed = dir(frsense)\n"
        "namespace = {}\n"
        "exec('from frsense import *', namespace)\n"
        "print(json.dumps([listed, sorted(set(namespace) - {'__builtins__'})]))"
    )
    listed, star = run_fresh(code)
    assert set(star) == public_names()
    assert set(listed) >= public_names()


def test_deferred_modules_resolve_without_an_import():
    code = (
        "import json\n"
        "import frsense\n"
        "print(json.dumps([\n"
        "    frsense.samplers.__name__, frsense.sweep.__name__, frsense.config.__name__,\n"
        "    frsense.run_sweep.__module__, frsense.DpConfig.__module__,\n"
        "]))"
    )
    assert run_fresh(code) == [*DEFERRED, "frsense.sweep", "frsense.samplers.dp"]


def test_sampler_index_lists_each_model_module_exports():
    from frsense import samplers

    for module_name, names in samplers._MODULE_NAMES.items():
        module = importlib.import_module(f"frsense.samplers.{module_name}")
        assert names == tuple(module.__all__), module_name


def test_a_sampler_name_loads_only_its_own_module():
    code = (
        "import json, sys\n"
        "import frsense\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('frsense.samplers.'))\n"
        "steps = [loaded()]\n"
        "frsense.DcvConfig\n"
        "steps.append(loaded())\n"
        "from frsense.samplers import DpgmmConfig\n"
        "steps.append(loaded())\n"
        "frsense.samplers.dp.expected_remainder\n"
        "steps.append(loaded())\n"
        "print(json.dumps(steps))"
    )
    common, dp, dpgmm, griffin = (
        f"frsense.samplers.{name}" for name in ("common", "dp", "dpgmm", "griffin")
    )
    assert run_fresh(code) == [
        [],
        [common, griffin],
        [common, dpgmm, griffin],
        [common, dp, dpgmm, griffin],
    ]


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "_no_such_name", *REMOVED):
        assert not hasattr(frsense, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        frsense.no_such_name


def test_version_matches_pyproject():
    # Read by pattern, not with tomllib, so that Python 3.10 checks it too.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        versions = re.findall(r'^version = "([^"]*)"$', fh.read(), flags=re.M)
    assert versions == [frsense.__version__]
