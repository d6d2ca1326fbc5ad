"""Pinned archives of small sweeps, and the script that regenerates them.

The cases are small versions of the ``sweep-dpgmm``, ``sweep-dcv-t2`` and
``sweep-dp`` benchmark sweeps and a small ``ccv`` sweep, at seeds 1, 2 and 7.  Each case
directory under ``tests/reference_sweeps/`` holds the dataset, the INI config
and the files that ``frsense sweep`` wrote from them: ``sweep.csv``,
``bands.csv`` and ``densities.csv``.  ``test_reference_sweeps.py`` reruns every case
and compares.

A change that is meant to move these outputs regenerates them with

    PYTHONPATH=src python tests/_reference_sweeps.py

and says which files changed and why.
"""

import contextlib
import io
import os
import shutil
import tempfile

import numpy as np

from frsense.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_sweeps")

SEEDS = (1, 2, 7)

_DPGMM = """\
[model]
kind = dpgmm

[model.baseline]
alpha = 1.0
m = 0.5
s = 0.01

[sweep]
parameter = alpha
values = 0.25, 1.0, 4.0, 16.0
replicates = 2
band_values = 0.25, 1.0, 16.0
d_components = 10

[mcmc]
n_samples = 20
burn_in = 30
thin = 2
seed = {seed}
"""

_DCV = """\
[model]
kind = dcv

[model.baseline]
phi = 3.0

[sweep]
parameter = phi
values = 2.0, 3.0, 6.0
replicates = 2
band_values = 3.0
d_components = 10

[mcmc]
n_samples = 20
burn_in = 20
thin = 1
seed = {seed}
"""

_CCV = """\
[model]
kind = ccv

[sweep]
parameter = eta
values = 1.5, 3.0, 6.0
replicates = 2
band_values = 3.0
d_components = 10

[mcmc]
n_samples = 20
burn_in = 20
thin = 1
seed = {seed}
"""

_DP = """\
[model]
kind = dp

[model.baseline]
alpha = 5.0

[sweep]
parameter = alpha
values = 1.0, 5.0, 25.0
replicates = 2
band_values = 1.0, 5.0, 25.0
d_components = 10

[mcmc]
n_samples = 20
burn_in = 0
thin = 1
seed = {seed}
"""

#: Case name: (worker count, archive files pinned, config after [dataset]).
CASES = {
    "dpgmm": (1, ("sweep.csv", "bands.csv", "densities.csv"), _DPGMM),
    "dcv-t2": (2, ("sweep.csv", "bands.csv", "densities.csv"), _DCV),
    "ccv": (1, ("sweep.csv", "bands.csv", "densities.csv"), _CCV),
    "dp": (1, ("sweep.csv", "bands.csv", "densities.csv"), _DP),
}

#: Shared by every case; coarser than the package default to keep the
#: densities small.
_TAIL = """
[geometry]
n_points = 64

[output]
densities = {densities}
"""


def case_dir(name: str, seed: int) -> str:
    return os.path.join(ROOT, name, f"seed{seed}")


def observations(seed: int) -> np.ndarray:
    """Two well separated normal groups of 30 points each."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(-2.0, 0.7, 30), rng.normal(2.5, 1.0, 30)])


def write_inputs(name: str, seed: int) -> None:
    _, files, body = CASES[name]
    directory = case_dir(name, seed)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "observations.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v!r}\n" for v in observations(seed).tolist()))
    densities = "true" if "densities.csv" in files else "false"
    with open(os.path.join(directory, "experiment.ini"), "w", encoding="utf-8") as fh:
        fh.write("[dataset]\npath = observations.txt\n\n")
        fh.write(body.format(seed=seed) + _TAIL.format(densities=densities))


def run_case(name: str, seed: int, out_dir: str) -> tuple:
    """Sweep a committed case into ``out_dir``; return the pinned file names."""
    threads, files, _ = CASES[name]
    ini = os.path.join(case_dir(name, seed), "experiment.ini")
    argv = ["sweep", "--config", ini, "--out", out_dir, "--threads", str(threads)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"frsense {' '.join(argv)} exited {rc}")
    return files


if __name__ == "__main__":
    for name in CASES:
        for seed in SEEDS:
            write_inputs(name, seed)
            with tempfile.TemporaryDirectory() as tmp:
                for filename in run_case(name, seed, tmp):
                    shutil.copyfile(
                        os.path.join(tmp, filename),
                        os.path.join(case_dir(name, seed), filename),
                    )
            print(f"wrote {case_dir(name, seed)}")
