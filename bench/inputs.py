"""Workload definitions and the inputs each one is built from.

Every input is a pure function of the workload seed: the observations of
the sweep datasets, the chain base seed in the config, and the density
matrices of the ``summaries`` workload.  The density matrices come from
numpy alone, not from the samplers, so a sampler change cannot alter them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

#: Grid of every workload (the package default).
N_POINTS = 512

#: Observations per sweep dataset.
N_OBS = 100


@dataclass(frozen=True)
class SweepWorkload:
    model: str
    baseline: dict
    parameter: str
    values: tuple
    replicates: int
    band_values: tuple
    n_samples: int
    burn_in: int
    thin: int
    threads: int
    densities: bool

    @property
    def tasks(self) -> int:
        """Sampler runs that end in a summary: the manifest's "sampler runs"."""
        return self.replicates * (len(self.values) + 1)

    @property
    def sweeps_run(self) -> int:
        """Chain sweeps each sampler run makes before its last retained draw."""
        return self.burn_in + (self.n_samples - 1) * self.thin + 1


SWEEPS = {
    # The collapsed-Gibbs loop dominates.  The informative base measure keeps
    # several clusters occupied, so the kernel's per-cluster cost shows.
    "sweep-dpgmm": SweepWorkload(
        model="dpgmm",
        baseline={"alpha": 1.0, "m": 0.5, "s": 0.01},
        parameter="alpha",
        values=(0.25, 1.0, 4.0, 16.0),
        replicates=2,
        band_values=(0.25, 1.0, 16.0),
        n_samples=40,
        burn_in=60,
        thin=2,
        threads=1,
        densities=False,
    ),
    # The only workload with the auxiliary-slot kernel, two pool workers and
    # the density-matrix write.
    "sweep-dcv-t2": SweepWorkload(
        model="dcv",
        baseline={"phi": 3.0},
        parameter="phi",
        values=(2.0, 3.0, 6.0),
        replicates=2,
        band_values=(3.0,),
        n_samples=40,
        burn_in=40,
        thin=1,
        threads=2,
        densities=True,
    ),
    # Stick-breaking plus kernel-smoothing emission, no Gibbs loop.
    "sweep-dp": SweepWorkload(
        model="dp",
        baseline={"alpha": 5.0},
        parameter="alpha",
        values=(1.0, 5.0, 25.0),
        replicates=4,
        band_values=(1.0, 5.0, 25.0),
        n_samples=100,
        burn_in=100,
        thin=2,
        threads=1,
        densities=False,
    ),
}

#: Draws per density matrix of the ``summaries`` workload: fewer draws than
#: grid points (the sweep's shape) and more.
SHAPES = {"wide": 200, "tall": 2000}

#: Leading eigenvalues entering E (the package default).
D_COMPONENTS = 20

WORKLOADS = (*SWEEPS, "summaries")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def observations(seed: int) -> np.ndarray:
    """Two well separated normal groups of N_OBS/2 points each.

    Each point is drawn inside its own quantile stratum of its group, so
    every seed gives the same bimodal shape (and about the same sampler
    work) while no two seeds give the same data.
    """
    rng = _rng(seed, 0)
    half = N_OBS // 2
    points = []
    for loc, sd, size in ((-2.0, 0.7, half), (2.5, 1.0, N_OBS - half)):
        u = (np.arange(size) + np.clip(rng.random(size), 1e-9, 1.0 - 1e-9)) / size
        points.extend(loc + sd * NormalDist().inv_cdf(float(q)) for q in u)
    return np.array(points)


def _csv(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def write_sweep_inputs(name: str, seed: int, directory: str) -> str:
    """Write the dataset and INI config of a sweep workload; return the INI."""
    w = SWEEPS[name]
    os.makedirs(directory, exist_ok=True)
    data_path = os.path.join(directory, "observations.txt")
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v!r}\n" for v in observations(seed).tolist()))
    baseline = "".join(f"{k} = {v!r}\n" for k, v in w.baseline.items())
    text = (
        "[dataset]\npath = observations.txt\n\n"
        f"[model]\nkind = {w.model}\n\n"
        f"[model.baseline]\n{baseline}\n"
        f"[sweep]\nparameter = {w.parameter}\nvalues = {_csv(w.values)}\n"
        f"replicates = {w.replicates}\nband_values = {_csv(w.band_values)}\n"
        f"d_components = {D_COMPONENTS}\n\n"
        f"[mcmc]\nn_samples = {w.n_samples}\nburn_in = {w.burn_in}\n"
        f"thin = {w.thin}\nseed = {seed}\n\n"
        f"[geometry]\nn_points = {N_POINTS}\n\n"
        f"[output]\ndirectory = out\ndensities = {'true' if w.densities else 'false'}\n"
    )
    ini_path = os.path.join(directory, "experiment.ini")
    with open(ini_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return ini_path


def density_draws(seed: int, n_draws: int, stream: int) -> np.ndarray:
    """Posterior-like draws: one bimodal mixture with per-draw jitter.

    The jitter is sized so the Karcher variance is of the order of the
    sweeps' posterior samples (about 1e-2; the benchmark prints both).
    """
    rng = _rng(seed, stream)
    x = np.linspace(0.0, 1.0, N_POINTS)
    weight = np.clip(0.45 + 0.04 * rng.standard_normal(n_draws), 0.2, 0.8)
    loc1 = 0.3 + 0.012 * rng.standard_normal(n_draws)
    loc2 = 0.72 + 0.015 * rng.standard_normal(n_draws)
    sd1 = 0.06 * np.exp(0.08 * rng.standard_normal(n_draws))
    sd2 = 0.08 * np.exp(0.08 * rng.standard_normal(n_draws))

    def bump(loc, sd):
        z = (x[None, :] - loc[:, None]) / sd[:, None]
        return np.exp(-0.5 * z * z) / sd[:, None]

    rows = weight[:, None] * bump(loc1, sd1) + (1.0 - weight)[:, None] * bump(loc2, sd2)
    w = np.full(N_POINTS, 1.0 / (N_POINTS - 1))
    w[[0, -1]] *= 0.5
    return rows / (rows @ w)[:, None]


def write_density_file(path: str, rows: np.ndarray) -> None:
    """The package's density-matrix format: abscissae header, one row each."""
    x = np.linspace(0.0, 1.0, N_POINTS)
    lines = [",".join("%.12g" % v for v in x)]
    lines.extend(",".join("%.12g" % v for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_inputs(seed: int, directory: str) -> dict:
    """One density matrix per shape; returns shape -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for stream, (shape, n_draws) in enumerate(SHAPES.items(), start=1):
        path = os.path.join(directory, f"{shape}.csv")
        write_density_file(path, density_draws(seed, n_draws, stream))
        paths[shape] = path
    return paths
