"""Stick-breaking samplers of the dp posterior, and the same-law check.

``frsense.samplers.dp`` draws the posterior by its exact Dirichlet split:
Bayesian-bootstrap weights on the data plus W_0 times a truncated
Q ~ DP(alpha, G0).  The oracle here breaks sticks of the posterior
DP(alpha + n, H) itself, one draw at a time, until the unbroken mass is below
``TAIL``, and smooths every atom exactly by ``smooth``; the two sample one
law from different streams.  Given a truncation instead, the same loop is
the sampler dp used before 0.11.0, whose last atom absorbs all the stick
mass past the truncation; it is kept only as the negative control that the
same-law check must reject.  ``case_statistics`` gives per-draw statistics
of a run of any of them, for the two-sample tests of ``_law``.
"""

from __future__ import annotations

import functools

import numpy as np

from _oracles import smoothed_centering_measure

from frsense import (
    BetaBase,
    Dataset,
    DpConfig,
    Grid,
    GridPdf,
    McmcControl,
    PosteriorSample,
    dp_posterior,
    fr_distance,
    make_rng,
    normalize_rows,
    silverman_bandwidth,
)
from frsense.samplers.dp import _kernel

#: The oracle breaks sticks until less than this mass is left unbroken.
TAIL = 1e-9

#: The truncation of the posterior DP that dp used before 0.11.0.
OLD_TRUNCATION = 200

#: Sticks the oracle draws at a time.
_CHUNK = 1024


def smooth(grid: Grid, atoms: np.ndarray, weights: np.ndarray, bw: float) -> np.ndarray:
    """Gaussian-kernel mixture of the atoms, each evaluated exactly on the grid."""
    return _kernel(grid, atoms, bw) @ weights


def posterior_sticks(rng, a: float, truncation: int | None) -> np.ndarray:
    """One draw's stick weights of DP(a, H), broken past ``TAIL`` or truncated.

    With a truncation the last weight absorbs the unbroken mass; without,
    the mass left below ``TAIL`` is dropped, and normalization restores it.
    """
    if truncation is not None:
        sticks = rng.beta(1.0, a, size=truncation - 1)
    else:
        chunks, rest = [], 1.0
        while rest >= TAIL:
            chunks.append(rng.beta(1.0, a, size=_CHUNK))
            rest *= float(np.prod(1.0 - chunks[-1]))
        sticks = np.concatenate(chunks)
    weights = sticks * np.cumprod(np.concatenate(([1.0], 1.0 - sticks[:-1])))
    if truncation is not None:
        weights = np.append(weights, max(1.0 - float(weights.sum()), 0.0))
    return weights


def stick_breaking_posterior(
    data: Dataset,
    config: DpConfig,
    ctl: McmcControl,
    grid: Grid,
    truncation: int | None = None,
) -> PosteriorSample:
    """The posterior DP(alpha + n, H) by stick-breaking, one draw at a time.

    Each atom is a G0 draw with probability alpha / (alpha + n) and a data
    point otherwise; the data atoms are summed per point and smoothed by the
    kernel table of the data, the G0 atoms one by one, all exactly.
    """
    rng = make_rng(ctl.seed)
    x = data.rescaled
    w_g0 = config.alpha / (config.alpha + data.n)
    bw = config.bandwidth if config.bandwidth is not None else silverman_bandwidth(x, grid)
    table = _kernel(grid, x, bw)
    rows = np.empty((ctl.n_samples, grid.n_points))
    for i in range(ctl.n_samples):
        weights = posterior_sticks(rng, config.alpha + data.n, truncation)
        from_g0 = rng.random(weights.size) < w_g0
        g0_atoms = config.g0.sample(rng, int(from_g0.sum()))
        data_idx = rng.integers(0, data.n, size=weights.size - g0_atoms.size)
        rows[i] = table @ np.bincount(data_idx, weights=weights[~from_g0], minlength=data.n)
        rows[i] += smooth(grid, g0_atoms, weights[from_g0], bw)
    return PosteriorSample(
        grid=grid, densities=normalize_rows(grid, rows), diagnostics={"bandwidth": bw}
    )


#: Grid, data sizes and configs of the same-law check.  The G0 share of the
#: posterior is about 5% and 20% at n = 100 and 83% at n = 10, alpha = 50,
#: whose truncation keeps the expected tail of Q below 1e-3.
LAW_GRID = Grid(128)
LAW_CASES = {
    "alpha-5": (100, DpConfig(alpha=5.0, bandwidth=0.05)),
    "alpha-25": (100, DpConfig(alpha=25.0, bandwidth=0.05)),
    "beta-alpha-50-n-10": (
        10,
        DpConfig(alpha=50.0, g0=BetaBase(2.0, 5.0), truncation=350, bandwidth=0.05),
    ),
}
#: Grid points at which each draw's density is compared.
LAW_POINTS = (32, 96)


def law_data(n: int = 100) -> Dataset:
    """``n`` of 100 points from two groups, taken evenly from both."""
    crng = np.random.default_rng(41)
    obs = np.concatenate([crng.normal(-2.0, 0.7, 50), crng.normal(2.5, 1.0, 50)])
    return Dataset.from_observations(obs[:: 100 // n])


def law_statistics(sample: PosteriorSample, center: GridPdf) -> dict:
    """Per-draw statistics whose laws the two samplers must share."""
    stats = {"fr": [fr_distance(GridPdf(sample.grid, row), center) for row in sample.densities]}
    for j in LAW_POINTS:
        stats[f"density@{j}"] = sample.densities[:, j]
    return stats


#: The samplers the same-law check runs, by name.
SAMPLERS = {
    "split": dp_posterior,
    "oracle": stick_breaking_posterior,
    "old": functools.partial(stick_breaking_posterior, truncation=OLD_TRUNCATION),
}


def case_statistics(case: str, sampler: str, n_draws: int, seed: int) -> dict:
    """The statistics of one run of a named sampler on a law case, for ``_law``.

    Compare runs with different seeds: the stick-breaking samplers begin
    with the same stick variates.
    """
    n, config = LAW_CASES[case]
    data = law_data(n)
    ctl = McmcControl(n_samples=n_draws, burn_in=0, thin=1, seed=seed)
    sample = SAMPLERS[sampler](data, config, ctl, LAW_GRID)
    return law_statistics(sample, smoothed_centering_measure(data, config, LAW_GRID))
