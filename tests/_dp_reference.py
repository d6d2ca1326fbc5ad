"""Reference per-draw sampler for the dp model, and the same-law check.

This is the sampler that ``frsense.samplers.dp`` replaced with block draws:
four RNG calls per draw (sticks, G0 coins, G0 atoms, data indices), then
that draw's emission, every atom smoothed exactly by ``smooth``.  The block
sampler draws the same independent variates for all of a run's draws at
once, so the two sample one law from different streams, and it bins its G0
atoms onto the grid before smoothing them.  Kept only as the oracle for
that comparison: ``same_law_statistics`` gives per-draw statistics of a
block run and of a reference run with another seed, for the two-sample
tests of ``_law``.
"""

from __future__ import annotations

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
    centering_weight,
    default_grid,
    dp_posterior,
    fr_distance,
    make_rng,
    normalize_rows,
    silverman_bandwidth,
)
from frsense.errors import TruncationTooSmallError
from frsense.samplers.dp import MASS_TOL, _kernel


def smooth(grid: Grid, atoms: np.ndarray, weights: np.ndarray, bw: float) -> np.ndarray:
    """Gaussian-kernel mixture of the atoms, each evaluated exactly on the grid."""
    return _kernel(grid, atoms, bw) @ weights


def draw_atoms_and_weights(rng, config: DpConfig, n: int, w_g0: float):
    """One truncated stick-breaking realization of the posterior DP."""
    k = config.truncation
    sticks = rng.beta(1.0, config.alpha + n, size=k - 1)
    weights = np.empty(k)
    weights[:-1] = sticks * np.cumprod(np.concatenate(([1.0], 1.0 - sticks[:-1])))
    remainder = 1.0 - float(weights[:-1].sum())
    if abs(1.0 - (weights[:-1].sum() + max(remainder, 0.0))) > MASS_TOL:
        raise TruncationTooSmallError(
            f"stick mass not conserved at truncation {k}; residual {remainder!r}"
        )
    weights[-1] = max(remainder, 0.0)

    from_g0 = rng.random(k) < w_g0
    g0_atoms = config.g0.sample(rng, k)
    data_idx = rng.integers(0, n, size=k)
    return weights, remainder, from_g0, g0_atoms, data_idx


def reference_posterior(
    data: Dataset, config: DpConfig, ctl: McmcControl, grid: Grid | None = None
) -> PosteriorSample:
    """``dp_posterior`` as it was: each draw made and emitted on its own."""
    grid = grid or default_grid()
    rng = make_rng(ctl.seed)
    x = data.rescaled
    w_g0 = centering_weight(config.alpha, data.n)
    bw = config.bandwidth if config.bandwidth is not None else silverman_bandwidth(x, grid)
    table = _kernel(grid, x, bw)
    rows = np.empty((ctl.n_samples, grid.n_points))
    remainders = np.empty(ctl.n_samples)
    for i in range(ctl.n_samples):
        weights, remainders[i], from_g0, g0_atoms, data_idx = draw_atoms_and_weights(
            rng, config, x.size, w_g0
        )
        from_data = ~from_g0
        rows[i] = table @ np.bincount(
            data_idx[from_data], weights=weights[from_data], minlength=x.size
        )
        if from_g0.any():
            rows[i] += smooth(grid, g0_atoms[from_g0], weights[from_g0], bw)
    return PosteriorSample(
        grid=grid,
        densities=normalize_rows(grid, rows),
        trace={"absorbed_remainder": remainders},
        diagnostics={"bandwidth": bw},
    )


#: Grid, data and configs of the same-law check: the G0 share of the atoms
#: is about 5% at alpha = 5 and 91% at alpha = 1e3.
LAW_GRID = Grid(128)
LAW_CASES = {
    "uniform-alpha-5": DpConfig(alpha=5.0, truncation=60, bandwidth=0.05),
    "uniform-alpha-1e3": DpConfig(alpha=1e3, truncation=60, bandwidth=0.05),
    "beta-alpha-1e3": DpConfig(alpha=1e3, g0=BetaBase(2.0, 5.0), truncation=60, bandwidth=0.05),
}
#: Grid points at which each draw's density is compared.
LAW_POINTS = (32, 96)


def law_data() -> Dataset:
    crng = np.random.default_rng(41)
    return Dataset.from_observations(
        np.concatenate([crng.normal(-2.0, 0.7, 50), crng.normal(2.5, 1.0, 50)])
    )


def law_statistics(sample: PosteriorSample, center: GridPdf) -> dict:
    """Per-draw statistics whose laws the two samplers must share."""
    stats = {
        "absorbed_remainder": sample.trace["absorbed_remainder"],
        "fr": [fr_distance(GridPdf(sample.grid, row), center) for row in sample.densities],
    }
    for j in LAW_POINTS:
        stats[f"density@{j}"] = sample.densities[:, j]
    return stats


def same_law_statistics(
    data: Dataset, config: DpConfig, n_draws: int, seed: int, reference_seed: int
) -> tuple[dict, dict]:
    """The statistics of a block run and of a per-draw run, for ``_law``.

    The seeds must differ: both samplers begin with the same stick variates.
    """
    center = smoothed_centering_measure(data, config, LAW_GRID)
    ctls = (
        McmcControl(n_samples=n_draws, burn_in=0, thin=1, seed=s) for s in (seed, reference_seed)
    )
    return tuple(
        law_statistics(sampler(data, config, ctl, LAW_GRID), center)
        for sampler, ctl in zip((dp_posterior, reference_posterior), ctls)
    )
