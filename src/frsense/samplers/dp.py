"""Conjugate Dirichlet process posterior, sampled by truncated stick-breaking.

Given data x_1..x_n and a DP(alpha, G0) prior, the posterior over the random
distribution is again a Dirichlet process with concentration alpha + n and
centering measure

    (alpha / (alpha + n)) G0  +  (n / (alpha + n)) F_n,

F_n the empirical distribution of the rescaled data.  Each draw realizes the
truncated stick-breaking series of that posterior and is smoothed with a
Gaussian kernel into a density on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidSettingError, TruncationTooSmallError
from ..grid import Grid, GridPdf, default_grid, normalize_pdf, normalize_rows
from .common import (
    Dataset,
    McmcControl,
    PosteriorSample,
    check_settings,
    make_rng,
    silverman_bandwidth,
)

__all__ = [
    "UniformBase",
    "BetaBase",
    "DpConfig",
    "dp_posterior",
    "centering_weight",
    "smoothed_centering_measure",
]

#: After remainder absorption the stick weights must sum to one within this.
MASS_TOL = 1e-6

_MIN_TRUNCATION = 50


@dataclass(frozen=True)
class UniformBase:
    """Uniform(0, 1) base measure."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size)

    def density(self, x: np.ndarray) -> np.ndarray:
        return np.ones_like(x)


@dataclass(frozen=True)
class BetaBase:
    """Beta(a, b) base measure on [0, 1]."""

    a: float
    b: float

    def __post_init__(self):
        check_settings(self, positive=("a", "b"))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.beta(self.a, self.b, size)

    def density(self, x: np.ndarray) -> np.ndarray:
        from scipy.stats import beta as beta_dist

        return beta_dist.pdf(x, self.a, self.b)


@dataclass(frozen=True)
class DpConfig:
    """Dirichlet process model: concentration, base measure, truncation, kernel.

    ``bandwidth=None`` selects the Silverman rule floored at twice the grid
    spacing.
    """

    alpha: float = 5.0
    g0: UniformBase | BetaBase = UniformBase()
    truncation: int = 200
    bandwidth: float | None = None

    def __post_init__(self):
        check_settings(self, positive=("alpha",))
        if self.truncation < _MIN_TRUNCATION:
            raise InvalidSettingError(
                f"truncation must be >= {_MIN_TRUNCATION}, got {self.truncation}"
            )
        if self.bandwidth is not None:
            check_settings(self, positive=("bandwidth",))
            # Atoms and grid points lie in [0, 1]; past about 9.5e7 the kernel
            # is exactly 1 there and every draw smooths to one flat density.
            if math.exp(-0.5 / self.bandwidth / self.bandwidth) == 1.0:
                raise InvalidSettingError(
                    f"bandwidth = {self.bandwidth!r} makes the kernel constant on [0, 1]"
                )


def centering_weight(alpha: float, n: int) -> float:
    """Posterior mixing weight of the prior base measure, alpha / (alpha + n)."""
    return alpha / (alpha + n)


def _draw_atoms_and_weights(rng, config: DpConfig, x_data: np.ndarray, w_g0: float):
    """One truncated stick-breaking realization of the posterior DP.

    Returns atom locations and stick weights.  The final weight absorbs all
    remaining stick mass, so the weights sum to one exactly; the conservation
    guard catches the (pathological) case where they do not.
    """
    k = config.truncation
    sticks = rng.beta(1.0, config.alpha + x_data.size, size=k - 1)
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
    data_atoms = x_data[rng.integers(0, x_data.size, size=k)]
    atoms = np.where(from_g0, g0_atoms, data_atoms)
    return atoms, weights, remainder


def _smooth(grid: Grid, atoms: np.ndarray, weights: np.ndarray, bw: float, out=None) -> np.ndarray:
    """Gaussian-kernel mixture of the atoms, evaluated on the grid.

    ``out`` is an optional ``(n_points, n_atoms)`` scratch buffer for the
    kernel matrix.  ``dp_posterior`` reuses one across draws: a fresh matrix
    per draw is large enough to be mapped anew each time, and its page
    faults cost more than the arithmetic.
    """
    z = np.subtract.outer(grid.x, atoms, out=out)
    z /= bw
    np.square(z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    return z @ weights


def smoothed_centering_measure(
    data: Dataset,
    config: DpConfig,
    grid: Grid | None = None,
) -> GridPdf:
    """Kernel smoothing of the posterior centering measure.

    This is the expectation of a posterior draw (before edge renormalization),
    so it serves as a deterministic reference for the Monte Carlo mean of
    ``dp_posterior`` output.  The base-measure part is convolved on a fine
    internal quadrature; the empirical part reuses the draw smoother.
    """
    grid = grid or default_grid()
    x = data.rescaled
    w_g0 = centering_weight(config.alpha, data.n)
    bw = config.bandwidth if config.bandwidth is not None else silverman_bandwidth(x, grid)

    # Both parts use the unnormalized kernel exp(-z^2/2).  The empirical part
    # carries weight 1/n per point and the convolution integrates the kernel
    # against g0, so each equals bw * sqrt(2 pi) times a smoothed density;
    # the shared constant drops out in the final normalization.
    fine = np.linspace(0.0, 1.0, 4096)
    z = (grid.x[:, None] - fine[None, :]) / bw
    conv = np.trapezoid(np.exp(-0.5 * z * z) * config.g0.density(fine)[None, :], fine, axis=1)
    emp = _smooth(grid, x, np.full(x.size, 1.0 / x.size), bw)
    return normalize_pdf(grid, w_g0 * conv + (1.0 - w_g0) * emp)


def dp_posterior(
    data: Dataset,
    config: DpConfig,
    ctl: McmcControl,
    grid: Grid | None = None,
) -> PosteriorSample:
    """Sample the conjugate DP posterior as smoothed densities on the grid.

    Draws are independent given the data, so the run makes exactly
    ``ctl.n_samples`` of them; ``ctl.burn_in`` and ``ctl.thin`` do not
    apply and do not change the output.
    """
    grid = grid or default_grid()
    rng = make_rng(ctl.seed)
    x = data.rescaled
    w_g0 = centering_weight(config.alpha, data.n)
    bw = config.bandwidth if config.bandwidth is not None else silverman_bandwidth(x, grid)

    rows = np.empty((ctl.n_samples, grid.n_points))
    remainders = np.empty(ctl.n_samples)
    kernel = np.empty((grid.n_points, config.truncation))
    for i in range(ctl.n_samples):
        atoms, weights, remainders[i] = _draw_atoms_and_weights(rng, config, x, w_g0)
        rows[i] = _smooth(grid, atoms, weights, bw, kernel)
    return PosteriorSample(
        model="dp",
        grid=grid,
        densities=normalize_rows(grid, rows),
        seed=ctl.seed,
        config=config,
        trace={"absorbed_remainder": remainders},
        diagnostics={"bandwidth": bw},
    )
