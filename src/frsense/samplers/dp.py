"""Conjugate Dirichlet process posterior, drawn by its exact Dirichlet split.

Given data x_1..x_n and a DP(alpha, G0) prior, the posterior over the random
distribution is

    P = W_1 delta(x_1) + ... + W_n delta(x_n) + W_0 Q,

with (W_1, ..., W_n, W_0) ~ Dirichlet(1, ..., 1, alpha) and Q ~ DP(alpha, G0)
independent of the weights (Ferguson 1973; Ghosal & van der Vaart 2017,
*Fundamentals of Nonparametric Bayesian Inference*, ch. 4).  The data part,
Rubin's (1981) Bayesian bootstrap, is exact: n Exp(1) variates and one
Gamma(alpha) variate divided by their sum.  Only Q is truncated, at
``truncation`` Beta(1, alpha) sticks whose last atom absorbs the unbroken
mass.  Each draw is smoothed with a Gaussian kernel into a density on the
grid: exactly at the data, and after linear binning onto the grid at the
atoms of Q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidSettingError
from ..grid import Grid, default_grid, normalize_rows
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
    "expected_remainder",
]

_MIN_TRUNCATION = 50


@dataclass(frozen=True)
class UniformBase:
    """Uniform(0, 1) base measure."""

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        return rng.random(size)


@dataclass(frozen=True)
class BetaBase:
    """Beta(a, b) base measure on [0, 1]."""

    a: float
    b: float

    def __post_init__(self):
        check_settings(self, positive=("a", "b"))

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        return rng.beta(self.a, self.b, size)


@dataclass(frozen=True)
class DpConfig:
    """Dirichlet process model: concentration, base measure, truncation, kernel.

    ``truncation`` is the number of atoms of Q ~ DP(alpha, g0), the prior
    part of each posterior draw; the data part is not truncated.
    ``bandwidth=None`` selects the Silverman rule floored at twice the grid
    spacing.
    """

    alpha: float = 5.0
    g0: UniformBase | BetaBase = UniformBase()
    truncation: int = 200
    bandwidth: float | None = None

    def __post_init__(self):
        check_settings(self, positive=("alpha",), integers=("truncation",))
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


def expected_remainder(config: DpConfig, n: int) -> float:
    """Expected mass a draw's last atom absorbs with n observations.

    alpha / (alpha + n) * (alpha / (alpha + 1))^(truncation - 1): the mean of
    W_0 times the mean of the product of ``truncation - 1`` independent
    Beta(alpha, 1) variables, the stick Q leaves unbroken.
    """
    alpha = config.alpha
    return alpha / (alpha + n) * math.exp(
        (config.truncation - 1) * math.log1p(-1.0 / (alpha + 1.0))
    )


def _draw_split(rng, config: DpConfig, n: int, m: int):
    """``m`` draws of the posterior's Dirichlet split with ``n`` observations.

    Each kind of variate comes from its own child stream of ``rng``: the
    ``(m, n)`` Exp(1) block of the data weights, the Gamma(alpha) variate of
    each W_0, Q's Beta(1, alpha) sticks (by inverse CDF) and its G0 atoms,
    the last two as ``(truncation - 1, m)`` and ``(truncation, m)`` blocks,
    so a larger truncation only appends rows.  Returns the data weights,
    one row per draw; the weights of Q's atoms already scaled by W_0, and
    the atoms, one column per draw; and W_0 times Q's absorbed remainder.
    """
    exp_rng, w0_rng, stick_rng, atom_rng = rng.spawn(4)
    data_weights = exp_rng.standard_exponential((m, n))
    w0 = w0_rng.standard_gamma(config.alpha, m)
    total = data_weights.sum(axis=1) + w0
    data_weights /= total[:, None]
    w0 /= total
    # A tiny alpha sends log(1 - U) / alpha to -inf: a stick of 1.
    with np.errstate(over="ignore"):
        sticks = -np.expm1(np.log1p(-stick_rng.random((config.truncation - 1, m))) / config.alpha)
    # Every stick lies in [0, 1], so the weights before Q's last sum to at
    # most one; the last absorbs the unbroken mass.  Rounding can leave that
    # mass at about -1e-15, which is clamped.
    g0_weights = np.empty((config.truncation, m))
    g0_weights[0] = 1.0
    np.cumprod(1.0 - sticks[:-1], axis=0, out=g0_weights[1:-1])
    g0_weights[:-1] *= sticks
    remainders = 1.0 - g0_weights[:-1].sum(axis=0)
    g0_weights[-1] = np.maximum(remainders, 0.0)
    g0_weights *= w0
    g0_atoms = config.g0.sample(atom_rng, (config.truncation, m))
    return data_weights, g0_weights, g0_atoms, w0 * remainders


def _kernel(grid: Grid, atoms: np.ndarray, bw: float) -> np.ndarray:
    """The ``(n_points, n_atoms)`` Gaussian kernel exp(-((x - atom) / bw)^2 / 2)."""
    z = np.subtract.outer(grid.x, atoms)
    z /= bw
    np.square(z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    return z


def _fft_length(n: int) -> int:
    """The smallest integer >= n with no prime factor above 7."""
    length = n
    while True:
        rest = length
        for factor in (2, 3, 5, 7):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return length
        length += 1


@functools.lru_cache(maxsize=16)
def _kernel_spectrum(n_points: int, bw: float) -> tuple[int, np.ndarray]:
    """FFT length and real spectrum of the Gaussian kernel at grid offsets.

    The length is at least ``2 * n_points - 1``, so a circular convolution
    of a zero-padded row with the kernel at offsets 0, +-1, ... grid steps
    is the linear one on the row's own ``n_points`` entries.
    """
    length = _fft_length(2 * n_points - 1)
    steps = np.arange(length)
    z = np.minimum(steps, length - steps) * (1.0 / ((n_points - 1) * bw))
    spectrum = np.fft.rfft(np.exp(-0.5 * z * z))
    spectrum.flags.writeable = False
    return length, spectrum


#: Entries of one block's FFT buffer; a block of draws is emitted at once.
_BLOCK_ENTRIES = 2**19


def _emit_rows(
    grid: Grid,
    x: np.ndarray,
    bw: float,
    data_weights: np.ndarray,
    g0_weights: np.ndarray,
    g0_atoms: np.ndarray,
) -> np.ndarray:
    """Each draw smoothed on the grid, one unnormalized row per draw.

    The data part of every draw is its weight row times one kernel table of
    the data, exact to rounding.  The atoms of Q in a block of draws are
    split linearly between the two grid points around each (Silverman 1982)
    in one bincount, and the binned rows are convolved with the kernel by
    FFT.  A block's FFT buffers hold about ``_BLOCK_ENTRIES`` numbers each.
    """
    p = grid.n_points
    length, spectrum = _kernel_spectrum(p, bw)
    rows = data_weights @ _kernel(grid, x, bw).T
    m = rows.shape[0]
    size = max(1, _BLOCK_ENTRIES // length)
    for start in range(0, m, size):
        block = slice(start, min(start + size, m))
        w = g0_weights[:, block]
        # Atom a lies between grid points floor(t) and floor(t) + 1, t = a / spacing.
        t = g0_atoms[:, block] * (p - 1)
        left = np.minimum(t.astype(np.intp), p - 2)
        right_w = w * (t - left)
        left += length * np.arange(w.shape[1])
        binned = np.bincount(
            np.concatenate((left, left + 1), axis=None),
            weights=np.concatenate((w - right_w, right_w), axis=None),
            minlength=w.shape[1] * length,
        ).reshape(-1, length)
        spectra = np.fft.rfft(binned)
        spectra *= spectrum
        smoothed = np.fft.irfft(spectra, length, out=binned)[:, :p]
        # The transforms leave round-off of either sign where the kernel is ~0.
        rows[block] += np.maximum(smoothed, 0.0, out=smoothed)
    return rows


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
    x = data.rescaled
    bw = config.bandwidth if config.bandwidth is not None else silverman_bandwidth(x, grid)
    data_weights, g0_weights, g0_atoms, remainders = _draw_split(
        make_rng(ctl.seed), config, x.size, ctl.n_samples
    )
    rows = _emit_rows(grid, x, bw, data_weights, g0_weights, g0_atoms)
    return PosteriorSample(
        grid=grid,
        densities=normalize_rows(grid, rows),
        trace={"absorbed_remainder": remainders},
        diagnostics={"bandwidth": bw},
    )
