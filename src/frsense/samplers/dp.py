"""Conjugate Dirichlet process posterior, sampled by truncated stick-breaking.

Given data x_1..x_n and a DP(alpha, G0) prior, the posterior over the random
distribution is again a Dirichlet process with concentration alpha + n and
centering measure

    (alpha / (alpha + n)) G0  +  (n / (alpha + n)) F_n,

F_n the empirical distribution of the rescaled data.  Each draw realizes the
truncated stick-breaking series of that posterior and is smoothed with a
Gaussian kernel into a density on the grid: exactly at its data atoms, and
after linear binning onto the grid at its G0 atoms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidSettingError, TruncationTooSmallError
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
    "centering_weight",
    "expected_remainder",
]

#: After remainder absorption the stick weights must sum to one within this.
MASS_TOL = 1e-6

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


def expected_remainder(config: DpConfig, n: int) -> float:
    """Expected stick mass a draw's last atom absorbs with n observations.

    ((alpha + n) / (alpha + n + 1))^(truncation - 1), the mean of the product
    of ``truncation - 1`` independent Beta(alpha + n, 1) variables.
    """
    return math.exp((config.truncation - 1) * math.log1p(-1.0 / (config.alpha + n + 1.0)))


def _draw_atoms_and_weights(rng, config: DpConfig, n: int, w_g0: float, m: int):
    """``m`` truncated stick-breaking realizations of the posterior DP.

    Each kind of variate is drawn for all ``m`` draws as one block, in the
    order sticks, G0 coins, G0 atoms, data indices; row ``i`` of every
    returned array belongs to draw ``i``.  Returns the stick weights, the
    absorbed remainders, and for each of the ``truncation`` atoms whether it
    comes from G0, its G0 draw and its data index; atom ``j`` of draw ``i``
    is ``g0_atoms[i, j]`` where ``from_g0[i, j]`` and data point
    ``data_idx[i, j]`` elsewhere.  The final weight of a draw absorbs all of
    its remaining stick mass, so its weights sum to one exactly; the
    conservation guard catches the (pathological) draws where they do not.
    """
    k = config.truncation
    sticks = rng.beta(1.0, config.alpha + n, size=(m, k - 1))
    weights = np.empty((m, k))
    weights[:, 0] = 1.0
    np.cumprod(1.0 - sticks[:, :-1], axis=1, out=weights[:, 1:-1])
    weights[:, :-1] *= sticks
    taken = weights[:, :-1].sum(axis=1)
    remainders = 1.0 - taken
    weights[:, -1] = np.maximum(remainders, 0.0)
    broken = np.flatnonzero(~(np.abs(1.0 - (taken + weights[:, -1])) <= MASS_TOL))
    if broken.size:
        first = int(broken[0])
        raise TruncationTooSmallError(
            f"stick mass not conserved at truncation {k} in draw {first}; "
            f"residual {float(remainders[first])!r}"
        )

    from_g0 = rng.random((m, k)) < w_g0
    g0_atoms = config.g0.sample(rng, (m, k))
    data_idx = rng.integers(0, n, size=(m, k))
    return weights, remainders, from_g0, g0_atoms, data_idx


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


def _bin_sums(cells: np.ndarray, weights: np.ndarray, n_rows: int, width: int) -> np.ndarray:
    """The weights summed by cell, as ``n_rows`` rows of ``width`` cells."""
    return np.bincount(cells, weights=weights, minlength=n_rows * width).reshape(n_rows, width)


def _emit_rows(
    grid: Grid,
    x: np.ndarray,
    bw: float,
    weights: np.ndarray,
    from_g0: np.ndarray,
    g0_atoms: np.ndarray,
    data_idx: np.ndarray,
) -> np.ndarray:
    """Each draw's atoms smoothed on the grid, one unnormalized row per draw.

    A share n / (alpha + n) of the atoms are copies of data points: their
    kernels are columns of one table, weighted by each draw's summed sticks
    per point, so one bincount and one product emit a block of draws.  The
    G0 atoms of a block are split linearly between the two grid points
    around each (Silverman 1982) in one bincount, and the binned rows are
    convolved with the kernel by FFT.  A block holds at most ``n_points``
    draws, so its summed sticks never outgrow the table, and its FFT
    buffers hold about ``_BLOCK_ENTRIES`` numbers each.
    """
    m, p = weights.shape[0], grid.n_points
    length, spectrum = _kernel_spectrum(p, bw)
    table = _kernel(grid, x, bw)
    rows = np.empty((m, p))
    size = max(1, min(p, _BLOCK_ENTRIES // length))
    for start in range(0, m, size):
        block = slice(start, min(start + size, m))
        n_block = block.stop - start
        g0, w = from_g0[block], weights[block]

        cells = data_idx[block] + x.size * np.arange(n_block)[:, None]
        data_w = np.where(g0, 0.0, w)
        data_sums = _bin_sums(cells.ravel(), data_w.ravel(), n_block, x.size)
        np.matmul(data_sums, table.T, out=rows[block])

        # Atom a lies between grid points floor(t) and floor(t) + 1, t = a / spacing.
        t = g0_atoms[block][g0] * (p - 1)
        if not t.size:
            continue
        left = np.minimum(t.astype(np.intp), p - 2)
        g0_w = w[g0]
        right_w = g0_w * (t - left)
        left += length * np.nonzero(g0)[0]
        binned = _bin_sums(
            np.concatenate((left, left + 1)),
            np.concatenate((g0_w - right_w, right_w)),
            n_block,
            length,
        )
        spectra = np.fft.rfft(binned)
        spectra *= spectrum
        smoothed = np.fft.irfft(spectra, length, out=binned)[:, :p]
        # The transforms leave round-off of either sign where the kernel is ~0.
        rows[block] += np.maximum(smoothed, 0.0, out=smoothed)
    return rows


def _draw_rows(rng, config: DpConfig, x: np.ndarray, m: int, grid: Grid, bw: float):
    """The unnormalized density rows and absorbed remainders of ``m`` draws.

    The variate blocks live only in this call and the data kernel table only
    in ``_emit_rows``, so neither is held while the next step runs.
    """
    weights, remainders, from_g0, g0_atoms, data_idx = _draw_atoms_and_weights(
        rng, config, x.size, centering_weight(config.alpha, x.size), m
    )
    rows = _emit_rows(grid, x, bw, weights, from_g0, g0_atoms, data_idx)
    return rows, remainders


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
    rows, remainders = _draw_rows(make_rng(ctl.seed), config, x, ctl.n_samples, grid, bw)
    return PosteriorSample(
        grid=grid,
        densities=normalize_rows(grid, rows),
        trace={"absorbed_remainder": remainders},
        diagnostics={"bandwidth": bw},
    )
