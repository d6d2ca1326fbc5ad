"""Reference formulas and constructions that only the tests use.

The package does not export these, because nothing in it calls them:
closed forms the samplers are checked against (the CRP cluster-count mean,
the concentration prior's density, the smoothed DP centering measure),
geometric constructions that tests build samples from (tangent projection,
the sphere exponential, the D/V/E triple of two raw samples), and the
preset ladders as ``frsense.sweep`` built them before they moved to
``frsense.config``, which the moved ladders are checked against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import beta as beta_dist

from frsense import (
    BetaBase,
    ConfigError,
    Srd,
    TangentVector,
    default_grid,
    get_config_value,
    model_config,
    normalize_pdf,
    silverman_bandwidth,
    summarize_sample,
    triple_from_summaries,
)
from frsense.geometry import _exp_values
from frsense.samplers.dp import _kernel


def tangent_project(base: Srd, values) -> TangentVector:
    """Tangent vector at ``base``: ``values`` minus its component along ``base``."""
    arr = np.asarray(values, dtype=float)
    return TangentVector(base, arr - base.grid.inner(arr, base.values) * base.values)


def exp_map(psi: Srd, v) -> Srd:
    """Shoot the geodesic from ``psi`` along the tangent values ``v`` for time one.

    This is the package's private sphere exponential, clamped back into the
    orthant, that the Karcher iteration and ``geodesic_path`` use.
    """
    return Srd(psi.grid, _exp_values(psi.grid, psi.values, np.asarray(v, dtype=float)))


def triple(base, pert, d: int):
    """All three measures of two raw samples, one summary each."""
    return triple_from_summaries(summarize_sample(base, d), summarize_sample(pert, d))


def crp_expected_clusters(alpha: float, n: int) -> float:
    """Expected number of occupied CRP clusters: sum of alpha / (alpha + i - 1)."""
    i = np.arange(1, n + 1, dtype=float)
    return float(np.sum(alpha / (alpha + i - 1.0)))


def griffin_steel_pdf(alpha, eta: float, gamma: float):
    """Density of the ccv/dcv concentration prior; vectorized over ``alpha``."""
    alpha = np.asarray(alpha, dtype=float)
    log_c = eta * math.log(gamma) + math.lgamma(2.0 * eta) - 2.0 * math.lgamma(eta)
    with np.errstate(divide="ignore"):
        log_pdf = log_c + (eta - 1.0) * np.log(alpha) - 2.0 * eta * np.log(alpha + gamma)
    return np.exp(log_pdf)


def smoothed_centering_measure(data, config, grid=None):
    """Kernel smoothing of the DP posterior centering measure.

    This is the expectation of a posterior draw (before edge renormalization),
    a deterministic reference for the Monte Carlo mean of ``dp_posterior``
    output.  The base-measure part is convolved on a fine quadrature; the
    empirical part uses the kernel table ``dp_posterior`` emits its data
    atoms with.
    """
    grid = grid or default_grid()
    x = data.rescaled
    w_g0 = config.alpha / (config.alpha + data.n)
    bw = config.bandwidth if config.bandwidth is not None else silverman_bandwidth(x, grid)

    # Both parts use the unnormalized kernel exp(-z^2/2).  The empirical part
    # carries weight 1/n per point and the convolution integrates the kernel
    # against g0, so each equals bw * sqrt(2 pi) times a smoothed density;
    # the shared constant drops out in the final normalization.
    fine = np.linspace(0.0, 1.0, 4096)
    if isinstance(config.g0, BetaBase):
        g0 = beta_dist.pdf(fine, config.g0.a, config.g0.b)
    else:
        g0 = np.ones_like(fine)
    z = (grid.x[:, None] - fine[None, :]) / bw
    conv = np.trapezoid(np.exp(-0.5 * z * z) * g0[None, :], fine, axis=1)
    emp = _kernel(grid, x, bw) @ np.full(x.size, 1.0 / x.size)
    return normalize_pdf(grid, w_g0 * conv + (1.0 - w_g0) * emp)


#: Number of grid values in every preset ladder.
GRID_POINTS = 15

#: Preset ladders: model -> parameter -> (spacing, lo, hi).  Scale-like
#: positive parameters are spaced geometrically, location-like ones linearly.
LADDERS = {
    "dp": {"alpha": ("geometric", 0.1, 15.0)},
    "dpgmm": {
        "alpha": ("geometric", 0.1, 15.0),
        "m": ("linear", -8.0, 8.0),
        "r": ("geometric", 1.0 / 18.0, 6.0),
        "nu": ("linear", 1.0, 15.0),
        "s": ("geometric", 0.1, 12.0),
    },
    "ccv": {
        "a0": ("linear", 1.0, 20.0),
        "a1": ("linear", 1.0, 20.0),
        "eta": ("linear", 1.0, 20.0),
        "gamma": ("geometric", 1.0, 20.0),
    },
    "dcv": {
        "a0": ("linear", 1.0, 20.0),
        "a1": ("linear", 1.0, 20.0),
        "eta": ("linear", 1.0, 20.0),
        "gamma": ("geometric", 1.0, 20.0),
        "phi": ("geometric", 1.5, 20.0),
    },
}


def preset_values(model: str, parameter: str) -> tuple:
    """A preset ladder with its point nearest the model's default snapped onto it.

    Nearness is log distance on a geometric ladder, linear distance on a
    linear one.
    """
    spacing, lo, hi = LADDERS[model][parameter]
    default = get_config_value(model_config(model)(), parameter)
    if spacing == "geometric":
        grid = np.geomspace(lo, hi, GRID_POINTS)
        distance = np.abs(np.log(grid) - math.log(default))
    else:
        grid = np.linspace(lo, hi, GRID_POINTS)
        distance = np.abs(grid - default)
    grid[int(np.argmin(distance))] = default
    return tuple(float(v) for v in grid)


def resnap(values, baseline: float):
    """Move the grid point nearest to the baseline exactly onto it."""
    vals = list(values)
    idx = min(range(len(vals)), key=lambda i: abs(vals[i] - baseline))
    vals[idx] = baseline
    out = tuple(vals)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(
            "CONFIG_BAD_GRID",
            f"baseline value {baseline!r} cannot be snapped onto the preset grid",
        )
    return out


def band_marks(values, baseline: float) -> tuple:
    """Default band values: the ladder's ends and its baseline."""
    return tuple(dict.fromkeys((values[0], baseline, values[-1])))


def preset(model: str, baseline, name: str) -> tuple:
    """(values, band values) of a preset, as a ``[sweep] preset`` expanded them."""
    ladders = LADDERS[model]
    if name not in ladders:
        raise ConfigError(
            "CONFIG_BAD_PRESET",
            f"model {model!r} has no preset {name!r} "
            f"(available: {', '.join(ladders)})",
        )
    base_val = get_config_value(baseline, name)
    values = preset_values(model, name)
    if base_val not in values:
        values = resnap(values, base_val)
    return values, band_marks(values, base_val)
