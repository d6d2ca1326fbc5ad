"""DP mixture of Gaussians with conjugate Normal-Gamma components.

Collapsed Gibbs over cluster assignments: component means and precisions are
integrated out, so each observation is reassigned using Student-t posterior
predictives, with a fresh cluster proposed at rate alpha (the classic
restaurant-process scheme).  The prior on a component's precision is the
one-dimensional Wishart reduction Gamma(shape nu/2, rate nu*S/2), so its
prior mean is 1/S; the component mean given the precision R is normal with
precision r*R around location m.

Each retained state is emitted as the conditional predictive density: occupied
clusters contribute their Student-t predictives weighted n_j / (n + alpha),
and the prior predictive enters with weight alpha / (n + alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..grid import Grid, default_grid, normalize_rows
from .common import (
    Dataset,
    McmcControl,
    PosteriorSample,
    make_rng,
    sample_crp_partition,
)

__all__ = ["DpgmmConfig", "dpgmm_posterior"]

_LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class DpgmmConfig:
    """Hyperparameters: concentration and the Normal-Gamma base measure."""

    alpha: float = 1.0
    m: float = 0.0
    r: float = 1.0 / 9.0
    nu: float = 5.0
    s: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "r", "nu", "s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def _predictive_params(cfg: DpgmmConfig, count: int, total: float, total_sq: float):
    """Student-t posterior predictive for a cluster with the given stats.

    Returns (df, location, log-normalizer, squared-scale times df).  With
    ``count=0`` this is the prior predictive.
    """
    a0 = 0.5 * cfg.nu
    b0 = 0.5 * cfg.nu * cfg.s
    rn = cfg.r + count
    an = a0 + 0.5 * count
    if count > 0:
        mean = total / count
        ssd = total_sq - total * total / count
        bn = b0 + 0.5 * ssd + 0.5 * cfg.r * count * (mean - cfg.m) ** 2 / rn
        loc = (cfg.r * cfg.m + total) / rn
    else:
        bn = b0
        loc = cfg.m
    df = 2.0 * an
    scale_sq = bn * (rn + 1.0) / (an * rn)
    denom = df * scale_sq
    log_norm = (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * (math.log(df) + _LOG_PI + math.log(scale_sq))
    )
    return df, loc, log_norm, denom


def _t_logpdf(x: float, params) -> float:
    df, loc, log_norm, denom = params
    return log_norm - 0.5 * (df + 1.0) * math.log1p((x - loc) ** 2 / denom)


def _t_pdf_rows(x: np.ndarray, params) -> np.ndarray:
    df, loc, log_norm, denom = params
    return np.exp(log_norm - 0.5 * (df + 1.0) * np.log1p((x - loc) ** 2 / denom))


class _GibbsState:
    """Cluster bookkeeping with cached predictive parameters."""

    def __init__(self, x: np.ndarray, labels: np.ndarray, cfg: DpgmmConfig):
        self.x = x
        self.cfg = cfg
        self.labels = labels.copy()
        k = int(labels.max()) + 1
        self.counts = [0] * k
        self.sums = [0.0] * k
        self.sqs = [0.0] * k
        for xi, li in zip(x, labels):
            self.counts[li] += 1
            self.sums[li] += xi
            self.sqs[li] += xi * xi
        self._cache: list = [None] * k
        self.prior_params = _predictive_params(cfg, 0, 0.0, 0.0)

    def params(self, j: int):
        p = self._cache[j]
        if p is None:
            p = _predictive_params(self.cfg, self.counts[j], self.sums[j], self.sqs[j])
            self._cache[j] = p
        return p

    def remove(self, i: int):
        j = self.labels[i]
        xi = self.x[i]
        self.counts[j] -= 1
        self.sums[j] -= xi
        self.sqs[j] -= xi * xi
        self._cache[j] = None
        if self.counts[j] == 0:
            last = len(self.counts) - 1
            if j != last:
                self.counts[j] = self.counts[last]
                self.sums[j] = self.sums[last]
                self.sqs[j] = self.sqs[last]
                self._cache[j] = self._cache[last]
                self.labels[self.labels == last] = j
            self.counts.pop()
            self.sums.pop()
            self.sqs.pop()
            self._cache.pop()

    def insert(self, i: int, j: int):
        xi = self.x[i]
        if j == len(self.counts):
            self.counts.append(0)
            self.sums.append(0.0)
            self.sqs.append(0.0)
            self._cache.append(None)
        self.labels[i] = j
        self.counts[j] += 1
        self.sums[j] += xi
        self.sqs[j] += xi * xi
        self._cache[j] = None

    @property
    def n_clusters(self) -> int:
        return len(self.counts)


def _gibbs_sweep(state: _GibbsState, alpha: float, rng: np.random.Generator):
    x = state.x
    for i in range(x.size):
        state.remove(i)
        xi = float(x[i])
        k = state.n_clusters
        logw = [0.0] * (k + 1)
        for j in range(k):
            logw[j] = math.log(state.counts[j]) + _t_logpdf(xi, state.params(j))
        logw[k] = math.log(alpha) + _t_logpdf(xi, state.prior_params)
        mx = max(logw)
        weights = [math.exp(lw - mx) for lw in logw]
        u = rng.random() * math.fsum(weights)
        acc = 0.0
        pick = k
        for j, w in enumerate(weights):
            acc += w
            if u < acc:
                pick = j
                break
        state.insert(i, pick)


def _emit_row(state: _GibbsState, alpha: float, grid: Grid) -> np.ndarray:
    n = state.x.size
    total = n + alpha
    row = (alpha / total) * _t_pdf_rows(grid.x, state.prior_params)
    for j in range(state.n_clusters):
        row += (state.counts[j] / total) * _t_pdf_rows(grid.x, state.params(j))
    return row


def dpgmm_posterior(
    data: Dataset,
    config: DpgmmConfig,
    ctl: McmcControl,
    grid: Grid | None = None,
) -> PosteriorSample:
    """Collapsed Gibbs run emitting one predictive density per retained state.

    The chain starts from a restaurant-process prior draw of the labels and
    performs one full reassignment pass per sweep.
    """
    grid = grid or default_grid()
    rng = make_rng(ctl.seed)
    x = data.rescaled
    labels = sample_crp_partition(config.alpha, data.n, rng)
    state = _GibbsState(x, labels, config)

    rows = np.empty((ctl.n_samples, grid.n_points))
    k_trace = np.empty(ctl.n_samples)
    kept = 0
    for sweep in range(ctl.n_sweeps):
        _gibbs_sweep(state, config.alpha, rng)
        if sweep >= ctl.burn_in and (sweep - ctl.burn_in) % ctl.thin == 0:
            rows[kept] = _emit_row(state, config.alpha, grid)
            k_trace[kept] = state.n_clusters
            kept += 1
            if kept == ctl.n_samples:
                break
    return PosteriorSample(
        model="dpgmm",
        grid=grid,
        densities=normalize_rows(grid, rows),
        seed=ctl.seed,
        config=config,
        trace={"n_clusters": k_trace},
    )
