"""Reference collapsed-Gibbs loop for the dpgmm sampler.

This is the straightforward kernel that ``frsense.samplers.dpgmm`` replaced
with a faster one: per-cluster predictive parameters rebuilt through
``_predictive_params`` and one scalar uniform per observation-step, and
each kept state emitted as the normalized sum of its Student-t rows.  The
fast kernel must make the same floating-point operations in the same order,
so ``reference_posterior`` and ``dpgmm_posterior`` visit the same states bit
for bit; the fast chain emits them in its own form, equal to these rows to
rounding.  Kept only as the oracle for that comparison.
"""

from __future__ import annotations

import math

import numpy as np

from frsense.grid import Grid, default_grid, normalize_rows
from frsense.samplers.common import Dataset, McmcControl, make_rng, sample_crp_partition
from frsense.samplers.dpgmm import DpgmmConfig

_LOG_PI = math.log(math.pi)


def _predictive_params(cfg: DpgmmConfig, count: int, total: float, total_sq: float):
    a0 = 0.5 * cfg.nu
    b0 = 0.5 * cfg.nu * cfg.s
    rn = cfg.r + count
    an = a0 + 0.5 * count
    if count > 0:
        mean = total / count
        ssd = total_sq - total * total / count
        shift = 0.5 * cfg.r * count * (mean - cfg.m) ** 2 / rn
        bn = b0 + 0.5 * ssd + shift
        if bn <= 0.0:
            bn = b0 + shift
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


class _CountingState(_GibbsState):
    """Counts the removals that empty a cluster other than the last one."""

    relabels = 0

    def remove(self, i: int):
        j = self.labels[i]
        if self.counts[j] == 1 and j != len(self.counts) - 1:
            self.relabels += 1
        super().remove(i)


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


def reference_posterior(
    data: Dataset,
    config: DpgmmConfig,
    ctl: McmcControl,
    grid: Grid | None = None,
):
    """``(densities, n_clusters trace, relabels, states)`` of the reference chain.

    ``relabels`` counts the steps that emptied a cluster other than the
    last one: the path that moves the last cluster into the freed slot and
    relabels its members.  ``states`` holds each kept state's cluster
    ``(counts, sums, sums of squares)``.
    """
    grid = grid or default_grid()
    rng = make_rng(ctl.seed)
    x = data.rescaled
    labels = sample_crp_partition(config.alpha, data.n, rng)
    state = _CountingState(x, labels, config)

    rows = np.empty((ctl.n_samples, grid.n_points))
    k_trace = np.empty(ctl.n_samples)
    states = []
    kept = 0
    for sweep in range(ctl.n_sweeps):
        _gibbs_sweep(state, config.alpha, rng)
        if sweep >= ctl.burn_in and (sweep - ctl.burn_in) % ctl.thin == 0:
            rows[kept] = _emit_row(state, config.alpha, grid)
            k_trace[kept] = state.n_clusters
            states.append((state.counts.copy(), state.sums.copy(), state.sqs.copy()))
            kept += 1
            if kept == ctl.n_samples:
                break
    return normalize_rows(grid, rows), k_trace, state.relabels, states
