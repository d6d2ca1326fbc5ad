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

from ..errors import InvalidSettingError
from ..grid import Grid, default_grid, normalize_rows
from .common import (
    Dataset,
    McmcControl,
    PosteriorSample,
    _cluster_stats,
    _pick,
    check_settings,
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
        check_settings(self, finite=("m",), positive=("alpha", "r", "nu", "s"))
        # The predictives square the distance from m to the data in [0, 1].
        gap = max(-self.m, self.m - 1.0, 0.0)
        if not math.isfinite(gap * gap):
            raise InvalidSettingError(f"m = {self.m!r} is too far from [0, 1]")
        try:
            finite = all(map(math.isfinite, _predictive_params(self, 0, 0.0, 0.0)))
        except (OverflowError, ValueError):  # lgamma overflow, log of zero
            finite = False
        if not finite:
            raise InvalidSettingError(
                f"m={self.m!r}, r={self.r!r}, nu={self.nu!r}, s={self.s!r} give "
                "a prior predictive outside double precision"
            )


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


def _emit_row(cfg: DpgmmConfig, grid: Grid, counts, sums, sqs) -> np.ndarray:
    """Conditional predictive density of one state, unnormalized on the grid."""
    alpha = cfg.alpha
    total = sum(counts) + alpha
    row = (alpha / total) * _t_pdf_rows(grid.x, _predictive_params(cfg, 0, 0.0, 0.0))
    for count, s, sq in zip(counts, sums, sqs):
        row += (count / total) * _t_pdf_rows(grid.x, _predictive_params(cfg, count, s, sq))
    return row


def _cluster_terms(cfg: DpgmmConfig, n: int):
    """``terms(count, sum, sum_sq)`` for clusters of up to ``n`` observations.

    The terms, ``(log n_j, log_norm, (df + 1) / 2, loc, df * scale^2)``,
    are what ``_log_weights`` needs of one cluster.  They are
    ``_predictive_params`` term for term, in the same order, with its
    count-only parts (the lgamma ratio, log df) tabulated once.
    """
    log = math.log
    r, m, rm = cfg.r, cfg.m, cfg.r * cfg.m
    a0 = 0.5 * cfg.nu
    b0 = 0.5 * cfg.nu * cfg.s
    an_of = [a0 + 0.5 * c for c in range(n + 1)]
    df_of = [2.0 * an for an in an_of]
    half_of = [0.5 * (df + 1.0) for df in df_of]
    lgamma_of = [math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df) for df in df_of]
    logdf_of = [log(df) + _LOG_PI for df in df_of]
    logc_of = [0.0] + [log(c) for c in range(1, n + 1)]

    def terms(c, s, sq):
        rn = r + c
        mean = s / c
        bn = b0 + 0.5 * (sq - s * s / c) + 0.5 * r * c * (mean - m) ** 2 / rn
        an = an_of[c]
        scale_sq = bn * (rn + 1.0) / (an * rn)
        log_norm = lgamma_of[c] - 0.5 * (logdf_of[c] + log(scale_sq))
        return logc_of[c], log_norm, half_of[c], (rm + s) / rn, df_of[c] * scale_sq

    return terms


def _log_weights(x: float, terms, log1p=math.log1p) -> list:
    """``log n_j + _t_logpdf(x, ...)`` of each cluster, from its cached terms."""
    return [lc + (ln - hd * log1p((x - lo) ** 2 / de)) for lc, ln, hd, lo, de in terms]


def _gibbs_chain(
    x: np.ndarray,
    labels: np.ndarray,
    cfg: DpgmmConfig,
    ctl: McmcControl,
    grid: Grid,
    rng: np.random.Generator,
) -> tuple:
    """Run the chain from ``labels``; return the retained rows and cluster counts.

    Each occupied cluster keeps its ``_cluster_terms``, refreshed only when
    a step removes or inserts an observation, and each observation's
    new-cluster weight is computed once.  The arithmetic is the plain
    algorithm's, in the same order, so the chain does not depend on the
    caching.  The uniforms come as one block per sweep, which numpy draws
    exactly as the same number of scalar ``rng.random()`` calls.
    """
    n = x.size
    xs = x.tolist()
    labels = labels.tolist()
    counts, sums, sqs = _cluster_stats(xs, labels)
    terms_of = _cluster_terms(cfg, n)
    terms = [terms_of(*stats) for stats in zip(counts, sums, sqs)]
    log_alpha = math.log(cfg.alpha)
    prior = _predictive_params(cfg, 0, 0.0, 0.0)
    new_cluster = [log_alpha + _t_logpdf(xi, prior) for xi in xs]

    rows = np.empty((ctl.n_samples, grid.n_points))
    k_trace = np.empty(ctl.n_samples)
    kept = 0
    for sweep in range(ctl.n_sweeps):
        uniforms = rng.random(n).tolist()
        for i in range(n):
            xi = xs[i]
            j = labels[i]
            c = counts[j] - 1
            if c:
                counts[j] = c
                s = sums[j] = sums[j] - xi
                sq = sqs[j] = sqs[j] - xi * xi
                terms[j] = terms_of(c, s, sq)
            else:
                last = len(counts) - 1
                if j != last:
                    counts[j], sums[j], sqs[j] = counts[last], sums[last], sqs[last]
                    terms[j] = terms[last]
                    labels = [j if li == last else li for li in labels]
                del counts[-1], sums[-1], sqs[-1], terms[-1]

            logw = _log_weights(xi, terms)
            logw.append(new_cluster[i])
            pick = _pick(logw, uniforms[i])

            labels[i] = pick
            if pick == len(terms):
                # A new cluster's sums are 0.0 + x_i, which is x_i: data are positive.
                counts.append(1)
                sums.append(xi)
                sqs.append(xi * xi)
                terms.append(terms_of(1, xi, xi * xi))
            else:
                c = counts[pick] = counts[pick] + 1
                s = sums[pick] = sums[pick] + xi
                sq = sqs[pick] = sqs[pick] + xi * xi
                terms[pick] = terms_of(c, s, sq)

        if sweep >= ctl.burn_in and (sweep - ctl.burn_in) % ctl.thin == 0:
            rows[kept] = _emit_row(cfg, grid, counts, sums, sqs)
            k_trace[kept] = len(counts)
            kept += 1
            if kept == ctl.n_samples:
                break
    return rows, k_trace


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
    rows, k_trace = _gibbs_chain(x, labels, config, ctl, grid, rng)
    return PosteriorSample(
        model="dpgmm",
        grid=grid,
        densities=normalize_rows(grid, rows),
        seed=ctl.seed,
        config=config,
        trace={"n_clusters": k_trace},
    )
