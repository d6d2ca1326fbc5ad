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
    _pick_linear,
    check_settings,
    make_rng,
    sample_crp_partition,
)

__all__ = ["DpgmmConfig", "dpgmm_posterior"]

_LOG_PI = math.log(math.pi)
#: Bounds on the new-cluster weight alpha * t0(x) over the data range.
_MIN_NEW_WEIGHT = 1e-300
_LOG_MAX_NEW_WEIGHT = math.log(1e300)
_MAX_NU = 1e6


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
        except (OverflowError, ValueError, ZeroDivisionError):  # lgamma overflow,
            finite = False  # log of zero, an underflowed nu * r
        if not finite:
            raise InvalidSettingError(
                f"m={self.m!r}, r={self.r!r}, nu={self.nu!r}, s={self.s!r} give "
                "a prior predictive outside double precision"
            )
        # A cluster's scale adds r * n_j * (mean - m)**2 / 2; this bound keeps
        # it finite for clusters of up to 9e7 observations.
        reach = max(abs(self.m), abs(1.0 - self.m))
        if self.r * reach * reach > 1e300:
            raise InvalidSettingError(
                f"r={self.r!r}, m={self.m!r}: r times the largest squared distance "
                "from m to [0, 1] is above 1e300"
            )
        # The Gibbs weights are linear.  alpha * t0 must stay in
        # [1e-300, 1e300] on [0, 1], which holds the data: t0 is unimodal
        # about m, lowest at 0 or 1 and highest at m clipped to [0, 1].
        peak = min(max(self.m, 0.0), 1.0)
        at_0, at_1, at_peak = _new_cluster_log_weights(self, (0.0, 1.0, peak))
        if math.exp(min(at_0, at_1)) < _MIN_NEW_WEIGHT or at_peak > _LOG_MAX_NEW_WEIGHT:
            raise InvalidSettingError(
                f"alpha={self.alpha!r}, m={self.m!r}, r={self.r!r}, nu={self.nu!r}, "
                f"s={self.s!r} give a new-cluster weight alpha * t0(x) outside "
                "[1e-300, 1e300] on [0, 1]"
            )
        # A cluster weight raises a rounded product to the power -(df + 1) / 2,
        # so its relative error grows as df * 2**-53 (1e-10 at nu = 1e6).
        if self.nu > _MAX_NU:
            raise InvalidSettingError(
                f"nu = {self.nu!r} is above {_MAX_NU:g}, where the Gibbs weights "
                "lose precision"
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
        shift = 0.5 * cfg.r * count * (mean - cfg.m) ** 2 / rn
        bn = b0 + 0.5 * ssd + shift
        if bn <= 0.0:  # ssd < 0 is rounding error, here of tied data
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


def _emit_row(cfg: DpgmmConfig, grid: Grid, counts, sums, sqs) -> np.ndarray:
    """Conditional predictive density of one state, unnormalized on the grid."""
    alpha = cfg.alpha
    total = sum(counts) + alpha
    row = (alpha / total) * _t_pdf_rows(grid.x, _predictive_params(cfg, 0, 0.0, 0.0))
    for count, s, sq in zip(counts, sums, sqs):
        row += (count / total) * _t_pdf_rows(grid.x, _predictive_params(cfg, count, s, sq))
    return row


def _new_cluster_log_weights(cfg: DpgmmConfig, xs) -> list:
    """``log(alpha * t0(x))`` for each x, where t0 is the prior predictive."""
    log_alpha = math.log(cfg.alpha)
    prior = _predictive_params(cfg, 0, 0.0, 0.0)
    return [log_alpha + _t_logpdf(x, prior) for x in xs]


def _cluster_terms(cfg: DpgmmConfig, n: int):
    """``terms(count, sum, sum_sq)`` for clusters of up to ``n`` observations.

    The terms, ``(b, power, loc, denom)`` with ``power = -(df + 1) / 2``,
    ``denom = df * scale^2`` and ``b ** power = n_j * exp(log_norm)``, are
    what a Gibbs step needs of one cluster: its weight at x is
    ``(b * (1.0 + (x - loc) ** 2 / denom)) ** power``, which is ``n_j``
    times its Student-t predictive density.  Raising the whole product to
    the power, not ``1 + z`` alone, keeps a tight cluster's weight from
    underflowing before ``n_j * exp(log_norm)`` would scale it back up.
    ``loc``, ``denom`` and ``log_norm`` are ``_predictive_params``'s, made by
    the same operations in the same order, with its count-only parts (the
    lgamma ratio, log df) tabulated once.
    """
    log, exp = math.log, math.exp
    r, m, rm = cfg.r, cfg.m, cfg.r * cfg.m
    a0 = 0.5 * cfg.nu
    b0 = 0.5 * cfg.nu * cfg.s
    an_of = [a0 + 0.5 * c for c in range(n + 1)]
    df_of = [2.0 * an for an in an_of]
    power_of = [-0.5 * (df + 1.0) for df in df_of]
    lgamma_of = [math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df) for df in df_of]
    logdf_of = [log(df) + _LOG_PI for df in df_of]
    logc_of = [0.0] + [log(c) for c in range(1, n + 1)]

    def terms(c, s, sq):
        rn = r + c
        mean = s / c
        shift = 0.5 * r * c * (mean - m) ** 2 / rn
        bn = b0 + 0.5 * (sq - s * s / c) + shift
        if bn <= 0.0:
            bn = b0 + shift
        an = an_of[c]
        scale_sq = bn * (rn + 1.0) / (an * rn)
        log_norm = lgamma_of[c] - 0.5 * (logdf_of[c] + log(scale_sq))
        power = power_of[c]
        return exp((logc_of[c] + log_norm) / power), power, (rm + s) / rn, df_of[c] * scale_sq

    return terms


def _gibbs_chain(
    x: np.ndarray,
    labels: np.ndarray,
    cfg: DpgmmConfig,
    ctl: McmcControl,
    grid: Grid,
    rng: np.random.Generator,
) -> tuple:
    """Run the chain from ``labels``; return the retained rows and cluster counts.

    Each step weighs the occupied clusters and a new one in linear space, in
    one pass, and picks by ``_pick_linear``.  Each occupied cluster keeps
    its ``_cluster_terms``, refreshed only when a step removes or inserts an
    observation, and each observation's new-cluster weight is computed
    once.  ``DpgmmConfig`` keeps that weight within [1e-300, 1e300] and no
    cluster weight can exceed ``n * e**373``, so the total neither
    underflows nor overflows.  The uniforms come as one block per sweep,
    which numpy draws exactly as the same number of scalar ``rng.random()``
    calls.
    """
    n = x.size
    xs = x.tolist()
    labels = labels.tolist()
    counts, sums, sqs = _cluster_stats(xs, labels)
    terms_of = _cluster_terms(cfg, n)
    terms = [terms_of(*stats) for stats in zip(counts, sums, sqs)]
    new_cluster = [math.exp(lw) for lw in _new_cluster_log_weights(cfg, xs)]
    fsum = math.fsum

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
                s_left, sq_left, terms_left = sums[j], sqs[j], terms[j]
                s = sums[j] = s_left - xi
                sq = sqs[j] = sq_left - xi * xi
                terms[j] = terms_of(c, s, sq)
            else:
                last = len(counts) - 1
                if j != last:
                    counts[j], sums[j], sqs[j] = counts[last], sums[last], sqs[last]
                    terms[j] = terms[last]
                    labels = [j if li == last else li for li in labels]
                del counts[-1], sums[-1], sqs[-1], terms[-1]
                j = -1

            weights = [(b * (1.0 + (xi - lo) ** 2 / de)) ** pw for b, pw, lo, de in terms]
            weights.append(new_cluster[i])
            pick = _pick_linear(weights, uniforms[i], fsum(weights))

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
                if pick == j and s == s_left and sq == sq_left:
                    # Back where it was, with the same sums: the same terms.
                    terms[pick] = terms_left
                else:
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
