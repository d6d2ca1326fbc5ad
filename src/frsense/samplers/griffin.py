"""Gaussian Dirichlet mixtures with sampled variance-structure hyperparameters.

Two related models over rescaled data x_1..x_n in [0, 1]:

* common component variance ("ccv"): every component is N(mu_j, a sigma^2)
  with mu_j ~ N(mu0, (1-a) sigma^2), so ``a`` splits one overall variance
  sigma^2 between within-component spread and between-component spread;
* distinct component variances ("dcv"): component j is
  N(mu_j, a (phi - 1) zeta_j sigma^2) with 1/zeta_j ~ Gamma(phi, 1), which
  recovers the common-variance behavior on average (E[zeta] = 1/(phi-1)) but
  lets individual components inflate or deflate.

Shared hyperpriors: a ~ Beta(a0, a1); mu0 normal; 1/sigma^2 gamma; the
concentration alpha carries the heavy-tailed prior

    p(alpha) = gamma^eta Gamma(2 eta) / Gamma(eta)^2
               * alpha^(eta-1) / (alpha + gamma)^(2 eta),

equivalently alpha / (alpha + gamma) ~ Beta(eta, eta).

One sweep updates, in order: assignments, component means (and, for dcv, the
zeta_j), mu0, 1/sigma^2, ``a`` (griddy step on a 200-cell midpoint grid over
(0,1)), and alpha (random-walk proposal on log alpha, step 0.3).  ccv
assignments are conjugate with the component means marginalized out; dcv
assignments use auxiliary parameter slots filled with fresh base-measure
draws (``aux_m`` of them, a singleton's own parameters occupying the first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidPhiError, InvalidSettingError
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

__all__ = [
    "CcvConfig",
    "DcvConfig",
    "ccv_posterior",
    "dcv_posterior",
    "griffin_steel_pdf",
    "sample_griffin_steel",
]

#: Standard deviation of the log-scale random walk on alpha.
ALPHA_WALK_STEP = 0.3

#: Number of cells in the griddy update for the variance fraction a.
A_GRID_SIZE = 200

_A_GRID = (np.arange(A_GRID_SIZE) + 0.5) / A_GRID_SIZE
_LOG_A = np.log(_A_GRID)
_LOG_1MA = np.log1p(-_A_GRID)
_LOG_CELL_MIN = float(min(_LOG_A.min(), _LOG_1MA.min()))

_QUAD_NODES = 24


def griffin_steel_pdf(alpha, eta: float, gamma: float):
    """Density of the concentration prior; vectorized over ``alpha``."""
    alpha = np.asarray(alpha, dtype=float)
    log_c = eta * math.log(gamma) + math.lgamma(2.0 * eta) - 2.0 * math.lgamma(eta)
    with np.errstate(divide="ignore"):
        log_pdf = log_c + (eta - 1.0) * np.log(alpha) - 2.0 * eta * np.log(alpha + gamma)
    return np.exp(log_pdf)


#: The Beta(eta, eta) draw behind alpha is kept this far inside (0, 1).
_T_MARGIN = 1e-12


def sample_griffin_steel(eta: float, gamma: float, rng: np.random.Generator) -> float:
    """Draw from the concentration prior via its Beta(eta, eta) representation."""
    t = min(max(float(rng.beta(eta, eta)), _T_MARGIN), 1.0 - _T_MARGIN)
    return gamma * t / (1.0 - t)


def _alpha_log_post(cfg, alpha: float, k: int, n: int) -> float:
    """Log density of alpha given k clusters among n observations, up to a constant."""
    return (
        (cfg.eta - 1.0) * math.log(alpha)
        - 2.0 * cfg.eta * math.log(alpha + cfg.gamma)
        + k * math.log(alpha)
        + math.lgamma(alpha)
        - math.lgamma(alpha + n)
    )


#: Fields of both configs that must be positive; ``mu00`` need only be finite.
_POSITIVE_FIELDS = ("a0", "a1", "eta", "gamma", "lambda0", "s0", "s1")


def _check_start(cfg) -> None:
    """Raise InvalidSettingError if the chain start leaves double precision.

    Alpha starts at gamma t / (1 - t) for t in [_T_MARGIN, 1 - _T_MARGIN]
    and needs a finite log posterior there.  The griddy step on ``a`` adds
    log a and log(1 - a), each as low as _LOG_CELL_MIN, scaled by a0 - 1 and
    a1 - 1.  The updates square the distance of mu00 from the data in
    [0, 1] and divide it by 2 (1 - a), as small as 1 / A_GRID_SIZE; the
    first 1/sigma^2 draw has prior mean s0 / s1.
    """
    for t in (_T_MARGIN, 1.0 - _T_MARGIN):
        alpha = cfg.gamma * t / (1.0 - t)
        try:
            finite = alpha > 0.0 and math.isfinite(_alpha_log_post(cfg, alpha, 1, 0))
        except (OverflowError, ValueError):  # lgamma overflow, log of zero
            finite = False
        if not finite:
            raise InvalidSettingError(
                f"eta={cfg.eta!r}, gamma={cfg.gamma!r} give a concentration "
                "prior outside double precision"
            )
    if not math.isfinite((cfg.a0 + cfg.a1 - 2.0) * _LOG_CELL_MIN):
        raise InvalidSettingError(
            f"a0={cfg.a0!r}, a1={cfg.a1!r} overflow the griddy update of a"
        )
    gap = max(-cfg.mu00, cfg.mu00 - 1.0, 0.0)
    if not math.isfinite(gap * gap * A_GRID_SIZE):
        raise InvalidSettingError(f"mu00 = {cfg.mu00!r} is too far from [0, 1]")
    if not math.isfinite(cfg.s0 / cfg.s1):
        raise InvalidSettingError(
            f"s0={cfg.s0!r}, s1={cfg.s1!r} give a 1/sigma^2 prior mean "
            "outside double precision"
        )


@dataclass(frozen=True)
class CcvConfig:
    """Common-component-variance model hyperparameters."""

    a0: float = 1.0
    a1: float = 10.0
    eta: float = 3.0
    gamma: float = 5.0
    mu00: float = 0.5
    lambda0: float = 1.0
    s0: float = 2.0
    s1: float = 0.1

    def __post_init__(self):
        check_settings(self, finite=("mu00",), positive=_POSITIVE_FIELDS)
        _check_start(self)


@dataclass(frozen=True)
class DcvConfig:
    """Distinct-component-variance model hyperparameters."""

    a0: float = 1.0
    a1: float = 10.0
    eta: float = 3.0
    gamma: float = 5.0
    mu00: float = 0.5
    lambda0: float = 1.0
    s0: float = 2.0
    s1: float = 0.1
    phi: float = 2.0
    aux_m: int = 3

    def __post_init__(self):
        check_settings(self, finite=("mu00", "phi"), positive=_POSITIVE_FIELDS)
        if self.phi <= 1.0:
            raise InvalidPhiError(f"phi must exceed 1, got {self.phi}")
        if self.aux_m < 1:
            raise InvalidSettingError(f"aux_m must be >= 1, got {self.aux_m}")
        _check_start(self)
        try:  # the new-cluster quadrature's weights total Gamma(phi)
            math.gamma(self.phi)
        except OverflowError:
            raise InvalidSettingError(f"phi = {self.phi!r} overflows Gamma(phi)") from None


def _norm_logpdf(x: float, mean: float, var: float) -> float:
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mean) ** 2 / var)


def _gauss_row(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


class _ChainBase:
    """State and updates shared by both model variants.

    A subclass supplies its assignment step, its sweep, each occupied
    cluster's component variance (``_comp_vars``) and the unweighted
    new-cluster density of an emitted row (``_new_cluster_row``).
    """

    def __init__(self, x: np.ndarray, cfg, rng: np.random.Generator):
        self.x = x
        self.n = int(x.size)
        self.cfg = cfg
        self.rng = rng
        self.alpha = sample_griffin_steel(cfg.eta, cfg.gamma, rng)
        self.a = float(np.clip(rng.beta(cfg.a0, cfg.a1), _A_GRID[0], _A_GRID[-1]))
        var = float(np.var(x, ddof=1)) if self.n > 1 else 1e-2
        self.tau = 1.0 / max(var, 1e-8)
        self.mu0 = float(np.mean(x))
        self.labels = sample_crp_partition(self.alpha, self.n, rng)
        self.counts, self.sums, self.sqs = _cluster_stats(x.tolist(), self.labels.tolist())
        self.mus = [self.mu0] * len(self.counts)
        #: Lists indexed by cluster, kept aligned; a subclass appends its own.
        self.per_cluster = [self.counts, self.sums, self.sqs, self.mus]
        self.accepted = 0
        self.proposed = 0

    @property
    def sigma2(self) -> float:
        return 1.0 / self.tau

    @property
    def n_clusters(self) -> int:
        return len(self.counts)

    def _within_ss(self, j: int) -> float:
        """Sum of squared deviations of cluster j's members from mu_j."""
        mu = self.mus[j]
        return self.sqs[j] - 2.0 * mu * self.sums[j] + self.counts[j] * mu * mu

    def _update_mu0(self):
        cfg = self.cfg
        prior_var = (1.0 - self.a) * self.sigma2
        prec = cfg.lambda0 + self.n_clusters / prior_var
        mean = (cfg.lambda0 * cfg.mu00 + math.fsum(self.mus) / prior_var) / prec
        self.mu0 = mean + math.sqrt(1.0 / prec) * float(self.rng.standard_normal())

    def _between_ss(self) -> float:
        return math.fsum((mu - self.mu0) ** 2 for mu in self.mus)

    def _update_tau(self, within_term: float):
        """Gamma full conditional; ``within_term`` is the model-specific part
        of the rate (data deviations divided by their variance factors)."""
        cfg = self.cfg
        shape = cfg.s0 + 0.5 * self.n + 0.5 * self.n_clusters
        rate = cfg.s1 + within_term + self._between_ss() / (2.0 * (1.0 - self.a))
        self.tau = float(self.rng.gamma(shape, 1.0 / rate))

    def _update_a(self, scaled_within: float):
        """Griddy step: evaluate the log conditional on the midpoint grid,
        normalize, and draw a cell.  ``scaled_within`` is the within-component
        squared-deviation total already divided by any variance inflation."""
        cfg = self.cfg
        j = self.n_clusters
        between = self._between_ss()
        logpost = (
            (cfg.a0 - 1.0 - 0.5 * self.n) * _LOG_A
            + (cfg.a1 - 1.0 - 0.5 * j) * _LOG_1MA
            - 0.5 * self.tau * scaled_within / _A_GRID
            - 0.5 * self.tau * between / (1.0 - _A_GRID)
        )
        logpost -= logpost.max()
        probs = np.exp(logpost)
        probs /= probs.sum()
        self.a = float(_A_GRID[self.rng.choice(A_GRID_SIZE, p=probs)])

    def _update_alpha(self):
        cfg, k, n = self.cfg, self.n_clusters, self.n
        prop = self.alpha * math.exp(ALPHA_WALK_STEP * float(self.rng.standard_normal()))
        self.proposed += 1
        log_ratio = (
            _alpha_log_post(cfg, prop, k, n)
            - _alpha_log_post(cfg, self.alpha, k, n)
            + math.log(prop)
            - math.log(self.alpha)
        )
        if math.log(self.rng.random()) < log_ratio:
            self.alpha = prop
            self.accepted += 1

    def _open_cluster(self, *params):
        """Append an empty cluster with parameters (mu, then any of the subclass's)."""
        for values, value in zip(self.per_cluster, (0, 0.0, 0.0, *params)):
            values.append(value)

    def _delete_cluster(self, j: int):
        """Move the last cluster into slot j and drop the last slot."""
        last = self.n_clusters - 1
        for values in self.per_cluster:
            values[j] = values[last]
            values.pop()
        if j != last:
            self.labels[self.labels == last] = j

    def _remove_obs(self, i: int) -> None:
        j = self.labels[i]
        xi = float(self.x[i])
        self.counts[j] -= 1
        self.sums[j] -= xi
        self.sqs[j] -= xi * xi
        if self.counts[j] == 0:
            self._delete_cluster(j)

    def _add_obs(self, i: int, j: int):
        xi = float(self.x[i])
        self.labels[i] = j
        self.counts[j] += 1
        self.sums[j] += xi
        self.sqs[j] += xi * xi

    def _update_means(self):
        prior_var = (1.0 - self.a) * self.sigma2
        for j, comp_var in enumerate(self._comp_vars()):
            prec = 1.0 / prior_var + self.counts[j] / comp_var
            mean = (self.mu0 / prior_var + self.sums[j] / comp_var) / prec
            self.mus[j] = mean + math.sqrt(1.0 / prec) * float(self.rng.standard_normal())

    def emit_row(self, grid: Grid) -> np.ndarray:
        """The state's predictive density on the grid, unnormalized."""
        total = self.n + self.alpha
        row = (self.alpha / total) * self._new_cluster_row(grid)
        for count, mu, var in zip(self.counts, self.mus, self._comp_vars()):
            row += (count / total) * _gauss_row(grid.x, mu, var)
        return row

    TRACE_NAMES = ("n_clusters", "alpha", "a", "sigma2", "mu0", "max_mean_dev")

    def trace_row(self) -> tuple:
        dev = max(abs(mu - self.mu0) for mu in self.mus)
        return (self.n_clusters, self.alpha, self.a, self.sigma2, self.mu0, dev)


class _CcvChain(_ChainBase):
    def sweep(self):
        self._assign()
        self._update_means()
        self._update_mu0()
        within = math.fsum(self._within_ss(j) for j in range(self.n_clusters))
        self._update_tau(within / (2.0 * self.a))
        self._update_a(within)
        self._update_alpha()

    def _comp_vars(self) -> list:
        return [self.a * self.sigma2] * self.n_clusters

    def _new_cluster_row(self, grid: Grid) -> np.ndarray:
        return _gauss_row(grid.x, self.mu0, self.sigma2)

    def _assign(self):
        sigma2 = self.sigma2
        prior_var = (1.0 - self.a) * sigma2
        comp_var = self.a * sigma2
        rng = self.rng
        for i in range(self.n):
            self._remove_obs(i)
            xi = float(self.x[i])
            k = self.n_clusters
            logw = [0.0] * (k + 1)
            for j in range(k):
                prec = 1.0 / prior_var + self.counts[j] / comp_var
                mean = (self.mu0 / prior_var + self.sums[j] / comp_var) / prec
                logw[j] = math.log(self.counts[j]) + _norm_logpdf(
                    xi, mean, 1.0 / prec + comp_var
                )
            logw[k] = math.log(self.alpha) + _norm_logpdf(xi, self.mu0, sigma2)
            pick = _pick(logw, rng.random())
            if pick == k:
                self._open_cluster(self.mu0)
            self._add_obs(i, pick)


class _DcvChain(_ChainBase):
    TRACE_NAMES = _ChainBase.TRACE_NAMES + ("var_dispersion",)

    def __init__(self, x, cfg: DcvConfig, rng):
        # Imported here: scipy.special is slow to load and only dcv needs it.
        from scipy.special import roots_genlaguerre

        super().__init__(x, cfg, rng)
        self.zetas = [1.0 / float(rng.gamma(cfg.phi, 1.0)) for _ in range(self.n_clusters)]
        self.per_cluster.append(self.zetas)
        nodes, qweights = roots_genlaguerre(_QUAD_NODES, cfg.phi - 1.0)
        self._quad_nodes = nodes
        self._quad_weights = qweights / qweights.sum()

    def sweep(self):
        self._assign()
        self._update_means()
        self._update_zetas()
        self._update_mu0()
        cfg = self.cfg
        within = math.fsum(
            self._within_ss(j) / ((cfg.phi - 1.0) * self.zetas[j])
            for j in range(self.n_clusters)
        )
        self._update_tau(within / (2.0 * self.a))
        self._update_a(within)
        self._update_alpha()

    def _fresh_params(self, prior_var: float) -> tuple:
        cfg = self.cfg
        mu = self.mu0 + math.sqrt(prior_var) * float(self.rng.standard_normal())
        zeta = 1.0 / float(self.rng.gamma(cfg.phi, 1.0))
        return mu, zeta

    def _assign(self):
        cfg = self.cfg
        sigma2 = self.sigma2
        prior_var = (1.0 - self.a) * sigma2
        coef = self.a * (cfg.phi - 1.0) * sigma2
        rng = self.rng
        m_aux = cfg.aux_m
        log_aux_rate = math.log(self.alpha / m_aux)
        for i in range(self.n):
            j_old = self.labels[i]
            singleton_params = None
            if self.counts[j_old] == 1:
                singleton_params = (self.mus[j_old], self.zetas[j_old])
            self._remove_obs(i)
            xi = float(self.x[i])

            aux = []
            if singleton_params is not None:
                aux.append(singleton_params)
            while len(aux) < m_aux:
                aux.append(self._fresh_params(prior_var))

            k = self.n_clusters
            logw = [0.0] * (k + m_aux)
            for j in range(k):
                logw[j] = math.log(self.counts[j]) + _norm_logpdf(
                    xi, self.mus[j], coef * self.zetas[j]
                )
            for c, (mu_c, zeta_c) in enumerate(aux):
                logw[k + c] = log_aux_rate + _norm_logpdf(xi, mu_c, coef * zeta_c)
            pick = _pick(logw, rng.random())
            if pick >= k:
                self._open_cluster(*aux[pick - k])
                pick = k
            self._add_obs(i, pick)

    def _comp_vars(self) -> list:
        coef = self.a * (self.cfg.phi - 1.0) * self.sigma2
        return [coef * zeta for zeta in self.zetas]

    def _update_zetas(self):
        cfg = self.cfg
        denom = 2.0 * self.a * (cfg.phi - 1.0)
        for j in range(self.n_clusters):
            shape = cfg.phi + 0.5 * self.counts[j]
            rate = 1.0 + self.tau * self._within_ss(j) / denom
            self.zetas[j] = 1.0 / float(self.rng.gamma(shape, 1.0 / rate))

    def trace_row(self) -> tuple:
        # Spread of the component variances within the state: mean absolute
        # log-ratio to their median (the shared a(phi-1)sigma^2 factor cancels).
        if self.n_clusters > 1:
            logs = np.log(self.zetas)
            disp = float(np.mean(np.abs(logs - np.median(logs))))
        else:
            disp = 0.0
        return super().trace_row() + (disp,)

    def _new_cluster_row(self, grid: Grid) -> np.ndarray:
        # Integrate the component normal over the variance inflation's
        # Gamma(phi, 1) inverse with generalized Gauss-Laguerre.
        sigma2 = self.sigma2
        prior_var = (1.0 - self.a) * sigma2
        coef = self.a * (self.cfg.phi - 1.0) * sigma2
        pp = np.zeros(grid.n_points)
        for g, w in zip(self._quad_nodes, self._quad_weights):
            pp += w * _gauss_row(grid.x, self.mu0, prior_var + coef / g)
        return pp


def _run_chain(chain, model: str, ctl: McmcControl, grid: Grid, cfg) -> PosteriorSample:
    names = chain.TRACE_NAMES
    rows = np.empty((ctl.n_samples, grid.n_points))
    trace = np.empty((ctl.n_samples, len(names)))
    kept = 0
    for sweep in range(ctl.n_sweeps):
        chain.sweep()
        if sweep >= ctl.burn_in and (sweep - ctl.burn_in) % ctl.thin == 0:
            rows[kept] = chain.emit_row(grid)
            trace[kept] = chain.trace_row()
            kept += 1
            if kept == ctl.n_samples:
                break
    return PosteriorSample(
        model=model,
        grid=grid,
        densities=normalize_rows(grid, rows),
        seed=ctl.seed,
        config=cfg,
        trace={name: trace[:, idx].copy() for idx, name in enumerate(names)},
        diagnostics={
            "alpha_acceptance": chain.accepted / max(chain.proposed, 1),
        },
    )


def ccv_posterior(
    data: Dataset,
    config: CcvConfig,
    ctl: McmcControl,
    grid: Grid | None = None,
) -> PosteriorSample:
    """Gibbs sampler for the common-component-variance mixture."""
    grid = grid or default_grid()
    rng = make_rng(ctl.seed)
    chain = _CcvChain(data.rescaled, config, rng)
    return _run_chain(chain, "ccv", ctl, grid, config)


def dcv_posterior(
    data: Dataset,
    config: DcvConfig,
    ctl: McmcControl,
    grid: Grid | None = None,
) -> PosteriorSample:
    """Auxiliary-slot Gibbs sampler for the distinct-component-variance mixture."""
    grid = grid or default_grid()
    rng = make_rng(ctl.seed)
    chain = _DcvChain(data.rescaled, config, rng)
    return _run_chain(chain, "dcv", ctl, grid, config)
