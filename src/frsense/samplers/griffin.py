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

Both assignment steps weigh the choices in linear space: one ``exp`` per
weight, with the log-amplitude inside it, one ``math.fsum`` and one
inverse-CDF scan (``_pick_linear``).  The component variances are sampled,
so no setting keeps the total above underflow; a step whose total falls
below ``_WEIGHT_FLOOR`` weighs its choices again in log space (``_pick``)
with the same uniform, which draws from the same law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidPhiError, InvalidSettingError
from ..grid import Grid
from .common import (
    Dataset,
    McmcControl,
    PosteriorSample,
    _cluster_stats,
    _drop_cluster,
    _pick,
    _pick_linear,
    _run_chain,
    check_settings,
    make_rng,
    sample_crp_partition,
)

__all__ = [
    "CcvConfig",
    "DcvConfig",
    "ccv_posterior",
    "dcv_posterior",
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

_TWO_PI = 2.0 * math.pi

#: An assignment step whose linear weights total less than this is redrawn
#: in log space.  Above it, weights that underflow (at most 5e-324 each)
#: are negligible against the total.
_WEIGHT_FLOOR = 1e-300


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


def _laguerre_rule(n: int, alpha: float) -> tuple:
    """Nodes and normalized weights of the n-point generalized Gauss-Laguerre rule.

    Golub and Welsch (1969): the nodes are the eigenvalues of the Jacobi
    matrix of the Laguerre polynomials L_k^(alpha), and each weight is the
    squared first component of the node's unit eigenvector.  The weights
    are scaled to sum to one, so the rule integrates against the
    Gamma(alpha + 1, 1) density.
    """
    k = np.arange(1, n, dtype=float)
    jacobi = np.diag(2.0 * np.arange(n) + alpha + 1.0)
    off = np.sqrt(k * (k + alpha))
    jacobi += np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2
    return nodes, weights / weights.sum()


def _gauss_row(x: np.ndarray, mean: float, var) -> np.ndarray:
    """Normal density on ``x``; a column of variances gives one row each."""
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(_TWO_PI * var)


class _ChainBase:
    """State and updates shared by both model variants.

    A subclass supplies its assignment step, its sweep, each occupied
    cluster's component variance (``_comp_vars``) and the unweighted
    new-cluster density of an emitted row (``_new_cluster_row``).
    """

    def __init__(self, x: np.ndarray, cfg, rng: np.random.Generator):
        self.n = int(x.size)
        self.cfg = cfg
        self.rng = rng
        self.alpha = sample_griffin_steel(cfg.eta, cfg.gamma, rng)
        self.a = float(np.clip(rng.beta(cfg.a0, cfg.a1), _A_GRID[0], _A_GRID[-1]))
        var = float(np.var(x, ddof=1)) if self.n > 1 else 1e-2
        self.tau = 1.0 / max(var, 1e-8)
        self.mu0 = float(np.mean(x))
        self.labels = sample_crp_partition(self.alpha, self.n, rng).tolist()
        self.x = x
        self.xs = x.tolist()
        self.counts, self.sums, self.sqs = _cluster_stats(self.xs, self.labels)
        self.mus = [self.mu0] * len(self.counts)
        #: log(c) for every cluster size c (entry 0 unused).
        self.log_counts = [0.0] + [math.log(c) for c in range(1, self.n + 1)]
        self.accepted = 0
        self.proposed = 0

    @property
    def sigma2(self) -> float:
        return 1.0 / self.tau

    @property
    def n_clusters(self) -> int:
        return len(self.counts)

    def _within_ss(self, j: int) -> float:
        """Sum of squared deviations of cluster j's members from mu_j.

        Clamped at zero: the expanded form can round below it, for a
        singleton whose mean is within an ulp of its member.
        """
        mu = self.mus[j]
        return max(self.sqs[j] - 2.0 * mu * self.sums[j] + self.counts[j] * mu * mu, 0.0)

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
        u = self.rng.random()
        if u == 0.0 or math.log(u) < log_ratio:
            self.alpha = prop
            self.accepted += 1

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

    def diagnostics(self) -> dict:
        return {"alpha_acceptance": self.accepted / max(self.proposed, 1)}


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
        """One pass of conjugate reassignments, component means integrated out.

        Each occupied cluster keeps ``(la_j, mean_j, h_j)`` for its
        predictive normal N(mean_j, var_j): the log-amplitude
        ``la_j = log n_j - log(2 pi var_j) / 2`` and ``h_j = 0.5 / var_j``,
        refreshed only when a step removes or inserts an observation.  Its
        weight at x is ``exp(la_j - (x - mean_j)**2 h_j)``; keeping ``la_j``
        inside the ``exp`` spares a tight cluster the underflow of
        ``exp(-(x - mean_j)**2 h_j)`` before its amplitude scales it back.
        mu0 and sigma^2 do not change during the pass, so every
        observation's new-cluster weight comes from one numpy expression.
        A step sums its weights with one ``math.fsum`` and picks with
        ``_pick_linear``; below ``_WEIGHT_FLOOR`` it picks in log space
        instead, with the same uniform.  The uniforms come as one block per
        sweep, which numpy draws exactly as the same number of scalar
        ``rng.random()`` calls.
        """
        sigma2 = self.sigma2
        prior_var = (1.0 - self.a) * sigma2
        comp_var = self.a * sigma2
        mu0 = self.mu0
        inv_prior, mu0_prior = 1.0 / prior_var, mu0 / prior_var
        exp, log, fsum, log_counts = math.exp, math.log, math.fsum, self.log_counts

        def terms_of(c, s):
            prec = inv_prior + c / comp_var
            var = 1.0 / prec + comp_var
            la = log_counts[c] - 0.5 * log(_TWO_PI * var)
            return la, (mu0_prior + s / comp_var) / prec, 0.5 / var

        labels, counts, sums, sqs, mus = self.labels, self.counts, self.sums, self.sqs, self.mus
        terms = [terms_of(c, s) for c, s in zip(counts, sums)]
        columns = (counts, sums, sqs, mus, terms)
        new_logw = (
            log(self.alpha) - 0.5 * log(_TWO_PI * sigma2) - (self.x - mu0) ** 2 * (0.5 / sigma2)
        )
        new_weights = np.exp(new_logw).tolist()
        uniforms = self.rng.random(self.n).tolist()
        for i, xi in enumerate(self.xs):
            j = labels[i]
            c = counts[j] - 1
            if c:
                counts[j] = c
                s = sums[j] = sums[j] - xi
                sqs[j] -= xi * xi
                terms[j] = terms_of(c, s)
            else:
                labels = _drop_cluster(j, columns, labels)

            weights = [exp(la - (d := xi - mean) * d * h) for la, mean, h in terms]
            weights.append(new_weights[i])
            total = fsum(weights)
            if total < _WEIGHT_FLOOR:
                logw = [la - (xi - mean) ** 2 * h for la, mean, h in terms]
                logw.append(float(new_logw[i]))
                pick = _pick(logw, uniforms[i])
            else:
                pick = _pick_linear(weights, uniforms[i], total)

            labels[i] = pick
            if pick == len(counts):
                # A new cluster's sums are 0.0 + x_i, which is x_i: data are positive.
                counts.append(1)
                sums.append(xi)
                sqs.append(xi * xi)
                mus.append(mu0)
                terms.append(terms_of(1, xi))
            else:
                c = counts[pick] = counts[pick] + 1
                s = sums[pick] = sums[pick] + xi
                sqs[pick] += xi * xi
                terms[pick] = terms_of(c, s)
        self.labels = labels


class _DcvChain(_ChainBase):
    TRACE_NAMES = _ChainBase.TRACE_NAMES + ("var_dispersion",)

    def __init__(self, x, cfg: DcvConfig, rng):
        super().__init__(x, cfg, rng)
        self.zetas = [1.0 / float(rng.gamma(cfg.phi, 1.0)) for _ in range(self.n_clusters)]
        self._quad_nodes, self._quad_weights = _laguerre_rule(_QUAD_NODES, cfg.phi - 1.0)
        #: Each slot's observation: x_i repeated ``aux_m`` times.
        self._slot_xs = np.repeat(self.x, cfg.aux_m)

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

    def _slot_draws(self, prior_var: float) -> tuple:
        """``n * aux_m`` independent base-measure draws for one sweep's slots.

        Returns the slots' means and zetas as two arrays, each drawn as one
        block: the means first, then the gammas behind the zetas.  This is
        the only place the slots are drawn; ``_assign`` turns them into
        slot weights with one numpy expression.
        """
        size = self.n * self.cfg.aux_m
        mus = self.mu0 + math.sqrt(prior_var) * self.rng.standard_normal(size)
        zetas = 1.0 / self.rng.gamma(self.cfg.phi, 1.0, size)
        return mus, zetas

    def _assign(self):
        """One pass of Neal's (2000) Algorithm 8 with ``aux_m`` auxiliary slots.

        The sweep's randomness is drawn up front, as three blocks: the n
        uniforms, then the base-measure means and zetas of ``n * aux_m``
        slots (``_slot_draws``); mu0, sigma^2 and ``a`` do not change during
        the pass.  Observation i owns slots ``i * aux_m`` to
        ``i * aux_m + aux_m - 1``.  When it was a singleton, its own
        parameters are written over the first slot's draw (mean, zeta, log
        weight and weight), so only the last ``aux_m - 1`` are fresh and a
        new cluster always opens from the slot lists.  Each slot is still
        an independent draw from the base measure, so the transition kernel
        is the one of the scalar draws (``tests/_griffin_reference.py``
        keeps both loops).

        The weights are linear.  Slot s of variance v weighs
        ``exp(log(alpha / m) - log(2 pi v) / 2 - (x_i - mu_s)**2 0.5 / v)``
        at its own observation; all ``n * aux_m`` come from one numpy
        expression, and only a singleton's own first slot is recomputed as
        a scalar.  Each occupied cluster keeps ``(la_j, mu_j, h_j)`` with
        ``h_j = 0.5 / v_j`` and the log-amplitude ``la_j = log n_j + nl_j``,
        where ``nl_j = -log(2 pi v_j) / 2`` is kept too; ``la_j`` is
        refreshed on each count change.  The cluster's weight is
        ``exp(la_j - (x - mu_j)**2 h_j)``, with ``la_j`` inside the ``exp``
        so that a tight cluster's weight does not underflow before its
        amplitude scales it back.  A step sums its
        weights with one ``math.fsum`` and picks with ``_pick_linear``;
        below ``_WEIGHT_FLOOR`` it picks in log space instead, with the
        same uniform.
        """
        cfg = self.cfg
        sigma2 = self.sigma2
        prior_var = (1.0 - self.a) * sigma2
        coef = self.a * (cfg.phi - 1.0) * sigma2
        m_aux = cfg.aux_m
        exp, log, fsum, log_counts = math.exp, math.log, math.fsum, self.log_counts
        log_aux_rate = log(self.alpha / m_aux)
        uniforms = self.rng.random(self.n).tolist()
        slot_mus, slot_zetas = self._slot_draws(prior_var)
        slot_vs = coef * slot_zetas
        slot_logw = (
            log_aux_rate
            - 0.5 * np.log(_TWO_PI * slot_vs)
            - (self._slot_xs - slot_mus) ** 2 * (0.5 / slot_vs)
        )
        slot_weights = np.exp(slot_logw).tolist()
        slot_mus, slot_zetas = slot_mus.tolist(), slot_zetas.tolist()

        labels, counts, sums, sqs = self.labels, self.counts, self.sums, self.sqs
        mus, zetas = self.mus, self.zetas
        vs = self._comp_vars()
        nls = [-0.5 * log(_TWO_PI * v) for v in vs]
        terms = [(log_counts[c] + nl, mu, 0.5 / v) for c, nl, mu, v in zip(counts, nls, mus, vs)]
        columns = (counts, sums, sqs, mus, zetas, nls, terms)
        for i, xi in enumerate(self.xs):
            base = i * m_aux
            j = labels[i]
            c = counts[j] - 1
            _, mu, h = terms[j]
            if c:
                counts[j] = c
                sums[j] -= xi
                sqs[j] -= xi * xi
                terms[j] = log_counts[c] + nls[j], mu, h
            else:
                # The singleton's own parameters replace its first slot's draw.
                own_logw = log_aux_rate + nls[j] - (xi - mu) ** 2 * h
                slot_mus[base], slot_zetas[base] = mu, zetas[j]
                slot_logw[base] = own_logw
                slot_weights[base] = exp(own_logw)
                labels = _drop_cluster(j, columns, labels)

            weights = [exp(la - (d := xi - mu) * d * h) for la, mu, h in terms]
            weights += slot_weights[base : base + m_aux]
            total = fsum(weights)
            if total < _WEIGHT_FLOOR:
                logw = [la - (xi - mu) ** 2 * h for la, mu, h in terms]
                pick = _pick(logw + slot_logw[base : base + m_aux].tolist(), uniforms[i])
            else:
                pick = _pick_linear(weights, uniforms[i], total)

            k = len(counts)
            if pick >= k:
                # coef * zeta gives a singleton's own variance back exactly.
                mu, zeta = slot_mus[base + pick - k], slot_zetas[base + pick - k]
                v = coef * zeta
                h, nl = 0.5 / v, -0.5 * log(_TWO_PI * v)
                pick = k
                counts.append(1)
                sums.append(xi)
                sqs.append(xi * xi)
                mus.append(mu)
                zetas.append(zeta)
                nls.append(nl)
                terms.append((nl, mu, h))  # log 1 = 0
            else:
                c = counts[pick] = counts[pick] + 1
                sums[pick] += xi
                sqs[pick] += xi * xi
                _, mu, h = terms[pick]
                terms[pick] = log_counts[c] + nls[pick], mu, h
            labels[i] = pick
        self.labels = labels

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
        # A sorted list of about ten values is cheaper than numpy's median.
        logs = sorted(map(math.log, self.zetas))
        k = len(logs)
        mid = k // 2
        median = logs[mid] if k % 2 else 0.5 * (logs[mid - 1] + logs[mid])
        disp = sum(abs(lg - median) for lg in logs) / k
        return super().trace_row() + (disp,)

    def _new_cluster_row(self, grid: Grid) -> np.ndarray:
        # Integrate the component normal over the variance inflation's
        # Gamma(phi, 1) inverse with generalized Gauss-Laguerre: one row per
        # node, contracted with the weights.
        sigma2 = self.sigma2
        prior_var = (1.0 - self.a) * sigma2
        coef = self.a * (self.cfg.phi - 1.0) * sigma2
        variances = prior_var + coef / self._quad_nodes
        return self._quad_weights @ _gauss_row(grid.x, self.mu0, variances[:, None])


def ccv_posterior(
    data: Dataset,
    config: CcvConfig,
    ctl: McmcControl,
    grid: Grid | None = None,
) -> PosteriorSample:
    """Gibbs sampler for the common-component-variance mixture."""
    chain = _CcvChain(data.rescaled, config, make_rng(ctl.seed))
    return _run_chain(chain, "ccv", ctl, grid, config)


def dcv_posterior(
    data: Dataset,
    config: DcvConfig,
    ctl: McmcControl,
    grid: Grid | None = None,
) -> PosteriorSample:
    """Auxiliary-slot Gibbs sampler for the distinct-component-variance mixture."""
    chain = _DcvChain(data.rescaled, config, make_rng(ctl.seed))
    return _run_chain(chain, "dcv", ctl, grid, config)
