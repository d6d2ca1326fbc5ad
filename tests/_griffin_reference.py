"""Reference assignment loops for the ccv and dcv samplers.

These are the straightforward assignment steps that
``frsense.samplers.griffin`` replaced with faster ones: every cluster's
weight rebuilt in log space through ``_norm_logpdf`` for every observation,
picked by ``_pick``, and observations moved by ``_remove_obs`` and
``_add_obs``.  There are three:

* ``CcvReference`` draws one scalar uniform per observation-step, as the ccv
  kernel does (its block of uniforms is the same stream);
* ``DcvBlockReference`` draws a sweep's randomness as the dcv kernel does:
  n uniforms, then the means and then the gammas of ``n * aux_m`` auxiliary
  slots, each as one block, observation i owning slots ``i * aux_m`` on;
* ``DcvReference`` draws each auxiliary slot and uniform with its own scalar
  call, in the order of the steps.  No kernel makes these draws any more;
  it is the oracle for the law of the dcv chain.

The fast kernels weigh in linear space.  They must make the same random
draws in the same order as ``CcvReference`` and ``DcvBlockReference``, and
the same state updates; each step's linear weights must be ``exp`` of the
reference's log weights to rounding.  A pick could then differ only where
a uniform lands within rounding of a cumulative-weight boundary, so on the
tests' cases ``reference_posterior`` and ``ccv_posterior``/``dcv_posterior``
agree bit for bit.  The kernels and the scalar-draw loops ``CcvReference``
and ``DcvReference`` must give the same law of the chain state, which the
tests check with two-sample Kolmogorov-Smirnov tests over many seeds.
"""

from __future__ import annotations

import math

from frsense.grid import default_grid
from frsense.samplers.common import _pick, make_rng
from frsense.samplers.griffin import _CcvChain, _DcvChain, _run_chain


def _norm_logpdf(x: float, mean: float, var: float) -> float:
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mean) ** 2 / var)


class _ReferenceSteps:
    """Observation moves of the reference loops, with counters of the rare paths.

    ``relabels`` counts the removals that emptied a cluster other than the
    last one: the path that moves the last cluster into the freed slot and
    relabels its members.
    """

    relabels = 0

    def _per_cluster(self) -> list:
        return [self.counts, self.sums, self.sqs, self.mus]

    def _open_cluster(self, *params):
        for values, value in zip(self._per_cluster(), (0, 0.0, 0.0, *params)):
            values.append(value)

    def _delete_cluster(self, j: int):
        last = self.n_clusters - 1
        for values in self._per_cluster():
            values[j] = values[last]
            values.pop()
        if j != last:
            self.relabels += 1
            self.labels = [j if li == last else li for li in self.labels]

    def _remove_obs(self, i: int) -> None:
        j = self.labels[i]
        xi = self.xs[i]
        self.counts[j] -= 1
        self.sums[j] -= xi
        self.sqs[j] -= xi * xi
        if self.counts[j] == 0:
            self._delete_cluster(j)

    def _add_obs(self, i: int, j: int):
        xi = self.xs[i]
        self.labels[i] = j
        self.counts[j] += 1
        self.sums[j] += xi
        self.sqs[j] += xi * xi


class CcvReference(_ReferenceSteps, _CcvChain):
    def _assign(self):
        sigma2 = self.sigma2
        prior_var = (1.0 - self.a) * sigma2
        comp_var = self.a * sigma2
        rng = self.rng
        for i in range(self.n):
            self._remove_obs(i)
            xi = self.xs[i]
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


class DcvReference(_ReferenceSteps, _DcvChain):
    """``kept_singletons`` counts the steps whose pick was the first
    auxiliary slot while it held the removed singleton's own parameters."""

    kept_singletons = 0

    def _per_cluster(self) -> list:
        return super()._per_cluster() + [self.zetas]

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
            xi = self.xs[i]

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
            if pick == k and singleton_params is not None:
                self.kept_singletons += 1
            if pick >= k:
                self._open_cluster(*aux[pick - k])
                pick = k
            self._add_obs(i, pick)


class DcvBlockReference(DcvReference):
    """The plain dcv loop with the dcv kernel's block draws."""

    def _assign(self):
        cfg = self.cfg
        sigma2 = self.sigma2
        prior_var = (1.0 - self.a) * sigma2
        coef = self.a * (cfg.phi - 1.0) * sigma2
        rng = self.rng
        m_aux = cfg.aux_m
        log_aux_rate = math.log(self.alpha / m_aux)
        uniforms = rng.random(self.n)
        normals = rng.standard_normal(self.n * m_aux)
        gammas = rng.gamma(cfg.phi, 1.0, self.n * m_aux)
        for i in range(self.n):
            aux = [
                (self.mu0 + math.sqrt(prior_var) * float(normals[s]), 1.0 / float(gammas[s]))
                for s in range(i * m_aux, (i + 1) * m_aux)
            ]
            j_old = self.labels[i]
            singleton = self.counts[j_old] == 1
            if singleton:
                aux[0] = (self.mus[j_old], self.zetas[j_old])
            self._remove_obs(i)
            xi = self.xs[i]

            k = self.n_clusters
            logw = [0.0] * (k + m_aux)
            for j in range(k):
                logw[j] = math.log(self.counts[j]) + _norm_logpdf(
                    xi, self.mus[j], coef * self.zetas[j]
                )
            for c, (mu_c, zeta_c) in enumerate(aux):
                logw[k + c] = log_aux_rate + _norm_logpdf(xi, mu_c, coef * zeta_c)
            pick = _pick(logw, float(uniforms[i]))
            if pick == k and singleton:
                self.kept_singletons += 1
            if pick >= k:
                self._open_cluster(*aux[pick - k])
                pick = k
            self._add_obs(i, pick)


_CHAINS = {"ccv": CcvReference, "dcv": DcvBlockReference}


def reference_posterior(model: str, data, config, ctl, grid=None) -> tuple:
    """``(PosteriorSample, chain)`` of the reference chain for ``model``.

    For dcv this is ``DcvBlockReference``, the loop the kernel matches.  The
    chain carries the ``relabels`` (and, for dcv, ``kept_singletons``)
    counts of the run.
    """
    grid = grid or default_grid()
    chain = _CHAINS[model](data.rescaled, config, make_rng(ctl.seed))
    return _run_chain(chain, model, ctl, grid, config), chain
