"""The exact partition posterior of the dpgmm model on six points.

With alpha and the Normal-Gamma base measure fixed, the collapsed Gibbs
chain of ``frsense.samplers.dpgmm`` targets

    p(partition | x)  proportional to  CRP(partition; alpha) * prod_c m(x_c),

where m(x_c) is the closed-form evidence of cluster c's points (Neal 2000,
*Markov chain sampling methods for Dirichlet process mixture models*,
Algorithm 3).  Six points have Bell(6) = 203 partitions, so the posterior
of any partition statistic is an exact sum.  ``posterior_pvalues`` runs
many short seeded chains, keeps each chain's last state and tests two
statistics of those states against the sums: the number of clusters K by
a chi-square test, and "x1 and x2 share a cluster" by a binomial test.

The evidence is written from the model, not from the chain's
``_cluster_terms``: a cluster's precision R is Gamma(nu/2, rate nu*s/2),
its mean given R is N(m, 1/(r R)), and each of its points given both is
N(mean, 1/R).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from frsense import DpgmmConfig, Grid
from frsense.samplers.dpgmm import _DpgmmChain

X = (0.2, 0.25, 0.3, 0.62, 0.7, 0.9)
CONFIG = DpgmmConfig(alpha=1.0, m=0.5, r=1.0, nu=3.0, s=0.02)
#: The chain emits nothing here; its grid only sets the new-cluster row.
GRID = Grid(16)
#: Sweeps per chain before its state is kept.
SWEEPS = 25
#: Smallest expected count of a chi-square cell; smaller cells are pooled.
MIN_EXPECTED = 5.0


def set_partitions(n: int):
    """Every partition of ``range(n)``, as a list of blocks of indices."""
    if n == 0:
        yield []
        return
    for blocks in set_partitions(n - 1):
        for j in range(len(blocks)):
            yield [*blocks[:j], [*blocks[j], n - 1], *blocks[j + 1 :]]
        yield [*blocks, [n - 1]]


def log_evidence(points, cfg: DpgmmConfig) -> float:
    """log m(points): the cluster's likelihood with its mean and precision
    integrated over the Normal-Gamma prior."""
    n = len(points)
    a0, b0 = 0.5 * cfg.nu, 0.5 * cfg.nu * cfg.s
    mean = math.fsum(points) / n
    scatter = math.fsum((p - mean) ** 2 for p in points)
    rn = cfg.r + n
    an = a0 + 0.5 * n
    bn = b0 + 0.5 * scatter + 0.5 * cfg.r * n * (mean - cfg.m) ** 2 / rn
    return (
        math.lgamma(an) - math.lgamma(a0)
        + a0 * math.log(b0) - an * math.log(bn)
        + 0.5 * math.log(cfg.r / rn)
        - 0.5 * n * math.log(2.0 * math.pi)
    )


def log_crp(blocks, alpha: float) -> float:
    """log of the restaurant-process prior probability of a partition."""
    n = sum(map(len, blocks))
    return (
        len(blocks) * math.log(alpha)
        + math.lgamma(alpha) - math.lgamma(alpha + n)
        + sum(math.lgamma(len(b)) for b in blocks)
    )


def exact_posterior() -> tuple[np.ndarray, float]:
    """(P(K = k) for k = 1..6, P(x1 and x2 share a cluster)) given ``X``."""
    partitions = list(set_partitions(len(X)))
    logp = np.array([
        log_crp(blocks, CONFIG.alpha)
        + sum(log_evidence([X[i] for i in b], CONFIG) for b in blocks)
        for blocks in partitions
    ])
    p = np.exp(logp - logp.max())
    p /= p.sum()
    k_probs = np.zeros(len(X))
    shared = 0.0
    for prob, blocks in zip(p, partitions):
        k_probs[len(blocks) - 1] += prob
        shared += prob * any(0 in b and 1 in b for b in blocks)
    return k_probs, shared


def final_states(seed: int, n_chains: int, tamper=None) -> tuple[np.ndarray, np.ndarray]:
    """K and "x1 and x2 together" of each chain's state after ``SWEEPS`` sweeps.

    Chain i draws from ``default_rng([seed, i])``.  ``tamper(chain)``, if
    given, alters each chain after it is built.
    """
    x = np.array(X)
    k = np.empty(n_chains, dtype=int)
    together = np.empty(n_chains, dtype=bool)
    for i in range(n_chains):
        chain = _DpgmmChain(x, CONFIG, np.random.default_rng([seed, i]), GRID)
        if tamper is not None:
            tamper(chain)
        for _ in range(SWEEPS):
            chain.sweep()
        k[i] = len(chain.counts)
        together[i] = chain.labels[0] == chain.labels[1]
    return k, together


def pooled_chisquare(observed: np.ndarray, probs: np.ndarray) -> float:
    """Chi-square p-value of cell counts against cell probabilities.

    Adjacent cells are pooled, in order, until each expected count is at
    least ``MIN_EXPECTED``; a short last pool joins the one before it.
    """
    expected = probs * observed.sum()
    pools, obs, exp = [], 0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= MIN_EXPECTED:
            pools.append([obs, exp])
            obs, exp = 0, 0.0
    if exp > 0.0 or obs:
        pools[-1][0] += obs
        pools[-1][1] += exp
    o, e = np.array(pools).T
    return float(stats.chisquare(o, e).pvalue)


def posterior_pvalues(seed: int, n_chains: int, tamper=None) -> dict:
    """p-values of the chains' K and "x1 and x2 together" against the exact law."""
    k_probs, shared = exact_posterior()
    k, together = final_states(seed, n_chains, tamper)
    counts = np.bincount(k - 1, minlength=len(X))
    return {
        "n_clusters": pooled_chisquare(counts, k_probs),
        "x1_x2_together": float(stats.binomtest(int(together.sum()), n_chains, shared).pvalue),
    }
