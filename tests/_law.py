"""Two-sample checks that two samplers draw from one law.

A kernel that changes its random stream cannot be compared with the old one
bit for bit; it must give the same distribution instead.  ``ks_pvalues``
runs one two-sample Kolmogorov-Smirnov test per named statistic, and
``assert_same_law`` requires every p-value to exceed a bound.
"""

from __future__ import annotations

from scipy import stats


def ks_pvalues(first: dict, second: dict) -> dict:
    """Two-sample KS p-value of each statistic named in ``first``."""
    return {name: float(stats.ks_2samp(first[name], second[name]).pvalue) for name in first}


def assert_same_law(first: dict, second: dict, bound: float = 0.01) -> dict:
    """Assert that each named statistic passes the KS test; return the p-values."""
    pvalues = ks_pvalues(first, second)
    assert min(pvalues.values()) > bound, pvalues
    return pvalues
