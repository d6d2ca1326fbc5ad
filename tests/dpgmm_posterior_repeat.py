"""Repeat the dpgmm exact-posterior check over many seeds and report how often it rejects.

``tests/test_dpgmm_sampler.py::TestExactPosterior`` runs 3,000 seeded
chains once and tests their last states against the exact partition
posterior of six points (``_dpgmm_posterior``).  This script reruns that
check for ``--repeats`` fresh seeds and prints the share of p-values (the
chi-square test of K and the binomial test of "x1 and x2 together") below
0.05.  When the kernel samples its posterior the p-values are close to
uniform and the share is about 0.05.  The exit status is 1 when the share
exceeds ``--max-share``.

Run from the repository root::

    PYTHONPATH=src python tests/dpgmm_posterior_repeat.py --repeats 30 --max-share 0.15
"""

from __future__ import annotations

import argparse
import sys

from _dpgmm_posterior import posterior_pvalues

#: Chains per check, as in the Tier-1 check.
N_CHAINS = 3000

#: The Tier-1 check uses seeds 1 and 2; the repeats start well past them.
FIRST_SEED = 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--max-share", type=float, default=0.15)
    args = parser.parse_args(argv)

    pvalues = {}
    for r in range(args.repeats):
        for name, p in posterior_pvalues(FIRST_SEED + r, N_CHAINS).items():
            pvalues.setdefault(name, []).append(p)
    for name, values in pvalues.items():
        low = sum(p < 0.05 for p in values)
        print(f"{name}: {low} of {len(values)} p-values below 0.05")
    flat = [p for values in pvalues.values() for p in values]
    share = sum(p < 0.05 for p in flat) / len(flat)
    print(f"share of p < 0.05: {share:.3f} over {len(flat)} tests (limit {args.max_share})")
    return 0 if share <= args.max_share else 1


if __name__ == "__main__":
    sys.exit(main())
