"""Repeat the dp same-law check over many seeds and report how often it rejects.

``tests/test_dp_sampler.py::TestSameLawAsSkippingDraws::test_two_sample_ks``
compares the block sampler with the per-draw reference at one pair of
seeds.  This script reruns that comparison for each case of
``_dp_reference.LAW_CASES`` at ``--repeats`` fresh seed pairs and prints the
share of two-sample KS p-values below 0.05.  When both samplers draw from
one law the p-values are uniform and the share is about 0.05.  The exit
status is 1 when the share exceeds ``--max-share``.

Run from the repository root::

    PYTHONPATH=src python tests/dp_law_repeat.py --repeats 100 --max-share 0.15
"""

from __future__ import annotations

import argparse
import sys

from _dp_reference import LAW_CASES, law_data, same_law_statistics
from _law import ks_pvalues

#: Draws per sampler run, as in the Tier-1 check.
N_DRAWS = 400

#: The Tier-1 check uses seeds 12 and 13; the repeats start well past them.
FIRST_SEED = 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=100)
    parser.add_argument("--max-share", type=float, default=0.15)
    args = parser.parse_args(argv)

    data = law_data()
    pvalues = []
    for case, config in LAW_CASES.items():
        case_pvalues = []
        for r in range(args.repeats):
            seed = FIRST_SEED + 2 * r
            case_pvalues.extend(
                ks_pvalues(*same_law_statistics(data, config, N_DRAWS, seed, seed + 1)).values()
            )
        low = sum(p < 0.05 for p in case_pvalues)
        print(f"{case}: {low} of {len(case_pvalues)} p-values below 0.05")
        pvalues.extend(case_pvalues)
    share = sum(p < 0.05 for p in pvalues) / len(pvalues)
    print(f"share of p < 0.05: {share:.3f} over {len(pvalues)} tests (limit {args.max_share})")
    return 0 if share <= args.max_share else 1


if __name__ == "__main__":
    sys.exit(main())
