"""Repeat the dp same-law check over many seeds and report how often it rejects.

``tests/test_dp_sampler.py::TestSameLawAsStickBreaking::test_two_sample_ks``
compares the split sampler with the stick-breaking oracle at one pair of
seeds.  This script reruns that comparison for each case of
``_dp_reference.LAW_CASES`` at ``--repeats`` fresh seed pairs and prints the
share of two-sample KS p-values below 0.05.  When both samplers draw from
one law the p-values are uniform and the share is about 0.05.  Beside it,
it prints the same share for the negative control, the sampler dp used
before 0.11.0 (truncated at ``OLD_TRUNCATION`` sticks of the posterior DP)
against the same oracle runs.  The exit status is 1 when the share exceeds
``--max-share``, or when the negative control's share falls below
``MIN_CONTROL_SHARE``, which means the check has lost its power.

Run from the repository root::

    PYTHONPATH=src python tests/dp_law_repeat.py --repeats 100 --max-share 0.15
"""

from __future__ import annotations

import argparse
import sys

from _dp_reference import LAW_CASES, case_statistics
from _law import ks_pvalues

#: Draws per sampler run, as in the Tier-1 check.
N_DRAWS = 400

#: The Tier-1 check uses seeds 12 and 13; the repeats start well past them.
FIRST_SEED = 1000

#: The negative control must reject at least this share of its tests.  It
#: rejects nearly all of them at n = 100, where its last atom absorbs 15-20%
#: of the mass, and few at n = 10, where it absorbs 4%.
MIN_CONTROL_SHARE = 0.5


def share_below(pvalues: list) -> float:
    return sum(p < 0.05 for p in pvalues) / len(pvalues)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=100)
    parser.add_argument("--max-share", type=float, default=0.15)
    args = parser.parse_args(argv)

    pvalues = {"split": [], "old": []}
    for case in LAW_CASES:
        case_pvalues = {name: [] for name in pvalues}
        for r in range(args.repeats):
            seed = FIRST_SEED + 2 * r
            oracle = case_statistics(case, "oracle", N_DRAWS, seed + 1)
            for name, found in case_pvalues.items():
                stats = case_statistics(case, name, N_DRAWS, seed)
                found.extend(ks_pvalues(stats, oracle).values())
        for name, found in case_pvalues.items():
            low = sum(p < 0.05 for p in found)
            label = "negative control" if name == "old" else name
            print(f"{case}, {label}: {low} of {len(found)} p-values below 0.05")
            pvalues[name].extend(found)
    share, control = share_below(pvalues["split"]), share_below(pvalues["old"])
    print(
        f"share of p < 0.05: {share:.3f} over {len(pvalues['split'])} tests "
        f"(limit {args.max_share}); negative control {control:.3f} "
        f"(floor {MIN_CONTROL_SHARE})"
    )
    return 0 if share <= args.max_share and control >= MIN_CONTROL_SHARE else 1


if __name__ == "__main__":
    sys.exit(main())
