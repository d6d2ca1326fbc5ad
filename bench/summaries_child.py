"""One ``summaries`` operation in a fresh process.

Usage: summaries_child.py SPAWNED OUT.npz WIDE.csv TALL.csv

SPAWNED is the parent's ``time.monotonic()`` just before the spawn, so the
set-up time runs from the spawn to the end of ``import frsense``.  The
timed region reads both density matrices, summarizes each and compares
the two summaries.  Results go to OUT.npz for the parent's checks; one
JSON line with the timings goes to stdout.
"""

import json
import sys
import time


def main() -> None:
    spawned = float(sys.argv[1])
    import frsense

    import_s = time.monotonic() - spawned
    import numpy as np
    from inputs import D_COMPONENTS

    out_path, paths = sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    summaries = []
    for path in paths:
        rows = frsense.read_density_matrix(path)
        summaries.append(frsense.summarize_sample(rows, D_COMPONENTS))
    triple = frsense.triple_from_summaries(*summaries)
    region_s = time.perf_counter() - start

    arrays = {"triple": np.array(triple.astuple())}
    for i, s in enumerate(summaries):
        arrays[f"mean{i}"] = s.mean.values
        arrays[f"variance{i}"] = np.array(s.variance)
        arrays[f"omega{i}"] = s.spectrum.omega
    np.savez(out_path, **arrays)
    print(json.dumps({"import_s": import_s, "region_s": region_s}))


if __name__ == "__main__":
    main()
