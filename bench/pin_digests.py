"""Pin the stdout digest of every census cell into bench/digests.json.

Usage, from the root of a checkout: python3 bench/pin_digests.py

``verify`` prints the same report for any window at least the default, so
one digest per (rank, depth) covers every census job; this script checks
that claim on each widening the benchmark uses before writing.
"""

import json
import sys

from jobs import CENSUS_CELLS, CENSUS_WIDENINGS, DIGESTS_PATH, Job
from run import Runner


def main():
    runner = Runner(".", "pin")
    runner.digests = {}
    digests = {}
    for n, depth in CENSUS_CELLS:
        key = "verify-%d-%d" % (n, depth)
        seen = set()
        for widen in CENSUS_WIDENINGS:
            argv = ("verify", "--rank", str(n), "--depth", str(depth),
                    "--max-boxes", str(n * (depth + 1) + widen))
            row = runner.run(Job(argv))
            if row["exit"] != 0:
                sys.exit("%s exited with %s" % (" ".join(argv), row["exit"]))
            seen.add(row["digest"])
        if len(seen) != 1:
            sys.exit("%s: stdout depends on the window" % key)
        digests[key] = seen.pop()
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
