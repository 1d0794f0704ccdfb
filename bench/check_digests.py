#!/usr/bin/env python3
"""Fails unless two BENCH_*.json files carry the same simulated digests.

    python3 bench/check_digests.py COMMITTED.json FRESH.json

Both files are written by a bench driver's --json (fig15_farm writes
BENCH_farm.json, fig16_resilience writes BENCH_resilience.json). Row i of
FRESH must have the same "digest" as row i of COMMITTED, and both files the
same number of rows. Host-time fields are not compared: they vary from host
to host, while every digest is a pure function of the simulated run.
"""

import json
import sys

# Fields that name a row in the farm and resilience grids.
ROW_KEYS = ("app", "policy", "shards", "clients", "offered_rps", "fault_events", "recovery")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        want = json.load(f)["rows"]
    with open(argv[2]) as f:
        got = json.load(f)["rows"]
    mismatches = 0
    for i, (w, g) in enumerate(zip(want, got)):
        if w["digest"] != g["digest"]:
            label = " ".join("%s=%s" % (k, w[k]) for k in ROW_KEYS if k in w)
            print("row %d (%s): digest %s committed, %s fresh" % (i, label, w["digest"],
                                                                g["digest"]))
            mismatches += 1
    print("%s: %d/%d row digests match %s" % (argv[2], min(len(want), len(got)) - mismatches,
                                              len(want), argv[1]))
    if len(got) != len(want):
        print("row count differs: %d committed, %d fresh" % (len(want), len(got)))
        return 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
