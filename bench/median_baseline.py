#!/usr/bin/env python3
"""Folds several bench --json dumps of one bench into a median baseline.

Usage: median_baseline.py RUN1.json RUN2.json ... > BENCH_X.json

Rows are matched across runs by the identity fields check_regression.py uses;
every other numeric field becomes the median of that row's values. A row
missing from any run is an error: a baseline must not ratchet a phase that
does not always run. Take an odd number of runs so each median is a measured
value.

Example (the read-path baseline):
  for i in 1 2 3 4 5 6 7 8 9; do
    ./build/bench/abl_readpath --json=/tmp/rp_$i.json
  done
  ./bench/median_baseline.py /tmp/rp_*.json > BENCH_READPATH.json
"""
import json
import statistics
import sys

from check_regression import IDENTITY_FIELDS, load_rows, row_key


def main():
    paths = sys.argv[1:]
    if not paths:
        sys.exit(__doc__)
    with open(paths[0]) as f:
        doc = json.load(f)
    runs = [{row_key(r): r for r in load_rows(p)[1]} for p in paths]
    rows = []
    for row in doc.get("rows", []):
        key = row_key(row)
        copies = []
        for path, run in zip(paths, runs):
            if key not in run:
                sys.exit("%s: no row %s" % (path, dict(key)))
            copies.append(run[key])
        merged = dict(row)
        for field, value in row.items():
            if field in IDENTITY_FIELDS or isinstance(value, (bool, str)):
                continue
            merged[field] = statistics.median(c[field] for c in copies)
        rows.append(merged)
    doc["rows"] = rows
    print(json.dumps(doc, separators=(",", ":")))


if __name__ == "__main__":
    main()
