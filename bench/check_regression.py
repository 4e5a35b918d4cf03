#!/usr/bin/env python3
"""Throughput and media-bytes regression gate over the checked-in bench baselines.

Usage: check_regression.py BASELINE.json CURRENT.json [--threshold 0.15]

Both files are bench_common.h --json dumps ({"bench":..., "rows":[...]}).
Rows are matched across the two files by their identity fields (phase, mode,
index, workload, threads, batch). Every throughput metric present in both
copies of a matched row (mops, kscans) must come in no more than |threshold|
below the baseline, and every media-bytes metric (read_bytes_per_op,
read_bytes_per_scan) no more than |threshold| above it. A baseline row with no
matching current row fails too -- a bench that silently dropped a phase would
otherwise pass on coverage loss.

Extra rows in CURRENT (new phases, new metrics) are fine: baselines only
ratchet what they already measure.
"""
import json
import sys

IDENTITY_FIELDS = ("phase", "mode", "index", "workload", "threads", "batch")
THROUGHPUT_FIELDS = ("mops", "kscans")            # higher is better
BYTES_FIELDS = ("read_bytes_per_op", "read_bytes_per_scan")  # lower is better


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("bench", "?"), doc.get("rows", [])


def row_key(row):
    return tuple((f, row[f]) for f in IDENTITY_FIELDS if f in row)


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    threshold = 0.15
    for a in sys.argv[1:]:
        if a.startswith("--threshold"):
            threshold = float(a.split("=", 1)[1])
    if len(args) != 2:
        sys.exit(__doc__)
    baseline_path, current_path = args
    bench, baseline = load_rows(baseline_path)
    _, current = load_rows(current_path)
    by_key = {row_key(r): r for r in current}

    failures = []
    checked = 0
    for base in baseline:
        key = row_key(base)
        metrics = [f for f in THROUGHPUT_FIELDS + BYTES_FIELDS if f in base]
        if not metrics:
            continue  # summary/ratio rows are not ratcheted
        cur = by_key.get(key)
        if cur is None:
            failures.append("missing row in current run: %s" % dict(key))
            continue
        for m in metrics:
            if m not in cur:
                failures.append("row %s lost metric %r" % (dict(key), m))
                continue
            checked += 1
            if m in BYTES_FIELDS:
                ceiling = base[m] * (1.0 + threshold)
                if cur[m] > ceiling:
                    # A zero baseline (a row that reads no media, e.g. all
                    # cache hits) has a zero ceiling: any byte fails it.
                    rise = 100.0 * (cur[m] / base[m] - 1.0) if base[m] else float("inf")
                    failures.append(
                        "row %s: %s %.3f -> %.3f (+%.1f%%, ceiling %.3f)"
                        % (dict(key), m, base[m], cur[m], rise, ceiling))
                continue
            floor = base[m] * (1.0 - threshold)
            if cur[m] < floor:
                failures.append(
                    "row %s: %s %.3f -> %.3f (-%.1f%%, floor %.3f)"
                    % (dict(key), m, base[m], cur[m],
                       100.0 * (1.0 - cur[m] / base[m]), floor))

    tag = "[check_regression:%s]" % bench
    if failures:
        for f in failures:
            print("%s FAIL %s" % (tag, f))
        sys.exit(1)
    print("%s OK: %d metrics within %.0f%% of baseline"
          % (tag, checked, 100.0 * threshold))


if __name__ == "__main__":
    main()
