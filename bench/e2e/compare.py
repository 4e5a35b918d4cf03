#!/usr/bin/env python3
"""A/B comparison of two checkouts on the end-to-end benchmark.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs N] [--workload NAME]
                                 [--trace 0|1] [--out FILE]

Both sides must hold identical benchmark code: BENCHMARK.json and every file
under bench/e2e. When they differ the script refuses to compare, because a
change that edits the benchmark may not be judged by it. It then runs
PARENT_DIR/bench/e2e/run.py and CHANGE_DIR/bench/e2e/run.py in pairs,
alternating which side runs first; pair i uses seed i on both sides. For
each workload and metric it prints both sides' median and quartiles and a
verdict by this A/B rule:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's own
              interquartile range
  loss        the mirror of gain: the change loses at least 9/10 of the pairs
              and the medians differ by more than the parent's interquartile
              range, but by less than the bound
  REGRESSION  the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json
  unresolved  a side's interquartile range, as a share of its median, exceeds
              the bound, and not every change run beats every parent run
  same        none of the above

Only REGRESSION fails the comparison (exit code 1). Per-layer metrics
(--trace 1) have no bound, so they are only ever "gain", "loss" or "same".
Passing one directory twice is an A/A run: the repeatability study.
"""
import argparse
import hashlib
import json
import math
import pathlib
import statistics
import subprocess
import sys

RUN = pathlib.Path("bench") / "e2e" / "run.py"


def bench_digest(root):
    """Hash of everything that defines the benchmark: BENCHMARK.json and bench/e2e."""
    h = hashlib.sha256()
    files = [root / "BENCHMARK.json"] + sorted((root / "bench" / "e2e").rglob("*"))
    for p in files:
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run(root, workload, seed, trace):
    cmd = [sys.executable, str(root / RUN), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"compare.py: {' '.join(cmd)} exited with {p.returncode}")
    r = json.loads(lines[-1])
    return {k: v["value"] for k, v in r["metrics"].items()}


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / med if med else math.inf if q3 > q1 else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(d > 0 for d in diffs)
    losses = sum(d < 0 for d in diffs)
    ps, cs = stats(parent), stats(change)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    moved = abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]
    better_median = sign * (cs["median"] - ps["median"]) > 0
    if bound is not None and max(ps["spread"], cs["spread"]) > bound and not all_better:
        return "unresolved", wins
    if bound is not None and ps["median"] and -sign * (cs["median"] - ps["median"]) / abs(
            ps["median"]) > bound:
        return "REGRESSION", wins
    if moved and better_median and wins >= math.ceil(0.9 * len(diffs)):
        return "gain", wins
    if moved and not better_median and losses >= math.ceil(0.9 * len(diffs)):
        return "loss", wins
    return "same", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=pathlib.Path, help="write the full report as JSON")
    a = ap.parse_args()

    parent, change = a.parent.resolve(), a.change.resolve()
    if bench_digest(parent) != bench_digest(change):
        sys.exit("compare.py: BENCHMARK.json or bench/e2e differs between the two sides; "
                 "a change that edits the benchmark cannot be judged by it")
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if a.trace else "end_to_end"]
    workloads = a.workload or [w["name"] for w in spec["workloads"]]

    values = {side: {w: {m["name"]: [] for m in metrics} for w in workloads}
              for side in ("parent", "change")}
    for i in range(a.pairs):
        seed = i + 1
        order = [("parent", parent), ("change", change)]
        for side, root in order if i % 2 == 0 else order[::-1]:
            for w in workloads:
                r = run(root, w, seed, a.trace)
                for m in metrics:
                    values[side][w][m["name"]].append(r[m["name"]])
        print(f"# pair {i + 1}/{a.pairs} done (seed {seed})", flush=True)

    report = {"parent": str(a.parent), "change": str(a.change), "pairs": a.pairs,
              "run_seconds": spec["run_seconds"], "trace": a.trace, "workloads": {}}
    print(f"{'workload':20} {'metric':34} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>5}  verdict")
    for w in workloads:
        rows = report["workloads"][w] = {}
        for m in metrics:
            n = m["name"]
            p, c = values["parent"][w][n], values["change"][w][n]
            v, wins = verdict(p, c, m["better"], m.get("bound"))
            ps, cs = stats(p), stats(c)
            rows[n] = {"unit": m["unit"], "bound": m.get("bound"), "parent": ps,
                       "change": cs, "wins": wins, "verdict": v}
            fmt = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
            print(f"{w:20} {n:34} {fmt(ps):>34} {fmt(cs):>34} {wins:>5}  {v}")
    if a.out:
        a.out.write_text(json.dumps(report, indent=1) + "\n")
    if any(r["verdict"] == "REGRESSION" for rows in report["workloads"].values()
           for r in rows.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
