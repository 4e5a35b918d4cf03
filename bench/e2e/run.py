#!/usr/bin/env python3
"""The repository's end-to-end benchmark: builds e2e_bench and runs workloads.

    python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Builds bench/e2e as its own CMake project into build/e2e, then runs each
requested workload as its own process (every workload of BENCHMARK.json, in
its order, when --workload is absent). A run is a fixed stream of ops whose
length is --seconds (default: BENCHMARK.json's run_seconds) times the
workload's nominal rate. Prints e2e_bench's "name value unit" lines and, as
the last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics and writes a Chrome trace to build/e2e/trace/. Results are
also written to build/e2e/results/. Exits non-zero when any op or post-run
check was wrong, or when the build or a run fails.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "e2e"
RECORDS = 1_000_000
SETUPS = 3
SMOKE = {"records": 20_000, "setups": 1, "seconds": 0.1}
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no {path}")
    return json.loads(path.read_text())


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no PACTree sources at {ROOT}")
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "--target", "e2e_bench",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def run_one(workload, seed, trace, scale):
    pools = BUILD / "pools" / workload
    shutil.rmtree(pools, ignore_errors=True)
    pools.mkdir(parents=True)
    cmd = [str(BUILD / "e2e_bench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(scale["seconds"]), "--records", str(scale["records"]),
           "--setups", str(scale["setups"]), "--dir", str(pools)]
    if trace:
        (BUILD / "trace").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(BUILD / "trace" / f"{workload}.seed{seed}.json")]
    # PacTree::Init lets PAC_* variables override options; the benchmark's
    # tree must be the library default.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PAC_")}
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(pools, ignore_errors=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(p.stdout)
        fail(f"{workload} e2e_bench exited with {p.returncode}", 3)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="run length; sets the op count (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: per-layer metrics and a Chrome trace")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run of 20k records and a short op stream")
    a = ap.parse_args()
    if a.seconds <= 0:
        fail("--seconds must be positive")

    names = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]
    build()
    scale = SMOKE if a.smoke else {"records": RECORDS, "setups": SETUPS, "seconds": a.seconds}
    if a.workload:
        workloads = [a.workload]
    results = {}
    for w in workloads:
        r = run_one(w, a.seed, a.trace, scale)
        missing = [n for n in names if n not in r["metrics"]]
        if missing:
            fail(f"{w} did not report {missing}")
        r["metrics"] = {n: r["metrics"][n] for n in names}
        results[w] = r

    if len(results) == 1:
        out = results[workloads[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{n}": v for w, r in results.items()
                           for n, v in r["metrics"].items()}}
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    tag = a.workload or ("smoke" if a.smoke else "all")
    (BUILD / "results" / f"{tag}.seed{a.seed}.trace{a.trace}.json").write_text(
        json.dumps(out, indent=1) + "\n")
    print(json.dumps(out))
    sys.exit(0 if out["correct"] and out["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
