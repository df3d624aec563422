#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end
metric's median and quartile spread (IQR as a share of the median), the
statistic the benchmark's bounds are judged by.

    python3 perfbench/spread.py --workloads suite_flow,query_mix --seeds 1-10

Run from the repository root. Builds once with cargo, then runs the
binary directly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="suite_flow,query_mix")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest], check=True)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "perfbench", "target"))
    binary = os.path.join(ROOT, target, "release", "blasys-perfbench")
    ok = True
    for w in args.workloads.split(","):
        values = {}
        for s in seeds(args.seeds):
            t0 = time.time()
            out = subprocess.run(
                [binary, "--workload", w, "--seed", str(s), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()
            result = json.loads(out[-1])
            print(f"{w} seed {s}: {time.time() - t0:.1f}s wall, correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {out[-2]}", flush=True)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:18} median {med:12.4f}  spread {spread:7.2%}  bound {bound}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
