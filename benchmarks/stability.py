#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json on two sets of k seeds; print each
set's median and quartiles of every end-to-end metric, and whether the two
sets' medians agree within the metric's bound.

    python3 benchmarks/stability.py --k 10
    python3 benchmarks/stability.py --k 10 --seed-base 101

Set 1 uses seeds seed-base .. seed-base+k-1 and runs first on every
workload; set 2 uses the next k seeds and runs after it.  Each run is a
separate `benchmarks/run.py` process of `run_seconds` seconds, started from
the repository root.

Spread is (q3 - q1) / median, with quartiles from
statistics.quantiles(values, n=4).  A metric is steady when its spread is
below a third of its bound in every set.  Two medians agree when the larger
is at most (1 + bound) times the smaller.  The exit code is 0 only when
every run is correct, the failed share is the same in every run, every
metric (setup_s included) is steady and every pair of medians agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, default=10, help="seeds per set (at least 2)")
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()
    if args.k < 2:
        ap.error("--k must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    # results[set][workload] -> list of result objects
    results = [{name: [] for name in names} for _ in range(2)]
    for s, by_name in enumerate(results):
        for name in names:
            for i in range(args.k):
                seed = args.seed_base + s * args.k + i
                start = time.perf_counter()
                res = run_once(name, seed, seconds)
                by_name[name].append(res)
                print(f"set {s + 1} {name} seed={seed}: " + " ".join(
                    f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                    + f" (run took {time.perf_counter() - start:.1f} s)", flush=True)

    ok = True
    for name in names:
        runs = results[0][name] + results[1][name]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"== {name}: k={args.k} seconds={seconds} correct={correct} "
              f"failed share={shares}")
        print(f"   {'metric':12s} {'bound':>6s} {'median 1':>10s} {'spread 1':>9s} "
              f"{'median 2':>10s} {'spread 2':>9s} {'2 / 1':>7s}")
        for metric, bound in bounds.items():
            meds, spreads = [], []
            for by_name in results:
                q1, med, q3 = statistics.quantiles(
                    [r["metrics"][metric]["value"] for r in by_name[name]], n=4)
                meds.append(med)
                spreads.append((q3 - q1) / med)
            steady = all(sp < bound / 3 for sp in spreads)
            agree = max(meds) <= (1 + bound) * min(meds)
            ok &= steady and agree
            print(f"   {metric:12s} {bound:6.2f} {meds[0]:10.4f} {spreads[0]:9.3f} "
                  f"{meds[1]:10.4f} {spreads[1]:9.3f} {meds[1] / meds[0]:7.3f}  "
                  f"{'steady' if steady else 'NOT steady'}, "
                  f"{'agree' if agree else 'DISAGREE'}")
    print("all steady and agreeing" if ok else "NOT all steady and agreeing")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
