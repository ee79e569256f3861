"""Steadiness of the end-to-end metrics across seeds: the evidence for the
bounds in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads norm_rep --seconds 30

Runs run.py once per (seed, workload), seeds first_seed.., each in fresh
processes, and prints for each end-to-end metric of each workload the
median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound.  A spread up to a third of
the bound is "steady".  Every run's figures are saved under
perfbench/out/.
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


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(all_workloads))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True, timeout=600)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["wall_s"] = seed, time.perf_counter() - t0
            runs[w].append(res)
            figures = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"{w} seed {seed}: {res['attempted']} ops, {res['failed']} failed, "
                  f"{res['wall_s']:.1f} s  {figures}", flush=True)

    out = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "runs": runs}, indent=1))

    steady = True
    print(f"\n{'workload':<11} {'metric':<12} {'median':>11} {'Q1':>11} {'Q3':>11} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        if len(runs[w]) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = ("steady" if spread <= m["bound"] / 3
                       else "within bound" if spread <= m["bound"] else "TOO WIDE")
            if m["name"] != "setup_s":
                steady &= spread <= m["bound"] / 3
            print(f"{w:<11} {m['name']:<12} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.3f} {m['bound']:6.2f}  {verdict}")
        print(f"{w:<11} failed share {sorted(shares)}")
    print(f"\nruns saved to {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
