"""quatpath benchmark: one workload per fresh process, checked outputs.

    python3 perfbench/run.py --workload norm_rep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics setup_s, ops_per_s, op_p50_ms and peak_rss_mb; with
--trace 1 it holds the per-layer metrics of spans/Tracer instead.  The
lines before it give the run's op count, its failures, op_p90_ms with its
sample count and the mean op time per op kind.  --workload all runs every
workload in turn and ends with one JSON object keyed by workload.

setup_s is the median over SETUP_SAMPLES fresh processes of the time from
starting the process to its first op being ready; the last of them goes on
to run the ops.  Exits with a non-zero code, and no JSON, if any process
fails or the run would exceed its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("norm_rep", "ideal_walk", "class_enum")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _run_worker(args, deadline: float) -> tuple[float, bytes]:
    """Run worker.py to its end; return (seconds to "ready", its stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    try:
        ready_at, buf = None, b""
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise BenchError(f"worker {args} passed the time limit")
                if not sel.select(timeout=left):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                if ready_at is None and b"ready\n" in buf:
                    ready_at = time.perf_counter() - t0
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready_at is None:
        raise BenchError(f"worker {args} exited with code {code}")
    return ready_at, buf


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple[dict, list[str]]:
    """The result object for one workload and the report lines before it."""
    base = [workload, str(seed), repr(seconds), "1" if trace else "0"]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_run_worker(base + ["--setup-only"], deadline)[0])
    ready, out = _run_worker(base, deadline)
    setups.append(ready)
    res = json.loads(out.decode().strip().splitlines()[-1])

    ops, failed = res["ops"], res["failed"]
    lines = [f"{workload}: seed {seed}, {ops} ops, {failed} failed"]
    if res["op_p90_s"] is not None:
        lines.append(f"  op_p90_ms {res['op_p90_s'] * 1e3:.3f} over {ops} ops")
    for kind, (count, mean_s) in res["kinds"].items():
        lines.append(f"  {kind:<22} {count:5d} ops  mean {mean_s * 1e3:10.3f} ms")
    if trace:
        lines.append(f"  spans written to {os.path.relpath(res['trace_file'], ROOT)}")
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": (ops - failed) / res["op_total_s"], "unit": "ops/s"},
            "op_p50_ms": {"value": res["op_p50_s"] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": res["correct"], "attempted": ops, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.perf_counter() + TIME_LIMIT_S
            results[name], lines = run_workload(name, args.seed, seconds, bool(args.trace),
                                                deadline)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
