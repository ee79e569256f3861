"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Imports quatpath from the src/ directory next to this one, builds the
workload's algebras and inputs, prints "ready", runs and checks every op
and prints one JSON line with the run's figures.  run.py starts it and
times set-up from the outside.  With TRACE 1 the per-layer wrappers are
installed before anything of quatpath runs, and the spans are written to
perfbench/out/ when the run ends.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _import_program():
    sys.path.insert(0, str(SRC))
    import quatpath

    if Path(quatpath.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"quatpath was imported from {quatpath.__file__}, not from {SRC}")


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv[4:]
    _import_program()
    import checks
    import workloads

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.WORKLOADS[workload](seed, workloads.rounds_for(workload, seconds))
    print("ready", flush=True)
    if setup_only:
        return 0

    times, failed, correct = [], 0, True
    per_kind = defaultdict(list)
    for i, op in enumerate(ops):
        if tracer:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op
            out = exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.current_op = -1
        times.append(dt)
        per_kind[op.kind].append(dt)
        if isinstance(out, Exception):
            failed += 1
            print(f"op {i} ({op.kind}) raised {type(out).__name__}: {out}", file=sys.stderr)
            continue
        try:
            op.check(out)
        except checks.CheckError as exc:
            failed += 1
            correct = False
            print(f"op {i} ({op.kind}) failed its check: {exc}", file=sys.stderr)

    result = {
        "ops": len(ops),
        "failed": failed,
        "correct": correct,
        "op_total_s": sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kinds": {k: [len(v), statistics.fmean(v)] for k, v in per_kind.items()},
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["trace_file"] = str(OUT / f"trace-{workload}-seed{seed}.bin")
        tracer.write(Path(result["trace_file"]),
                     {"workload": workload, "seed": seed, "ops": len(ops)})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
