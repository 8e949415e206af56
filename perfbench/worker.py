"""One workload in one fresh process.

Started by ``perfbench/run.py``.  It imports affconn from the checkout's
``src`` directory (never from an installed copy), builds the workload's
inputs from the seed and prints ``ready``; that line marks the end of
set-up.  With ``--setup-only`` it stops there.  Otherwise it runs one
untimed warm-up pass, then whole passes, closed loop, until ``--seconds``
have elapsed, and prints one JSON result line.

With ``--trace 1`` it first runs untraced passes for half of ``--seconds``,
then the same number of passes again under the tracer, and reports
per-layer metrics per traced pass plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


@dataclass
class Record:
    kind: str
    main: bool
    points: int
    seconds: float
    failure: str | None


def import_affconn():
    """Import the checkout's own affconn; fail if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import affconn

    if not Path(affconn.__file__).resolve().is_relative_to(src):
        raise ImportError(f"affconn imported from {affconn.__file__}, not from {src}")


def run_op(op) -> Record:
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        return Record(op.kind, op.main, op.points, time.perf_counter() - start,
                      f"{op.kind} raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    return Record(op.kind, op.main, op.points, elapsed, op.check(result))


def run_passes(workload, records: list, seconds: float | None = None,
               passes: int | None = None, tracer=None) -> list[float]:
    """Run whole passes until ``seconds`` elapsed or ``passes`` are done;
    return the duration of each pass."""
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in workload.ops:
            if tracer is not None:
                tracer.op = len(records)
                if op.kind == "verify_fail":
                    tracer.failing_ops.add(tracer.op)
            records.append(run_op(op))
        now = time.perf_counter()
        durations.append(now - pass_start)
        if (passes is not None and len(durations) >= passes) or (
            seconds is not None and now - start >= seconds
        ):
            return durations


def end_to_end(records: list[Record]) -> dict:
    """End-to-end metrics (all but setup_s, which the parent measures)."""
    main = [r for r in records if r.main]
    main_ms = [r.seconds * 1000.0 for r in main]
    passing = [r.seconds * 1000.0 for r in records if r.kind == "verify_pass"]
    failing = [r.seconds * 1000.0 for r in records if r.kind == "verify_fail"]
    return {
        "points_per_s": sum(r.points for r in main) / sum(r.seconds for r in main),
        "op_p50_ms": statistics.median(main_ms),
        "op_p98_ms": float(np.percentile(main_ms, 98)),
        "verify_pass_ms": statistics.median(passing),
        "verify_fail_ms": statistics.median(failing),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def samples(records: list[Record]) -> dict:
    return {
        "main_ops": sum(1 for r in records if r.main),
        "verify_pass": sum(1 for r in records if r.kind == "verify_pass"),
        "verify_fail": sum(1 for r in records if r.kind == "verify_fail"),
    }


def computed(workload) -> dict:
    main = [op for op in workload.ops if op.main]
    return {
        "computed.points_per_op": sum(op.points for op in main) / len(main),
        "computed.rank5_bytes": max(op.rank5_bytes for op in workload.ops),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_affconn()
    import workloads

    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    print("ready", flush=True)
    try:
        if args.setup_only:
            return 0
        # One untimed pass first, so that every timed pass starts from the
        # same warm caches and heap.  Its verdicts still count.
        warmup: list[Record] = []
        run_passes(workload, warmup, passes=1)
        records: list[Record] = []
        result: dict = {}
        if args.trace:
            from tracing import LAYER_METRICS, Tracer

            untraced = run_passes(workload, records, seconds=args.seconds / 2)
            traced_records: list[Record] = []
            with Tracer(namespaces=[workloads]) as tracer:
                traced = run_passes(workload, traced_records, passes=len(untraced),
                                    tracer=tracer)
            records += traced_records
            layers = tracer.summary(len(traced), sum(traced))
            layers["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
            layers.update(computed(workload))
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
            result["metrics"] = {name: layers[name] for name in LAYER_METRICS}
            result["pass_s"] = {"untraced": untraced, "traced": traced}
        else:
            result["pass_s"] = run_passes(workload, records, seconds=args.seconds)
            result["metrics"] = end_to_end(records)
        checked = warmup + records
        failures = [r.failure for r in checked if r.failure is not None]
        result.update(
            attempted=len(checked),
            failed=len(failures),
            failures=failures[:10],
            samples=samples(records),
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
