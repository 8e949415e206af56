"""Benchmark of the affconn checker: one workload, one result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload runs in fresh worker
processes (``perfbench/worker.py``) with BLAS/OpenMP threads pinned to 1.
Set-up is measured in several processes, from process start to inputs
ready, and ``setup_s`` is their median.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Lines before it record the environment and
the sample counts; the same record is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 5  # set-up samples per run: 4 set-up-only workers + the measuring one
WORKER_TIMEOUT_S = 170.0
PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "op_p50_ms": "ms",
    "op_p98_ms": "ms",
    "verify_pass_ms": "ms",
    "verify_fail_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds from start to ``ready``, rest of
    its standard output).  Kills it if it runs past ``deadline``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)] + args,
        cwd=ROOT,
        env={**os.environ, **PINS},
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or ready_line.strip() != "ready":
        raise WorkerFailed(f"worker {' '.join(args)} exited with code {code}")
    return ready, rest


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pins": PINS,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                ready, _ = run_worker(common + ["--setup-only"], deadline)
                setups.append(ready)
        ready, out = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
        setups.append(ready)
        result = json.loads(out.strip().splitlines()[-1])
    except (WorkerFailed, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if args.trace:
        from tracing import LAYER_METRICS as units
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    record = {
        "environment": environment(args),
        "samples": {"setup": len(setups), **result["samples"]},
        "setup_samples_s": setups,
        "pass_s": result["pass_s"],
        "failures": result["failures"],
    }
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**record, **final}, indent=1))
    print("perfbench record: " + json.dumps(record))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
