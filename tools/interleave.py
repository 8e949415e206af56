"""Interleaved A/B of the benchmark's main operations: two trees, one process.

    python tools/interleave.py --parent REV --workload W --rounds N [--seed S]

Extracts commit REV with ``git archive`` into a temporary directory, then
loads REV's ``affconn`` with REV's own ``perfbench/workloads.py``, and this
tree's with its own, into one process: ``affconn`` modules are purged from
``sys.modules`` between the two loads, and each loaded tree keeps its own
(``src/affconn`` imports nothing inside functions).  Both sides build
workload W from seed S, run one untimed warm-up pass of its main operations,
then N rounds.  In each round each side runs one pass of the main
operations, the side that goes first alternating by round.  Every verdict
of both sides is checked, warm-up included; a failed verdict ends the run
with exit 1.

The last line of standard output is one JSON object: per side the median
and quartiles of the pass time in seconds (main operations only, verdicts
untimed), ``ratio`` = change median / parent median, and the rounds the
change won.  Since both sides share one process and alternate, a swing of
the machine's speed reaches both; a separate process per tree sees only
its own.  Pin BLAS threads as ``perfbench/run.py`` does
(``OPENBLAS_NUM_THREADS=1`` and the like) before starting.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> Path:
    """The files of commit ``rev`` of this repository, written under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def purge_affconn() -> dict:
    """Remove every ``affconn`` module from ``sys.modules``; return them."""
    names = [m for m in sys.modules if m == "affconn" or m.startswith("affconn.")]
    return {name: sys.modules.pop(name) for name in names}


def load_tree(root: Path, name: str):
    """``root``'s own ``perfbench/workloads.py``, imported against ``root``'s
    own ``affconn``, as module ``name``."""
    purge_affconn()
    src = str(root / "src")
    sys.path.insert(0, src)
    try:
        affconn = importlib.import_module("affconn")
        if not Path(affconn.__file__).resolve().is_relative_to(Path(src).resolve()):
            raise ImportError(f"affconn imported from {affconn.__file__}, not from {src}")
        spec = importlib.util.spec_from_file_location(
            name, root / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(src)
    return module


class FailedVerdict(Exception):
    pass


def timed_pass(ops) -> float:
    """Seconds spent in ``run`` over ``ops``; raises on a failed verdict."""
    total = 0.0
    for op in ops:
        start = time.perf_counter()
        result = op.run()
        total += time.perf_counter() - start
        failure = op.check(result)
        if failure is not None:
            raise FailedVerdict(failure)
    return total


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def interleave(parent_root: Path, change_root: Path, workload: str, rounds: int,
               seed: int, out_dir: Path) -> dict:
    """Pass times of ``workload``'s main operations, the two trees alternating."""
    sides = {}
    outside = purge_affconn()  # the caller's own affconn, put back below
    try:
        for side, root in (("parent", parent_root), ("change", change_root)):
            module = load_tree(root, f"interleave_workloads_{side}")
            built = module.build(workload, seed, out_dir / side)
            sides[side] = (built, [op for op in built.ops if op.main])
    finally:
        purge_affconn()
        sys.modules.update(outside)
    times: dict = {"parent": [], "change": []}
    try:
        for _, ops in sides.values():
            timed_pass(ops)  # warm-up: plans every jet
        for k in range(rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                times[side].append(timed_pass(sides[side][1]))
    finally:
        for built, _ in sides.values():
            built.close()
    parent, change = (summary(times[side]) for side in ("parent", "change"))
    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "pass_s": {"parent": parent, "change": change},
        "ratio": change["median"] / parent["median"],
        "change_won": sum(c < p for p, c in zip(times["parent"], times["change"])),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=104729)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        parent = extract(args.parent, Path(tmp) / "parent")
        try:
            result = interleave(parent, ROOT, args.workload, args.rounds, args.seed,
                                Path(tmp) / "out")
        except FailedVerdict as exc:
            print(f"failed verdict: {exc}", file=sys.stderr)
            return 1
    print(json.dumps({"parent": args.parent, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
