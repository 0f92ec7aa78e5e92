"""Benchmark for severi: cold recursion, warm CLI cache, exact series kernels.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold-threshold --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes for one workload.  The first
SETUP_RUNS only set up and exit.  Then, in one directory, one worker
sets up and prepares the passes' reference answers, and a last one reads
them and measures; so neither set-up nor preparation counts towards the
measuring worker's peak RSS.  setup_s is the median, over the first
SETUP_RUNS, of the time from starting a worker to it reporting that
set-up is done (interpreter start, import, cache pre-fill), each scaled
by the calibration slices taken just before and after it (see
calibrate.py).  The last line of standard output is one JSON object:
with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer ones.  The exit code
is nonzero, and no result is printed, when the checkout has no src/severi
or a worker fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REF_SLICE_S, slice_seconds
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 9
BUDGET_S = 170  # a run must end within 180 s


class WorkerFailed(RuntimeError):
    pass


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def start_worker(args, work: str, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Start a worker in directory work; return its set-up time and result."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--mode", mode]
    env = {k: v for k, v in os.environ.items()
           if k not in ("SEVERI_CACHE", "PYTHONPATH", "PYTHONOPTIMIZE")}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise WorkerFailed(f"worker did not finish set-up: {line!r}")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        proc.kill()
        proc.wait()
        raise WorkerFailed(str(exc)) from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "severi" / "__init__.py").is_file():
        print(f"error: no severi package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + BUDGET_S
    OUT.mkdir(exist_ok=True)
    setup_runs = 0 if args.trace else SETUP_RUNS
    setups = []  # (seconds, mean time of the calibration slices on either side)
    try:
        before = slice_seconds()
        for _ in range(setup_runs):
            with tempfile.TemporaryDirectory(dir=OUT) as work:
                setup_s, _ = start_worker(args, work, "setup", deadline)
            after = slice_seconds()
            setups.append((setup_s, (before + after) / 2))
            before = after
        with tempfile.TemporaryDirectory(dir=OUT) as work:
            start_worker(args, work, "prepare", deadline)
            _, result = start_worker(args, work, "measure", deadline)
    except WorkerFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print(f"error: {args.workload}: the worker printed no result", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(t * REF_SLICE_S / c for t, c in setups), "s")
    notes = dict(result["notes"], raw_setup_s=[round(t, 4) for t, _ in setups], **environment())
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(notes))
    for error in result["errors"]:
        print(f"# failed: {error}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
