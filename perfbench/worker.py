"""One workload in one fresh process: set up, then measure, then report.

Started by run.py, never by hand.  It imports severi from this
checkout's src/ by absolute path and runs in one of three modes, each in
its own process so that one's memory is not another's peak RSS:

- ``setup``: the workload's set-up (for warm-cli, the cache pre-fill);
- ``prepare``: set-up, then the untimed preparation of the passes'
  inputs and reference answers, written to files in the current
  directory;
- ``measure``: read what ``prepare`` wrote, then run about --seconds
  worth of passes and print one JSON line with its metrics.

Each mode prints ``ready`` when it has set up.  A calibration Clock runs
while passes are measured, and times are scaled to its reference speed.
With --trace 1 every pass runs twice on the same inputs, once untraced
and once traced, so the tracing overhead is the ratio of the two.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"  # span dumps of traced runs
MODULES = ("engine", "series", "forms", "nodepoly", "gyz", "cli")
CAP_FACTOR = 1.25  # no pass starts that would end after this many times --seconds

from calibrate import Clock  # noqa: E402
from tracing import COUNTERS, PROBE, TIMED_LAYERS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_severi(src: Path = SRC) -> SimpleNamespace:
    """Import severi's modules from src, refusing any other copy."""
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"severi.{name}") for name in MODULES}
    package = Path(sys.modules["severi"].__file__).resolve().parent
    if package != (src / "severi").resolve():
        raise ImportError(f"imported severi from {package}, not from {src}")
    return SimpleNamespace(**mods)


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples).  With ten samples or fewer no
    percentile qualifies, and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Sample(NamedTuple):
    kind: str
    seconds: float
    start: float
    end: float
    p: int  # pass number
    traced: bool


def passes_for(wl, seconds: float, trace: bool) -> int:
    """The number of distinct passes a run makes; a traced run makes each twice."""
    return max(1, round(seconds / (wl.PASS_S * (2 if trace else 1))))


def measure(wl, passes: int, tracer: Tracer | None, cap_s: float) -> dict:
    """Run the passes, fewer if they would not end within cap_s.

    With a tracer, each pass runs untraced and then traced, or the other
    way round on odd passes, so that neither side always goes first; the
    functions are patched only while a traced pass runs.
    """
    samples: list[Sample] = []
    attempted = failed = 0
    errors: list[str] = []
    begin = time.perf_counter()
    for p in range(passes):
        sides = (False,) if tracer is None else ((False, True), (True, False))[p % 2]
        for traced in sides:
            if traced:
                tracer.install()
            for op in wl.ops(p):
                attempted += 1
                error = None
                if traced:
                    tracer.op = attempted
                    tracer.enabled = True
                start = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # a raising operation is a failed one
                    error = exc
                end = time.perf_counter()
                if traced:
                    tracer.enabled = False
                samples.append(Sample(op.kind, end - start, start, end, p, traced))
                if error is None:
                    try:
                        op.check(result)
                    except Exception as exc:
                        error = exc
                if error is not None:
                    failed += 1
                    if len(errors) < 5:
                        errors.append(f"{op.kind}: {type(error).__name__}: {error}")
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - begin
        if elapsed * (p + 2) / (p + 1) > cap_s:
            break
    return {"samples": samples, "attempted": attempted, "failed": failed, "errors": errors}


def pass_times(samples: list[Sample]) -> list[float]:
    totals: dict[tuple[int, bool], float] = {}
    for s in samples:
        key = (s.p, s.traced)
        totals[key] = totals.get(key, 0.0) + s.seconds
    return [totals[key] for key in sorted(totals)]


def active(samples: list[Sample], clock: Clock) -> list[Sample]:
    """The samples without the calibration slices that interrupted them."""
    return [s._replace(seconds=clock.active(s.start, s.end)) for s in samples]


def scaled(samples: list[Sample], clock: Clock) -> list[Sample]:
    """The samples' active times, scaled to the reference speed."""
    return [s._replace(seconds=s.seconds * clock.scale(s.start, s.end))
            for s in active(samples, clock)]


def kind_p50_ms(samples: list[Sample], kind: str) -> float:
    times = [s.seconds for s in samples if s.kind == kind]
    return 1000 * statistics.median(times) if times else 0.0


def end_to_end(run: dict, clock: Clock) -> tuple[dict, dict]:
    """The untraced metrics, scaled to the reference speed, and notes on them."""
    samples = scaled(run["samples"], clock)
    times = [s.seconds for s in samples]
    passes = pass_times(samples)
    value, pct, n = tail(times)
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": (len(times) / sum(passes), "1/s"),
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_tail_ms": (1000 * value, "ms"),
    }
    notes = {
        "op_tail_percentile": pct,
        "op_samples": n,
        "pass_s": [round(t, 3) for t in passes],
        "raw_pass_s": [round(t, 3) for t in pass_times(active(run["samples"], clock))],
        "slice_s_median": statistics.median(c for _, _, c in clock.slices),
    }
    for kind in ("read", "write"):
        if any(s.kind == kind for s in samples):
            notes[f"{kind}_p50_ms"] = kind_p50_ms(samples, kind)
    return metrics, notes


def per_layer(run: dict, tracer: Tracer, clock: Clock, extras: dict[str, float]) -> dict:
    """Layer metrics per traced pass, and the traced passes beside the untraced ones.

    Self times are in unscaled seconds, without the calibration slices;
    the pass times, their ratio and the read and write medians (from
    the untraced passes) are scaled to the reference speed.
    """
    traced = [s for s in run["samples"] if s.traced]
    untraced = [s for s in run["samples"] if not s.traced]
    untraced_scaled = scaled(untraced, clock)
    traced_walls = pass_times(scaled(traced, clock))
    untraced_walls = pass_times(untraced_scaled)
    passes = len(traced_walls)
    selfs = self_times(tracer.spans, exclude=[(s, e) for s, e, _ in clock.slices])
    metrics: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls.get(layer, 0) / passes, "count")
        metrics[f"{layer}.self_s"] = (selfs.get(layer, 0.0) / passes, "s")
    for name, unit in COUNTERS.items():
        metrics[name] = (tracer.counters[name] / passes, unit)
    eval_s = selfs.get("engine.eval", 0.0)
    metrics["engine.states_per_s"] = (
        tracer.counters["engine.states_added"] / eval_s if eval_s else 0.0, "1/s")
    saves = tracer.calls.get("engine.cache_save", 0)
    metrics["engine.cache_save.useful_ratio"] = (
        tracer.counters["engine.cache_save.useful"] / saves if saves else 0.0, "ratio")
    metrics["engine.cache.absolute_share"] = (extras.get("engine.cache.absolute_share", 0.0), "ratio")
    for kind in ("read", "write"):
        metrics[f"cli.{kind}_p50_ms"] = (kind_p50_ms(untraced_scaled, kind), "ms")

    layer_s = sum(s for name, s in selfs.items() if name != PROBE)
    metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced_walls), "s")
    metrics["trace.overhead_ratio"] = (sum(traced_walls) / sum(untraced_walls), "ratio")
    metrics["trace.layer_share"] = (layer_s / sum(s.seconds for s in active(traced, clock)), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure about this long: seconds / the workload's PASS_S passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "prepare", "measure"), required=True)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        parser.error("run without -O: the program's __debug__ checks are part of what users run")

    sev = load_severi()
    wl = WORKLOADS[args.workload](sev, args.seed, Path.cwd())
    passes = passes_for(wl, args.seconds, bool(args.trace))
    if args.mode == "measure":
        wl.load()
    else:
        wl.setup()
    print("ready", flush=True)
    if args.mode == "prepare":
        wl.prepare(passes)
    if args.mode != "measure":
        return 0

    tracer = Tracer(sev) if args.trace else None
    with Clock() as clock:
        run = measure(wl, passes, tracer, CAP_FACTOR * args.seconds)
    if tracer is None:
        metrics, notes = end_to_end(run, clock)
    else:
        metrics = per_layer(run, tracer, clock, wl.layer_extras())
        notes = {}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
    print(json.dumps({
        "attempted": run["attempted"],
        "failed": run["failed"],
        "errors": run["errors"],
        "metrics": metrics,
        "notes": notes,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
