"""Self-tests of the benchmark at tiny sizes.

Run from the root of the repository with

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import worker
from calibrate import Clock
from tracing import Span, Tracer, self_times
from workloads import ColdThreshold, SeriesKernel, WarmCli, cli_queries, series_inputs

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def sev():
    return worker.load_severi()


def run_all(wl, p=0):
    ops = wl.ops(p)
    for op in ops:
        op.check(op.run())
    return ops


def tiny_warm_cli(sev, workdir, seed=3):
    wl = WarmCli(sev, seed, workdir, dmax=8, deltamax=4, reads=4, writes=1)
    wl.setup()
    wl.prepare(2)
    wl.load()
    return wl


def test_cold_threshold_checks_pass(sev, tmp_path):
    run_all(ColdThreshold(sev, 0, tmp_path, delta=3, expected=3))


def test_cold_threshold_wrong_answer_fails(sev, tmp_path):
    op, = ColdThreshold(sev, 0, tmp_path, delta=3, expected=4).ops(0)
    with pytest.raises(AssertionError):
        op.check(op.run())


def test_warm_cli_reads_leave_the_file_and_writes_grow_it(sev, tmp_path):
    wl = tiny_warm_cli(sev, tmp_path)
    ops = wl.ops(0)
    assert [op.kind for op in ops].count("write") == 1 and len(ops) == 5
    for op in ops:
        before = wl.path.read_bytes()
        op.check(op.run())
        after = wl.path.read_bytes()
        assert (after != before) == (op.kind == "write"), op
    assert 0 < wl.layer_extras()["engine.cache.absolute_share"] < 1


def test_warm_cli_never_touches_the_default_cache(sev, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SEVERI_CACHE", str(tmp_path / "elsewhere.cache"))
    work = tmp_path / "work"
    work.mkdir()
    run_all(tiny_warm_cli(sev, work))
    assert not (tmp_path / "severi.cache").exists()
    assert not (tmp_path / "elsewhere.cache").exists()


def test_series_kernel_identities_hold(sev, tmp_path):
    ops = run_all(SeriesKernel(sev, 5, tmp_path, order=8, gyz_order=8, per_kind=1, groups=1))
    assert len(ops) == 6 + 3 + 2


def test_same_seed_gives_the_same_inputs():
    args = (8, 4, 4, 1)
    assert cli_queries(7, 0, *args) == cli_queries(7, 0, *args)
    assert cli_queries(7, 0, *args) != cli_queries(8, 0, *args)
    assert cli_queries(7, 0, *args) != cli_queries(7, 1, *args)
    assert series_inputs(7, 0, 8, 1, 1) == series_inputs(7, 0, 8, 1, 1)
    assert series_inputs(7, 0, 8, 1, 1) != series_inputs(8, 0, 8, 1, 1)


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(1, "b", 1.0, 4.0, 0, 1),
        Span(2, "c", 2.0, 3.0, 1, 1),
        Span(3, "d", 5.0, 9.0, 0, 1),
        Span(0, "a", 0.0, 10.0, None, 1),
        Span(4, "a", 20.0, 22.0, None, 2),
    ]
    assert self_times(spans) == {"a": 3.0 + 2.0, "b": 2.0, "c": 1.0, "d": 4.0}


def test_self_time_leaves_out_excluded_intervals():
    spans = [Span(0, "a", 0.0, 10.0, None, 0), Span(1, "b", 2.0, 6.0, 0, 0)]
    # one slice inside b, one straddling a's start, one across b's end, one outside
    exclude = [(-1.0, 1.0), (3.0, 4.0), (5.0, 7.0), (11.0, 12.0)]
    assert self_times(spans, exclude) == {"a": 10.0 - 1.0 - 5.0, "b": 4.0 - 1.0 - 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "a", 0.0, 10.0, None, 0), Span(1, "b", 1.0, 5.0, 0, 0),
             Span(2, "b", 3.0, 6.0, 0, 0), Span(3, "b", 8.0, 12.0, 0, 0)]
    assert self_times(spans)["a"] == 10.0 - 5.0 - 2.0


def test_tracer_counts_nested_calls_and_restores(sev):
    RatSeries = sev.series.RatSeries
    original = RatSeries.__dict__["__mul__"]
    g = RatSeries([0, 1, 1, 2, 3, 5])
    tracer = Tracer(sev)
    tracer.install()
    tracer.enabled = True
    g.compose(g.revert())
    tracer.uninstall()
    assert RatSeries.__dict__["__mul__"] is original
    assert tracer.calls["series.compose"] == 1 and tracer.calls["series.revert"] == 1
    assert tracer.calls["series.mul"] == 2 * g.order
    selfs = self_times(tracer.spans)
    total = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    assert sum(selfs.values()) == pytest.approx(total)


def test_tail_has_ten_samples_beyond():
    assert worker.tail(list(range(1, 21))) == (10, 50.0, 20)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_traced_run_times_each_pass_both_ways_on_the_same_inputs(sev, tmp_path):
    wl = SeriesKernel(sev, 5, tmp_path, order=6, gyz_order=6, per_kind=1, groups=1)
    RatSeries = sev.series.RatSeries
    original = RatSeries.__dict__["__mul__"]
    run = worker.measure(wl, 2, Tracer(sev), 60)
    assert RatSeries.__dict__["__mul__"] is original
    for p in (0, 1):
        sides = {traced: [s.kind for s in run["samples"] if (s.p, s.traced) == (p, traced)]
                 for traced in (False, True)}
        assert sides[False] == sides[True] == [op.kind for op in wl.ops(p)]
    assert [s.traced for s in run["samples"] if s.kind == "catalog"] == [False, True, True, False]


def test_scaled_time_moves_with_a_slowdown_in_severi(sev):
    """A product made twice as expensive moves scaled and raw times alike.

    Plain and slowed batches alternate, so a change in the machine's load
    falls on both; the ratio of slowed to plain time must then be the
    same, within 10%, before and after scaling.
    """
    RatSeries = sev.series.RatSeries
    mul = RatSeries.__dict__["__mul__"]

    def slowed(self, other):
        mul(self, other)
        return mul(self, other)

    f = RatSeries([0, 1] + [Fraction(i % 5 - 2, i % 3 + 1) for i in range(2, 25)])
    batches = []
    with Clock() as clock:
        for _ in range(5):
            for slow in (False, True):
                RatSeries.__mul__ = RatSeries.__rmul__ = slowed if slow else mul
                try:
                    begin = time.perf_counter()
                    while time.perf_counter() - begin < (0.9 if slow else 0.45):
                        start = time.perf_counter()
                        f.compose(f.revert())
                        batches.append((slow, start, time.perf_counter()))
                finally:
                    RatSeries.__mul__ = RatSeries.__rmul__ = mul

    def ratio(measure):
        per_call = {slow: statistics.fmean(measure(s, e) for k, s, e in batches if k == slow)
                    for slow in (False, True)}
        return per_call[True] / per_call[False]

    raw = ratio(clock.active)
    scaled = ratio(lambda s, e: clock.active(s, e) * clock.scale(s, e))
    assert raw > 1.5
    assert scaled == pytest.approx(raw, rel=0.1)


def test_metric_names_match_the_benchmark_file(sev, tmp_path):
    wl = tiny_warm_cli(sev, tmp_path)
    tracer = Tracer(sev)
    with Clock() as clock:
        run = worker.measure(wl, 1, tracer, 60)
    layers = worker.per_layer(run, tracer, clock, wl.layer_extras())
    with Clock() as clock:
        untraced = worker.measure(wl, 1, None, 60)
    e2e, _ = worker.end_to_end(untraced, clock)
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(e2e) | {"setup_s"} == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert run["failed"] == 0
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(worker.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-threshold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
