"""Spans around calls into severi's public functions, patched from outside.

A span records (id, name, start, end, parent, op): the layer it times,
its interval on the perf_counter clock, the span that was open when it
began, and the benchmark operation it belongs to.  Spans stay in memory
until the run ends.  A layer's self time is its spans' durations minus
the part of each interval that child spans, or calibration slices,
cover.

Functions are patched where each caller looks them up: a module that
did ``from .engine import severi_degree`` holds its own reference, so
that name is patched in that module too.  Spans named ``probe`` time the
benchmark's own bookkeeping (reading a cache file to see whether a save
changed it); they are subtracted from their parent's self time and never
reported.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import os
import time
from typing import Any, Callable, NamedTuple

PROBE = "probe"

# Patched names and the layer each is reported under.  The layers are
# severi's modules, with engine split into evaluation and cache file I/O;
# tangency is left out, as from outside it is one ChState per root query.
SERIES_METHODS = {
    "__mul__": "series.mul",
    "__rmul__": "series.mul",
    "inverse": "series.inverse",
    "exp": "series.exp",
    "log": "series.log",
    "pow_rat": "series.pow_rat",
    "compose": "series.compose",
    "revert": "series.revert",
}
PLAIN_TARGETS = (
    ("forms", "form_catalog", "forms.form_catalog"),
    ("gyz", "form_catalog", "forms.form_catalog"),
    ("nodepoly", "fit_node_polynomial", "nodepoly.fit"),
    ("nodepoly", "threshold_report", "nodepoly.threshold_report"),
    ("nodepoly", "interpolate", "nodepoly.interpolate"),
    ("gyz", "plane_generating_series", "gyz.plane_series"),
    ("gyz", "extract_b_series", "gyz.extract"),
    ("gyz", "gyz_predict", "gyz.predict"),
    ("cli", "main", "cli.main"),
)
EVAL_TARGETS = (
    ("engine", "relative_severi"),
    ("engine", "severi_degree"),
    ("engine", "severi_table"),
    ("nodepoly", "severi_degree"),
    ("gyz", "severi_degree"),
)
EVAL = "engine.eval"
CACHE_LOAD = "engine.cache_load"
CACHE_SAVE = "engine.cache_save"

TIMED_LAYERS = (
    EVAL,
    CACHE_LOAD,
    CACHE_SAVE,
    *sorted(set(SERIES_METHODS.values())),
    *dict.fromkeys(name for _, _, name in PLAIN_TARGETS),
)

# work counters and their units; root_hits/root_misses are CacheStore's
# hits/misses, which count root lookups only
COUNTERS = {
    "engine.states_added": "count",
    "engine.root_hits": "count",
    "engine.root_misses": "count",
    "engine.cache_load.bytes": "bytes",
    "engine.cache_load.entries": "count",
    "engine.cache_save.bytes": "bytes",
    "engine.cache_save.useful": "count",
}


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def self_times(spans: list[Span], exclude: list[tuple[float, float]] = ()) -> dict[str, float]:
    """Total self time per span name: duration minus the union of children.

    Intervals in exclude (sorted and disjoint, such as the calibration
    slices) count as children of every span they overlap.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    starts = [lo for lo, _ in exclude]
    out: dict[str, float] = {}
    for s in spans:
        first = max(0, bisect.bisect_right(starts, s.start) - 1)
        last = bisect.bisect_left(starts, s.end)
        covered = 0.0
        reach = s.start
        for lo, hi in sorted([*children.get(s.sid, ()), *exclude[first:last]]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
    return out


class Tracer:
    """Patches severi's public functions to record spans and work counters."""

    def __init__(self, sev: Any):
        self.sev = sev
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.op = 0
        self.enabled = False
        self._stack: list[int] = []
        self._next_id = 0
        self._eval_depth = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))
            if name != PROBE:
                self.calls[name] = self.calls.get(name, 0) + 1

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        rs = self.sev.series.RatSeries
        for attr, name in SERIES_METHODS.items():
            self._patch(rs, attr, self._plain(name, rs.__dict__[attr]))
        for mod, attr, name in PLAIN_TARGETS:
            owner = getattr(self.sev, mod)
            self._patch(owner, attr, self._plain(name, getattr(owner, attr)))
        for mod, attr in EVAL_TARGETS:
            owner = getattr(self.sev, mod)
            self._patch(owner, attr, self._eval(getattr(owner, attr)))
        engine = self.sev.engine
        self._patch(engine, "cache_load", self._cache_load(engine.cache_load))
        self._patch(engine, "cache_save", self._cache_save(engine.cache_save))

    def uninstall(self) -> None:
        self.enabled = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _plain(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.timed(name, fn, *args, **kwargs)

        return wrapper

    def _eval(self, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        default_cache = self.sev.engine.default_cache

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if self._eval_depth:
                # the outermost evaluation counts the store's growth
                return self.timed(EVAL, fn, *args, **kwargs)
            store = signature.bind(*args, **kwargs).arguments.get("cache")
            if store is None:
                store = default_cache()
            size, hits, misses = len(store), store.hits, store.misses
            self._eval_depth += 1
            try:
                return self.timed(EVAL, fn, *args, **kwargs)
            finally:
                self._eval_depth -= 1
                c = self.counters
                c["engine.states_added"] += len(store) - size
                c["engine.root_hits"] += store.hits - hits
                c["engine.root_misses"] += store.misses - misses

        return wrapper

    def _cache_load(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(path):
            if not self.enabled:
                return fn(path)
            self.counters["engine.cache_load.bytes"] += os.path.getsize(path)
            store = self.timed(CACHE_LOAD, fn, path)
            self.counters["engine.cache_load.entries"] += len(store)
            return store

        return wrapper

    def _cache_save(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(cache, path):
            if not self.enabled:
                return fn(cache, path)
            before = self.timed(PROBE, _read_or_none, path)
            result = self.timed(CACHE_SAVE, fn, cache, path)
            after = self.timed(PROBE, _read_or_none, path)
            self.counters["engine.cache_save.bytes"] += len(after or b"")
            self.counters["engine.cache_save.useful"] += before != after
            return result

        return wrapper


def _read_or_none(path) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None
